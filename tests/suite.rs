//! Every figure rendered through one shared `Suite` prints exactly what
//! it prints through a suite of its own, and the shared suite runs the
//! default 1-minute campaign and its inference once.
//!
//! A figure that mutated state the suite shares (the memoised campaign
//! or inference) would change the output of every figure after it, and
//! fail the byte comparison.

use experiments::figures::ALL;
use experiments::suite::{Flags, Scale, Suite};

fn suite() -> Suite {
    Suite::new("suite_test", Scale::Tiny, 2020, Flags::default())
}

fn render(figure: &experiments::figures::Figure, suite: &mut Suite) -> String {
    let mut out = Vec::new();
    figure.write(suite, &mut out).expect("render into memory");
    String::from_utf8(out).expect("figures print UTF-8")
}

#[test]
fn one_suite_renders_every_figure_as_its_own_suite_does() {
    let mut shared = suite();
    for figure in &ALL {
        let alone = render(figure, &mut suite());
        assert_eq!(render(figure, &mut shared), alone, "{}", figure.name);
    }

    let report = shared.report_mut();
    let count = |name: &str| report.sections.iter().filter(|s| s.name == name).count();
    // One unprefixed campaign (the shared 1-minute one) and one
    // unprefixed inference across all 14 figures. fig12's other
    // intervals and fig13's campaigns are prefixed.
    assert_eq!(count("pipeline"), 1, "the 1-minute campaign ran once");
    assert_eq!(count("because.hmc"), 1, "the 1-minute inference ran once");
    for mins in [2, 3, 5, 10, 15] {
        assert_eq!(count(&format!("interval_{mins}.pipeline")), 1);
        assert_eq!(count(&format!("interval_{mins}.because.hmc")), 1);
    }
    assert_eq!(count("fig13.interval_1.pipeline"), 1);
    assert_eq!(count("fig13.interval_3.pipeline"), 1);
}

/// `--faults` reaches fig05's hand-built network through the same
/// measurement as the default campaign: the report holds one `faults`
/// section that counted injected faults and the labels, and no campaign
/// ran.
#[test]
fn fig05_under_the_fault_drill_reports_its_faults() {
    let flags = Flags::parse(&["--faults", "drill"]).expect("valid flags");
    let mut suite = Suite::new("suite_test", Scale::Tiny, 2020, flags);
    let fig05 = ALL
        .iter()
        .find(|f| f.name == "fig05_signature")
        .expect("fig05 is registered");
    render(fig05, &mut suite);

    let report = suite.report_mut();
    let faults: Vec<_> = report
        .sections
        .iter()
        .filter(|s| s.name == "faults")
        .collect();
    assert_eq!(faults.len(), 1, "one faults section");
    assert!(
        matches!(faults[0].get("total"), Some(obs::Value::Counter(n)) if *n > 0),
        "the drill injected nothing: {:?}",
        faults[0]
    );
    assert!(report.get("signature.labels").is_some());
    assert!(report.get("pipeline").is_none(), "fig05 runs no campaign");
}

/// `--dash` traces the chains' phases its waterfall draws and nothing
/// of the simulator; `--trace` records the simulator's sim-time events
/// too. Checked on fig05, which measures one hand-built network and
/// runs no inference. Nothing is written: the suite is never emitted.
#[test]
fn only_trace_records_the_simulator() {
    let fig05 = ALL
        .iter()
        .find(|f| f.name == "fig05_signature")
        .expect("fig05 is registered");
    for (flag, sim_traced) in [("--dash", false), ("--trace", true)] {
        let flags = Flags::parse(&[flag, "unwritten.out"]).expect("valid flags");
        let mut suite = Suite::new("suite_test", Scale::Tiny, 2020, flags);
        render(fig05, &mut suite);
        let report = suite.report_mut();
        assert_eq!(report.get("bgpsim.trace").is_some(), sim_traced, "{flag}");
        assert!(report.get("bgpsim.network").is_some(), "{flag}: fig05 ran");
    }
}

/// An unknown `REPRO_SCALE` or an unparsable `REPRO_SEED` is a usage
/// error (exit code 2 and a message naming the variable), not a silent
/// run at the default. Checked in a child run of this test binary, which
/// builds its suite from the environment.
#[test]
fn a_bad_scale_or_seed_exits_with_usage() {
    const CHILD: &str = "SUITE_TEST_FROM_ENV";
    if std::env::var_os(CHILD).is_some() {
        Suite::from_env("suite_test", Flags::default());
        return;
    }
    assert_eq!(Scale::parse("tinyy"), None);
    for scale in [Scale::Tiny, Scale::Small, Scale::Paper] {
        assert_eq!(Scale::parse(&scale.to_string()), Some(scale));
    }
    for (key, value, other) in [
        ("REPRO_SCALE", "tinyy", "REPRO_SEED"),
        ("REPRO_SEED", "twenty", "REPRO_SCALE"),
    ] {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "a_bad_scale_or_seed_exits_with_usage",
                "--nocapture",
            ])
            .env(CHILD, "1")
            .env(key, value)
            .env_remove(other)
            .output()
            .expect("run the test binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{key}={value}: {stderr}");
        assert!(
            stderr.contains(&format!("invalid {key}=\"{value}\"")),
            "{stderr}"
        );
    }
}

/// A fault rate outside [0, 1] is a usage error of the figure binaries:
/// `--faults loss=20` (meant as 20 %) exits 2 naming the key instead of
/// losing every record. Checked in a child run of this test binary,
/// which renders fig05 as its binary would with those arguments.
#[test]
fn a_fault_rate_outside_the_unit_interval_exits_with_usage() {
    const CHILD: &str = "SUITE_TEST_FIGURE_ARGS";
    if let Some(args) = std::env::var_os(CHILD) {
        let args: Vec<String> = args
            .to_str()
            .expect("UTF-8 arguments")
            .split(' ')
            .map(String::from)
            .collect();
        experiments::figures::main_with_args("fig05_signature", &args);
        return;
    }
    for (args, code) in [("--faults loss=20", 2), ("--faults loss=0.2", 0)] {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "a_fault_rate_outside_the_unit_interval_exits_with_usage",
                "--nocapture",
            ])
            .env(CHILD, args)
            .env("REPRO_SCALE", "tiny")
            .env_remove("REPRO_SEED")
            .output()
            .expect("run the test binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args}: {stderr}");
        if code == 2 {
            assert!(stderr.contains("loss=\"20\""), "{stderr}");
        }
    }
}
