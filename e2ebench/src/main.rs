//! End-to-end and per-layer benchmark of the BeCAUSe reproduction.
//!
//! ```text
//! e2ebench --workload <rfd_small|rov_small|multi_interval_faults>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Builds the workload's inputs from the seed, then runs the workload
//! back to back for about `S` seconds (at least once). Untraced runs go
//! through the public entry points and report the end-to-end metrics;
//! `--trace 1` adds one traced replay with a span around every layer
//! call, writes it as a Chrome trace under `.bench_out/`, and reports
//! the per-layer metrics. The last stdout line is the result object.
//! See `README.md` in this directory for the metric map.

mod traced;
mod tracer;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use traced::Metrics;
use tracer::Tracer;
use workloads::{run_untraced, Inputs, Outcome, Run, Workload};

/// An untraced run repeats the set-up at least `SETUP_MIN_REPS` times
/// and until `SETUP_MIN_SECS` have passed, and again after every run for
/// `SETUP_SLICE_SECS` (at least `SETUP_SLICE_REPS` times); `setup_s` is
/// the median of all of them. The host's speed drifts by tens of percent
/// over minutes, so set-up is sampled across the whole window, like
/// `wall_s`, rather than only in its first half second.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MIN_SECS: f64 = 0.5;
const SETUP_SLICE_REPS: usize = 3;
const SETUP_SLICE_SECS: f64 = 0.02;

/// Threads a workload may keep busy: the two MCMC chains of a kernel
/// run side by side; everything else runs on the main thread.
const THREAD_BUDGET: usize = 2;

/// The layers spans are attributed to, by span-name prefix.
const LAYERS: [&str; 8] = [
    "topology",
    "bgpsim",
    "collector",
    "signature",
    "because",
    "heuristics",
    "experiments",
    "rov",
];

/// End-to-end metrics, reported by untraced runs.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by traced runs. A metric that does not
/// apply to the workload reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("topology.generate_s", "s"),
    ("experiments.deployment_s", "s"),
    ("bgpsim.instantiate_s", "s"),
    ("bgpsim.simulate_s", "s"),
    ("bgpsim.burst_s", "s"),
    ("bgpsim.break_s", "s"),
    ("bgpsim.drain_s", "s"),
    ("bgpsim.events", "count"),
    ("bgpsim.burst_events", "count"),
    ("bgpsim.break_events", "count"),
    ("bgpsim.drain_events", "count"),
    ("bgpsim.events_per_s", "1/s"),
    ("bgpsim.updates_delivered", "count"),
    ("bgpsim.updates_per_s", "1/s"),
    ("bgpsim.mrai_deferrals", "count"),
    ("bgpsim.rfd_suppressions", "count"),
    ("bgpsim.queue_depth_max", "count"),
    ("bgpsim.tap_records", "count"),
    ("collector.process_s", "s"),
    ("collector.records", "count"),
    ("collector.records_per_s", "1/s"),
    ("signature.label_s", "s"),
    ("signature.schedules", "count"),
    ("signature.paths", "count"),
    ("signature.rfd_paths", "count"),
    ("signature.unobservable_paths", "count"),
    ("signature.records_scanned_computed", "count"),
    ("experiments.report_s", "s"),
    ("because.infer_s", "s"),
    ("because.path_data_s", "s"),
    ("because.nodes", "count"),
    ("because.paths", "count"),
    ("because.observations", "count"),
    ("because.mh_s", "s"),
    ("because.hmc_s", "s"),
    ("because.mh.ess_bulk_per_s", "1/s"),
    ("because.hmc.ess_bulk_per_s", "1/s"),
    ("because.mh.evals_per_s", "1/s"),
    ("because.hmc.grad_evals_per_s", "1/s"),
    ("because.mh.accept_rate", "ratio"),
    ("because.hmc.accept_rate", "ratio"),
    ("because.hmc.divergences", "count"),
    ("because.summarize_s", "s"),
    ("because.pinpoint_s", "s"),
    ("because.diagnostics_s", "s"),
    ("because.ess_bulk_per_s", "1/s"),
    ("because.max_rank_r_hat", "ratio"),
    ("heuristics.evaluate_s", "s"),
    ("experiments.oracle_s", "s"),
    ("experiments.precision", "ratio"),
    ("experiments.recall", "ratio"),
    ("rov.build_s", "s"),
    ("rov.evaluate_s", "s"),
    ("topology.self_s", "s"),
    ("bgpsim.self_s", "s"),
    ("collector.self_s", "s"),
    ("signature.self_s", "s"),
    ("because.self_s", "s"),
    ("heuristics.self_s", "s"),
    ("experiments.self_s", "s"),
    ("rov.self_s", "s"),
    ("topology.share", "ratio"),
    ("bgpsim.share", "ratio"),
    ("collector.share", "ratio"),
    ("signature.share", "ratio"),
    ("because.share", "ratio"),
    ("heuristics.share", "ratio"),
    ("experiments.share", "ratio"),
    ("rov.share", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.top_level_coverage", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 2020;
        let mut seconds = 40.0;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let (outcomes, metrics, walls) = if args.trace {
        traced_run(&args, start)
    } else {
        untraced_run(&args, start)
    };

    // Every outcome must pass the run-level checks and match the first
    // outcome's digest: runs of one seed, traced or not, agree exactly.
    let reference = &outcomes[0];
    let failed = outcomes
        .iter()
        .filter(|o| o.failed() || o.digest != reference.digest)
        .count();
    let unconverged = outcomes.iter().filter(|o| o.unconverged()).count();

    println!("{}", run_line(&args, reference, unconverged, &walls));
    let catalogue: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    let mut line = String::new();
    write!(
        line,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0,
        outcomes.len()
    )
    .expect("writing to a String");
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = metrics.get(*name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        )
        .expect("writing to a String");
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}

/// Repeated set-up, then untraced runs for the time budget.
fn untraced_run(args: &Args, start: Instant) -> (Vec<Outcome>, Metrics, Vec<f64>) {
    let mut setup_secs = Vec::new();
    let mut time_setup = |min_reps: usize, min_secs: f64| {
        let slice = Instant::now();
        let mut reps = 0;
        loop {
            let t = Instant::now();
            let built = std::hint::black_box(Inputs::build(args.workload, args.seed));
            setup_secs.push(t.elapsed().as_secs_f64());
            reps += 1;
            if reps >= min_reps && slice.elapsed().as_secs_f64() >= min_secs {
                return built;
            }
        }
    };
    let inputs = time_setup(SETUP_MIN_REPS, SETUP_MIN_SECS);
    let budget = args.seconds - start.elapsed().as_secs_f64();
    let (runs, first_peak_mb) = repeat_within(budget, &inputs, || {
        time_setup(SETUP_SLICE_REPS, SETUP_SLICE_SECS);
    });
    let mut metrics = Metrics::new();
    metrics.insert("setup_s".into(), median(setup_secs));
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_secs).collect();
    metrics.insert("wall_s".into(), median(walls.clone()));
    metrics.insert("peak_rss_mb".into(), first_peak_mb);
    report_quality(&runs);
    (
        runs.into_iter().map(|r| r.outcome).collect(),
        metrics,
        walls,
    )
}

/// One traced replay, then untraced runs for the rest of the budget.
fn traced_run(args: &Args, start: Instant) -> (Vec<Outcome>, Metrics, Vec<f64>) {
    let mut tracer = Tracer::new();
    let inputs = match args.workload {
        Workload::RovSmall => tracer.span("rov.build", |_| Inputs::build(args.workload, args.seed)),
        w => Inputs::build(w, args.seed),
    };
    let setup_spans = tracer.spans().len();
    let mut metrics = Metrics::new();
    let replay_start = Instant::now();
    let outcome = traced::replay(&mut tracer, &inputs, &mut metrics);
    let traced_wall = replay_start.elapsed().as_secs_f64();

    let budget = args.seconds - start.elapsed().as_secs_f64();
    let (runs, _) = repeat_within(budget, &inputs, || {});
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_secs).collect();
    let untraced_wall = median(walls.clone());

    for span in tracer.spans() {
        *metrics.entry(format!("{}_s", span.name)).or_default() += span.secs;
    }
    let replay_spans = &tracer.spans()[setup_spans..];
    for layer in LAYERS {
        let self_secs: f64 = replay_spans
            .iter()
            .filter(|s| s.layer() == layer)
            .fold(0.0, |acc, s| acc + s.self_secs);
        metrics.insert(format!("{layer}.self_s"), self_secs);
        metrics.insert(format!("{layer}.share"), self_secs / traced_wall);
    }
    let top_level: f64 = replay_spans
        .iter()
        .filter(|s| s.depth == 0)
        .fold(0.0, |acc, s| acc + s.secs);
    let rate = |m: &Metrics, count: &str, secs: &str| {
        m.get(count).copied().unwrap_or(0.0) / m.get(secs).copied().unwrap_or(f64::NAN)
    };
    for (name, value) in [
        (
            "bgpsim.events_per_s",
            rate(&metrics, "bgpsim.events", "bgpsim.simulate_s"),
        ),
        (
            "bgpsim.updates_per_s",
            rate(&metrics, "bgpsim.updates_delivered", "bgpsim.simulate_s"),
        ),
        (
            "collector.records_per_s",
            rate(&metrics, "collector.records", "collector.process_s"),
        ),
        ("trace.wall_s", traced_wall),
        ("trace.untraced_wall_s", untraced_wall),
        (
            "trace.overhead_share",
            (traced_wall - untraced_wall) / untraced_wall,
        ),
        ("trace.top_level_coverage", top_level / traced_wall),
    ] {
        // A rate over an absent layer is 0, not NaN.
        metrics.insert(name.to_string(), if value.is_nan() { 0.0 } else { value });
    }

    let path = trace_path(args);
    match write_trace(&tracer, &path) {
        Ok(()) => eprintln!("e2ebench: trace written to {}", path.display()),
        Err(e) => eprintln!("e2ebench: could not write {}: {e}", path.display()),
    }
    report_quality(&runs);
    let mut outcomes = vec![outcome];
    outcomes.extend(runs.into_iter().map(|r| r.outcome));
    (outcomes, metrics, walls)
}

/// Untraced runs back to back while the next one is expected to end
/// within `budget` seconds; always at least one. `between_runs` is
/// called after each run but the last. Also returns the peak RSS after
/// the first run: what a user who regenerates the result once sees.
/// Each later run starts new chain threads, and which allocator arena
/// glibc hands each one varies from run to run; over a whole window that
/// moved `rov_small`'s peak between 16 and 19 MiB.
fn repeat_within(budget: f64, inputs: &Inputs, mut between_runs: impl FnMut()) -> (Vec<Run>, f64) {
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut first_peak_mb = f64::NAN;
    loop {
        let run = run_untraced(inputs);
        let last = run.wall_secs;
        runs.push(run);
        if runs.len() == 1 {
            first_peak_mb = peak_rss_mb();
        }
        if start.elapsed().as_secs_f64() + last > budget {
            return (runs, first_peak_mb);
        }
        between_runs();
    }
}

/// Precision, recall and sampler efficiency of the untraced runs, on
/// stderr: they depend on the seed by design, so they are checked and
/// shown but not compared between commits.
fn report_quality(runs: &[Run]) {
    for run in runs {
        let o = &run.outcome;
        if let (Some((p, r)), Some(ess), Some(secs)) =
            (o.precision_recall, o.min_ess_bulk, run.infer_secs)
        {
            eprintln!(
                "e2ebench: precision {p:.3} recall {r:.3} min_ess_bulk {ess:.1} \
                 ess_bulk_per_s {:.2} max_rank_r_hat {:.4}",
                ess / secs,
                o.max_rank_r_hat.unwrap_or(f64::NAN)
            );
        }
    }
}

/// The run-facts line printed before the result: host, seed, commit,
/// the result digest, runs whose chains did not converge, and each
/// untraced run's wall time.
fn run_line(args: &Args, outcome: &Outcome, unconverged: usize, walls: &[f64]) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let walls: Vec<String> = walls.iter().map(|&w| json_number(w)).collect();
    format!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"scenario_seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {parallelism}, \
         \"thread_budget\": {THREAD_BUDGET}, \"commit\": \"{}\", \"digest\": \"{:016x}\", \
         \"labels\": {}, \"unconverged\": {unconverged}, \"wall_s_runs\": [{}]}}}}",
        args.workload.name(),
        args.seed,
        workloads::SCENARIO_SEED,
        json_number(args.seconds),
        u8::from(args.trace),
        commit(),
        outcome.digest,
        outcome.labels,
        walls.join(", "),
    )
}

/// The checkout's commit, read from `.git`, or `unknown` outside a
/// git checkout.
fn commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let git = Path::new(".git");
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&git.join(reference))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn trace_path(args: &Args) -> PathBuf {
    Path::new(".bench_out").join(format!(
        "e2ebench-{}-{}.trace.json",
        args.workload.name(),
        args.seed
    ))
}

fn write_trace(tracer: &Tracer, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    tracer.buffer().write_chrome_json(path)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// A JSON number, or `null` for a non-finite value.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}
