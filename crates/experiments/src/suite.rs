//! The one run context every figure and table renders from.
//!
//! A [`Suite`] reads the scale, the seed and the flags once, collects
//! one run report, and runs the default 1-minute beacon campaign and
//! its inference at most once, for whichever figure asks first. A
//! figure binary renders its figure through a fresh suite; `repro_all`
//! renders all of them through one (see [`crate::figures`]).
//!
//! Two environment variables keep runs scriptable without an
//! argument-parsing dependency ([`Suite::from_env`]; any other value is
//! a usage error, exit code 2):
//!
//! * `REPRO_SEED`  — experiment seed, a `u64` (default 2020, the
//!   paper's year);
//! * `REPRO_SCALE` — `tiny` | `small` | `paper` (default `small`):
//!   topology size and campaign length. `paper` approaches the real
//!   study's scale and takes correspondingly longer.
//!
//! The figure binaries understand these flags ([`Flags::from_args`]);
//! any other argument, a flag missing its value or a value that does not
//! parse is a usage error, exit code 2. All are off by default, and a run
//! without them prints exactly what a build without them would:
//!
//! * `--report-json <path>` (or `--report-json=<path>`) — write the run
//!   report as JSON to `path`; the special path `-` streams the JSON to
//!   stdout after the figure/table output;
//! * `--report` — print the run report as text to stdout after the
//!   figure/table output;
//! * `--trace <path>` — record RFD/MRAI simulator activity and
//!   per-chain sampler progress, and write a Chrome trace-event file
//!   (open in Perfetto / `about:tracing`) to `path`;
//! * `--progress [every-n]` — stream per-chain sampler diagnostics
//!   (accept rate, and while sampling the chain's rank-R̂ and bulk ESS,
//!   the estimators of the run report) to stderr every `n` iterations
//!   (default 200) and at each chain's last draw;
//! * `--serve <addr>` — serve live diagnostics over HTTP while the run
//!   executes: `GET /metrics` (Prometheus text exposition, with the
//!   per-chain `repro_max_rank_r_hat` and `repro_min_ess_bulk` gauges),
//!   `/progress` (per-chain table), `/report` (run report JSON so far),
//!   `/healthz`.
//!   `REPRO_SERVE_LINGER_SECS=<n>` keeps the endpoint up `n` seconds
//!   after the run finishes, for scrapes;
//! * `--dash <path>` — write a self-contained HTML diagnostics dashboard
//!   (trace plots with divergence ticks, marginal histograms with HPDI
//!   bands, rank-R̂/ESS table, E-BFMI, failed chains, fault/coverage
//!   sections, phase waterfall) when the run finishes; it traces the
//!   chains' phases for the waterfall, not the simulator;
//! * `--faults <spec>` — inject deterministic measurement-plane faults;
//!   `<spec>` is `key=value,…` per [`FaultSpec::parse`], or the word
//!   `drill` for a representative mix. Injected faults are tallied in
//!   the `faults` report section and coverage loss in `coverage`;
//! * `--checkpoint <base>` — write per-chain MCMC checkpoints to
//!   `<base>.<kernel>.<k>` every `--checkpoint-every` draws (default
//!   100);
//! * `--resume <base>` — resume each chain from its checkpoint; resumed
//!   runs finish draw-for-draw identical to an uninterrupted run. Missing
//!   files start fresh; corrupt files poison only their chain (reported
//!   in `because.supervisor`);
//! * `--timeout-secs <n>` — per-chain wall-clock watchdog; a timed-out
//!   sampling chain checkpoints first;
//! * `REPRO_KILL_AFTER_DRAWS` — test hook: checkpoint then exit with
//!   code 86 after N draws, simulating an external kill.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Duration;

use because::chain::ChainConfig;
use because::{Analysis, AnalysisConfig, Prior, SupervisorConfig};
use heuristics::HeuristicConfig;
use netsim::faults::FaultSpec;
use topology::TopologyConfig;

use crate::infer::{infer_with_supervision, InferenceOutput};
use crate::pipeline::{run_campaign, CampaignOutput, ExperimentConfig};

/// The flags of a figure binary; the default is every flag off.
#[derive(Debug, Default)]
pub struct Flags {
    report_json: Option<PathBuf>,
    report: bool,
    trace: Option<PathBuf>,
    dash: Option<PathBuf>,
    serve: Option<String>,
    progress_every: usize,
    faults: Option<FaultSpec>,
    /// Untagged checkpoint/resume base paths, cadence, timeout, kill hook.
    supervisor: SupervisorConfig,
}

impl Flags {
    /// Parse a binary's arguments (and `REPRO_KILL_AFTER_DRAWS`). A
    /// usage error (see [`Flags::parse`]) is reported and exits 2 rather
    /// than silently running without the flag.
    pub fn from_args(args: &[String]) -> Flags {
        let mut flags = Flags::parse(args).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        flags.supervisor.kill_after_draws = std::env::var("REPRO_KILL_AFTER_DRAWS")
            .ok()
            .and_then(|s| s.parse().ok());
        flags
    }

    /// Parse figure-binary arguments. A valued flag is `--<name> <v>` or
    /// `--<name>=<v>`; `--progress` takes an optional count. An unknown
    /// argument, a valued flag without its value, a number that does not
    /// parse and a malformed `--faults` spec are errors, each named in
    /// the message.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Flags, String> {
        let mut flags = Flags::default();
        flags.supervisor.checkpoint_every = 100;
        let mut args = args.iter().map(AsRef::as_ref).peekable();
        while let Some(arg) = args.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) if name.starts_with("--") => (name, Some(value)),
                _ => (arg, None),
            };
            let mut value = || match inline {
                Some(value) => Ok(value.to_string()),
                None => args
                    .next_if(|value| !value.starts_with("--"))
                    .map(str::to_string)
                    .ok_or_else(|| format!("{name} needs a value")),
            };
            match name {
                "--report" if inline.is_none() => flags.report = true,
                "--report-json" => flags.report_json = Some(value()?.into()),
                "--trace" => flags.trace = Some(value()?.into()),
                "--dash" => flags.dash = Some(value()?.into()),
                "--serve" => flags.serve = Some(value()?),
                "--faults" => {
                    let spec = FaultSpec::parse(&value()?)
                        .map_err(|e| format!("invalid --faults spec: {e}"))?;
                    flags.faults = Some(spec);
                }
                "--checkpoint" => flags.supervisor.checkpoint = Some(value()?.into()),
                "--resume" => flags.supervisor.resume = Some(value()?.into()),
                "--checkpoint-every" => {
                    flags.supervisor.checkpoint_every = number(name, &value()?)?;
                }
                "--timeout-secs" => {
                    let secs = number(name, &value()?)?;
                    flags.supervisor.wall_clock_timeout = Some(Duration::from_secs(secs));
                }
                // `--progress [every-n]`: the count is optional.
                "--progress" => {
                    let every = match inline {
                        Some(n) => number(name, n)?,
                        None => args
                            .next_if(|n| n.parse::<usize>().is_ok())
                            .map_or(Ok(200), |n| number(name, n))?,
                    };
                    flags.progress_every = every.max(1);
                }
                _ => return Err(format!("unknown argument {arg:?}")),
            }
        }
        Ok(flags)
    }
}

/// The value of flag `name` as a number, or an error naming both.
fn number<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid {name} {value:?}: expected a whole number"))
}

/// The run size `REPRO_SCALE` names: topology size, campaign cycles and
/// chain lengths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The smallest run; the scale of the golden-stdout hashes.
    Tiny,
    /// The default, and the scale of `results/`.
    Small,
    /// Approaching the study's scale.
    Paper,
}

impl Scale {
    /// The scale called `name`, if any.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        })
    }
}

/// Scale, seed and flags; the run report, trace and dashboard; and the
/// shared 1-minute campaign and inference.
///
/// Every campaign and inference a suite computes merges its report
/// sections, its trace and (for an inference) the dashboard's chain
/// sections exactly once, when it is computed. With `--serve`,
/// construction starts the [`obs::serve`] endpoint, so sampler progress
/// streams to `/metrics` while chains run and `/report` tracks each
/// merge.
pub struct Suite {
    scale: Scale,
    seed: u64,
    flags: Flags,
    report: obs::RunReport,
    started: obs::Stopwatch,
    trace: Option<obs::TraceBuffer>,
    dash: Option<obs::html::Dashboard>,
    server: Option<obs::serve::Server>,
    minute: Option<Rc<CampaignOutput>>,
    minute_inference: Option<Rc<InferenceOutput>>,
}

impl Suite {
    /// A suite whose report is called `name`.
    pub fn new(name: &str, scale: Scale, seed: u64, flags: Flags) -> Suite {
        let server = flags.serve.as_deref().and_then(|addr| {
            let state = obs::serve::install(std::sync::Arc::new(obs::serve::ServeState::new()));
            let server = obs::serve::Server::start(addr, state.clone());
            match &server {
                Ok(s) => eprintln!("serving diagnostics on http://{}/", s.local_addr()),
                Err(e) => eprintln!("failed to serve on {addr}: {e}"),
            }
            server.ok()
        });
        // `--dash` wants the phase-span waterfall from the trace.
        let traced = flags.trace.is_some() || flags.dash.is_some();
        Suite {
            scale,
            seed,
            report: obs::RunReport::new(name),
            started: obs::Stopwatch::start(),
            trace: traced.then(|| obs::TraceBuffer::new(1 << 17)),
            dash: None,
            flags,
            server,
            minute: None,
            minute_inference: None,
        }
    }

    /// [`Suite::new`] at `REPRO_SCALE` (default `small`) and
    /// `REPRO_SEED` (default 2020). A value that does not parse is a
    /// usage error: report it and exit 2 rather than silently run the
    /// default.
    pub fn from_env(name: &str, flags: Flags) -> Suite {
        fn var<T>(key: &str, default: T, parse: fn(&str) -> Option<T>, want: &str) -> T {
            let Some(value) = std::env::var_os(key) else {
                return default;
            };
            value.to_str().and_then(parse).unwrap_or_else(|| {
                eprintln!("invalid {key}={value:?}: expected {want}");
                std::process::exit(2);
            })
        }
        let scale = var(
            "REPRO_SCALE",
            Scale::Small,
            Scale::parse,
            "tiny, small or paper",
        );
        let seed = var(
            "REPRO_SEED",
            2020,
            |s| s.parse().ok(),
            "an unsigned 64-bit seed",
        );
        Suite::new(name, scale, seed, flags)
    }

    /// The scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The experiment seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The `--faults` spec, if any.
    pub(crate) fn faults(&self) -> Option<&FaultSpec> {
        self.flags.faults.as_ref()
    }

    /// The `--progress` cadence; 0 when off.
    pub(crate) fn progress_every(&self) -> usize {
        self.flags.progress_every
    }

    /// True when the chains trace their phases (`--trace`, or `--dash`,
    /// whose waterfall draws them).
    pub(crate) fn chain_trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// True when simulations record sim-time events (`--trace` only: the
    /// dashboard draws none, and they would evict the phases it draws
    /// from the ring).
    pub(crate) fn sim_trace_enabled(&self) -> bool {
        self.flags.trace.is_some()
    }

    /// Topology for the scale.
    pub(crate) fn topology_config(&self) -> TopologyConfig {
        let (n_tier1, n_transit, n_stub, n_vantage_points) = match self.scale {
            Scale::Tiny => return TopologyConfig::tiny(self.seed),
            Scale::Small => (6, 60, 150, 40),
            Scale::Paper => (8, 150, 500, 80),
        };
        TopologyConfig {
            n_tier1,
            n_transit,
            n_stub,
            n_beacon_sites: 7,
            n_vantage_points,
            seed: self.seed,
        }
    }

    /// A single-interval experiment at the scale, traced and faulted as
    /// the flags ask.
    pub(crate) fn experiment(&self, interval_mins: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::single_interval(interval_mins, self.seed);
        cfg.topology = self.topology_config();
        cfg.cycles = match self.scale {
            Scale::Tiny => 3,
            Scale::Small => 4,
            Scale::Paper => 8,
        };
        cfg.trace = self.sim_trace_enabled();
        cfg.faults = self.flags.faults.clone();
        cfg
    }

    /// Analysis settings matched to the scale.
    pub(crate) fn analysis_config(&self) -> AnalysisConfig {
        let (warmup, samples) = match self.scale {
            Scale::Tiny => (200, 400),
            Scale::Small => (400, 800),
            Scale::Paper => (800, 1500),
        };
        AnalysisConfig {
            prior: Prior::default(),
            chain: ChainConfig {
                warmup,
                samples,
                thin: 1,
            },
            n_chains: 2,
            seed: self.seed,
            progress_every: self.flags.progress_every,
            trace: self.chain_trace_enabled(),
            ..Default::default()
        }
    }

    /// The chain supervisor from `--checkpoint` / `--resume` /
    /// `--checkpoint-every` / `--timeout-secs`, with `.<tag>` appended to
    /// the checkpoint and resume base paths unless `tag` is empty, so the
    /// analyses of one process never share chain files. All flags
    /// absent → the default supervisor, which reproduces the unsupervised
    /// run bitwise.
    pub(crate) fn supervisor(&self, tag: &str) -> SupervisorConfig {
        let with_tag = |base: &PathBuf| match tag {
            "" => base.clone(),
            _ => PathBuf::from(format!("{}.{tag}", base.display())),
        };
        SupervisorConfig {
            checkpoint: self.flags.supervisor.checkpoint.as_ref().map(with_tag),
            resume: self.flags.supervisor.resume.as_ref().map(with_tag),
            ..self.flags.supervisor.clone()
        }
    }

    /// The default campaign at `mins`-minute beacons. The 1-minute
    /// campaign runs once per suite and is shared; any other interval
    /// runs afresh, its report sections prefixed `interval_<mins>.`.
    pub(crate) fn campaign(&mut self, mins: u64) -> Rc<CampaignOutput> {
        if let (1, Some(out)) = (mins, &self.minute) {
            return Rc::clone(out);
        }
        let out = Rc::new(self.run_campaign(&self.experiment(mins), &prefix(mins)));
        if mins == 1 {
            self.minute = Some(Rc::clone(&out));
        }
        out
    }

    /// BeCAUSe and the heuristics on [`Suite::campaign`]`(mins)`,
    /// returned with that campaign. The 1-minute inference runs once per
    /// suite and is shared, with untagged checkpoints; any other interval
    /// runs afresh and tags its checkpoints `i<mins>`.
    pub(crate) fn inference(&mut self, mins: u64) -> (Rc<CampaignOutput>, Rc<InferenceOutput>) {
        let out = self.campaign(mins);
        if let (1, Some(inf)) = (mins, &self.minute_inference) {
            return (out, Rc::clone(inf));
        }
        let tag = format!("i{mins}");
        let mut inf = infer_with_supervision(
            &out,
            &self.analysis_config(),
            &HeuristicConfig::default(),
            &self.supervisor(if mins == 1 { "" } else { &tag }),
        );
        let mut report = obs::RunReport::new("inference");
        inf.export_obs(&mut report);
        self.merge(report, &prefix(mins));
        self.analysed(&mut inf.analysis);
        let inf = Rc::new(inf);
        if mins == 1 {
            self.minute_inference = Some(Rc::clone(&inf));
        }
        (out, inf)
    }

    /// Run a campaign no other figure shares, merging its report
    /// sections (under `<prefix>.` unless `prefix` is empty) and trace.
    pub(crate) fn run_campaign(
        &mut self,
        config: &ExperimentConfig,
        prefix: &str,
    ) -> CampaignOutput {
        let mut out = run_campaign(config);
        self.merge(out.report.clone(), prefix);
        self.merge_trace(out.trace.take());
        out
    }

    /// The report under construction, for direct section access.
    pub fn report_mut(&mut self) -> &mut obs::RunReport {
        &mut self.report
    }

    /// Merge another report's sections, under `<prefix>.` unless
    /// `prefix` is empty.
    fn merge(&mut self, other: obs::RunReport, prefix: &str) {
        if prefix.is_empty() {
            self.report.merge(other);
        } else {
            self.report.merge_prefixed(other, prefix);
        }
        self.publish_live();
    }

    /// Merge a layer's trace buffer into the suite's. A no-op when
    /// tracing is off or the layer recorded nothing.
    pub(crate) fn merge_trace(&mut self, layer: Option<obs::TraceBuffer>) {
        if let (Some(master), Some(buf)) = (self.trace.as_mut(), layer) {
            master.merge(buf);
        }
    }

    /// Take in an analysis this suite ran: say on stderr why each of its
    /// failed chains failed, show its chains on the dashboard (the last
    /// analysis passed here wins; only with `--dash`) and merge its trace.
    pub(crate) fn analysed(&mut self, analysis: &mut Analysis) {
        for f in &analysis.failures {
            eprintln!("{} chain {} failed: {}", f.kernel, f.chain_index, f.reason);
        }
        if self.flags.dash.is_some() {
            self.dash = Some(crate::dash::build(&self.report.name, analysis));
        }
        self.merge_trace(analysis.trace.take());
    }

    /// Push the report so far to the `/report` endpoint, if one is up.
    fn publish_live(&self) {
        if self.server.is_some() {
            if let Some(state) = obs::serve::installed() {
                state.publish_report_json(self.report.to_json());
            }
        }
    }

    /// Record the total runtime as `main.total_secs`, then write JSON
    /// and/or print text as the flags ask, write the trace and the
    /// dashboard, and (under `REPRO_SERVE_LINGER_SECS`) keep the endpoint
    /// up for scrapes before shutting it down. Silent (stderr notes
    /// aside) with every flag off.
    pub fn emit(mut self) {
        self.report
            .section("main")
            .span_secs("total_secs", self.started.elapsed_secs());
        let trace = self.trace.take();
        if let Some(trace) = trace.as_ref() {
            trace.export_into(self.report.section("trace"));
            if let Some(path) = &self.flags.trace {
                note("trace", path, trace.write_chrome_json(path));
            }
        }
        match &self.flags.report_json {
            // `-` streams the JSON to stdout after the figure.
            Some(path) if path.as_os_str() == "-" => println!("\n{}", self.report.to_json()),
            Some(path) => note("report", path, self.report.write_json(path)),
            None => {}
        }
        if self.flags.report {
            print!("\n{}", self.report.to_text());
        }
        if let Some(path) = &self.flags.dash {
            let name = &self.report.name;
            let mut dash = self
                .dash
                .take()
                .unwrap_or_else(|| obs::html::Dashboard::new(name));
            for bar in trace.iter().flat_map(obs::html::spans_from_trace) {
                dash.push_span(bar);
            }
            dash.set_report(&self.report);
            note("dashboard", path, dash.write(path));
        }
        self.publish_live();
        if let Some(server) = self.server.take() {
            if let Some(secs) = std::env::var("REPRO_SERVE_LINGER_SECS")
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
            {
                eprintln!(
                    "serving for {secs}s more on http://{}/",
                    server.local_addr()
                );
                std::thread::sleep(Duration::from_secs(secs));
            }
            server.shutdown();
        }
    }
}

/// The report prefix of a default campaign: none for the shared 1-minute
/// one, `interval_<mins>` otherwise.
fn prefix(mins: u64) -> String {
    if mins == 1 {
        String::new()
    } else {
        format!("interval_{mins}")
    }
}

/// Say on stderr where an artifact was written, or why it was not.
fn note(what: &str, path: &Path, written: io::Result<()>) {
    match written {
        Ok(()) => eprintln!("{what} written to {}", path.display()),
        Err(e) => eprintln!("failed to write {what} {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        Flags::parse(args)
    }

    #[test]
    fn no_arguments_turn_every_flag_off() {
        let flags = parse(&[]).unwrap();
        assert!(flags.report_json.is_none() && flags.trace.is_none() && flags.dash.is_none());
        assert!(!flags.report && flags.serve.is_none() && flags.faults.is_none());
        assert_eq!(flags.progress_every, 0);
        assert_eq!(flags.supervisor.checkpoint_every, 100);
        assert!(flags.supervisor.checkpoint.is_none() && flags.supervisor.resume.is_none());
        assert!(flags.supervisor.wall_clock_timeout.is_none());
    }

    #[test]
    fn every_flag_form_parses() {
        let flags = parse(&[
            "--trace",
            "t.json",
            "--report-json",
            "r.json",
            "--dash",
            "d.html",
            "--serve",
            "127.0.0.1:0",
            "--faults",
            "outage=0.3,reset=0.2,loss=0.02,dup=0.02,reorder=0.05,clock-skew-secs=5,seed=7",
            "--checkpoint",
            "c.ckpt",
            "--resume",
            "c.ckpt",
            "--checkpoint-every",
            "7",
            "--timeout-secs",
            "30",
            "--report",
            "--progress",
            "50",
        ])
        .unwrap();
        assert_eq!(flags.trace, Some(PathBuf::from("t.json")));
        assert_eq!(flags.report_json, Some(PathBuf::from("r.json")));
        assert_eq!(flags.dash, Some(PathBuf::from("d.html")));
        assert_eq!(flags.serve.as_deref(), Some("127.0.0.1:0"));
        assert!(flags.faults.is_some());
        assert_eq!(flags.supervisor.checkpoint, Some(PathBuf::from("c.ckpt")));
        assert_eq!(flags.supervisor.resume, Some(PathBuf::from("c.ckpt")));
        assert_eq!(flags.supervisor.checkpoint_every, 7);
        assert_eq!(
            flags.supervisor.wall_clock_timeout,
            Some(Duration::from_secs(30))
        );
        assert!(flags.report);
        assert_eq!(flags.progress_every, 50);

        let flags = parse(&["--report-json=-", "--faults=drill", "--progress=0"]).unwrap();
        assert_eq!(flags.report_json, Some(PathBuf::from("-")));
        assert!(flags.faults.is_some());
        assert_eq!(flags.progress_every, 1, "a zero cadence means every draw");

        // `--progress` without a count, last or before another flag.
        assert_eq!(parse(&["--progress"]).unwrap().progress_every, 200);
        let flags = parse(&["--progress", "--faults", "drill"]).unwrap();
        assert_eq!(flags.progress_every, 200);
        assert!(flags.faults.is_some());
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for (args, want) in [
            (&["--trase", "x.json"][..], "unknown argument \"--trase\""),
            (&["--report-json"], "--report-json needs a value"),
            (&["--trace", "--report"], "--trace needs a value"),
            (
                &["--checkpoint-every", "abc"],
                "invalid --checkpoint-every \"abc\"",
            ),
            (&["--timeout-secs", "abc"], "invalid --timeout-secs \"abc\""),
            (&["--progress=abc"], "invalid --progress \"abc\""),
            (&["--progress", "abc"], "unknown argument \"abc\""),
            (&["--report=yes"], "unknown argument \"--report=yes\""),
            (&["--faults", "outage=lots"], "invalid --faults spec"),
        ] {
            let err = parse(args)
                .err()
                .unwrap_or_else(|| panic!("{args:?} parsed"));
            assert!(err.contains(want), "{args:?}: {err}");
        }
    }
}
