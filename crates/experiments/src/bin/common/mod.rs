#![allow(dead_code)] // each binary uses a subset of the shared helpers
//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary accepts two environment variables so runs stay scriptable
//! without an argument-parsing dependency:
//!
//! * `REPRO_SEED`  — experiment seed (default 2020, the paper's year);
//! * `REPRO_SCALE` — `tiny` | `small` | `paper` (default `small`):
//!   topology size and campaign length. `paper` approaches the real
//!   study's scale and takes correspondingly longer.
//!
//! Every binary also understands the observability flags:
//!
//! * `--report-json <path>` (or `--report-json=<path>`) — write the run
//!   report as JSON to `path`; the special path `-` streams the JSON to
//!   stdout after the figure/table output;
//! * `--report` — print the run report as text to stdout after the
//!   figure/table output (kept off the default path so existing output
//!   stays byte-for-byte diffable);
//! * `--trace <path>` (or `--trace=<path>`) — record RFD/MRAI simulator
//!   activity and per-chain sampler progress, and write a Chrome
//!   trace-event file (open in Perfetto / `about:tracing`) to `path`;
//! * `--progress [every-n]` — stream per-chain sampler diagnostics
//!   (accept rate, incremental split-R̂/min-ESS) to stderr every `n`
//!   iterations (default 200);
//! * `--serve <addr>` — serve live diagnostics over HTTP while the run
//!   executes: `GET /metrics` (Prometheus text exposition), `/progress`
//!   (per-chain table), `/report` (run report JSON so far), `/healthz`.
//!   `REPRO_SERVE_LINGER_SECS=<n>` keeps the endpoint up `n` seconds
//!   after the run finishes, for scrapes;
//! * `--dash <path>` — write a self-contained HTML diagnostics dashboard
//!   (trace plots with divergence ticks, marginal histograms with HPDI
//!   bands, rank-R̂/ESS table, E-BFMI, fault/coverage sections, phase
//!   waterfall) when the run finishes.
//!
//! Robustness flags (all off by default — the default run is
//! byte-identical to a build without them):
//!
//! * `--faults <spec>` — inject deterministic measurement-plane faults;
//!   `<spec>` is `key=value,…` per [`netsim::faults::FaultSpec::parse`],
//!   or the word `drill` for a representative mix. Injected faults are
//!   tallied in the `faults` report section and coverage loss in
//!   `coverage`;
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

use std::path::PathBuf;
use std::time::Duration;

use because::chain::ChainConfig;
use because::{AnalysisConfig, Prior, SupervisorConfig};
use experiments::pipeline::ExperimentConfig;
use netsim::faults::FaultSpec;
use netsim::SimDuration;
use topology::TopologyConfig;

/// Read the seed from `REPRO_SEED`.
pub fn seed() -> u64 {
    std::env::var("REPRO_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2020)
}

/// The scale name from `REPRO_SCALE`.
pub fn scale() -> String {
    std::env::var("REPRO_SCALE").unwrap_or_else(|_| "small".to_string())
}

/// Topology for the current scale.
pub fn topology_config(seed: u64) -> TopologyConfig {
    match scale().as_str() {
        "tiny" => TopologyConfig::tiny(seed),
        "paper" => TopologyConfig {
            n_tier1: 8,
            n_transit: 150,
            n_stub: 500,
            n_beacon_sites: 7,
            n_vantage_points: 80,
            seed,
            ..TopologyConfig::default()
        },
        _ => TopologyConfig {
            n_tier1: 6,
            n_transit: 60,
            n_stub: 150,
            n_beacon_sites: 7,
            n_vantage_points: 40,
            seed,
            ..TopologyConfig::default()
        },
    }
}

/// Campaign cycles for the current scale.
pub fn cycles() -> usize {
    match scale().as_str() {
        "tiny" => 3,
        "paper" => 8,
        _ => 4,
    }
}

/// A single-interval experiment at the current scale. Simulator tracing
/// switches on with `--trace` so the campaign's RFD/MRAI activity lands
/// in the exported trace file; `--faults` arms the fault plan.
pub fn experiment(interval_mins: u64, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::single_interval(interval_mins, seed);
    cfg.topology = topology_config(seed);
    cfg.cycles = cycles();
    cfg.break_duration = SimDuration::from_hours(2);
    cfg.trace = trace_armed();
    cfg.faults = faults_spec();
    cfg
}

/// True when a trace buffer should record: `--trace` wants the Chrome
/// export, `--dash` wants the phase-span waterfall.
fn trace_armed() -> bool {
    trace_path().is_some() || dash_path().is_some()
}

/// Analysis settings matched to the scale.
pub fn analysis_config(seed: u64) -> AnalysisConfig {
    let chain = match scale().as_str() {
        "tiny" => ChainConfig {
            warmup: 200,
            samples: 400,
            thin: 1,
        },
        "paper" => ChainConfig {
            warmup: 800,
            samples: 1500,
            thin: 1,
        },
        _ => ChainConfig {
            warmup: 400,
            samples: 800,
            thin: 1,
        },
    };
    AnalysisConfig {
        prior: Prior::default(),
        chain,
        n_chains: 2,
        seed,
        progress_every: progress_every(),
        trace: trace_armed(),
        ..Default::default()
    }
}

/// Print the standard experiment banner.
pub fn banner(what: &str) {
    println!("== {what} ==");
    println!("scale={} seed={}", scale(), seed());
    println!();
}

/// Value of `--<name> <v>` or `--<name>=<v>`, when present.
fn flag_value(name: &str) -> Option<String> {
    let bare = format!("--{name}");
    let assigned = format!("--{name}=");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == bare {
            return args.next();
        }
        if let Some(v) = arg.strip_prefix(assigned.as_str()) {
            return Some(v.to_string());
        }
    }
    None
}

/// The `--report-json` destination, if any: `--report-json <path>` or
/// `--report-json=<path>`.
pub fn report_json_path() -> Option<std::path::PathBuf> {
    flag_value("report-json").map(std::path::PathBuf::from)
}

/// True when `--report` was passed: print the text report to stdout.
pub fn report_requested() -> bool {
    std::env::args().skip(1).any(|a| a == "--report")
}

/// The `--trace` destination, if any: `--trace <path>` or
/// `--trace=<path>`.
pub fn trace_path() -> Option<std::path::PathBuf> {
    flag_value("trace").map(std::path::PathBuf::from)
}

/// The `--serve` listen address, if any: `--serve <addr>` or
/// `--serve=<addr>` (e.g. `127.0.0.1:9184`, or `127.0.0.1:0` for an
/// ephemeral port).
pub fn serve_addr() -> Option<String> {
    flag_value("serve")
}

/// The `--dash` destination, if any: `--dash <path>` or `--dash=<path>`
/// — write the single-file HTML diagnostics dashboard there when the
/// run finishes.
pub fn dash_path() -> Option<std::path::PathBuf> {
    flag_value("dash").map(std::path::PathBuf::from)
}

/// The fault plan spec from `--faults <spec>`, if any.
/// A malformed spec is a usage error: report it and exit 2 rather than
/// silently running fault-free.
pub fn faults_spec() -> Option<FaultSpec> {
    let text = flag_value("faults")?;
    match FaultSpec::parse(&text) {
        Ok(spec) => Some(spec),
        Err(e) => {
            eprintln!("invalid --faults spec: {e}");
            std::process::exit(2);
        }
    }
}

/// The chain supervisor settings from `--checkpoint` / `--resume` /
/// `--checkpoint-every` / `--timeout-secs`. All absent → the default supervisor, which reproduces
/// the unsupervised run bitwise.
pub fn supervisor_config() -> SupervisorConfig {
    supervisor_config_tagged("")
}

/// [`supervisor_config`] with `.<tag>` appended to the checkpoint and
/// resume base paths — for binaries that run several analyses in one
/// process (per interval, per scenario), so their chain files never
/// collide.
pub fn supervisor_config_tagged(tag: &str) -> SupervisorConfig {
    let with_tag = |base: String| -> PathBuf {
        if tag.is_empty() {
            PathBuf::from(base)
        } else {
            PathBuf::from(format!("{base}.{tag}"))
        }
    };
    SupervisorConfig {
        checkpoint: flag_value("checkpoint").map(&with_tag),
        resume: flag_value("resume").map(&with_tag),
        checkpoint_every: flag_value("checkpoint-every")
            .and_then(|s| s.parse().ok())
            .unwrap_or(100),
        wall_clock_timeout: flag_value("timeout-secs")
            .and_then(|s| s.parse::<u64>().ok())
            .map(Duration::from_secs),
        stop_after_draws: None,
        kill_after_draws: std::env::var("REPRO_KILL_AFTER_DRAWS")
            .ok()
            .and_then(|s| s.parse().ok()),
    }
}

/// The `--progress [every-n]` cadence: `0` when the flag is absent, the
/// given iteration count when one follows (`--progress 500` or
/// `--progress=500`), else a default of 200.
pub fn progress_every() -> usize {
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        if arg == "--progress" {
            let n = args.peek().and_then(|next| next.parse::<usize>().ok());
            return n.unwrap_or(200).max(1);
        }
        if let Some(n) = arg.strip_prefix("--progress=") {
            return n.parse::<usize>().ok().unwrap_or(200).max(1);
        }
    }
    0
}

/// Collects a binary's run report and emits it on request.
///
/// Construct after the banner, merge in whatever the run produced
/// (campaign reports, analysis sections), and call [`Reporter::emit`] as
/// the last statement of `main`. The total wall-clock of the binary is
/// recorded automatically as `main.total_secs`.
///
/// With `--serve <addr>`, construction starts the [`obs::serve`]
/// endpoint (`/metrics`, `/progress`, `/report`, `/healthz`) and
/// installs its state process-globally, so sampler progress streams to
/// `/metrics` while chains run and `/report` tracks each merge. With
/// `--dash <path>`, [`Reporter::emit`] writes the single-file HTML
/// diagnostics dashboard (populate its chain sections first with
/// [`Reporter::dash_inference`]). Both off → every path below is dead
/// and the binary's stdout is byte-identical to a flagless build.
pub struct Reporter {
    name: String,
    report: obs::RunReport,
    started: obs::Stopwatch,
    trace: Option<obs::TraceBuffer>,
    dash: Option<(std::path::PathBuf, obs::html::Dashboard)>,
    server: Option<obs::serve::Server>,
}

impl Reporter {
    /// A reporter for the named binary. When `--trace` or `--dash` is
    /// set, a master trace buffer is opened; merge layer traces into it
    /// with [`Reporter::merge_trace`]. [`Reporter::emit`] writes the
    /// Chrome trace file (under `--trace`) and the dashboard (under
    /// `--dash`). When `--serve` is set, the HTTP endpoint starts here.
    pub fn new(name: &str) -> Reporter {
        let server = serve_addr().and_then(|addr| {
            let state = obs::serve::install(std::sync::Arc::new(obs::serve::ServeState::new()));
            match obs::serve::Server::start(&addr, state.clone()) {
                Ok(s) => {
                    eprintln!("serving diagnostics on http://{}/", s.local_addr());
                    Some(s)
                }
                Err(e) => {
                    eprintln!("failed to serve on {addr}: {e}");
                    None
                }
            }
        });
        Reporter {
            name: name.to_string(),
            report: obs::RunReport::new(name),
            started: obs::Stopwatch::start(),
            trace: (trace_path().is_some() || dash_path().is_some())
                .then(|| obs::TraceBuffer::new(1 << 17)),
            dash: dash_path().map(|p| (p, obs::html::Dashboard::new(name))),
            server,
        }
    }

    /// True when a master trace buffer records (`--trace` or `--dash`).
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Merge a layer's trace buffer (campaign sim trace, analysis chain
    /// trace) into the master buffer. A no-op when tracing is off or the
    /// layer produced nothing, so call sites stay unconditional.
    pub fn merge_trace(&mut self, layer: Option<obs::TraceBuffer>) {
        if let (Some(master), Some(buf)) = (self.trace.as_mut(), layer) {
            master.merge(buf);
        }
    }

    /// The report under construction, for direct section access.
    pub fn report_mut(&mut self) -> &mut obs::RunReport {
        &mut self.report
    }

    /// Merge another report's sections (e.g. a campaign's).
    pub fn merge(&mut self, other: obs::RunReport) {
        self.report.merge(other);
        self.publish_live();
    }

    /// Merge with a prefix on every section name — for binaries that run
    /// several campaigns (`"interval_1.netsim.queue"`, …).
    pub fn merge_prefixed(&mut self, other: obs::RunReport, prefix: &str) {
        self.report.merge_prefixed(other, prefix);
        self.publish_live();
    }

    /// Populate the dashboard's chain sections (trace plots, marginals,
    /// diagnostics table, E-BFMI) from an inference run. A no-op without
    /// `--dash`. Binaries that run several inferences show the last one
    /// passed here.
    pub fn dash_inference(&mut self, inf: &experiments::InferenceOutput) {
        if let Some((path, _)) = self.dash.take() {
            self.dash = Some((path, experiments::dash::build(&self.name, inf)));
        }
        self.publish_live();
    }

    /// [`Reporter::dash_inference`] for binaries that run a bare
    /// [`because::Analysis`] without the full pipeline.
    pub fn dash_analysis(&mut self, analysis: &because::Analysis) {
        if let Some((path, _)) = self.dash.take() {
            self.dash = Some((
                path,
                experiments::dash::build_analysis(&self.name, analysis),
            ));
        }
        self.publish_live();
    }

    /// Push the report-so-far to the `/report` endpoint, if one is up.
    fn publish_live(&self) {
        if self.server.is_some() {
            if let Some(state) = obs::serve::installed() {
                state.publish_report_json(self.report.to_json());
            }
        }
    }

    /// Record the total runtime, then write JSON and/or print text as
    /// requested, write the dashboard, and (under
    /// `REPRO_SERVE_LINGER_SECS`) keep the endpoint up for scrapes
    /// before shutting it down. Silent (stderr notes aside) on the
    /// default path.
    pub fn emit(mut self) {
        self.report
            .section("main")
            .span_secs("total_secs", self.started.elapsed_secs());
        let trace = self.trace.take();
        if let Some(trace) = trace.as_ref() {
            trace.export_into(self.report.section("trace"));
            if let Some(path) = trace_path() {
                match trace.write_chrome_json(&path) {
                    Ok(()) => eprintln!("trace written to {}", path.display()),
                    Err(e) => eprintln!("failed to write trace {}: {e}", path.display()),
                }
            }
        }
        if let Some(path) = report_json_path() {
            if path.as_os_str() == "-" {
                // `--report-json -`: stream the JSON to stdout after the
                // figure/table output.
                println!();
                println!("{}", self.report.to_json());
            } else {
                match self.report.write_json(&path) {
                    Ok(()) => eprintln!("report written to {}", path.display()),
                    Err(e) => eprintln!("failed to write report {}: {e}", path.display()),
                }
            }
        }
        if report_requested() {
            println!();
            print!("{}", self.report.to_text());
        }
        if let Some((path, mut dash)) = self.dash.take() {
            for bar in trace
                .as_ref()
                .map(obs::html::spans_from_trace)
                .unwrap_or_default()
            {
                dash.push_span(bar);
            }
            dash.set_report(&self.report);
            match dash.write(&path) {
                Ok(()) => eprintln!("dashboard written to {}", path.display()),
                Err(e) => eprintln!("failed to write dashboard {}: {e}", path.display()),
            }
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
