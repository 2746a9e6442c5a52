//! Live metrics serving: a dependency-free HTTP endpoint over the atomic
//! [`Registry`].
//!
//! A long campaign (hours at `paper` scale) is a black box without a
//! scrapeable surface: the RunReport only exists once the run is over.
//! [`Server`] fixes that with a deliberately tiny `std::net`-only HTTP/1.1
//! responder — a blocking accept loop on one background thread — exposing
//!
//! * `GET /metrics`  — the shared [`Registry`] in Prometheus text
//!   exposition format (version 0.0.4): counters and gauges as single
//!   samples, histograms as cumulative `_bucket`/`_sum`/`_count`
//!   families plus interpolated `_p50`/`_p90`/`_p99` gauges;
//! * `GET /progress` — the latest per-chain sampler snapshot (draw
//!   count, accept rate, incremental split-R̂/min-ESS) as JSON;
//! * `GET /report`   — the most recently published [`RunReport`](crate::RunReport) JSON;
//! * `GET /healthz`  — `200 ok`, for liveness probes.
//!
//! Everything is read-only and lock-cheap: the registry cells are relaxed
//! atomics, the progress table and report body sit behind short-critical-
//! section mutexes written only at the observer cadence (default every 50
//! iterations). The serving thread never touches the sampler hot path.
//!
//! ## Process-global state
//!
//! The experiment binaries install one [`ServeState`] per process with
//! [`install`]; layers that cannot thread a handle through their
//! signatures (the chain driver's progress observer) look it up with
//! [`installed`]. When nothing is installed — every default run — the
//! lookup is a single `OnceLock` load returning `None`, so the serve path
//! costs nothing while disabled.

use std::io::{Read, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::json::{json_f64, json_string};
use crate::registry::Registry;
use crate::report::HistogramSnapshot;

/// One chain's most recent progress snapshot, as published by the sampler
/// driver's observer. Field meanings mirror `because`'s
/// `ProgressSnapshot`; they are duplicated here as plain data so `obs`
/// stays dependency-free.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainProgress {
    /// Kernel label (`"MH"`, `"HMC"`).
    pub kernel: &'static str,
    /// The chain's index within its multi-chain run.
    pub chain_index: usize,
    /// `"warmup"` or `"sampling"` (or `"done"` once the chain finished).
    pub phase: &'static str,
    /// Iterations completed in the current phase.
    pub iteration: usize,
    /// Iterations the phase will run.
    pub total: usize,
    /// Running acceptance rate.
    pub accept_rate: f64,
    /// Divergent trajectories so far.
    pub divergences: u64,
    /// Incremental split-R̂ over this chain's halves (`NaN` in warmup).
    pub split_r_hat: f64,
    /// Incremental min-ESS over this chain's draws (`NaN` in warmup).
    pub min_ess: f64,
}

/// Handles to the standard progress metrics every served run exposes.
struct ProgressIds {
    snapshots: crate::CounterId,
    draws: crate::CounterId,
    divergences: crate::GaugeId,
    accept_rate: crate::GaugeId,
    split_r_hat: crate::GaugeId,
    min_ess: crate::GaugeId,
    accept_hist: crate::HistogramId,
}

/// Shared state behind the served endpoints.
///
/// Construction takes ownership of a pre-registered [`Registry`] (metric
/// registration needs `&mut`, serving needs `&self`); the standard
/// progress metrics are appended during construction.
pub struct ServeState {
    registry: Registry,
    ids: ProgressIds,
    progress: Mutex<Vec<ChainProgress>>,
    report_json: Mutex<Option<String>>,
    /// Per-chain last seen sampling iteration, for draw-delta accounting.
    last_iteration: Mutex<Vec<(&'static str, usize, usize)>>,
}

impl ServeState {
    /// Wrap a registry, appending the standard sampler-progress metrics
    /// (`progress_snapshots`, `draws`, `divergences`, `accept_rate`,
    /// `split_r_hat`, `min_ess`, `snapshot_accept_rate`).
    pub fn new(mut registry: Registry) -> ServeState {
        let ids = ProgressIds {
            snapshots: registry.counter("progress_snapshots"),
            draws: registry.counter("draws"),
            divergences: registry.gauge("divergences"),
            accept_rate: registry.gauge("accept_rate"),
            split_r_hat: registry.gauge("split_r_hat"),
            min_ess: registry.gauge("min_ess"),
            accept_hist: registry.histogram(
                "snapshot_accept_rate",
                &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            ),
        };
        ServeState {
            registry,
            ids,
            progress: Mutex::new(Vec::new()),
            report_json: Mutex::new(None),
            last_iteration: Mutex::new(Vec::new()),
        }
    }

    /// The shared metric registry (record with pre-registered handles).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Publish the current report JSON (served at `/report`). Call at
    /// every merge point so mid-run scrapes see the latest sections.
    pub fn publish_report_json(&self, json: String) {
        *self.report_json.lock().expect("report lock") = Some(json);
    }

    /// Record one chain-progress snapshot: updates the `/progress` table
    /// and the standard registry metrics.
    pub fn record_progress(&self, p: ChainProgress) {
        self.registry.inc(self.ids.snapshots);
        self.registry.set(self.ids.accept_rate, p.accept_rate);
        self.registry.record(self.ids.accept_hist, p.accept_rate);
        self.registry
            .set(self.ids.divergences, p.divergences as f64);
        if p.split_r_hat.is_finite() {
            self.registry.set(self.ids.split_r_hat, p.split_r_hat);
        }
        if p.min_ess.is_finite() {
            self.registry.set(self.ids.min_ess, p.min_ess);
        }
        // Draw accounting: during sampling, credit the delta since the
        // last snapshot of this (kernel, chain).
        if p.phase == "sampling" {
            let mut last = self.last_iteration.lock().expect("iteration lock");
            let entry = last
                .iter_mut()
                .find(|(k, c, _)| *k == p.kernel && *c == p.chain_index);
            let prev = match entry {
                Some((_, _, it)) => {
                    let prev = *it;
                    *it = p.iteration;
                    prev
                }
                None => {
                    last.push((p.kernel, p.chain_index, p.iteration));
                    0
                }
            };
            self.registry
                .add(self.ids.draws, p.iteration.saturating_sub(prev) as u64);
        }
        let mut table = self.progress.lock().expect("progress lock");
        match table
            .iter_mut()
            .find(|e| e.kernel == p.kernel && e.chain_index == p.chain_index)
        {
            Some(slot) => *slot = p,
            None => table.push(p),
        }
    }

    /// Mark a chain's `/progress` row finished (phase `"done"`), keeping
    /// its last recorded statistics. A row that was sampling moves to
    /// `iteration`, the draws the chain took (its total when it ran to
    /// completion, fewer when it stopped early), and the draws collected
    /// after the final sampling snapshot are credited. Chains that never
    /// snapshotted (cadence longer than the run) have no row and stay
    /// unrecorded.
    pub fn mark_done(&self, kernel: &'static str, chain_index: usize, iteration: usize) {
        {
            let mut table = self.progress.lock().expect("progress lock");
            let Some(slot) = table
                .iter_mut()
                .find(|e| e.kernel == kernel && e.chain_index == chain_index)
            else {
                return;
            };
            let was_sampling = slot.phase == "sampling";
            slot.phase = "done";
            if !was_sampling {
                return;
            }
            slot.iteration = iteration;
        }
        let mut last = self.last_iteration.lock().expect("iteration lock");
        if let Some((_, _, it)) = last
            .iter_mut()
            .find(|(k, c, _)| *k == kernel && *c == chain_index)
        {
            let delta = iteration.saturating_sub(*it);
            *it = iteration;
            self.registry.add(self.ids.draws, delta as u64);
        }
    }

    /// The `/metrics` body: the registry in Prometheus text exposition.
    pub fn render_metrics(&self) -> String {
        self.registry.to_prometheus("repro")
    }

    /// The `/progress` body: the latest per-chain snapshots as JSON.
    pub fn render_progress(&self) -> String {
        let table = self.progress.lock().expect("progress lock");
        let mut out = String::from("{\"chains\":[");
        for (i, p) in table.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"kernel\":");
            json_string(&mut out, p.kernel);
            out.push_str(&format!(
                ",\"chain\":{},\"phase\":\"{}\",\"iteration\":{},\"total\":{}",
                p.chain_index, p.phase, p.iteration, p.total
            ));
            out.push_str(",\"accept_rate\":");
            json_f64(&mut out, p.accept_rate);
            out.push_str(&format!(",\"divergences\":{}", p.divergences));
            out.push_str(",\"split_r_hat\":");
            json_f64(&mut out, p.split_r_hat);
            out.push_str(",\"min_ess\":");
            json_f64(&mut out, p.min_ess);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    fn report_body(&self) -> Option<String> {
        self.report_json.lock().expect("report lock").clone()
    }
}

static GLOBAL: OnceLock<Arc<ServeState>> = OnceLock::new();

/// Install the process-global serve state (first install wins). Returns
/// the installed handle.
pub fn install(state: Arc<ServeState>) -> Arc<ServeState> {
    GLOBAL.get_or_init(|| state).clone()
}

/// The installed serve state, if a server was started this process.
pub fn installed() -> Option<&'static Arc<ServeState>> {
    GLOBAL.get()
}

/// A running metrics server: one background accept thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:9184"`, port `0` for ephemeral) and
    /// start serving `state` on a background thread.
    pub fn start(addr: &str, state: Arc<ServeState>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name("obs-serve".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // One request per connection, bounded by timeouts:
                        // a stalled client cannot wedge the loop for long.
                        let _ = handle_connection(stream, &state);
                    }
                }
            })?;
        Ok(Server {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the serving thread. Idempotent via `Drop`.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serve one request on `stream`: parse the request line, route, respond.
fn handle_connection(mut stream: TcpStream, state: &ServeState) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read until the end of the request head (or a modest cap — the
    // endpoints take no bodies).
    let mut buf = [0u8; 4096];
    let mut head = Vec::new();
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= 16 * 1024 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                state.render_metrics(),
            ),
            "/progress" => (
                "200 OK",
                "application/json; charset=utf-8",
                state.render_progress(),
            ),
            "/report" => match state.report_body() {
                Some(json) => ("200 OK", "application/json; charset=utf-8", json),
                None => (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "no report published yet\n".to_string(),
                ),
            },
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found; try /metrics /progress /report /healthz\n".to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Sanitize a metric name for the exposition format: every character
/// outside `[a-zA-Z0-9_:]` becomes `_` (the registry's dotted label
/// convention `rfd_suppressions.cisco` turns into
/// `rfd_suppressions_cisco`), and a leading digit gains a `_` prefix.
pub fn prometheus_name(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + name.len() + 1);
    if !prefix.is_empty() {
        out.push_str(prefix);
        out.push('_');
    }
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && out.is_empty() && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// A float in exposition form: `+Inf` / `-Inf` / `NaN` per the format
/// spec, shortest-round-trip decimal otherwise.
pub fn prometheus_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Render one histogram snapshot as a cumulative Prometheus family plus
/// interpolated quantile gauges, appending to `out`.
pub(crate) fn prometheus_histogram(out: &mut String, name: &str, snap: &HistogramSnapshot) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (i, c) in snap.counts.iter().enumerate() {
        cumulative += c;
        let le = match snap.bounds.get(i) {
            Some(b) => prometheus_f64(*b),
            None => "+Inf".to_string(),
        };
        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{name}_sum {}\n", prometheus_f64(snap.sum)));
    out.push_str(&format!("{name}_count {}\n", snap.count));
    for (suffix, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        let v = snap.quantile(q);
        out.push_str(&format!("# TYPE {name}_{suffix} gauge\n"));
        out.push_str(&format!("{name}_{suffix} {}\n", prometheus_f64(v)));
    }
}

/// Validate a Prometheus text-exposition body: every line must be a
/// comment (`# HELP` / `# TYPE` with a valid type), blank, or a sample
/// `name{labels} value` with a well-formed name, balanced quoted labels,
/// and a parseable value. Returns the first offence with its line number.
///
/// This is the in-tree scrape check: the serve tests and the CI smoke leg
/// both run real `/metrics` output through it.
pub fn validate_exposition(body: &str) -> Result<(), String> {
    if !body.ends_with('\n') {
        return Err("exposition must end with a newline".to_string());
    }
    let valid_name = |s: &str| {
        !s.is_empty()
            && s.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let valid_value = |s: &str| matches!(s, "+Inf" | "-Inf" | "NaN") || s.parse::<f64>().is_ok();
    for (lineno, line) in body.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match words.next() {
                Some("TYPE") => {
                    let name = words.next().unwrap_or("");
                    let kind = words.next().unwrap_or("");
                    if !valid_name(name) {
                        return Err(format!("line {n}: bad TYPE metric name {name:?}"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown metric type {kind:?}"));
                    }
                }
                Some("HELP") | Some("EOF") => {}
                _ => return Err(format!("line {n}: malformed comment {line:?}")),
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find(['{', ' ']) {
            Some(idx) => line.split_at(idx),
            None => return Err(format!("line {n}: no value in sample {line:?}")),
        };
        if !valid_name(name_part) {
            return Err(format!("line {n}: bad metric name {name_part:?}"));
        }
        let rest = rest.trim_start();
        let value_part = if let Some(labels) = rest.strip_prefix('{') {
            let Some(close) = labels.find('}') else {
                return Err(format!("line {n}: unbalanced label braces"));
            };
            let (label_body, after) = labels.split_at(close);
            for pair in label_body.split(',').filter(|p| !p.is_empty()) {
                let Some((k, v)) = pair.split_once('=') else {
                    return Err(format!("line {n}: malformed label pair {pair:?}"));
                };
                if !valid_name(k) || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                    return Err(format!("line {n}: malformed label {pair:?}"));
                }
            }
            after[1..].trim_start()
        } else {
            rest
        };
        let value = value_part.split_whitespace().next().unwrap_or("");
        if !valid_value(value) {
            return Err(format!("line {n}: unparseable value {value:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a head/body split");
        (head.to_string(), body.to_string())
    }

    fn served_state() -> Arc<ServeState> {
        let mut reg = Registry::new();
        let events = reg.counter("events_processed");
        let depth = reg.gauge("queue_depth");
        let delay = reg.histogram("export_delay_mins", &[1.0, 10.0]);
        let state = Arc::new(ServeState::new(reg));
        state.registry().add(events, 42);
        state.registry().set(depth, 7.5);
        state.registry().record(delay, 0.5);
        state.registry().record(delay, 99.0);
        state
    }

    #[test]
    fn healthz_metrics_progress_report_roundtrip() {
        let state = served_state();
        state.record_progress(ChainProgress {
            kernel: "MH",
            chain_index: 0,
            phase: "sampling",
            iteration: 100,
            total: 400,
            accept_rate: 0.44,
            divergences: 0,
            split_r_hat: 1.02,
            min_ess: 55.0,
        });
        state.publish_report_json("{\"name\":\"t\",\"sections\":[]}".to_string());
        let server = Server::start("127.0.0.1:0", state).expect("bind");
        let addr = server.local_addr();

        let (head, body) = scrape(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = scrape(addr, "/metrics");
        assert!(head.contains("text/plain; version=0.0.4"));
        validate_exposition(&body).expect("exposition must parse");
        assert!(body.contains("# TYPE repro_events_processed counter"));
        assert!(body.contains("repro_events_processed 42"));
        assert!(body.contains("repro_queue_depth 7.5"));
        assert!(body.contains("repro_export_delay_mins_bucket{le=\"+Inf\"} 2"));
        assert!(body.contains("repro_export_delay_mins_count 2"));
        assert!(body.contains("repro_export_delay_mins_p50"));
        assert!(body.contains("repro_accept_rate 0.44"));
        assert!(body.contains("repro_draws 100"));

        let (head, body) = scrape(addr, "/progress");
        assert!(head.contains("application/json"));
        assert!(body.contains("\"kernel\":\"MH\""));
        assert!(body.contains("\"iteration\":100"));

        let (_, body) = scrape(addr, "/report");
        assert_eq!(body, "{\"name\":\"t\",\"sections\":[]}");

        let (head, _) = scrape(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.shutdown();
    }

    #[test]
    fn report_404_until_published() {
        let state = Arc::new(ServeState::new(Registry::new()));
        let server = Server::start("127.0.0.1:0", state.clone()).expect("bind");
        let (head, _) = scrape(server.local_addr(), "/report");
        assert!(head.starts_with("HTTP/1.1 404"));
        state.publish_report_json("{}".to_string());
        let (head, _) = scrape(server.local_addr(), "/report");
        assert!(head.starts_with("HTTP/1.1 200"));
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_the_accept_thread() {
        let state = Arc::new(ServeState::new(Registry::new()));
        let server = Server::start("127.0.0.1:0", state).expect("bind");
        let addr = server.local_addr();
        // Returning at all proves the accept thread joined (a wedged
        // loop would hang the test); the listener must also be gone.
        server.shutdown();
        let after = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        assert!(after.is_err(), "listener still accepting after shutdown");
    }

    #[test]
    fn progress_draw_deltas_accumulate_not_double_count() {
        let state = Arc::new(ServeState::new(Registry::new()));
        let snap = |it: usize| ChainProgress {
            kernel: "HMC",
            chain_index: 1,
            phase: "sampling",
            iteration: it,
            total: 400,
            accept_rate: 0.8,
            divergences: 0,
            split_r_hat: f64::NAN,
            min_ess: f64::NAN,
        };
        state.record_progress(snap(50));
        state.record_progress(snap(100));
        state.record_progress(snap(150));
        let metrics = state.render_metrics();
        assert!(metrics.contains("repro_draws 150"), "{metrics}");
        // The table keeps one row per chain, not one per snapshot.
        let progress = state.render_progress();
        assert_eq!(progress.matches("\"kernel\"").count(), 1);
        assert!(progress.contains("\"iteration\":150"));
    }

    #[test]
    fn mark_done_flips_phase_and_credits_draw_tail() {
        let state = Arc::new(ServeState::new(Registry::new()));
        let snap = |it: usize| ChainProgress {
            kernel: "MH",
            chain_index: 0,
            phase: "sampling",
            iteration: it,
            total: 170,
            accept_rate: 0.5,
            divergences: 0,
            split_r_hat: 1.02,
            min_ess: 80.0,
        };
        state.record_progress(snap(50));
        state.record_progress(snap(100));
        // The run ends between snapshots (170 not divisible by 50):
        // mark_done credits the 70-draw tail and keeps the statistics.
        state.mark_done("MH", 0, 170);
        let metrics = state.render_metrics();
        assert!(metrics.contains("repro_draws 170"), "{metrics}");
        let progress = state.render_progress();
        assert!(progress.contains("\"phase\":\"done\""), "{progress}");
        assert!(progress.contains("\"iteration\":170"), "{progress}");
        assert!(progress.contains("\"split_r_hat\":1.02"), "{progress}");
        // Idempotent: a second call credits nothing.
        state.mark_done("MH", 0, 170);
        assert!(state.render_metrics().contains("repro_draws 170"));
        // Unknown chains are ignored.
        state.mark_done("HMC", 9, 170);
    }

    #[test]
    fn mark_done_credits_only_the_draws_of_a_stopped_chain() {
        let state = Arc::new(ServeState::new(Registry::new()));
        let snap = |phase: &'static str, it: usize, total: usize| ChainProgress {
            kernel: "HMC",
            chain_index: 1,
            phase,
            iteration: it,
            total,
            accept_rate: 0.8,
            divergences: 0,
            split_r_hat: f64::NAN,
            min_ess: f64::NAN,
        };
        // Stopped at draw 120 of 200: the row ends at 120, not 200.
        state.record_progress(snap("sampling", 50, 200));
        state.record_progress(snap("sampling", 100, 200));
        state.mark_done("HMC", 1, 120);
        assert!(state.render_metrics().contains("repro_draws 120"));
        let progress = state.render_progress();
        assert!(progress.contains("\"phase\":\"done\""), "{progress}");
        assert!(progress.contains("\"iteration\":120"), "{progress}");
        // Stopped in warmup: the row closes and no draw is credited.
        state.record_progress(ChainProgress {
            kernel: "MH",
            chain_index: 0,
            ..snap("warmup", 50, 300)
        });
        state.mark_done("MH", 0, 70);
        assert!(state.render_metrics().contains("repro_draws 120"));
        assert!(!state.render_progress().contains("\"phase\":\"warmup\""));
    }

    #[test]
    fn prometheus_name_sanitizes() {
        assert_eq!(
            prometheus_name("repro", "rfd_suppressions.cisco"),
            "repro_rfd_suppressions_cisco"
        );
        assert_eq!(prometheus_name("", "lost.AS12"), "lost_AS12");
        assert_eq!(prometheus_name("", "9lives"), "_9lives");
    }

    #[test]
    fn validator_accepts_good_and_rejects_bad() {
        let good = "# TYPE a counter\na 1\n# TYPE b gauge\nb{x=\"1\",y=\"z\"} 2.5\nc_bucket{le=\"+Inf\"} 3\nd NaN\n";
        validate_exposition(good).expect("good body");
        assert!(validate_exposition("a 1").is_err(), "missing newline");
        assert!(validate_exposition("1bad 1\n").is_err(), "bad name");
        assert!(validate_exposition("a one\n").is_err(), "bad value");
        assert!(validate_exposition("a{x=1} 2\n").is_err(), "unquoted label");
        assert!(
            validate_exposition("a{x=\"1\" 2\n").is_err(),
            "unbalanced braces"
        );
        assert!(
            validate_exposition("# TYPE a rainbow\na 1\n").is_err(),
            "bad type"
        );
    }

    #[test]
    fn exposition_of_live_registry_always_validates() {
        let state = served_state();
        validate_exposition(&state.render_metrics()).expect("render must self-validate");
    }
}
