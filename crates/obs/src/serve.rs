//! Live metrics serving: a dependency-free HTTP endpoint over the
//! per-chain sampler progress table.
//!
//! A long campaign (hours at `paper` scale) is a black box without a
//! scrapeable surface: the RunReport only exists once the run is over.
//! [`Server`] fixes that with a deliberately tiny `std::net`-only HTTP/1.1
//! responder — a blocking accept loop on one background thread that
//! answers each connection itself — exposing
//!
//! * `GET /metrics`  — the progress table in Prometheus text exposition
//!   format (version 0.0.4): the `repro_progress_snapshots` and
//!   `repro_draws` counters, one `{kernel="MH",chain="0"}`-labelled
//!   sample per chain for the `repro_accept_rate`, `repro_divergences`,
//!   `repro_max_rank_r_hat` and `repro_min_ess_bulk` gauges, and the
//!   `repro_snapshot_accept_rate` histogram as cumulative
//!   `_bucket`/`_sum`/`_count` samples plus interpolated
//!   `_p50`/`_p90`/`_p99` gauges;
//! * `GET /progress` — the latest per-chain sampler snapshot (draw
//!   count, accept rate, the chain's rank-R̂ and bulk ESS) as JSON;
//! * `GET /report`   — the most recently published [`RunReport`](crate::RunReport) JSON;
//! * `GET /healthz`  — `200 ok`, for liveness probes.
//!
//! Everything is read-only and lock-cheap: the progress table and the
//! report body each sit behind a short-critical-section mutex written
//! only at the observer cadence (default every 50 iterations per chain).
//! The serving thread never touches the sampler hot path.
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
use crate::metrics::Histogram;
use crate::report::HistogramSnapshot;

/// One progress snapshot of a running chain: the record `because`'s chain
/// driver fills and every live output reads, and here a `/progress` row
/// and the values of the chain's `{kernel,chain}`-labelled gauges at
/// `/metrics`. It lives in `obs` so that `obs` stays dependency-free.
#[derive(Clone, Copy, Debug, PartialEq)]
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
    /// Worst rank-normalized split-R̂ over the coordinates of this chain
    /// alone (`NaN` in warmup).
    pub max_rank_r_hat: f64,
    /// Smallest bulk ESS over the coordinates of this chain alone (`NaN`
    /// in warmup).
    pub min_ess_bulk: f64,
}

/// One `/progress` row plus the draws already credited to
/// `repro_draws` for the chain's current run.
struct ChainRow {
    progress: ChainProgress,
    credited: usize,
}

/// Everything `/metrics` and `/progress` render, behind one lock.
struct ProgressTable {
    /// Sorted by `(kernel, chain_index)`, so renders are stable.
    rows: Vec<ChainRow>,
    snapshots: u64,
    draws: u64,
    accept_hist: Histogram,
}

impl ProgressTable {
    /// `Ok` with the chain's row index, or `Err` with where it belongs.
    fn search(&self, kernel: &str, chain_index: usize) -> Result<usize, usize> {
        self.rows.binary_search_by(|r| {
            (r.progress.kernel, r.progress.chain_index).cmp(&(kernel, chain_index))
        })
    }

    /// Add row `i`'s draws since its last credit, up to `iteration`.
    fn credit(&mut self, i: usize, iteration: usize) {
        let row = &mut self.rows[i];
        self.draws += iteration.saturating_sub(row.credited) as u64;
        row.credited = iteration;
    }
}

/// Shared state behind the served endpoints: the per-chain progress
/// table (with the run totals and the accept-rate histogram) and the
/// latest published report.
pub struct ServeState {
    table: Mutex<ProgressTable>,
    report_json: Mutex<Option<String>>,
}

impl Default for ServeState {
    fn default() -> ServeState {
        ServeState::new()
    }
}

impl ServeState {
    /// An empty progress table and no published report.
    pub fn new() -> ServeState {
        ServeState {
            table: Mutex::new(ProgressTable {
                rows: Vec::new(),
                snapshots: 0,
                draws: 0,
                accept_hist: Histogram::new(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
            }),
            report_json: Mutex::new(None),
        }
    }

    /// Publish the current report JSON (served at `/report`). Call at
    /// every merge point so mid-run scrapes see the latest sections.
    pub fn publish_report_json(&self, json: String) {
        *self.report_json.lock().expect("report lock") = Some(json);
    }

    /// Record one chain-progress snapshot: replaces the chain's row and
    /// updates the run totals. During sampling, the draws since the
    /// chain's last credit are added to `draws`; a snapshot arriving on a
    /// row already marked `"done"` starts a new run of that chain, whose
    /// credit restarts from zero.
    pub fn record_progress(&self, p: ChainProgress) {
        let mut table = self.table.lock().expect("progress lock");
        table.snapshots += 1;
        table.accept_hist.record(p.accept_rate);
        let (sampling, iteration) = (p.phase == "sampling", p.iteration);
        let i = match table.search(p.kernel, p.chain_index) {
            Ok(i) => {
                let row = &mut table.rows[i];
                if row.progress.phase == "done" {
                    row.credited = 0;
                }
                row.progress = p;
                i
            }
            Err(i) => {
                table.rows.insert(
                    i,
                    ChainRow {
                        progress: p,
                        credited: 0,
                    },
                );
                i
            }
        };
        if sampling {
            table.credit(i, iteration);
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
        let mut table = self.table.lock().expect("progress lock");
        let Ok(i) = table.search(kernel, chain_index) else {
            return;
        };
        let row = &mut table.rows[i].progress;
        let was_sampling = row.phase == "sampling";
        row.phase = "done";
        if was_sampling {
            row.iteration = iteration;
            table.credit(i, iteration);
        }
    }

    /// The `/metrics` body in Prometheus text exposition: the snapshot
    /// and draw counters, one `{kernel,chain}`-labelled sample per chain
    /// for each progress gauge, and the snapshot accept-rate histogram.
    pub fn render_metrics(&self) -> String {
        let table = self.table.lock().expect("progress lock");
        let mut out = format!(
            "# TYPE repro_progress_snapshots counter\nrepro_progress_snapshots {}\n\
             # TYPE repro_draws counter\nrepro_draws {}\n",
            table.snapshots, table.draws
        );
        for name in [
            "accept_rate",
            "divergences",
            "max_rank_r_hat",
            "min_ess_bulk",
        ] {
            out.push_str(&format!("# TYPE repro_{name} gauge\n"));
            for ChainRow { progress: p, .. } in &table.rows {
                let value = match name {
                    "accept_rate" => p.accept_rate,
                    "divergences" => p.divergences as f64,
                    "max_rank_r_hat" => p.max_rank_r_hat,
                    _ => p.min_ess_bulk,
                };
                out.push_str(&format!(
                    "repro_{name}{{kernel=\"{}\",chain=\"{}\"}} {}\n",
                    p.kernel,
                    p.chain_index,
                    prometheus_f64(value)
                ));
            }
        }
        prometheus_histogram(
            &mut out,
            "repro_snapshot_accept_rate",
            &table.accept_hist.snapshot(),
        );
        out
    }

    /// The `/progress` body: the latest per-chain snapshots as JSON.
    pub fn render_progress(&self) -> String {
        let table = self.table.lock().expect("progress lock");
        let mut out = String::from("{\"chains\":[");
        for (i, p) in table.rows.iter().map(|r| &r.progress).enumerate() {
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
            out.push_str(",\"max_rank_r_hat\":");
            json_f64(&mut out, p.max_rank_r_hat);
            out.push_str(",\"min_ess_bulk\":");
            json_f64(&mut out, p.min_ess_bulk);
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

/// A float in exposition form: `+Inf` / `-Inf` / `NaN` per the format
/// spec, shortest-round-trip decimal otherwise.
fn prometheus_f64(v: f64) -> String {
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
fn prometheus_histogram(out: &mut String, name: &str, snap: &HistogramSnapshot) {
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
/// and a parseable value, and no series (a metric name with one label
/// set, in any label order) may appear twice. Returns the first offence
/// with its line number.
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
    let mut series = std::collections::HashSet::new();
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
        let mut labels_seen = Vec::new();
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
                labels_seen.push(pair);
            }
            after[1..].trim_start()
        } else {
            rest
        };
        let value = value_part.split_whitespace().next().unwrap_or("");
        if !valid_value(value) {
            return Err(format!("line {n}: unparseable value {value:?}"));
        }
        labels_seen.sort_unstable();
        if !series.insert((name_part, labels_seen)) {
            return Err(format!("line {n}: duplicate series {line:?}"));
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

    fn sampling(kernel: &'static str, chain_index: usize, iteration: usize) -> ChainProgress {
        ChainProgress {
            kernel,
            chain_index,
            phase: "sampling",
            iteration,
            total: 400,
            accept_rate: 0.44,
            divergences: 0,
            max_rank_r_hat: 1.02,
            min_ess_bulk: 55.0,
        }
    }

    #[test]
    fn healthz_metrics_progress_report_roundtrip() {
        let state = Arc::new(ServeState::new());
        state.record_progress(sampling("MH", 0, 100));
        state.record_progress(ChainProgress {
            phase: "warmup",
            max_rank_r_hat: f64::NAN,
            min_ess_bulk: f64::NAN,
            ..sampling("HMC", 1, 50)
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
        assert!(
            body.contains("# TYPE repro_progress_snapshots counter\nrepro_progress_snapshots 2\n")
        );
        assert!(body.contains("# TYPE repro_draws counter\nrepro_draws 100\n"));
        assert!(body.contains(
            "# TYPE repro_accept_rate gauge\n\
             repro_accept_rate{kernel=\"HMC\",chain=\"1\"} 0.44\n\
             repro_accept_rate{kernel=\"MH\",chain=\"0\"} 0.44\n"
        ));
        assert!(body.contains("repro_max_rank_r_hat{kernel=\"MH\",chain=\"0\"} 1.02\n"));
        assert!(body.contains("repro_max_rank_r_hat{kernel=\"HMC\",chain=\"1\"} NaN\n"));
        assert!(body.contains("repro_min_ess_bulk{kernel=\"MH\",chain=\"0\"} 55\n"));
        assert!(body.contains("repro_divergences{kernel=\"HMC\",chain=\"1\"} 0\n"));
        assert!(body.contains("repro_snapshot_accept_rate_count 2\n"));

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
        let state = Arc::new(ServeState::new());
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
        let state = Arc::new(ServeState::new());
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
        let state = ServeState::new();
        state.record_progress(sampling("HMC", 1, 50));
        state.record_progress(sampling("HMC", 1, 100));
        state.record_progress(sampling("HMC", 1, 150));
        let metrics = state.render_metrics();
        assert!(metrics.contains("repro_draws 150\n"), "{metrics}");
        // The table keeps one row per chain, not one per snapshot.
        let progress = state.render_progress();
        assert_eq!(progress.matches("\"kernel\"").count(), 1);
        assert!(progress.contains("\"iteration\":150"));
    }

    #[test]
    fn mark_done_flips_phase_and_credits_draw_tail() {
        let state = ServeState::new();
        let snap = |it: usize| ChainProgress {
            total: 170,
            ..sampling("MH", 0, it)
        };
        state.record_progress(snap(50));
        state.record_progress(snap(100));
        // The run ends between snapshots (170 not divisible by 50):
        // mark_done credits the 70-draw tail and keeps the statistics.
        state.mark_done("MH", 0, 170);
        let metrics = state.render_metrics();
        assert!(metrics.contains("repro_draws 170\n"), "{metrics}");
        let progress = state.render_progress();
        assert!(progress.contains("\"phase\":\"done\""), "{progress}");
        assert!(progress.contains("\"iteration\":170"), "{progress}");
        assert!(progress.contains("\"max_rank_r_hat\":1.02"), "{progress}");
        // Idempotent: a second call credits nothing.
        state.mark_done("MH", 0, 170);
        assert!(state.render_metrics().contains("repro_draws 170\n"));
        // Unknown chains are ignored.
        state.mark_done("HMC", 9, 170);
    }

    #[test]
    fn mark_done_credits_only_the_draws_of_a_stopped_chain() {
        let state = ServeState::new();
        let snap = |phase: &'static str, it: usize, total: usize| ChainProgress {
            phase,
            total,
            ..sampling("HMC", 1, it)
        };
        // Stopped at draw 120 of 200: the row ends at 120, not 200.
        state.record_progress(snap("sampling", 50, 200));
        state.record_progress(snap("sampling", 100, 200));
        state.mark_done("HMC", 1, 120);
        assert!(state.render_metrics().contains("repro_draws 120\n"));
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
        assert!(state.render_metrics().contains("repro_draws 120\n"));
        assert!(!state.render_progress().contains("\"phase\":\"warmup\""));
    }

    #[test]
    fn a_chain_run_twice_is_credited_both_runs() {
        // Two 170-draw runs of MH chain 0 in one process, as when one
        // binary runs several analyses. The second run's first snapshot
        // lands on the row the first run marked done.
        let state = ServeState::new();
        for _ in 0..2 {
            state.record_progress(ChainProgress {
                phase: "warmup",
                total: 100,
                ..sampling("MH", 0, 50)
            });
            for it in [50, 100, 150] {
                state.record_progress(ChainProgress {
                    total: 170,
                    ..sampling("MH", 0, it)
                });
            }
            state.mark_done("MH", 0, 170);
        }
        let metrics = state.render_metrics();
        assert!(metrics.contains("repro_draws 340\n"), "{metrics}");
    }

    #[test]
    fn concurrent_chains_keep_their_own_labelled_values() {
        let state = ServeState::new();
        let chains = [("MH", 0), ("MH", 1), ("HMC", 0), ("HMC", 1)];
        std::thread::scope(|scope| {
            for (k, &(kernel, chain_index)) in chains.iter().enumerate() {
                let state = &state;
                scope.spawn(move || {
                    for it in 1..=200 {
                        state.record_progress(ChainProgress {
                            accept_rate: 0.125 * (k + 1) as f64,
                            divergences: k as u64,
                            max_rank_r_hat: 1.0 + 0.25 * k as f64,
                            min_ess_bulk: 10.0 * (k + 1) as f64,
                            ..sampling(kernel, chain_index, it)
                        });
                    }
                });
            }
        });
        let body = state.render_metrics();
        validate_exposition(&body).expect("exposition must parse");
        assert!(body.contains("repro_progress_snapshots 800\n"), "{body}");
        assert!(body.contains("repro_draws 800\n"), "{body}");
        for (k, (kernel, chain_index)) in chains.into_iter().enumerate() {
            let labels = format!("{{kernel=\"{kernel}\",chain=\"{chain_index}\"}}");
            for (name, value) in [
                ("accept_rate", 0.125 * (k + 1) as f64),
                ("divergences", k as f64),
                ("max_rank_r_hat", 1.0 + 0.25 * k as f64),
                ("min_ess_bulk", 10.0 * (k + 1) as f64),
            ] {
                let series = format!("repro_{name}{labels} ");
                let samples: Vec<&str> = body.lines().filter(|l| l.starts_with(&series)).collect();
                assert_eq!(samples, [format!("{series}{value}")], "{body}");
            }
        }
    }

    #[test]
    fn snapshot_accept_rate_histogram_is_cumulative_and_typed() {
        let state = ServeState::new();
        for (chain_index, accept_rate) in [0.0625, 0.375, 0.9375].into_iter().enumerate() {
            state.record_progress(ChainProgress {
                accept_rate,
                ..sampling("MH", chain_index, 50)
            });
        }
        let text = state.render_metrics();
        validate_exposition(&text).expect("exposition must parse");
        let name = "repro_snapshot_accept_rate";
        assert!(text.contains(&format!("# TYPE {name} histogram\n")));
        // Buckets are cumulative: 1 up to 0.3, 2 from 0.4, the +Inf total.
        for (le, count) in [("0.1", 1), ("0.3", 1), ("0.4", 2), ("0.9", 2), ("+Inf", 3)] {
            let line = format!("{name}_bucket{{le=\"{le}\"}} {count}\n");
            assert!(text.contains(&line), "missing {line:?} in\n{text}");
        }
        assert!(text.contains(&format!("{name}_sum 1.375\n")));
        assert!(text.contains(&format!("{name}_count 3\n")));
        for q in ["p50", "p90", "p99"] {
            assert!(text.contains(&format!("# TYPE {name}_{q} gauge\n{name}_{q} ")));
        }
    }

    #[test]
    fn validator_accepts_good_and_rejects_bad() {
        let good = "# TYPE a counter\na 1\n# TYPE b gauge\nb{x=\"1\",y=\"z\"} 2.5\nb{x=\"2\",y=\"z\"} 3\nc_bucket{le=\"+Inf\"} 3\nd NaN\n";
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
        assert!(
            validate_exposition("a 1\na 2\n").is_err(),
            "duplicate series"
        );
        assert!(
            validate_exposition("b{x=\"1\",y=\"z\"} 1\nb{y=\"z\",x=\"1\"} 2\n").is_err(),
            "duplicate series, labels reordered"
        );
    }

    #[test]
    fn exposition_of_an_empty_table_validates() {
        validate_exposition(&ServeState::new().render_metrics())
            .expect("render must self-validate");
    }
}
