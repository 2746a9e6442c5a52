//! Self-contained HTML diagnostics dashboard (`--dash <path>`).
//!
//! A [`Dashboard`] collects plot data and the final [`RunReport`] and
//! renders one HTML file with **zero external assets**: inline CSS, SVG
//! drawn by hand (no JS, no fonts, no CDN), so the artifact can be
//! attached to a CI run or mailed around and still open offline years
//! later. The generated file contains, in order:
//!
//! * `#summary` — key/value facts about the run;
//! * `#diagnostics` — the per-coordinate R̂/ESS table colour-coded by
//!   the usual thresholds, plus per-chain E-BFMI;
//! * `#traces` — per-coordinate trace plots, one line per chain, with
//!   divergent draws as red tick marks;
//! * `#marginals` — posterior histograms with mean and 95 % HPDI bands;
//! * `#faults` / `#coverage` — the PR-4 fault-injection and coverage
//!   report sections, when present;
//! * `#waterfall` — the phase-span waterfall (from wall-clock trace
//!   spans, or bar-chart fallback from `SpanSecs` entries);
//! * `#report` — the full report as text plus the exact JSON embedded
//!   in a `<script type="application/json">` block for tooling.
//!
//! Thresholds follow common MCMC practice: R̂ green at ≤ 1.01, amber at
//! ≤ 1.05; ESS green at ≥ 400, amber at ≥ 100; E-BFMI flagged below 0.3.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::report::{RunReport, Value};
use crate::trace::{TraceBuffer, TraceKind, TraceTime};

/// One per-coordinate trace plot: draws per chain, plus divergent-draw
/// indices to mark.
#[derive(Clone, Debug, Default)]
pub struct TracePlot {
    /// Plot title (usually the coordinate name, e.g. `"theta[AS3]"`).
    pub title: String,
    /// One `(label, draws)` series per chain.
    pub series: Vec<(String, Vec<f64>)>,
    /// Draw indices to mark as divergent (red ticks).
    pub marks: Vec<usize>,
}

/// One marginal-posterior histogram with its summary geometry.
#[derive(Clone, Debug)]
pub struct MarginalPlot {
    /// Plot title (the coordinate name).
    pub title: String,
    /// Lower edge of the first bin.
    pub lo: f64,
    /// Upper edge of the last bin.
    pub hi: f64,
    /// Uniform-bin counts over `[lo, hi]`.
    pub counts: Vec<u64>,
    /// Posterior mean (vertical line).
    pub mean: f64,
    /// 95 % HPDI `(low, high)` (shaded band).
    pub hpdi: (f64, f64),
}

/// One row of the convergence-diagnostics table.
#[derive(Clone, Debug)]
pub struct DiagRow {
    /// Coordinate name.
    pub name: String,
    /// Rank-normalized split-R̂ (max of bulk and folded variants).
    pub rank_r_hat: f64,
    /// Bulk effective sample size.
    pub ess_bulk: f64,
    /// Tail effective sample size.
    pub ess_tail: f64,
}

/// One bar of the phase waterfall, in wall-clock seconds from the run
/// epoch.
#[derive(Clone, Debug)]
pub struct SpanBar {
    /// Span label.
    pub label: String,
    /// Start offset in seconds.
    pub start: f64,
    /// End offset in seconds (`>= start`).
    pub end: f64,
}

/// Builder for the single-file dashboard.
#[derive(Default)]
pub struct Dashboard {
    title: String,
    summary: Vec<(String, String)>,
    diagnostics: Vec<DiagRow>,
    e_bfmi: Vec<f64>,
    traces: Vec<TracePlot>,
    marginals: Vec<MarginalPlot>,
    spans: Vec<SpanBar>,
    report: Option<RunReport>,
}

impl Dashboard {
    /// An empty dashboard with a page title.
    pub fn new(title: &str) -> Dashboard {
        Dashboard {
            title: title.to_string(),
            ..Dashboard::default()
        }
    }

    /// Append a key/value line to `#summary`.
    pub fn summary_item(&mut self, key: &str, value: &str) -> &mut Dashboard {
        self.summary.push((key.to_string(), value.to_string()));
        self
    }

    /// Append a diagnostics-table row.
    pub fn push_diag_row(&mut self, row: DiagRow) -> &mut Dashboard {
        self.diagnostics.push(row);
        self
    }

    /// Set the per-chain E-BFMI values (NaN entries render as `—`).
    pub fn set_e_bfmi(&mut self, per_chain: Vec<f64>) -> &mut Dashboard {
        self.e_bfmi = per_chain;
        self
    }

    /// Append a trace plot.
    pub fn push_trace(&mut self, plot: TracePlot) -> &mut Dashboard {
        self.traces.push(plot);
        self
    }

    /// Append a marginal-posterior plot.
    pub fn push_marginal(&mut self, plot: MarginalPlot) -> &mut Dashboard {
        self.marginals.push(plot);
        self
    }

    /// Append one waterfall bar.
    pub fn push_span(&mut self, bar: SpanBar) -> &mut Dashboard {
        self.spans.push(bar);
        self
    }

    /// Attach the final run report: renders `#faults`/`#coverage` when
    /// those sections exist, the `SpanSecs` waterfall fallback, and the
    /// full text + embedded JSON under `#report`.
    pub fn set_report(&mut self, report: &RunReport) -> &mut Dashboard {
        self.report = Some(report.clone());
        self
    }

    /// Render the complete single-file HTML document.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(64 * 1024);
        out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
        let _ = writeln!(out, "<title>{}</title>", esc(&self.title));
        out.push_str("<style>\n");
        out.push_str(CSS);
        out.push_str("</style>\n</head>\n<body>\n");
        let _ = writeln!(out, "<h1>{}</h1>", esc(&self.title));

        self.render_summary(&mut out);
        self.render_diagnostics(&mut out);
        self.render_traces(&mut out);
        self.render_marginals(&mut out);
        self.render_report_table(&mut out, "faults", "Fault injection", |s| {
            s == "faults" || s.ends_with(".faults")
        });
        self.render_report_table(&mut out, "coverage", "Coverage", |s| {
            s == "coverage" || s.ends_with(".coverage")
        });
        self.render_waterfall(&mut out);
        self.render_report(&mut out);

        out.push_str("</body>\n</html>\n");
        out
    }

    /// Render to `path` atomically (temp file + rename).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        crate::write_atomic(path, self.render().as_bytes())
    }

    fn render_summary(&self, out: &mut String) {
        out.push_str("<section id=\"summary\">\n<h2>Summary</h2>\n<table>\n");
        for (k, v) in &self.summary {
            let _ = writeln!(out, "<tr><th>{}</th><td>{}</td></tr>", esc(k), esc(v));
        }
        out.push_str("</table>\n</section>\n");
    }

    fn render_diagnostics(&self, out: &mut String) {
        out.push_str("<section id=\"diagnostics\">\n<h2>Convergence diagnostics</h2>\n");
        if self.diagnostics.is_empty() {
            out.push_str("<p>No diagnostics recorded.</p>\n");
        } else {
            out.push_str(
                "<table>\n<tr><th>coordinate</th><th>rank-R&#770;</th>\
                 <th>ESS bulk</th><th>ESS tail</th></tr>\n",
            );
            for row in &self.diagnostics {
                let _ = writeln!(
                    out,
                    "<tr><th>{}</th><td class=\"{}\">{}</td>\
                     <td class=\"{}\">{}</td><td class=\"{}\">{}</td></tr>",
                    esc(&row.name),
                    r_hat_class(row.rank_r_hat),
                    num(row.rank_r_hat),
                    ess_class(row.ess_bulk),
                    num(row.ess_bulk),
                    ess_class(row.ess_tail),
                    num(row.ess_tail)
                );
            }
            out.push_str("</table>\n");
        }
        if !self.e_bfmi.is_empty() {
            out.push_str("<p>E-BFMI per chain:");
            for (i, v) in self.e_bfmi.iter().enumerate() {
                let class = if v.is_finite() && *v < 0.3 {
                    "bad"
                } else {
                    "good"
                };
                let _ = write!(
                    out,
                    " <span class=\"{class}\">chain {i}: {}</span>",
                    num(*v)
                );
            }
            out.push_str("</p>\n");
        }
        out.push_str("</section>\n");
    }

    fn render_traces(&self, out: &mut String) {
        out.push_str("<section id=\"traces\">\n<h2>Trace plots</h2>\n");
        if self.traces.is_empty() {
            out.push_str("<p>No traces recorded.</p>\n");
        }
        for plot in &self.traces {
            let _ = writeln!(out, "<figure><figcaption>{}</figcaption>", esc(&plot.title));
            svg_trace(out, plot);
            out.push_str("</figure>\n");
        }
        out.push_str("</section>\n");
    }

    fn render_marginals(&self, out: &mut String) {
        out.push_str("<section id=\"marginals\">\n<h2>Marginal posteriors</h2>\n");
        if self.marginals.is_empty() {
            out.push_str("<p>No marginals recorded.</p>\n");
        }
        for plot in &self.marginals {
            let _ = writeln!(out, "<figure><figcaption>{}</figcaption>", esc(&plot.title));
            svg_marginal(out, plot);
            out.push_str("</figure>\n");
        }
        out.push_str("</section>\n");
    }

    /// Render every matching report section as a table under one id.
    fn render_report_table(
        &self,
        out: &mut String,
        id: &str,
        heading: &str,
        matches: impl Fn(&str) -> bool,
    ) {
        let Some(report) = &self.report else { return };
        let sections: Vec<_> = report
            .sections
            .iter()
            .filter(|s| matches(&s.name))
            .collect();
        if sections.is_empty() {
            return;
        }
        let _ = writeln!(out, "<section id=\"{id}\">\n<h2>{}</h2>", esc(heading));
        for section in sections {
            let _ = writeln!(out, "<h3>{}</h3>\n<table>", esc(&section.name));
            for e in &section.entries {
                let rendered = match &e.value {
                    Value::Counter(v) => v.to_string(),
                    Value::Gauge(v) => num(*v),
                    Value::SpanSecs(s) => format!("{} s", num(*s)),
                    Value::Histogram(h) => format!(
                        "n={} mean={} p50={} p90={} p99={}",
                        h.count,
                        num(h.mean()),
                        num(h.quantile(0.5)),
                        num(h.quantile(0.9)),
                        num(h.quantile(0.99))
                    ),
                };
                let _ = writeln!(
                    out,
                    "<tr><th>{}</th><td>{}</td></tr>",
                    esc(&e.name),
                    esc(&rendered)
                );
            }
            out.push_str("</table>\n");
        }
        out.push_str("</section>\n");
    }

    fn render_waterfall(&self, out: &mut String) {
        // Explicit spans win; otherwise fall back to SpanSecs entries
        // stacked sequentially (durations are real, offsets synthetic).
        let mut bars = self.spans.clone();
        if bars.is_empty() {
            if let Some(report) = &self.report {
                let mut at = 0.0;
                for section in &report.sections {
                    for e in &section.entries {
                        if let Value::SpanSecs(secs) = e.value {
                            bars.push(SpanBar {
                                label: format!("{}.{}", section.name, e.name),
                                start: at,
                                end: at + secs,
                            });
                            at += secs;
                        }
                    }
                }
            }
        }
        if bars.is_empty() {
            return;
        }
        out.push_str("<section id=\"waterfall\">\n<h2>Phase waterfall</h2>\n");
        svg_waterfall(out, &bars);
        out.push_str("</section>\n");
    }

    fn render_report(&self, out: &mut String) {
        let Some(report) = &self.report else { return };
        out.push_str("<section id=\"report\">\n<h2>Run report</h2>\n");
        let _ = writeln!(out, "<pre>{}</pre>", esc(&report.to_text()));
        // The exact JSON, machine-readable in place. Every `<` is
        // replaced with its \u-escape (still valid JSON) so no
        // `</script>` sequence can terminate the block early.
        let json = report.to_json().replace('<', "\\u003c");
        let _ = writeln!(
            out,
            "<script type=\"application/json\" id=\"report-json\">{json}</script>"
        );
        out.push_str("</section>\n");
    }
}

/// Pair wall-clock `Begin`/`End` events per lane into [`SpanBar`]s.
///
/// Nested spans on one lane pair LIFO, matching the Chrome-trace `B`/`E`
/// semantics. Unclosed spans (or `End`s whose `Begin` was overwritten in
/// the ring) are dropped.
pub fn spans_from_trace(trace: &TraceBuffer) -> Vec<SpanBar> {
    let mut stacks: Vec<(u64, Vec<(&'static str, f64)>)> = Vec::new();
    let mut bars = Vec::new();
    for ev in trace.events() {
        let TraceTime::Wall(t) = ev.time else {
            continue;
        };
        let lane = ev.lane.0;
        match ev.kind {
            TraceKind::Begin => match stacks.iter_mut().find(|(l, _)| *l == lane) {
                Some((_, stack)) => stack.push((ev.name, t)),
                None => stacks.push((lane, vec![(ev.name, t)])),
            },
            TraceKind::End => {
                if let Some((_, stack)) = stacks.iter_mut().find(|(l, _)| *l == lane) {
                    if let Some((name, start)) = stack.pop() {
                        let label = match trace.lane_name(ev.lane) {
                            Some(lane_name) => format!("{lane_name}: {name}"),
                            None => name.to_string(),
                        };
                        bars.push(SpanBar {
                            label,
                            start,
                            end: t.max(start),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    bars.sort_by(|a, b| a.start.total_cmp(&b.start));
    bars
}

/// Escape text for HTML body and attribute contexts.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// A number for table cells: 3 significant-ish decimals, `—` when NaN.
fn num(v: f64) -> String {
    if !v.is_finite() {
        "—".to_string()
    } else if v == 0.0 || (v.abs() >= 0.001 && v.abs() < 100_000.0) {
        let s = format!("{v:.3}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        s.to_string()
    } else {
        format!("{v:e}")
    }
}

fn r_hat_class(v: f64) -> &'static str {
    if !v.is_finite() {
        "warn"
    } else if v <= 1.01 {
        "good"
    } else if v <= 1.05 {
        "warn"
    } else {
        "bad"
    }
}

fn ess_class(v: f64) -> &'static str {
    if !v.is_finite() {
        "warn"
    } else if v >= 400.0 {
        "good"
    } else if v >= 100.0 {
        "warn"
    } else {
        "bad"
    }
}

/// An SVG coordinate: fixed short precision keeps files compact.
fn coord(v: f64) -> String {
    format!("{v:.1}")
}

const TRACE_W: f64 = 640.0;
const TRACE_H: f64 = 160.0;
const PAD: f64 = 34.0;

/// Linear map of `v` from `[lo, hi]` to `[out_lo, out_hi]`, clamped.
fn scale(v: f64, lo: f64, hi: f64, out_lo: f64, out_hi: f64) -> f64 {
    if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
        return (out_lo + out_hi) / 2.0;
    }
    let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
    out_lo + t * (out_hi - out_lo)
}

/// `(min, max)` over finite values, padded when degenerate.
fn finite_range<'a>(values: impl Iterator<Item = &'a f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if lo > hi {
        return (0.0, 1.0);
    }
    if lo == hi {
        return (lo - 0.5, hi + 0.5);
    }
    (lo, hi)
}

const PALETTE: [&str; 6] = [
    "#0a6fb8", "#d1495b", "#2e8b57", "#b8860b", "#6a4fa3", "#5f6a72",
];

fn svg_open(out: &mut String, w: f64, h: f64) {
    let _ = writeln!(
        out,
        "<svg viewBox=\"0 0 {w:.0} {h:.0}\" width=\"{w:.0}\" height=\"{h:.0}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">"
    );
}

/// Axis frame plus min/max labels on the y range.
fn svg_frame(out: &mut String, w: f64, h: f64, lo: f64, hi: f64) {
    let _ = writeln!(
        out,
        "<rect x=\"{}\" y=\"4\" width=\"{}\" height=\"{}\" class=\"frame\"/>",
        coord(PAD),
        coord(w - PAD - 6.0),
        coord(h - 22.0)
    );
    let _ = writeln!(
        out,
        "<text x=\"{}\" y=\"12\" class=\"axis\">{}</text>",
        coord(PAD - 4.0),
        esc(&num(hi))
    );
    let _ = writeln!(
        out,
        "<text x=\"{}\" y=\"{}\" class=\"axis\">{}</text>",
        coord(PAD - 4.0),
        coord(h - 20.0),
        esc(&num(lo))
    );
}

fn svg_trace(out: &mut String, plot: &TracePlot) {
    let (w, h) = (TRACE_W, TRACE_H);
    let n = plot
        .series
        .iter()
        .map(|(_, draws)| draws.len())
        .max()
        .unwrap_or(0);
    let (lo, hi) = finite_range(plot.series.iter().flat_map(|(_, d)| d.iter()));
    svg_open(out, w, h);
    svg_frame(out, w, h, lo, hi);
    let x_of = |i: usize| scale(i as f64, 0.0, (n.max(2) - 1) as f64, PAD + 1.0, w - 7.0);
    let y_of = |v: f64| scale(v, lo, hi, h - 19.0, 5.0);
    for (s, (label, draws)) in plot.series.iter().enumerate() {
        let colour = PALETTE[s % PALETTE.len()];
        let mut points = String::new();
        for (i, &v) in draws.iter().enumerate() {
            if v.is_finite() {
                let _ = write!(points, "{},{} ", coord(x_of(i)), coord(y_of(v)));
            }
        }
        let _ = writeln!(
            out,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{colour}\" \
             stroke-width=\"1\"><title>{}</title></polyline>",
            points.trim_end(),
            esc(label)
        );
    }
    for &mark in &plot.marks {
        let x = coord(x_of(mark));
        let _ = writeln!(
            out,
            "<line x1=\"{x}\" y1=\"4\" x2=\"{x}\" y2=\"14\" class=\"divergence\"/>"
        );
    }
    let _ = writeln!(
        out,
        "<text x=\"{}\" y=\"{}\" class=\"axis\">draw 0..{}</text>",
        coord(w / 2.0),
        coord(h - 4.0),
        n.saturating_sub(1)
    );
    out.push_str("</svg>\n");
}

fn svg_marginal(out: &mut String, plot: &MarginalPlot) {
    let (w, h) = (320.0, 150.0);
    let max_count = plot.counts.iter().copied().max().unwrap_or(0).max(1) as f64;
    svg_open(out, w, h);
    svg_frame(out, w, h, 0.0, max_count);
    let x_of = |v: f64| scale(v, plot.lo, plot.hi, PAD + 1.0, w - 7.0);
    let y_of = |c: f64| scale(c, 0.0, max_count, h - 19.0, 5.0);
    // HPDI band under the bars.
    let (hl, hh) = plot.hpdi;
    if hl.is_finite() && hh.is_finite() {
        let _ = writeln!(
            out,
            "<rect x=\"{}\" y=\"5\" width=\"{}\" height=\"{}\" class=\"hpdi\"/>",
            coord(x_of(hl)),
            coord((x_of(hh) - x_of(hl)).max(1.0)),
            coord(h - 24.0)
        );
    }
    let nbins = plot.counts.len().max(1) as f64;
    let step = (plot.hi - plot.lo) / nbins;
    for (i, &c) in plot.counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let x0 = x_of(plot.lo + i as f64 * step);
        let x1 = x_of(plot.lo + (i as f64 + 1.0) * step);
        let y = y_of(c as f64);
        let _ = writeln!(
            out,
            "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" class=\"bar\"/>",
            coord(x0),
            coord(y),
            coord((x1 - x0 - 0.5).max(0.5)),
            coord(h - 19.0 - y)
        );
    }
    if plot.mean.is_finite() {
        let x = coord(x_of(plot.mean));
        let _ = writeln!(
            out,
            "<line x1=\"{x}\" y1=\"5\" x2=\"{x}\" y2=\"{}\" class=\"mean\"/>",
            coord(h - 19.0)
        );
    }
    let _ = writeln!(
        out,
        "<text x=\"{}\" y=\"{}\" class=\"axis\">{} … {}</text>",
        coord(w / 2.0),
        coord(h - 4.0),
        esc(&num(plot.lo)),
        esc(&num(plot.hi))
    );
    out.push_str("</svg>\n");
}

fn svg_waterfall(out: &mut String, bars: &[SpanBar]) {
    let row = 18.0;
    let w = 720.0;
    let label_w = 240.0;
    let h = 8.0 + row * bars.len() as f64;
    let (lo, hi) = finite_range(bars.iter().flat_map(|b| [&b.start, &b.end]));
    svg_open(out, w, h);
    for (i, bar) in bars.iter().enumerate() {
        let y = 4.0 + row * i as f64;
        let x0 = scale(bar.start, lo, hi, label_w, w - 60.0);
        let x1 = scale(bar.end, lo, hi, label_w, w - 60.0);
        let _ = writeln!(
            out,
            "<text x=\"{}\" y=\"{}\" class=\"label\">{}</text>",
            coord(label_w - 6.0),
            coord(y + 11.0),
            esc(&bar.label)
        );
        let _ = writeln!(
            out,
            "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"12\" class=\"span\"/>",
            coord(x0),
            coord(y),
            coord((x1 - x0).max(1.0))
        );
        let _ = writeln!(
            out,
            "<text x=\"{}\" y=\"{}\" class=\"axis\">{}s</text>",
            coord(x1 + 4.0),
            coord(y + 11.0),
            esc(&num(bar.end - bar.start))
        );
    }
    out.push_str("</svg>\n");
}

const CSS: &str = "\
body{font-family:system-ui,sans-serif;margin:1.5rem auto;max-width:60rem;\
padding:0 1rem;color:#1c2733;background:#fbfcfd}\
h1{font-size:1.4rem;border-bottom:2px solid #0a6fb8;padding-bottom:.3rem}\
h2{font-size:1.1rem;margin-top:1.6rem}\
h3{font-size:.95rem;color:#455563}\
section{margin-bottom:1rem}\
table{border-collapse:collapse;font-size:.85rem}\
th,td{border:1px solid #d4dde4;padding:.18rem .55rem;text-align:left}\
th{font-weight:600;background:#eef3f7}\
td.good{background:#e2f3e6}td.warn{background:#fdf3d8}td.bad{background:#fbdfdf}\
span.good{color:#1d7a36}span.bad{color:#b01818;font-weight:600}\
figure{margin:.6rem 0}\
figcaption{font-size:.85rem;font-weight:600;margin-bottom:.15rem}\
svg{background:#fff;border:1px solid #d4dde4}\
svg .frame{fill:none;stroke:#c3ced6;stroke-width:1}\
svg .axis{font-size:9px;fill:#5f6a72;text-anchor:end}\
svg .label{font-size:10px;fill:#1c2733;text-anchor:end}\
svg .divergence{stroke:#d1495b;stroke-width:1.5}\
svg .bar{fill:#0a6fb8;fill-opacity:.8}\
svg .hpdi{fill:#2e8b57;fill-opacity:.12}\
svg .mean{stroke:#d1495b;stroke-width:1.2}\
svg .span{fill:#0a6fb8;fill-opacity:.75}\
pre{font-size:.75rem;background:#f2f5f7;border:1px solid #d4dde4;\
padding:.6rem;overflow-x:auto}\
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Lane;

    fn full_dashboard() -> Dashboard {
        let mut report = RunReport::new("fig_test");
        report
            .section("faults")
            .counter("records_lost", 3)
            .gauge("outage_rate", 0.25);
        report.section("coverage").counter("as_observed", 12);
        report.section("because.mh").span_secs("warmup_secs", 1.5);
        let mut dash = Dashboard::new("fig09 <tiny>");
        dash.summary_item("scale", "tiny")
            .summary_item("chains", "2")
            .push_diag_row(DiagRow {
                name: "theta[AS3]".to_string(),
                rank_r_hat: 1.021,
                ess_bulk: 812.0,
                ess_tail: 120.0,
            })
            .push_diag_row(DiagRow {
                name: "theta[AS4]".to_string(),
                rank_r_hat: 1.003,
                ess_bulk: 2400.0,
                ess_tail: 900.0,
            })
            .set_e_bfmi(vec![0.9, 0.2])
            .push_trace(TracePlot {
                title: "theta[AS3]".to_string(),
                series: vec![
                    ("chain 0".to_string(), vec![0.1, 0.4, 0.3, 0.5]),
                    ("chain 1".to_string(), vec![0.2, 0.1, 0.6, 0.4]),
                ],
                marks: vec![2],
            })
            .push_marginal(MarginalPlot {
                title: "theta[AS3]".to_string(),
                lo: 0.0,
                hi: 1.0,
                counts: vec![1, 4, 9, 3, 0],
                mean: 0.45,
                hpdi: (0.2, 0.8),
            })
            .set_report(&report);
        dash
    }

    fn tag_count(html: &str, tag: &str) -> (usize, usize) {
        let opens = html.matches(&format!("<{tag}")).count();
        let closes = html.matches(&format!("</{tag}>")).count();
        (opens, closes)
    }

    #[test]
    fn renders_every_section_with_balanced_tags() {
        let html = full_dashboard().render();
        for id in [
            "id=\"summary\"",
            "id=\"diagnostics\"",
            "id=\"traces\"",
            "id=\"marginals\"",
            "id=\"faults\"",
            "id=\"coverage\"",
            "id=\"waterfall\"",
            "id=\"report\"",
        ] {
            assert!(html.contains(id), "missing {id}");
        }
        for tag in ["section", "table", "tr", "svg", "figure", "pre", "script"] {
            let (open, close) = tag_count(&html, tag);
            assert_eq!(open, close, "unbalanced <{tag}>: {open} vs {close}");
            assert!(open > 0, "no <{tag}> rendered at all");
        }
        // Threshold colouring lands where expected.
        assert!(html.contains("class=\"good\">1.003"));
        assert!(html.contains("class=\"warn\">1.021"));
        assert!(html.contains("class=\"good\">812"));
        assert!(html.contains("class=\"warn\">120"));
        assert!(html.contains("class=\"bad\">chain 1: 0.2"));
        // The divergence mark and the HPDI band made it into the SVG.
        assert!(html.contains("class=\"divergence\""));
        assert!(html.contains("class=\"hpdi\""));
    }

    #[test]
    fn self_contained_no_external_references() {
        let html = full_dashboard().render();
        // The only URL allowed is the SVG XML namespace.
        let stripped = html.replace("http://www.w3.org/2000/svg", "");
        assert!(!stripped.contains("http://"), "external http reference");
        assert!(!stripped.contains("https://"), "external https reference");
        for needle in ["<link", "src=", "@import", "url("] {
            assert!(!html.contains(needle), "external asset via {needle}");
        }
    }

    #[test]
    fn escapes_title_and_embeds_parseable_report_json() {
        let html = full_dashboard().render();
        assert!(html.contains("<h1>fig09 &lt;tiny&gt;</h1>"));
        let start = html
            .find("id=\"report-json\">")
            .expect("embedded report json")
            + "id=\"report-json\">".len();
        let end = start + html[start..].find("</script>").expect("script close");
        let json = &html[start..end];
        assert!(!json.contains('<'), "raw '<' inside the JSON block");
        assert!(json.starts_with("{\"name\":\"fig_test\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn esc_escapes_the_five_specials() {
        assert_eq!(esc("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&#39;");
        assert_eq!(esc("plain"), "plain");
    }

    #[test]
    fn waterfall_prefers_trace_spans_over_spansecs_fallback() {
        let mut trace = TraceBuffer::new(64);
        trace.set_lane_name(Lane(7), "chain 0");
        trace.begin_wall("warmup", Lane(7));
        trace.end_wall("warmup", Lane(7));
        trace.begin_wall("sampling", Lane(7));
        trace.end_wall("sampling", Lane(7));
        let bars = spans_from_trace(&trace);
        assert_eq!(bars.len(), 2);
        assert_eq!(bars[0].label, "chain 0: warmup");
        assert!(bars[0].end >= bars[0].start);

        let mut dash = Dashboard::new("t");
        for bar in bars {
            dash.push_span(bar);
        }
        let html = dash.render();
        assert!(html.contains("chain 0: warmup"));
        assert!(html.contains("id=\"waterfall\""));
    }

    #[test]
    fn nested_wall_spans_pair_lifo() {
        let mut trace = TraceBuffer::new(64);
        trace.begin_wall("outer", Lane::MAIN);
        trace.begin_wall("inner", Lane::MAIN);
        trace.end_wall("inner", Lane::MAIN);
        trace.end_wall("outer", Lane::MAIN);
        // An unmatched End on another lane is dropped, not mispaired.
        trace.end_wall("orphan", Lane(9));
        let bars = spans_from_trace(&trace);
        let labels: Vec<_> = bars.iter().map(|b| b.label.as_str()).collect();
        assert_eq!(labels.len(), 2);
        assert!(labels.contains(&"inner") && labels.contains(&"outer"));
    }

    #[test]
    fn empty_dashboard_still_renders_placeholders() {
        let html = Dashboard::new("empty").render();
        assert!(html.contains("id=\"summary\""));
        assert!(html.contains("No diagnostics recorded."));
        assert!(html.contains("No traces recorded."));
        // No report attached: the faults/coverage/report sections are
        // simply absent rather than empty shells.
        assert!(!html.contains("id=\"faults\""));
        assert!(!html.contains("id=\"report\""));
    }
}
