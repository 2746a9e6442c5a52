//! Run reports: the snapshot form of the metrics, with text and JSON
//! rendering.
//!
//! A [`RunReport`] is a named list of [`Section`]s, each a named list of
//! [`Entry`]s. Subsystems append sections at snapshot time; the
//! experiment binaries render the result with [`RunReport::to_text`] or
//! dump it with [`RunReport::write_json`]. JSON is hand-rolled (the
//! in-tree serde is a marker shim with no codegen): numbers use Rust's
//! shortest-round-trip formatting and non-finite floats become `null`.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::{json_f64, json_string};
use crate::metrics::Histogram;

/// An owned histogram snapshot.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HistogramSnapshot {
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1`; last is overflow).
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (`NaN` when empty or untracked).
    pub min: f64,
    /// Largest sample (`NaN` when empty or untracked).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean sample (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Interpolated quantile estimate for `0 <= q <= 1`, Prometheus
    /// `histogram_quantile`-style: the rank `q·count` is located in the
    /// cumulative bucket counts and interpolated linearly inside the
    /// containing bucket. The first bucket's lower edge is the tracked
    /// `min` when finite (else its own bound — no interpolation); the
    /// overflow bucket's upper edge is the tracked `max` when finite
    /// (else the estimate saturates at the last bound). `NaN` when the
    /// histogram is empty or `q` is out of range.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || !(0.0..=1.0).contains(&q) || self.bounds.is_empty() {
            return f64::NAN;
        }
        let target = q * self.count as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let rank_at_entry = below as f64;
            below += c;
            if (below as f64) < target || c == 0 {
                continue;
            }
            let last = *self.bounds.last().expect("bounds checked non-empty");
            let (lower, upper) = if i == 0 {
                let b = self.bounds[0];
                (if self.min.is_finite() { self.min } else { b }, b)
            } else if i < self.bounds.len() {
                (self.bounds[i - 1], self.bounds[i])
            } else if self.max.is_finite() {
                (last, self.max)
            } else {
                return last;
            };
            let frac = ((target - rank_at_entry) / c as f64).clamp(0.0, 1.0);
            return lower + (upper - lower) * frac;
        }
        f64::NAN
    }
}

/// One metric value.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Value {
    /// A monotone count.
    Counter(u64),
    /// A point-in-time value.
    Gauge(f64),
    /// Accumulated wall-clock seconds.
    SpanSecs(f64),
    /// A bucketed distribution.
    Histogram(HistogramSnapshot),
}

/// A named metric value.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Entry {
    /// Metric name (`lower_snake`, unit suffixes like `_secs`).
    pub name: String,
    /// The recorded value.
    pub value: Value,
}

/// A named group of entries, conventionally `"<crate>.<component>"`.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Section {
    /// Section name.
    pub name: String,
    /// Entries in insertion order.
    pub entries: Vec<Entry>,
}

impl Section {
    /// An empty section.
    pub fn new(name: &str) -> Section {
        Section {
            name: name.to_string(),
            entries: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, value: Value) -> &mut Section {
        self.entries.push(Entry {
            name: name.to_string(),
            value,
        });
        self
    }

    /// Append a counter entry.
    pub fn counter(&mut self, name: &str, v: u64) -> &mut Section {
        self.push(name, Value::Counter(v))
    }

    /// Append a gauge entry.
    pub fn gauge(&mut self, name: &str, v: f64) -> &mut Section {
        self.push(name, Value::Gauge(v))
    }

    /// Append a wall-clock span entry.
    pub fn span_secs(&mut self, name: &str, secs: f64) -> &mut Section {
        self.push(name, Value::SpanSecs(secs))
    }

    /// Append a histogram entry from a live histogram.
    pub fn histogram(&mut self, name: &str, h: &Histogram) -> &mut Section {
        self.push(name, Value::Histogram(h.snapshot()))
    }

    /// Look up an entry by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
    }
}

/// A complete run snapshot.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RunReport {
    /// Report name (usually the binary or pipeline name).
    pub name: String,
    /// Sections in insertion order.
    pub sections: Vec<Section>,
}

impl RunReport {
    /// An empty report.
    pub fn new(name: &str) -> RunReport {
        RunReport {
            name: name.to_string(),
            sections: Vec::new(),
        }
    }

    /// Get or create the section with the given name.
    pub fn section(&mut self, name: &str) -> &mut Section {
        if let Some(idx) = self.sections.iter().position(|s| s.name == name) {
            return &mut self.sections[idx];
        }
        self.sections.push(Section::new(name));
        self.sections.last_mut().expect("just pushed")
    }

    /// Append a fully-built section.
    pub fn push_section(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// Look up a section by name.
    pub fn get(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Absorb another report's sections.
    pub fn merge(&mut self, other: RunReport) {
        self.sections.extend(other.sections);
    }

    /// Absorb another report's sections under a name prefix
    /// (`"<prefix>.<section>"`) — for binaries that run several
    /// campaigns and need the sections kept apart.
    pub fn merge_prefixed(&mut self, other: RunReport, prefix: &str) {
        for mut s in other.sections {
            s.name = format!("{prefix}.{}", s.name);
            self.sections.push(s);
        }
    }

    /// Render as aligned human-readable text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== run report: {} ==", self.name);
        for section in &self.sections {
            let _ = writeln!(out, "[{}]", section.name);
            let width = section
                .entries
                .iter()
                .map(|e| e.name.len())
                .max()
                .unwrap_or(0);
            for e in &section.entries {
                match &e.value {
                    Value::Counter(v) => {
                        let _ = writeln!(out, "  {:width$}  {v}", e.name);
                    }
                    Value::Gauge(v) => {
                        let _ = writeln!(out, "  {:width$}  {v:.6}", e.name);
                    }
                    Value::SpanSecs(s) => {
                        let _ = writeln!(out, "  {:width$}  {s:.3} s", e.name);
                    }
                    Value::Histogram(h) => {
                        let _ = write!(
                            out,
                            "  {:width$}  n={} mean={} min={} max={} p50={} p90={} p99={} |",
                            e.name,
                            h.count,
                            text_f64(h.mean()),
                            text_f64(h.min),
                            text_f64(h.max),
                            text_f64(h.quantile(0.5)),
                            text_f64(h.quantile(0.9)),
                            text_f64(h.quantile(0.99))
                        );
                        for (i, c) in h.counts.iter().enumerate() {
                            match h.bounds.get(i) {
                                Some(b) => {
                                    let _ = write!(out, " le{b}:{c}");
                                }
                                None => {
                                    let _ = write!(out, " inf:{c}");
                                }
                            }
                        }
                        let _ = writeln!(out);
                    }
                }
            }
        }
        out
    }

    /// Render as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"name\":");
        json_string(&mut out, &self.name);
        out.push_str(",\"sections\":[");
        for (i, section) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(&mut out, &section.name);
            out.push_str(",\"entries\":[");
            for (j, e) in section.entries.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                json_string(&mut out, &e.name);
                match &e.value {
                    Value::Counter(v) => {
                        let _ = write!(out, ",\"kind\":\"counter\",\"value\":{v}");
                    }
                    Value::Gauge(v) => {
                        out.push_str(",\"kind\":\"gauge\",\"value\":");
                        json_f64(&mut out, *v);
                    }
                    Value::SpanSecs(s) => {
                        out.push_str(",\"kind\":\"span\",\"secs\":");
                        json_f64(&mut out, *s);
                    }
                    Value::Histogram(h) => {
                        let _ = write!(out, ",\"kind\":\"histogram\",\"count\":{}", h.count);
                        out.push_str(",\"sum\":");
                        json_f64(&mut out, h.sum);
                        out.push_str(",\"mean\":");
                        json_f64(&mut out, h.mean());
                        out.push_str(",\"min\":");
                        json_f64(&mut out, h.min);
                        out.push_str(",\"max\":");
                        json_f64(&mut out, h.max);
                        out.push_str(",\"p50\":");
                        json_f64(&mut out, h.quantile(0.5));
                        out.push_str(",\"p90\":");
                        json_f64(&mut out, h.quantile(0.9));
                        out.push_str(",\"p99\":");
                        json_f64(&mut out, h.quantile(0.99));
                        out.push_str(",\"buckets\":[");
                        for (k, c) in h.counts.iter().enumerate() {
                            if k > 0 {
                                out.push(',');
                            }
                            out.push_str("{\"le\":");
                            match h.bounds.get(k) {
                                Some(b) => json_f64(&mut out, *b),
                                None => out.push_str("null"),
                            }
                            let _ = write!(out, ",\"count\":{c}}}");
                        }
                        out.push(']');
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Write the JSON form to a file atomically (temp file + rename,
    /// with a trailing newline) — an interrupted run never leaves a
    /// truncated report where a good one used to be.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut json = self.to_json();
        json.push('\n');
        crate::write_atomic(path, json.as_bytes())
    }
}

/// A float for text rendering: `{:.3}`, or the literal `null` when
/// non-finite (an empty histogram's mean/min/max) so text and JSON agree
/// on how "no observations" reads.
fn text_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut report = RunReport::new("fig_test");
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.record(0.5);
        h.record(50.0);
        report
            .section("netsim.queue")
            .counter("events_processed", 42)
            .gauge("depth_high_water", 7.0)
            .span_secs("simulate_secs", 0.25)
            .histogram("export_delay_secs", &h);
        report
    }

    #[test]
    fn section_get_or_create_reuses() {
        let mut r = RunReport::new("x");
        r.section("a").counter("n", 1);
        r.section("a").counter("m", 2);
        assert_eq!(r.sections.len(), 1);
        assert_eq!(r.sections[0].entries.len(), 2);
        assert_eq!(r.get("a").unwrap().get("n"), Some(&Value::Counter(1)));
    }

    #[test]
    fn text_rendering_mentions_every_entry() {
        let text = sample_report().to_text();
        for needle in [
            "== run report: fig_test ==",
            "[netsim.queue]",
            "events_processed",
            "depth_high_water",
            "simulate_secs",
            "export_delay_secs",
            "le1:1",
            "inf:1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let json = sample_report().to_json();
        // Structural spot-checks (no JSON parser in-tree).
        assert!(json.starts_with("{\"name\":\"fig_test\""));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"kind\":\"counter\",\"value\":42"));
        assert!(json.contains("\"kind\":\"histogram\",\"count\":2"));
        assert!(json.contains("{\"le\":null,\"count\":1}"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn json_escapes_strings_and_nonfinite() {
        let mut r = RunReport::new("a\"b\\c\nd");
        r.section("s").gauge("nan_gauge", f64::NAN);
        let json = r.to_json();
        assert!(json.contains("\"a\\\"b\\\\c\\nd\""));
        assert!(json.contains("\"value\":null"));
    }

    #[test]
    fn empty_histogram_renders_null_exact_bytes() {
        // Zero observations must read `null`, never `NaN`, in both
        // renderings; this test locks the exact bytes.
        let mut r = RunReport::new("empty");
        let h = Histogram::new(&[1.0]);
        r.section("s").histogram("idle_hist", &h);
        assert_eq!(
            r.to_text(),
            "== run report: empty ==\n\
             [s]\n  idle_hist  n=0 mean=null min=null max=null \
             p50=null p90=null p99=null | le1:0 inf:0\n"
        );
        assert_eq!(
            r.to_json(),
            "{\"name\":\"empty\",\"sections\":[{\"name\":\"s\",\"entries\":[\
             {\"name\":\"idle_hist\",\"kind\":\"histogram\",\"count\":0,\
             \"sum\":0,\"mean\":null,\"min\":null,\"max\":null,\
             \"p50\":null,\"p90\":null,\"p99\":null,\
             \"buckets\":[{\"le\":1,\"count\":0},{\"le\":null,\"count\":0}]}]}]}"
        );
    }

    #[test]
    fn single_bin_histogram_quantiles_exact_bytes() {
        // One bound → two buckets; both samples land under the bound, so
        // quantiles interpolate between the tracked min and the bound.
        let mut r = RunReport::new("single");
        let mut h = Histogram::new(&[1.0]);
        h.record(0.5);
        h.record(0.75);
        r.section("s").histogram("tiny_hist", &h);
        assert_eq!(
            r.to_text(),
            "== run report: single ==\n\
             [s]\n  tiny_hist  n=2 mean=0.625 min=0.500 max=0.750 \
             p50=0.750 p90=0.950 p99=0.995 | le1:2 inf:0\n"
        );
        assert_eq!(
            r.to_json(),
            "{\"name\":\"single\",\"sections\":[{\"name\":\"s\",\"entries\":[\
             {\"name\":\"tiny_hist\",\"kind\":\"histogram\",\"count\":2,\
             \"sum\":1.25,\"mean\":0.625,\"min\":0.5,\"max\":0.75,\
             \"p50\":0.75,\"p90\":0.95,\"p99\":0.995,\
             \"buckets\":[{\"le\":1,\"count\":2},{\"le\":null,\"count\":0}]}]}]}"
        );
    }

    #[test]
    fn quantile_interpolates_and_handles_edges() {
        // 10 samples of 1..=10 against decade bounds: the interior
        // buckets interpolate linearly, the overflow bucket saturates.
        let mut h = Histogram::new(&[2.0, 4.0, 6.0, 8.0]);
        for i in 1..=10 {
            h.record(i as f64);
        }
        let s = h.snapshot();
        // target rank 5 sits halfway through the (4,6] bucket.
        assert_eq!(s.quantile(0.5), 5.0);
        // Overflow bucket with a finite max interpolates toward it.
        assert!(
            (s.quantile(0.99) - 9.9).abs() < 1e-12,
            "{}",
            s.quantile(0.99)
        );
        assert_eq!(s.quantile(1.0), 10.0);
        assert_eq!(s.quantile(0.0), s.min);
        assert!(s.quantile(-0.1).is_nan());
        assert!(s.quantile(1.1).is_nan());
        assert!(s.quantile(f64::NAN).is_nan());

        // Snapshots without tracked extremes (NaN min/max): the first bucket
        // collapses to its bound and the overflow saturates at the last.
        let untracked = HistogramSnapshot {
            min: f64::NAN,
            max: f64::NAN,
            ..s.clone()
        };
        assert_eq!(untracked.quantile(0.05), 2.0);
        assert_eq!(untracked.quantile(0.99), 8.0);
    }

    #[test]
    fn merge_prefixed_renames_sections() {
        let mut base = RunReport::new("base");
        let mut other = RunReport::new("other");
        other.section("bgpsim.network").counter("n", 1);
        base.merge_prefixed(other, "1min");
        assert!(base.get("1min.bgpsim.network").is_some());
    }

    #[test]
    fn write_json_round_trips_to_disk() {
        let path = std::env::temp_dir().join("obs_report_test.json");
        sample_report().write_json(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.ends_with("\n"));
        assert!(body.contains("fig_test"));
        let _ = std::fs::remove_file(&path);
    }
}
