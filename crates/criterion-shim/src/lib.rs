//! Offline mini-`criterion`.
//!
//! crates.io is unreachable in the build container, so this crate
//! reimplements the small slice of the criterion API the bench suite
//! uses: `Criterion`, `benchmark_group`, `bench_function` /
//! `bench_with_input`, `BenchmarkId`, `Bencher::iter`, and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! Measurement model: each benchmark is auto-calibrated so one sample
//! takes ≳ 5 ms (`TARGET_SAMPLE_NANOS`), then `sample_size` samples are timed
//! with `std::time::Instant`. The mean / median / min per-iteration times
//! are printed and appended as JSON lines to
//! `target/criterion-shim/<group>.jsonl` (path overridable via
//! `CRITERION_SHIM_OUT`), which is what the repo's `BENCH_*.json`
//! baselines are built from. No statistical outlier analysis is
//! performed — numbers are honest raw timings.
//!
//! Like criterion, the bench binary takes an optional positional name
//! filter: `cargo bench -p bench --bench simulator -- beacon_burst` runs
//! only the benchmarks whose `group/id` label contains `beacon_burst`.

use std::fmt::Display;
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Calibration target: one sample should take at least this long.
const TARGET_SAMPLE_NANOS: u128 = 5_000_000; // 5 ms

/// The name filter, set once by `criterion_main!`'s `main`.
static FILTER: OnceLock<Option<String>> = OnceLock::new();

/// Take the name filter from the command line: the first argument that
/// is not a flag (cargo passes `--bench`). Called by `criterion_main!`.
#[doc(hidden)]
pub fn filter_from_args() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    FILTER.get_or_init(|| filter);
}

/// Top-level harness handle.
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 30 }
    }
}

impl Criterion {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "need at least two samples");
        self.sample_size = n;
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size,
        }
    }

    /// Run a free-standing benchmark (degenerate one-entry group).
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let n = self.sample_size;
        run_benchmark("", id, n, f);
        self
    }
}

/// Identifier for one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Build an id from any displayable parameter.
    pub fn from_parameter(p: impl Display) -> Self {
        BenchmarkId { id: p.to_string() }
    }

    /// Build an id from a function name and a parameter.
    pub fn new(name: impl Into<String>, p: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), p),
        }
    }
}

/// A group of related benchmarks sharing a sample size.
pub struct BenchmarkGroup<'c> {
    _criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Override the per-group sample count.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "need at least two samples");
        self.sample_size = n;
        self
    }

    /// Benchmark a closure identified by a string.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_benchmark(&self.name, id, self.sample_size, f);
        self
    }

    /// Benchmark a closure that receives a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_benchmark(&self.name, &id.id, self.sample_size, |b| f(b, input));
        self
    }

    /// End the group (kept for API compatibility; output is incremental).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; `iter` does the timing.
pub struct Bencher {
    iters_per_sample: u64,
    sample_size: usize,
    /// Per-iteration nanoseconds for each sample, filled by `iter`.
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Measure `routine`: calibrated warmup, then timed samples.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Calibrate: grow the per-sample iteration count until one sample
        // crosses the time target (also serves as warmup).
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed().as_nanos();
            if elapsed >= TARGET_SAMPLE_NANOS || iters >= 1 << 30 {
                break;
            }
            // Aim directly for the target with 2× headroom, at least double.
            let scale = (TARGET_SAMPLE_NANOS * 2)
                .checked_div(elapsed)
                .map_or(16, |s| s.clamp(2, 16) as u64);
            iters = iters.saturating_mul(scale);
        }
        self.iters_per_sample = iters;
        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed().as_nanos() as f64;
            self.samples_ns.push(elapsed / iters as f64);
        }
    }
}

/// Summary statistics of one benchmark run (per-iteration nanoseconds).
#[derive(Clone, Copy, Debug)]
pub struct Estimate {
    /// Mean over samples.
    pub mean_ns: f64,
    /// Median over samples.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
}

fn run_benchmark<F: FnMut(&mut Bencher)>(group: &str, id: &str, sample_size: usize, mut f: F) {
    let label = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    if let Some(Some(filter)) = FILTER.get() {
        if !label.contains(filter.as_str()) {
            return;
        }
    }
    let mut bencher = Bencher {
        iters_per_sample: 0,
        sample_size,
        samples_ns: Vec::with_capacity(sample_size),
    };
    f(&mut bencher);
    if bencher.samples_ns.is_empty() {
        eprintln!("warning: benchmark {group}/{id} never called iter()");
        return;
    }
    let mut sorted = bencher.samples_ns.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mean_ns = sorted.iter().sum::<f64>() / sorted.len() as f64;
    let est = Estimate {
        mean_ns,
        median_ns: sorted[sorted.len() / 2],
        min_ns: sorted[0],
    };
    println!(
        "bench {label:<45} mean {:>12}  median {:>12}  min {:>12}  ({} iters x {} samples)",
        fmt_ns(est.mean_ns),
        fmt_ns(est.median_ns),
        fmt_ns(est.min_ns),
        bencher.iters_per_sample,
        sorted.len(),
    );
    append_json(group, id, &est, bencher.iters_per_sample, sorted.len());
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn append_json(group: &str, id: &str, est: &Estimate, iters: u64, samples: usize) {
    let dir =
        std::env::var("CRITERION_SHIM_OUT").unwrap_or_else(|_| "target/criterion-shim".to_string());
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let file = if group.is_empty() { "ungrouped" } else { group };
    let path = format!("{dir}/{file}.jsonl");
    let line = format!(
        "{{\"group\":\"{}\",\"id\":\"{}\",\"mean_ns\":{:.1},\"median_ns\":{:.1},\"min_ns\":{:.1},\"iters_per_sample\":{},\"samples\":{}}}\n",
        group, id, est.mean_ns, est.median_ns, est.min_ns, iters, samples
    );
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = f.write_all(line.as_bytes());
    }
}

/// Re-export for bench files that import it from criterion.
pub use std::hint::black_box;

/// Declare a benchmark group function; mirrors `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declare the bench `main` that runs each group, honouring the name
/// filter on the command line (see the crate docs).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $crate::filter_from_args();
            $($group();)+
        }
    };
}
