//! Deterministic, splittable randomness.
//!
//! Every experiment in the reproduction is driven by a single `u64` seed.
//! Subsystems that need randomness (topology generation, link-delay jitter,
//! RFD deployment assignment, MCMC chains) each receive an independent
//! stream *derived* from that seed via [`SimRng::split`], so adding a random
//! draw in one subsystem never perturbs another — a property the original
//! paper's "controlled experiment" philosophy demands of a simulator.
//!
//! The generator is xoshiro256++ seeded through SplitMix64, implemented here
//! directly (≈40 lines) so the simulation core does not depend on any
//! external RNG crate's version-specific stream — or, in this offline
//! build, on any external crate at all.

/// xoshiro256++ generator with SplitMix64 seeding and stream splitting.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

impl SimRng {
    /// Create a generator from an experiment seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start in the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// The raw xoshiro256++ state, for checkpointing. Feed the returned
    /// words back through [`SimRng::from_state`] to resume the stream at
    /// exactly this point.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a previously captured [`SimRng::state`].
    pub fn from_state(mut s: [u64; 4]) -> Self {
        // xoshiro must not start in the all-zero state (and a genuine
        // stream can never reach it, so this only guards corrupt input).
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Derive an independent stream for a named subsystem.
    ///
    /// The label keeps derived streams stable across refactors: splitting
    /// for `"topology"` yields the same stream no matter how many other
    /// splits happen first.
    pub fn split(&self, label: &str) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Mix the label hash with this stream's state *without* consuming it.
        let mut sm = h ^ self.s[0] ^ self.s[2].rotate_left(17);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        if s == [0, 0, 0, 0] {
            s[0] = 1;
        }
        SimRng { s }
    }

    /// Derive an independent stream for an indexed replica (e.g. chain `k`).
    pub fn split_index(&self, label: &str, index: u64) -> SimRng {
        self.split(label).split(&index.to_string())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = rotl(self.s[3], 45);
        result
    }

    /// Uniform float in `[0, 1)` with 53-bit precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift (unbiased).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut x = self.next_raw();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_raw();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform usize in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal via Box–Muller (polar rejection form).
    pub fn gaussian(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Exponential with the given rate parameter (`rate > 0`).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        // 1 - uniform() is in (0, 1], so ln never sees zero.
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Gamma(shape, scale) via Marsaglia–Tsang; used for Beta sampling.
    pub fn gamma(&mut self, shape: f64, scale: f64) -> f64 {
        assert!(shape > 0.0 && scale > 0.0, "gamma params must be positive");
        if shape < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
            let g = self.gamma(shape + 1.0, 1.0);
            let u = loop {
                let u = self.uniform();
                if u > 0.0 {
                    break u;
                }
            };
            return g * u.powf(1.0 / shape) * scale;
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.gaussian();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.uniform();
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v * scale;
            }
        }
    }

    /// Beta(alpha, beta) via two Gamma draws.
    pub fn beta(&mut self, alpha: f64, beta: f64) -> f64 {
        let x = self.gamma(alpha, 1.0);
        let y = self.gamma(beta, 1.0);
        x / (x + y)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: first k slots become the sample.
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert!(same < 2);
    }

    #[test]
    fn split_is_stable_and_independent() {
        let root = SimRng::new(7);
        let mut t1 = root.split("topology");
        let mut t2 = root.split("topology");
        let mut other = root.split("delays");
        let a = t1.next_raw();
        assert_eq!(a, t2.next_raw(), "same label must give same stream");
        assert_ne!(a, other.next_raw(), "labels must decorrelate streams");
    }

    #[test]
    fn split_index_decorrelates_replicas() {
        let root = SimRng::new(7);
        let mut c0 = root.split_index("chain", 0);
        let mut c1 = root.split_index("chain", 1);
        assert_ne!(c0.next_raw(), c1.next_raw());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = SimRng::new(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gaussian_moments() {
        let mut r = SimRng::new(9);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.03, "var={var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(13);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn beta_mean_matches_alpha_over_sum() {
        let mut r = SimRng::new(17);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.beta(2.0, 6.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean={mean}");
        for _ in 0..1_000 {
            let b = r.beta(0.5, 0.5);
            assert!((0.0..=1.0).contains(&b));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(21);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = SimRng::new(23);
        let s = r.sample_indices(100, 20);
        assert_eq!(s.len(), 20);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 20);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn state_round_trip_resumes_stream() {
        let mut r = SimRng::new(31);
        for _ in 0..17 {
            r.next_raw();
        }
        let saved = r.state();
        let ahead: Vec<u64> = (0..32).map(|_| r.next_raw()).collect();
        let mut resumed = SimRng::from_state(saved);
        let replay: Vec<u64> = (0..32).map(|_| resumed.next_raw()).collect();
        assert_eq!(ahead, replay, "restored state must continue identically");
    }

    #[test]
    fn from_state_guards_all_zero() {
        // The all-zero state is a xoshiro fixed point; from_state must
        // escape it rather than emit zeros forever.
        let mut r = SimRng::from_state([0, 0, 0, 0]);
        let draws: Vec<u64> = (0..8).map(|_| r.next_raw()).collect();
        assert!(draws.iter().any(|&x| x != draws[0]));
        assert!(draws.iter().any(|&x| x != 0));
    }
}
