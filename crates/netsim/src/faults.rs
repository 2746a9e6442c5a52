//! Deterministic fault injection for the measurement substrate.
//!
//! Real beacon campaigns survive a messy measurement plane: vantage
//! points disappear for hours, BGP sessions reset mid-Burst, collector
//! exports are delayed, truncated, duplicated or reordered. This module
//! describes those faults as data — a [`FaultSpec`] of rates and
//! durations, materialised per entity into a [`FaultPlan`] — so any
//! faulted run is reproducible from `(seed, plan)` alone.
//!
//! Layering: this crate knows nothing about routers, prefixes or
//! collector projects, so every entity is addressed by an opaque `u64`
//! id (the caller passes `AsId.0`, a link's endpoint pair, …). Each
//! decision is drawn from a [`SimRng`] stream split off the plan's seed
//! by a per-fault-type label and the entity id, which makes the plan a
//! pure function: asking twice for the same entity gives the same
//! answer, and adding a new fault type never perturbs existing draws.
//!
//! Every layer that injects a fault counts it in a [`FaultCounters`]
//! (merged into the `RunReport` as a `faults` section) and, when
//! tracing is on, records it on a dedicated trace lane — no fault is
//! ever silent.

use serde::{Deserialize, Serialize};

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Rates and magnitudes for every supported fault type.
///
/// All rates are probabilities in `[0, 1]` applied per entity (per
/// vantage point, per link, per record). A rate of zero disables that
/// fault type; [`FaultSpec::default`] disables everything.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Probability a vantage point suffers one outage window.
    pub vp_outage_rate: f64,
    /// Length of a vantage-point outage window.
    pub vp_outage_duration: SimDuration,
    /// Probability a BGP session (link) resets once during the run.
    pub session_reset_rate: f64,
    /// How long a reset session stays down before re-establishing.
    pub session_reset_duration: SimDuration,
    /// Per-record probability the collector loses an update.
    pub loss_rate: f64,
    /// Per-record probability the collector emits a duplicate.
    pub duplication_rate: f64,
    /// Per-record probability the export timestamp is skewed (causing
    /// reordering relative to neighbours), bounded by `reorder_skew`.
    pub reorder_rate: f64,
    /// Maximum forward skew applied to a reordered record.
    pub reorder_skew: SimDuration,
    /// Maximum absolute per-vantage collector clock skew. Each affected
    /// vantage point gets one signed offset in `±clock_skew`.
    pub clock_skew: SimDuration,
    /// Probability a vantage point's dump is truncated (records after a
    /// random cut-off never exported).
    pub truncate_rate: f64,
    /// Probability a vantage point's whole export is delayed.
    pub delay_rate: f64,
    /// The extra export delay applied to a delayed vantage point.
    pub export_delay: SimDuration,
    /// Seed of the fault stream. Independent of the experiment seed so
    /// the same fault plan can be replayed against different campaigns.
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            vp_outage_rate: 0.0,
            vp_outage_duration: SimDuration::from_mins(30),
            session_reset_rate: 0.0,
            session_reset_duration: SimDuration::from_mins(5),
            loss_rate: 0.0,
            duplication_rate: 0.0,
            reorder_rate: 0.0,
            reorder_skew: SimDuration::from_secs(20),
            clock_skew: SimDuration::ZERO,
            truncate_rate: 0.0,
            delay_rate: 0.0,
            export_delay: SimDuration::from_mins(20),
            seed: 0,
        }
    }
}

impl FaultSpec {
    /// A representative mixed-fault drill: a few outages, occasional
    /// session resets, light record noise.
    pub fn drill(seed: u64) -> Self {
        FaultSpec {
            vp_outage_rate: 0.2,
            session_reset_rate: 0.1,
            loss_rate: 0.01,
            duplication_rate: 0.01,
            reorder_rate: 0.02,
            clock_skew: SimDuration::from_secs(5),
            truncate_rate: 0.05,
            delay_rate: 0.1,
            seed,
            ..FaultSpec::default()
        }
    }

    /// Parse a `key=value,key=value` description, e.g.
    /// `outage=0.2,outage-mins=45,reset=0.1,loss=0.01,seed=7`.
    ///
    /// Keys: `outage`, `outage-mins`, `reset`, `reset-mins`, `loss`,
    /// `dup`, `reorder`, `skew-secs`, `clock-skew-secs`, `truncate`,
    /// `delay`, `delay-mins`, `seed`. The single word `drill` selects
    /// [`FaultSpec::drill`] defaults (later keys still override). A rate
    /// key (`outage`, `reset`, `loss`, `dup`, `reorder`, `truncate`,
    /// `delay`) outside `[0, 1]` is an error naming the key.
    pub fn parse(text: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if part == "drill" {
                let seed = spec.seed;
                spec = FaultSpec::drill(seed);
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec item {part:?} is not key=value"))?;
            let rate = || -> Result<f64, String> {
                let r = value
                    .parse::<f64>()
                    .map_err(|_| format!("fault spec {key}={value:?}: not a number"))?;
                if (0.0..=1.0).contains(&r) {
                    Ok(r)
                } else {
                    Err(format!(
                        "fault spec {key}={value:?}: a rate is a probability in [0, 1]"
                    ))
                }
            };
            let dur_mins = || -> Result<SimDuration, String> {
                value
                    .parse::<u64>()
                    .map(SimDuration::from_mins)
                    .map_err(|_| format!("fault spec {key}={value:?}: not a minute count"))
            };
            let dur_secs = || -> Result<SimDuration, String> {
                value
                    .parse::<u64>()
                    .map(SimDuration::from_secs)
                    .map_err(|_| format!("fault spec {key}={value:?}: not a second count"))
            };
            match key {
                "outage" => spec.vp_outage_rate = rate()?,
                "outage-mins" => spec.vp_outage_duration = dur_mins()?,
                "reset" => spec.session_reset_rate = rate()?,
                "reset-mins" => spec.session_reset_duration = dur_mins()?,
                "loss" => spec.loss_rate = rate()?,
                "dup" => spec.duplication_rate = rate()?,
                "reorder" => spec.reorder_rate = rate()?,
                "skew-secs" => spec.reorder_skew = dur_secs()?,
                "clock-skew-secs" => spec.clock_skew = dur_secs()?,
                "truncate" => spec.truncate_rate = rate()?,
                "delay" => spec.delay_rate = rate()?,
                "delay-mins" => spec.export_delay = dur_mins()?,
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|_| format!("fault spec seed={value:?}: not a u64"))?
                }
                other => return Err(format!("unknown fault spec key {other:?}")),
            }
        }
        Ok(spec)
    }
}

/// One vantage point's export-level faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExportFault {
    /// Records observed at or after this instant are never exported.
    pub truncate_at: Option<SimTime>,
    /// Extra delay added to every export time of this vantage point.
    pub delay: SimDuration,
}

/// A materialised fault plan: pure functions from entity ids to the
/// faults that befall them, all derived from one seed.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
}

impl FaultPlan {
    /// Materialise a plan from its spec.
    pub fn new(spec: FaultSpec) -> FaultPlan {
        FaultPlan { spec }
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// A decorrelated stream for sequential per-record decisions in the
    /// named subsystem.
    pub fn stream(&self, label: &str) -> SimRng {
        SimRng::new(self.spec.seed).split("faults").split(label)
    }

    fn entity_rng(&self, label: &str, id: u64) -> SimRng {
        SimRng::new(self.spec.seed)
            .split("faults")
            .split_index(label, id)
    }

    /// Pick a fault window of `duration` inside `[0, horizon)`; the
    /// window is clamped to the horizon so it always overlaps the run.
    fn window(rng: &mut SimRng, duration: SimDuration, horizon: SimDuration) -> (SimTime, SimTime) {
        let span = horizon.as_millis().max(1);
        let start = SimTime::from_millis(rng.below(span));
        (start, start + duration)
    }

    /// The outage window for vantage point `vp`, if it suffers one.
    pub fn vp_outage(&self, vp: u64, horizon: SimDuration) -> Option<(SimTime, SimTime)> {
        if self.spec.vp_outage_rate <= 0.0 {
            return None;
        }
        let mut rng = self.entity_rng("vp-outage", vp);
        if !rng.chance(self.spec.vp_outage_rate) {
            return None;
        }
        Some(Self::window(
            &mut rng,
            self.spec.vp_outage_duration,
            horizon,
        ))
    }

    /// The down window for the session between `a` and `b`, if it
    /// resets. Symmetric: `(a, b)` and `(b, a)` name the same session.
    pub fn session_reset(
        &self,
        a: u64,
        b: u64,
        horizon: SimDuration,
    ) -> Option<(SimTime, SimTime)> {
        if self.spec.session_reset_rate <= 0.0 {
            return None;
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut rng = self.entity_rng("session-reset", lo).split_index("peer", hi);
        if !rng.chance(self.spec.session_reset_rate) {
            return None;
        }
        Some(Self::window(
            &mut rng,
            self.spec.session_reset_duration,
            horizon,
        ))
    }

    /// The signed collector clock skew of vantage point `vp`, in
    /// milliseconds. Zero when the spec disables clock skew.
    pub fn clock_skew_ms(&self, vp: u64) -> i64 {
        let bound = self.spec.clock_skew.as_millis();
        if bound == 0 {
            return 0;
        }
        let mut rng = self.entity_rng("clock-skew", vp);
        let magnitude = rng.below(bound + 1) as i64;
        if rng.chance(0.5) {
            -magnitude
        } else {
            magnitude
        }
    }

    /// Export-level faults (truncation, delay) for vantage point `vp`.
    pub fn export_fault(&self, vp: u64, horizon: SimDuration) -> ExportFault {
        let truncate_at = if self.spec.truncate_rate > 0.0 {
            let mut rng = self.entity_rng("truncate", vp);
            if rng.chance(self.spec.truncate_rate) {
                Some(SimTime::from_millis(rng.below(horizon.as_millis().max(1))))
            } else {
                None
            }
        } else {
            None
        };
        let delay = if self.spec.delay_rate > 0.0 {
            let mut rng = self.entity_rng("export-delay", vp);
            if rng.chance(self.spec.delay_rate) {
                self.spec.export_delay
            } else {
                SimDuration::ZERO
            }
        } else {
            SimDuration::ZERO
        };
        ExportFault { truncate_at, delay }
    }
}

/// Tallies of every fault actually injected, per type. The network
/// counts its session faults; a measurement starts from a clone of those
/// counters, collection adds its own to it, and the total becomes one
/// `faults` report section.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Vantage points that suffered an outage window.
    pub vp_outages: u64,
    /// Collector records dropped inside an outage window.
    pub records_outage_dropped: u64,
    /// BGP sessions that reset.
    pub session_resets: u64,
    /// Updates dropped on the wire while a session was down.
    pub updates_dropped_down: u64,
    /// Collector records lost.
    pub records_lost: u64,
    /// Collector records duplicated.
    pub records_duplicated: u64,
    /// Collector records whose export time was skewed (reordered).
    pub records_reordered: u64,
    /// Collector records cut off by a truncated export.
    pub records_truncated: u64,
    /// Vantage points whose export was delayed wholesale.
    pub exports_delayed: u64,
    /// Vantage points exporting with a skewed clock.
    pub clock_skewed_vps: u64,
}

impl FaultCounters {
    /// Total injected faults across all types.
    pub fn total(&self) -> u64 {
        self.vp_outages
            + self.records_outage_dropped
            + self.session_resets
            + self.updates_dropped_down
            + self.records_lost
            + self.records_duplicated
            + self.records_reordered
            + self.records_truncated
            + self.exports_delayed
            + self.clock_skewed_vps
    }

    /// Add `other`'s tallies to these.
    pub fn add(&mut self, other: &FaultCounters) {
        let FaultCounters {
            vp_outages,
            records_outage_dropped,
            session_resets,
            updates_dropped_down,
            records_lost,
            records_duplicated,
            records_reordered,
            records_truncated,
            exports_delayed,
            clock_skewed_vps,
        } = other;
        self.vp_outages += vp_outages;
        self.records_outage_dropped += records_outage_dropped;
        self.session_resets += session_resets;
        self.updates_dropped_down += updates_dropped_down;
        self.records_lost += records_lost;
        self.records_duplicated += records_duplicated;
        self.records_reordered += records_reordered;
        self.records_truncated += records_truncated;
        self.exports_delayed += exports_delayed;
        self.clock_skewed_vps += clock_skewed_vps;
    }

    /// The `faults` section of a run report.
    pub fn obs_section(&self) -> obs::Section {
        let mut section = obs::Section::new("faults");
        section.counter("vp_outages", self.vp_outages);
        section.counter("records_outage_dropped", self.records_outage_dropped);
        section.counter("session_resets", self.session_resets);
        section.counter("updates_dropped_down", self.updates_dropped_down);
        section.counter("records_lost", self.records_lost);
        section.counter("records_duplicated", self.records_duplicated);
        section.counter("records_reordered", self.records_reordered);
        section.counter("records_truncated", self.records_truncated);
        section.counter("exports_delayed", self.exports_delayed);
        section.counter("clock_skewed_vps", self.clock_skewed_vps);
        section.counter("total", self.total());
        section
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_injects_nothing() {
        let plan = FaultPlan::new(FaultSpec::default());
        let horizon = SimDuration::from_hours(10);
        for id in 0..64 {
            assert_eq!(plan.vp_outage(id, horizon), None);
            assert_eq!(plan.session_reset(id, id + 1, horizon), None);
            assert_eq!(plan.clock_skew_ms(id), 0);
            let ef = plan.export_fault(id, horizon);
            assert_eq!(ef.truncate_at, None);
            assert_eq!(ef.delay, SimDuration::ZERO);
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_seed_and_entity() {
        let a = FaultPlan::new(FaultSpec::drill(7));
        let b = FaultPlan::new(FaultSpec::drill(7));
        let horizon = SimDuration::from_hours(10);
        for id in 0..128 {
            assert_eq!(a.vp_outage(id, horizon), b.vp_outage(id, horizon));
            assert_eq!(
                a.session_reset(id, id + 3, horizon),
                b.session_reset(id, id + 3, horizon)
            );
            assert_eq!(a.clock_skew_ms(id), b.clock_skew_ms(id));
            assert_eq!(a.export_fault(id, horizon), b.export_fault(id, horizon));
        }
    }

    #[test]
    fn different_seeds_pick_different_victims() {
        let a = FaultPlan::new(FaultSpec::drill(1));
        let b = FaultPlan::new(FaultSpec::drill(2));
        let horizon = SimDuration::from_hours(10);
        let hits = |p: &FaultPlan| -> Vec<u64> {
            (0..256)
                .filter(|&id| p.vp_outage(id, horizon).is_some())
                .collect()
        };
        assert_ne!(hits(&a), hits(&b));
    }

    #[test]
    fn session_reset_is_symmetric() {
        let plan = FaultPlan::new(FaultSpec {
            session_reset_rate: 0.5,
            seed: 11,
            ..FaultSpec::default()
        });
        let horizon = SimDuration::from_hours(4);
        for a in 0..16u64 {
            for b in 0..16u64 {
                if a == b {
                    continue;
                }
                assert_eq!(
                    plan.session_reset(a, b, horizon),
                    plan.session_reset(b, a, horizon)
                );
            }
        }
    }

    #[test]
    fn windows_start_inside_horizon() {
        let plan = FaultPlan::new(FaultSpec {
            vp_outage_rate: 1.0,
            seed: 3,
            ..FaultSpec::default()
        });
        let horizon = SimDuration::from_hours(2);
        for id in 0..64 {
            let (start, end) = plan.vp_outage(id, horizon).expect("rate 1.0");
            assert!(start < SimTime::ZERO + horizon);
            assert_eq!(end, start + plan.spec().vp_outage_duration);
        }
    }

    #[test]
    fn clock_skew_is_bounded_and_two_sided() {
        let plan = FaultPlan::new(FaultSpec {
            clock_skew: SimDuration::from_secs(5),
            seed: 17,
            ..FaultSpec::default()
        });
        let skews: Vec<i64> = (0..512).map(|id| plan.clock_skew_ms(id)).collect();
        assert!(skews.iter().all(|s| s.abs() <= 5000));
        assert!(skews.iter().any(|&s| s > 0) && skews.iter().any(|&s| s < 0));
    }

    #[test]
    fn parse_round_trips_key_values() {
        let spec =
            FaultSpec::parse("outage=0.25, outage-mins=45,reset=0.1,reset-mins=3,loss=0.02,dup=0.01,reorder=0.05,skew-secs=30,clock-skew-secs=7,truncate=0.04,delay=0.2,delay-mins=15,seed=99")
                .unwrap();
        assert_eq!(spec.vp_outage_rate, 0.25);
        assert_eq!(spec.vp_outage_duration, SimDuration::from_mins(45));
        assert_eq!(spec.session_reset_rate, 0.1);
        assert_eq!(spec.session_reset_duration, SimDuration::from_mins(3));
        assert_eq!(spec.loss_rate, 0.02);
        assert_eq!(spec.duplication_rate, 0.01);
        assert_eq!(spec.reorder_rate, 0.05);
        assert_eq!(spec.reorder_skew, SimDuration::from_secs(30));
        assert_eq!(spec.clock_skew, SimDuration::from_secs(7));
        assert_eq!(spec.truncate_rate, 0.04);
        assert_eq!(spec.delay_rate, 0.2);
        assert_eq!(spec.export_delay, SimDuration::from_mins(15));
        assert_eq!(spec.seed, 99);
    }

    #[test]
    fn parse_drill_with_overrides() {
        let spec = FaultSpec::parse("seed=5,drill,loss=0.5").unwrap();
        assert_eq!(spec.seed, 5);
        assert_eq!(spec.loss_rate, 0.5);
        assert_eq!(spec.vp_outage_rate, FaultSpec::drill(5).vp_outage_rate);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("outage").is_err());
        assert!(FaultSpec::parse("outage=x").is_err());
    }

    #[test]
    fn parse_rejects_rates_outside_the_unit_interval() {
        for key in [
            "outage", "reset", "loss", "dup", "reorder", "truncate", "delay",
        ] {
            for bad in ["20", "1.5", "-0.1", "NaN", "inf"] {
                let err = FaultSpec::parse(&format!("{key}={bad}")).unwrap_err();
                assert!(err.contains(&format!("{key}=")), "{key}={bad}: {err}");
            }
            for good in ["0", "1", "0.5"] {
                assert!(FaultSpec::parse(&format!("{key}={good}")).is_ok());
            }
        }
    }

    #[test]
    fn counters_total() {
        let a = FaultCounters {
            vp_outages: 1,
            records_lost: 2,
            session_resets: 3,
            updates_dropped_down: 4,
            ..FaultCounters::default()
        };
        assert_eq!(a.total(), 10);
    }
}
