//! Measurement campaigns: sets of beacon + anchor schedules across sites.
//!
//! The paper ran two campaigns from seven sites, each announcing one
//! anchor prefix and three beacon prefixes:
//!
//! * **March 2020** — update intervals 1, 2, 3 minutes; 2 h bursts,
//!   6 h breaks (to let even non-decaying penalties reset);
//! * **April 2020** — update intervals 5, 10, 15 minutes; 2 h bursts,
//!   2 h breaks (max-suppress-time defaults to 1 h, and no suppression
//!   beyond 1 h was observed in March).
//!
//! Each (site, prefix) pair is an independent experiment; the analysis
//! processes them separately (§4.3).

use serde::{Deserialize, Serialize};

use bgpsim::{AsId, Network, Prefix};
use netsim::{SimDuration, SimTime};

use crate::schedule::{AnchorSchedule, BeaconSchedule};

/// All prefixes announced from one site.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SiteCampaign {
    /// The site AS.
    pub site: AsId,
    /// The anchor prefix schedule (propagation control).
    pub anchor: AnchorSchedule,
    /// The oscillating beacon prefixes.
    pub beacons: Vec<BeaconSchedule>,
}

/// A full measurement campaign over several sites.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Campaign {
    /// Per-site schedules.
    pub sites: Vec<SiteCampaign>,
}

impl Campaign {
    /// Build a campaign like the paper's: every site announces one anchor
    /// plus one beacon per entry in `intervals`, all on the same clock.
    ///
    /// Prefixes are allocated deterministically from the experiment block:
    /// site `s` gets slots `s·(k+1) … s·(k+1)+k` where `k = intervals.len()`.
    pub fn new(
        sites: &[AsId],
        intervals: &[SimDuration],
        break_duration: SimDuration,
        start: SimTime,
        cycles: usize,
    ) -> Self {
        let per_site = intervals.len() as u32 + 1;
        let site_campaigns = sites
            .iter()
            .enumerate()
            .map(|(s, &site)| {
                let base = s as u32 * per_site;
                let anchor = AnchorSchedule::ripe(
                    Prefix::experiment_slot(base),
                    site,
                    start,
                    anchor_cycles(intervals, break_duration, cycles),
                );
                let beacons = intervals
                    .iter()
                    .enumerate()
                    .map(|(j, &interval)| {
                        BeaconSchedule::standard(
                            Prefix::experiment_slot(base + 1 + j as u32),
                            site,
                            interval,
                            break_duration,
                            start,
                            cycles,
                        )
                    })
                    .collect();
                SiteCampaign {
                    site,
                    anchor,
                    beacons,
                }
            })
            .collect();
        Campaign {
            sites: site_campaigns,
        }
    }

    /// A single-interval campaign (one beacon prefix per site) — the unit
    /// the per-interval analyses (Fig. 12) run on.
    pub fn uniform(
        sites: &[AsId],
        interval: SimDuration,
        break_duration: SimDuration,
        start: SimTime,
        cycles: usize,
    ) -> Self {
        Campaign::new(sites, &[interval], break_duration, start, cycles)
    }

    /// Every beacon schedule across all sites.
    pub fn beacon_schedules(&self) -> impl Iterator<Item = &BeaconSchedule> {
        self.sites.iter().flat_map(|s| s.beacons.iter())
    }

    /// All prefixes (anchors + beacons) in the campaign.
    pub fn prefixes(&self) -> Vec<Prefix> {
        let mut out = Vec::new();
        for s in &self.sites {
            out.push(s.anchor.prefix);
            out.extend(s.beacons.iter().map(|b| b.prefix));
        }
        out
    }

    /// The schedule for a given beacon prefix, if any.
    pub fn schedule_for(&self, prefix: Prefix) -> Option<&BeaconSchedule> {
        self.beacon_schedules().find(|b| b.prefix == prefix)
    }

    /// When the latest schedule ends.
    pub fn end(&self) -> SimTime {
        self.beacon_schedules()
            .map(|b| b.end())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Schedule every event of every site into `net`.
    pub fn apply(&self, net: &mut Network) {
        for s in &self.sites {
            s.anchor.apply(net);
            for b in &s.beacons {
                b.apply(net);
            }
        }
    }
}

/// Anchor cycles covering (roughly) the span of the beacon schedules.
fn anchor_cycles(intervals: &[SimDuration], break_duration: SimDuration, cycles: usize) -> usize {
    let _ = intervals;
    let cycle_len = SimDuration::from_hours(2) + break_duration;
    let total = cycle_len.saturating_mul(cycles as u64);
    ((total.as_millis() / SimDuration::from_hours(4).as_millis()).max(1)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites() -> Vec<AsId> {
        (0..7).map(|i| AsId(65000 + i)).collect()
    }

    /// The paper's March 2020 campaign: 1/2/3-minute intervals, 6 h breaks.
    fn march(cycles: usize) -> Campaign {
        let intervals = [1, 2, 3].map(SimDuration::from_mins);
        let six_hours = SimDuration::from_hours(6);
        Campaign::new(&sites(), &intervals, six_hours, SimTime::ZERO, cycles)
    }

    #[test]
    fn march_campaign_shape() {
        let c = march(4);
        assert_eq!(c.sites.len(), 7);
        for s in &c.sites {
            assert_eq!(s.beacons.len(), 3);
            assert_eq!(s.beacons[0].update_interval, SimDuration::from_mins(1));
            assert_eq!(s.beacons[2].update_interval, SimDuration::from_mins(3));
            assert_eq!(s.beacons[0].break_duration, SimDuration::from_hours(6));
        }
        // 7 sites × 4 prefixes = 28, like the paper.
        assert_eq!(c.prefixes().len(), 28);
    }

    #[test]
    fn prefixes_are_unique() {
        let c = march(2);
        let mut p = c.prefixes();
        let n = p.len();
        p.sort();
        p.dedup();
        assert_eq!(p.len(), n);
    }

    #[test]
    fn schedule_lookup_by_prefix() {
        let c = march(2);
        let b = &c.sites[3].beacons[1];
        let found = c.schedule_for(b.prefix).expect("present");
        assert_eq!(found.site, c.sites[3].site);
        assert_eq!(found.update_interval, SimDuration::from_mins(2));
        // Anchors are not beacon schedules.
        assert!(c.schedule_for(c.sites[0].anchor.prefix).is_none());
    }

    #[test]
    fn uniform_campaign_has_one_beacon_per_site() {
        let c = Campaign::uniform(
            &sites(),
            SimDuration::from_mins(1),
            SimDuration::from_hours(2),
            SimTime::ZERO,
            3,
        );
        for s in &c.sites {
            assert_eq!(s.beacons.len(), 1);
        }
        assert_eq!(c.prefixes().len(), 14);
    }

    #[test]
    fn end_covers_all_schedules() {
        let c = march(2);
        let end = c.end();
        for b in c.beacon_schedules() {
            assert!(b.end() <= end);
        }
    }
}
