//! Beacon schedules: event generation and phase queries.

use serde::{Deserialize, Serialize};

use bgpsim::{AsId, Network, Prefix};
use netsim::{SimDuration, SimTime};

/// What a beacon event does.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum BeaconEventKind {
    /// Announce the prefix (stamped with the send time).
    Announce,
    /// Withdraw the prefix.
    Withdraw,
}

/// One scheduled beacon action.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BeaconEvent {
    /// When the beacon router sends it.
    pub at: SimTime,
    /// Announce or withdraw.
    pub kind: BeaconEventKind,
}

/// Which phase of the two-phase pattern an instant falls into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Before the first burst (the priming announcement has been sent).
    Priming,
    /// Inside burst `i` (0-based).
    Burst(usize),
    /// Inside the break following burst `i`.
    Break(usize),
    /// After the last break.
    Done,
}

/// A two-phase beacon for one prefix at one site.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BeaconSchedule {
    /// The oscillated prefix.
    pub prefix: Prefix,
    /// The originating (beacon-site) AS.
    pub site: AsId,
    /// Flap interval within a burst (the paper used 1/2/3 and 5/10/15 min).
    pub update_interval: SimDuration,
    /// Burst length (the paper used 2 h).
    pub burst_duration: SimDuration,
    /// Break length (6 h in March, 2 h in April).
    pub break_duration: SimDuration,
    /// Lead time between the priming announcement and the first burst.
    pub priming: SimDuration,
    /// When the priming announcement is sent.
    pub start: SimTime,
    /// Number of Burst–Break pairs.
    pub cycles: usize,
}

impl BeaconSchedule {
    /// A schedule using the paper's burst geometry (2 h bursts) with the
    /// given interval and break, starting at `start`.
    pub fn standard(
        prefix: Prefix,
        site: AsId,
        update_interval: SimDuration,
        break_duration: SimDuration,
        start: SimTime,
        cycles: usize,
    ) -> Self {
        BeaconSchedule {
            prefix,
            site,
            update_interval,
            burst_duration: SimDuration::from_hours(2),
            break_duration,
            priming: SimDuration::from_mins(10),
            start,
            cycles,
        }
    }

    /// Start of burst `i` (0-based).
    pub fn burst_start(&self, i: usize) -> SimTime {
        self.start
            + self.priming
            + (self.burst_duration + self.break_duration).saturating_mul(i as u64)
    }

    /// End of burst `i` = start of break `i`.
    pub fn burst_end(&self, i: usize) -> SimTime {
        self.burst_start(i) + self.burst_duration
    }

    /// End of break `i`.
    pub fn break_end(&self, i: usize) -> SimTime {
        self.burst_end(i) + self.break_duration
    }

    /// The instant the whole schedule finishes.
    pub fn end(&self) -> SimTime {
        if self.cycles == 0 {
            self.start + self.priming
        } else {
            self.break_end(self.cycles - 1)
        }
    }

    /// Which phase `t` falls into.
    pub fn phase_at(&self, t: SimTime) -> Phase {
        if t < self.burst_start(0) {
            return Phase::Priming;
        }
        for i in 0..self.cycles {
            if t < self.burst_end(i) {
                return Phase::Burst(i);
            }
            if t < self.break_end(i) {
                return Phase::Break(i);
            }
        }
        Phase::Done
    }

    /// The send time of the *final announcement* of burst `i` — the event
    /// whose delayed re-advertisement constitutes the RFD signature.
    pub fn final_burst_announce(&self, i: usize) -> SimTime {
        self.burst_events(i)
            .iter()
            .rev()
            .find(|e| e.kind == BeaconEventKind::Announce)
            .map(|e| e.at)
            .expect("every burst ends with an announcement")
    }

    /// Events of burst `i`: withdrawals and announcements alternating,
    /// starting with a withdrawal and ending with an announcement, spaced
    /// `update_interval` apart within the burst window.
    pub fn burst_events(&self, i: usize) -> Vec<BeaconEvent> {
        let start = self.burst_start(i);
        let end = self.burst_end(i);
        let mut events = Vec::new();
        let mut t = start;
        let mut withdraw = true;
        while t < end {
            events.push(BeaconEvent {
                at: t,
                kind: if withdraw {
                    BeaconEventKind::Withdraw
                } else {
                    BeaconEventKind::Announce
                },
            });
            withdraw = !withdraw;
            t += self.update_interval;
        }
        // The pattern must end with an announcement so a damped path's
        // release during the break is observable.
        if let Some(last) = events.last() {
            if last.kind == BeaconEventKind::Withdraw {
                events.pop();
            }
        }
        events
    }

    /// The complete event list: priming announcement plus every burst.
    pub fn events(&self) -> Vec<BeaconEvent> {
        let mut events = vec![BeaconEvent {
            at: self.start,
            kind: BeaconEventKind::Announce,
        }];
        for i in 0..self.cycles {
            events.extend(self.burst_events(i));
        }
        events
    }

    /// Schedule every event into `net`.
    pub fn apply(&self, net: &mut Network) {
        for e in self.events() {
            match e.kind {
                BeaconEventKind::Announce => {
                    net.schedule_announce(e.at, self.site, self.prefix, true)
                }
                BeaconEventKind::Withdraw => net.schedule_withdraw(e.at, self.site, self.prefix),
            }
        }
    }

    /// Number of updates a non-damped observer would see per burst.
    pub fn updates_per_burst(&self) -> usize {
        self.burst_events(0).len()
    }
}

/// An anchor prefix flapping on the RIPE beacon schedule (2 h up, 2 h
/// down) as a propagation control — never fast enough to trigger RFD.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnchorSchedule {
    /// The anchor prefix.
    pub prefix: Prefix,
    /// The originating AS.
    pub site: AsId,
    /// First announcement time.
    pub start: SimTime,
    /// Half-period (2 h for RIPE beacons).
    pub half_period: SimDuration,
    /// Number of announce/withdraw pairs.
    pub cycles: usize,
}

impl AnchorSchedule {
    /// The RIPE schedule: 2-hour half-period.
    pub fn ripe(prefix: Prefix, site: AsId, start: SimTime, cycles: usize) -> Self {
        AnchorSchedule {
            prefix,
            site,
            start,
            half_period: SimDuration::from_hours(2),
            cycles,
        }
    }

    /// The full event list (starting with an announcement).
    pub fn events(&self) -> Vec<BeaconEvent> {
        let mut events = Vec::with_capacity(self.cycles * 2);
        for i in 0..self.cycles {
            let t = self.start + self.half_period.saturating_mul(2 * i as u64);
            events.push(BeaconEvent {
                at: t,
                kind: BeaconEventKind::Announce,
            });
            events.push(BeaconEvent {
                at: t + self.half_period,
                kind: BeaconEventKind::Withdraw,
            });
        }
        events
    }

    /// Schedule every event into `net`.
    pub fn apply(&self, net: &mut Network) {
        for e in self.events() {
            match e.kind {
                BeaconEventKind::Announce => {
                    net.schedule_announce(e.at, self.site, self.prefix, true)
                }
                BeaconEventKind::Withdraw => net.schedule_withdraw(e.at, self.site, self.prefix),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(interval_min: u64) -> BeaconSchedule {
        BeaconSchedule::standard(
            "10.0.0.0/24".parse().unwrap(),
            AsId(65000),
            SimDuration::from_mins(interval_min),
            SimDuration::from_hours(2),
            SimTime::ZERO,
            2,
        )
    }

    #[test]
    fn burst_starts_with_withdrawal_ends_with_announcement() {
        for interval in [1, 2, 3, 5, 10, 15] {
            let s = sched(interval);
            for i in 0..s.cycles {
                let ev = s.burst_events(i);
                assert!(ev.len() >= 2, "interval {interval} burst too short");
                assert_eq!(ev.first().unwrap().kind, BeaconEventKind::Withdraw);
                assert_eq!(ev.last().unwrap().kind, BeaconEventKind::Announce);
            }
        }
    }

    #[test]
    fn events_alternate_strictly() {
        let s = sched(1);
        let ev = s.burst_events(0);
        for w in ev.windows(2) {
            assert_ne!(w[0].kind, w[1].kind);
            assert_eq!(w[1].at.saturating_since(w[0].at), SimDuration::from_mins(1));
        }
    }

    #[test]
    fn one_minute_burst_has_about_120_updates() {
        let s = sched(1);
        let n = s.updates_per_burst();
        assert!((118..=120).contains(&n), "n={n}");
    }

    #[test]
    fn fifteen_minute_burst_has_8_updates() {
        let s = sched(15);
        assert_eq!(s.updates_per_burst(), 8); // 2 h / 15 min = 8 slots (W A W A W A W A)
    }

    #[test]
    fn phases_partition_time() {
        let s = sched(2);
        assert_eq!(s.phase_at(SimTime::ZERO), Phase::Priming);
        assert_eq!(s.phase_at(s.burst_start(0)), Phase::Burst(0));
        assert_eq!(s.phase_at(s.burst_end(0)), Phase::Break(0));
        assert_eq!(s.phase_at(s.burst_start(1)), Phase::Burst(1));
        assert_eq!(s.phase_at(s.end()), Phase::Done);
    }

    #[test]
    fn final_burst_announce_is_last_event_of_burst() {
        let s = sched(3);
        let ev = s.burst_events(0);
        assert_eq!(s.final_burst_announce(0), ev.last().unwrap().at);
        assert!(s.final_burst_announce(0) < s.burst_end(0));
    }

    #[test]
    fn full_event_list_starts_with_priming_announce() {
        let s = sched(5);
        let ev = s.events();
        assert_eq!(ev[0].at, SimTime::ZERO);
        assert_eq!(ev[0].kind, BeaconEventKind::Announce);
        // Priming (1) + two bursts.
        assert_eq!(ev.len(), 1 + 2 * s.updates_per_burst());
        // Monotone non-decreasing times.
        for w in ev.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn anchor_alternates_on_two_hour_schedule() {
        let a = AnchorSchedule::ripe(
            "10.0.1.0/24".parse().unwrap(),
            AsId(65001),
            SimTime::ZERO,
            3,
        );
        let ev = a.events();
        assert_eq!(ev.len(), 6);
        assert_eq!(ev[0].kind, BeaconEventKind::Announce);
        assert_eq!(ev[1].kind, BeaconEventKind::Withdraw);
        assert_eq!(ev[1].at, SimTime::from_mins(120));
        assert_eq!(ev[2].at, SimTime::from_mins(240));
    }

    #[test]
    fn schedule_applies_to_network() {
        use bgpsim::{NetworkConfig, Relationship, SessionPolicy};
        let mut net = Network::new(NetworkConfig {
            jitter: 0.0,
            seed: 0,
            ..Default::default()
        });
        net.connect(
            AsId(65000),
            AsId(1),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net.attach_tap(AsId(1));
        let s = BeaconSchedule {
            cycles: 1,
            burst_duration: SimDuration::from_mins(10),
            ..sched(2)
        };
        s.apply(&mut net);
        net.run_to_quiescence();
        let log = net.tap_log();
        // Priming announce + 5-slot burst (W A W A, trimmed to end on A).
        assert!(!log.is_empty());
        assert!(log.last().unwrap().route.is_some(), "ends announced");
        // Stamps propagate: every announcement carries a valid stamp.
        for r in log.iter().filter(|r| r.route.is_some()) {
            let stamp = r.route.as_ref().unwrap().aggregator.expect("stamped");
            assert!(stamp.valid);
            assert!(stamp.sent_at <= r.time);
        }
    }

    #[test]
    fn burst_windows_do_not_overlap_across_cycles() {
        let s = sched(1);
        assert!(s.burst_end(0) <= s.burst_start(1));
        assert_eq!(s.break_end(0), s.burst_start(1));
    }
}
