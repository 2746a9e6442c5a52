//! The Minimum Route Advertisement Interval (RFC 4271 §9.2.1.1).
//!
//! MRAI rate-limits *announcements* per (peer, prefix): after sending one,
//! a router must wait out the interval before sending the next; updates
//! arriving in between are coalesced, with the newest replacing older
//! pending state. Withdrawals are sent immediately (the common
//! implementation choice — "WRATE" disabled), which is why MRAI's effect
//! on the beacon signal is a bounded delay of at most the interval, a
//! pattern the paper's §4.1 explicitly distinguishes from the RFD
//! signature (minutes-long suppression).
//!
//! [`MraiGate`] is a pure state machine: the router submits outbound
//! updates and acts on the returned verdicts; the network layer schedules
//! the expiry timers the gate requests.

use netsim::{SimDuration, SimTime};

use crate::message::BgpAction;

/// Result of submitting an update to the gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MraiVerdict {
    /// Send the update on the wire now.
    SendNow(BgpAction),
    /// The update was queued; arm a timer for `at` (unless one for this
    /// prefix is already armed, which the gate tracks — `arm` is false).
    Deferred {
        /// When the gate reopens for this prefix.
        at: SimTime,
        /// True if the caller must schedule an expiry event at `at`.
        arm: bool,
    },
}

#[derive(Debug, Clone, Default)]
struct Slot {
    /// Earliest time the next announcement may be sent.
    open_at: SimTime,
    /// Latest coalesced update waiting for the gate to open.
    pending: Option<BgpAction>,
    /// Whether an expiry event is already scheduled.
    armed: bool,
}

/// Per-neighbor MRAI state: one slot per prefix, indexed by the network's
/// dense prefix id. A disabled gate keeps no slots at all.
#[derive(Debug, Clone, Default)]
pub struct MraiGate {
    interval: Option<SimDuration>,
    slots: Vec<Slot>,
}

impl MraiGate {
    /// A gate with the given interval over `prefixes` prefix slots; `None`
    /// disables MRAI entirely.
    pub fn new(interval: Option<SimDuration>, prefixes: usize) -> Self {
        let slots = if interval.is_some() { prefixes } else { 0 };
        MraiGate {
            interval,
            slots: vec![Slot::default(); slots],
        }
    }

    /// Add a slot for a newly interned prefix.
    pub fn push_slot(&mut self) {
        if self.interval.is_some() {
            self.slots.push(Slot::default());
        }
    }

    /// Forget every pending update and open every gate (the session
    /// carrying them was reset).
    pub fn reset(&mut self) {
        self.slots.fill(Slot::default());
    }

    /// Submit an outbound update for prefix id `pid`; returns what to do
    /// with it.
    pub fn submit(&mut self, pid: usize, action: BgpAction, now: SimTime) -> MraiVerdict {
        let Some(interval) = self.interval else {
            return MraiVerdict::SendNow(action);
        };
        let slot = &mut self.slots[pid];

        match action {
            // Withdrawals bypass the gate and cancel any pending
            // announcement (it would be stale).
            BgpAction::Withdraw => {
                slot.pending = None;
                MraiVerdict::SendNow(action)
            }
            BgpAction::Announce { .. } => {
                if now >= slot.open_at {
                    slot.open_at = now + interval;
                    slot.pending = None;
                    MraiVerdict::SendNow(action)
                } else {
                    slot.pending = Some(action);
                    let at = slot.open_at;
                    let arm = !slot.armed;
                    slot.armed = true;
                    MraiVerdict::Deferred { at, arm }
                }
            }
        }
    }

    /// An expiry timer fired for prefix id `pid`. Returns the coalesced
    /// update to send, if any survived (a withdrawal may have cancelled it).
    pub fn expire(&mut self, pid: usize, now: SimTime) -> Option<BgpAction> {
        let interval = self.interval?;
        let slot = &mut self.slots[pid];
        slot.armed = false;
        let action = slot.pending.take()?;
        slot.open_at = now + interval;
        Some(action)
    }

    /// The configured interval, if enabled.
    pub fn interval(&self) -> Option<SimDuration> {
        self.interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::AsId;
    use crate::message::AsPath;

    /// The prefix id the tests use.
    const PID: usize = 0;

    fn ann(tag: u32) -> BgpAction {
        BgpAction::Announce {
            path: AsPath::from_slice(&[AsId(tag)]),
            aggregator: None,
        }
    }

    #[test]
    fn disabled_gate_passes_everything() {
        let mut g = MraiGate::new(None, 1);
        for t in 0..5 {
            let v = g.submit(PID, ann(t), SimTime::from_secs(t as u64));
            assert!(matches!(v, MraiVerdict::SendNow(_)));
        }
    }

    #[test]
    fn first_announcement_sends_then_defers() {
        let mut g = MraiGate::new(Some(SimDuration::from_secs(30)), 2);
        assert!(matches!(
            g.submit(PID, ann(1), SimTime::ZERO),
            MraiVerdict::SendNow(_)
        ));
        match g.submit(PID, ann(2), SimTime::from_secs(10)) {
            MraiVerdict::Deferred { at, arm } => {
                assert_eq!(at, SimTime::from_secs(30));
                assert!(arm);
            }
            other => panic!("expected deferral, got {other:?}"),
        }
        // A third submit coalesces without re-arming.
        match g.submit(PID, ann(3), SimTime::from_secs(20)) {
            MraiVerdict::Deferred { arm, .. } => assert!(!arm),
            other => panic!("expected deferral, got {other:?}"),
        }
        // Expiry sends the *latest* pending update.
        let sent = g.expire(PID, SimTime::from_secs(30)).unwrap();
        assert_eq!(sent, ann(3));
    }

    #[test]
    fn gate_reopens_after_interval() {
        let mut g = MraiGate::new(Some(SimDuration::from_secs(30)), 2);
        g.submit(PID, ann(1), SimTime::ZERO);
        assert!(matches!(
            g.submit(PID, ann(2), SimTime::from_secs(30)),
            MraiVerdict::SendNow(_)
        ));
    }

    #[test]
    fn withdrawal_bypasses_and_cancels_pending() {
        let mut g = MraiGate::new(Some(SimDuration::from_secs(30)), 2);
        g.submit(PID, ann(1), SimTime::ZERO);
        g.submit(PID, ann(2), SimTime::from_secs(5));
        let v = g.submit(PID, BgpAction::Withdraw, SimTime::from_secs(6));
        assert!(matches!(v, MraiVerdict::SendNow(_)));
        // The expiry finds nothing to send.
        assert_eq!(g.expire(PID, SimTime::from_secs(30)), None);
    }

    #[test]
    fn expiry_restarts_window() {
        let mut g = MraiGate::new(Some(SimDuration::from_secs(30)), 2);
        g.submit(PID, ann(1), SimTime::ZERO);
        g.submit(PID, ann(2), SimTime::from_secs(10));
        g.expire(PID, SimTime::from_secs(30)).unwrap();
        // Window restarted at expiry: an announcement at t=40 defers again.
        match g.submit(PID, ann(3), SimTime::from_secs(40)) {
            MraiVerdict::Deferred { at, .. } => assert_eq!(at, SimTime::from_secs(60)),
            other => panic!("expected deferral, got {other:?}"),
        }
    }

    #[test]
    fn prefixes_are_independent() {
        let mut g = MraiGate::new(Some(SimDuration::from_secs(30)), 2);
        g.submit(PID, ann(1), SimTime::ZERO);
        let v = g.submit(
            1,
            BgpAction::Announce {
                path: AsPath::empty(),
                aggregator: None,
            },
            SimTime::from_secs(1),
        );
        assert!(
            matches!(v, MraiVerdict::SendNow(_)),
            "different prefix must not be gated"
        );
    }

    #[test]
    fn expire_without_pending_is_noop() {
        let mut g = MraiGate::new(Some(SimDuration::from_secs(30)), 2);
        assert_eq!(g.expire(PID, SimTime::from_secs(5)), None);
    }
}
