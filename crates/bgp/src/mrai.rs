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
//! `MraiGate` is a pure state machine: the router submits outbound
//! updates and acts on the returned verdicts; the network layer schedules
//! the expiry timers the gate requests.

use netsim::{SimDuration, SimTime};

use crate::message::BgpAction;

/// Result of submitting an update to the gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MraiVerdict {
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

/// MRAI state of one (peer, prefix): a lane keeps one gate per session.
/// The interval is the session's policy, passed in on every call; `None`
/// disables MRAI and leaves the gate untouched.
#[derive(Debug, Clone, Default)]
pub(crate) struct MraiGate {
    /// Earliest time the next announcement may be sent.
    open_at: SimTime,
    /// Latest coalesced update waiting for the gate to open.
    pending: Option<BgpAction>,
    /// Whether an expiry event is already scheduled.
    armed: bool,
}

impl MraiGate {
    /// Forget the pending update and open the gate (the session carrying
    /// it was reset).
    pub(crate) fn reset(&mut self) {
        *self = MraiGate::default();
    }

    /// Submit an outbound update; returns what to do with it.
    pub(crate) fn submit(
        &mut self,
        interval: Option<SimDuration>,
        action: BgpAction,
        now: SimTime,
    ) -> MraiVerdict {
        let Some(interval) = interval else {
            return MraiVerdict::SendNow(action);
        };
        match action {
            // Withdrawals bypass the gate and cancel any pending
            // announcement (it would be stale).
            BgpAction::Withdraw => {
                self.pending = None;
                MraiVerdict::SendNow(action)
            }
            BgpAction::Announce { .. } => {
                if now >= self.open_at {
                    self.open_at = now + interval;
                    self.pending = None;
                    MraiVerdict::SendNow(action)
                } else {
                    self.pending = Some(action);
                    let at = self.open_at;
                    let arm = !self.armed;
                    self.armed = true;
                    MraiVerdict::Deferred { at, arm }
                }
            }
        }
    }

    /// An expiry timer fired. Returns the coalesced update to send, if any
    /// survived (a withdrawal may have cancelled it).
    pub(crate) fn expire(
        &mut self,
        interval: Option<SimDuration>,
        now: SimTime,
    ) -> Option<BgpAction> {
        let interval = interval?;
        self.armed = false;
        let action = self.pending.take()?;
        self.open_at = now + interval;
        Some(action)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::message::AsId;
    use crate::paths::PathArena;

    const MRAI: Option<SimDuration> = Some(SimDuration::from_secs(30));

    thread_local! {
        /// The tests' path arena: `ann(tag)` interns `[tag]` here, so
        /// equal tags give equal announcements.
        static PATHS: RefCell<PathArena> = RefCell::new(PathArena::default());
    }

    fn ann(tag: u32) -> BgpAction {
        BgpAction::Announce {
            path: PATHS.with(|paths| paths.borrow_mut().intern(&[AsId(tag)])),
            aggregator: None,
        }
    }

    #[test]
    fn disabled_gate_passes_everything() {
        let mut g = MraiGate::default();
        for t in 0..5 {
            let v = g.submit(None, ann(t), SimTime::from_secs(t as u64));
            assert!(matches!(v, MraiVerdict::SendNow(_)));
        }
    }

    #[test]
    fn first_announcement_sends_then_defers() {
        let mut g = MraiGate::default();
        assert!(matches!(
            g.submit(MRAI, ann(1), SimTime::ZERO),
            MraiVerdict::SendNow(_)
        ));
        match g.submit(MRAI, ann(2), SimTime::from_secs(10)) {
            MraiVerdict::Deferred { at, arm } => {
                assert_eq!(at, SimTime::from_secs(30));
                assert!(arm);
            }
            other => panic!("expected deferral, got {other:?}"),
        }
        // A third submit coalesces without re-arming.
        match g.submit(MRAI, ann(3), SimTime::from_secs(20)) {
            MraiVerdict::Deferred { arm, .. } => assert!(!arm),
            other => panic!("expected deferral, got {other:?}"),
        }
        // Expiry sends the *latest* pending update.
        let sent = g.expire(MRAI, SimTime::from_secs(30)).unwrap();
        assert_eq!(sent, ann(3));
    }

    #[test]
    fn gate_reopens_after_interval() {
        let mut g = MraiGate::default();
        g.submit(MRAI, ann(1), SimTime::ZERO);
        assert!(matches!(
            g.submit(MRAI, ann(2), SimTime::from_secs(30)),
            MraiVerdict::SendNow(_)
        ));
    }

    #[test]
    fn withdrawal_bypasses_and_cancels_pending() {
        let mut g = MraiGate::default();
        g.submit(MRAI, ann(1), SimTime::ZERO);
        g.submit(MRAI, ann(2), SimTime::from_secs(5));
        let v = g.submit(MRAI, BgpAction::Withdraw, SimTime::from_secs(6));
        assert!(matches!(v, MraiVerdict::SendNow(_)));
        // The expiry finds nothing to send.
        assert_eq!(g.expire(MRAI, SimTime::from_secs(30)), None);
    }

    #[test]
    fn expiry_restarts_window() {
        let mut g = MraiGate::default();
        g.submit(MRAI, ann(1), SimTime::ZERO);
        g.submit(MRAI, ann(2), SimTime::from_secs(10));
        g.expire(MRAI, SimTime::from_secs(30)).unwrap();
        // Window restarted at expiry: an announcement at t=40 defers again.
        match g.submit(MRAI, ann(3), SimTime::from_secs(40)) {
            MraiVerdict::Deferred { at, .. } => assert_eq!(at, SimTime::from_secs(60)),
            other => panic!("expected deferral, got {other:?}"),
        }
    }

    #[test]
    fn expire_without_pending_is_noop() {
        let mut g = MraiGate::default();
        assert_eq!(g.expire(MRAI, SimTime::from_secs(5)), None);
    }
}
