//! A BGP-speaking router for one AS.
//!
//! [`Router`] is a *pure* state machine: it never touches the event queue.
//! Every entry point (an incoming update, a timer expiry, a local
//! origination) writes into a caller-owned `RouterOutput` what must
//! happen next — messages to put on the wire, timers to arm, and the
//! Loc-RIB change (if any) for vantage-point taps. The
//! [`crate::network::Network`] driver translates those into scheduled
//! events. Keeping the router pure makes the RFD/MRAI interactions
//! unit-testable without a simulator.
//!
//! The inputs name sessions and prefixes by dense index: a session is a
//! position in the router's peer-sorted session list, a prefix is the id
//! the router's prefix table handed out when the prefix was interned. All per-prefix state (Adj-RIB-In, Adj-RIB-Out, MRAI slots,
//! Loc-RIB, originations) lives in flat slot arrays indexed by that id.
//!
//! Processing pipeline for an incoming update (mirroring RFC 4271 + 2439):
//!
//! 1. receiver-side loop detection (a path containing the local ASN is
//!    treated as unfeasible, i.e. an implicit withdrawal);
//! 2. Adj-RIB-In update + flap classification (initial / duplicate /
//!    attribute change / re-advertisement / withdrawal);
//! 3. RFD penalty accounting on the (prefix, session), possibly
//!    suppressing or releasing the route;
//! 4. decision process over all usable candidates;
//! 5. export diffing against the per-neighbor Adj-RIB-Out under the
//!    Gao–Rexford filter, with MRAI gating on announcements.

use std::ops::Range;

use netsim::{SimDuration, SimTime};

use crate::decision::{select_best, Candidate};
use crate::message::{AggregatorStamp, AsId, AsPath, BgpAction};
use crate::mrai::{MraiGate, MraiVerdict};
use crate::policy::{ExportPolicy, SessionPolicy};
use crate::prefix::Prefix;
use crate::rfd::{FlapKind, RfdTransition};
use crate::rib::{AdjRibIn, Route};

/// What a router selected for a prefix.
#[derive(Clone, Debug, PartialEq)]
pub enum Selection {
    /// The prefix is locally originated.
    Local {
        /// The stamp the origination carries.
        aggregator: Option<AggregatorStamp>,
    },
    /// Best route learned from a neighbor.
    Learned {
        /// The neighbor it was learned from.
        neighbor: AsId,
        /// The route as received.
        route: Route,
    },
}

impl Selection {
    /// The route as this router would describe it to an observer peering
    /// with it (own ASN prepended) — the view a route collector records.
    pub fn exported_view(&self, own: AsId) -> Route {
        match self {
            Selection::Local { aggregator } => Route {
                path: AsPath::from_slice(&[own]),
                aggregator: *aggregator,
            },
            Selection::Learned { route, .. } => Route {
                path: route.path.prepend(own, 1),
                aggregator: route.aggregator,
            },
        }
    }
}

/// A Loc-RIB change, reported so vantage-point taps can record it.
#[derive(Clone, Debug, PartialEq)]
pub struct LocRibChange {
    /// The affected prefix.
    pub prefix: Prefix,
    /// The new best route in exported view (`None` = prefix unreachable).
    pub route: Option<Route>,
}

/// Everything a router wants done after processing one input. Each input
/// concerns a single prefix, so entries name only the session (an index
/// into the router's session list).
#[derive(Debug, Default)]
pub(crate) struct RouterOutput {
    /// Updates to put on the wire, in session order: (session, action).
    pub sends: Vec<(usize, BgpAction)>,
    /// MRAI expiry timers to arm: (session, fire-at).
    pub mrai_timers: Vec<(usize, SimTime)>,
    /// RFD reuse timers to arm: (session, fire-at).
    pub rfd_timers: Vec<(usize, SimTime)>,
    /// The Loc-RIB change, if the best route moved.
    pub loc_rib_change: Option<LocRibChange>,
    /// Announcements the MRAI gate deferred while processing this input.
    pub mrai_deferrals: u32,
    /// True if this input drove an RFD state into suppression.
    pub rfd_suppressed: bool,
    /// True if this input released a suppressed RFD state.
    pub rfd_released: bool,
}

impl RouterOutput {
    /// Empty the output for the next input, keeping buffer capacity.
    pub(crate) fn clear(&mut self) {
        self.sends.clear();
        self.mrai_timers.clear();
        self.rfd_timers.clear();
        self.loc_rib_change = None;
        self.mrai_deferrals = 0;
        self.rfd_suppressed = false;
        self.rfd_released = false;
    }
}

/// One BGP session: how the router treats one neighbor, and the
/// per-prefix state it keeps for it.
#[derive(Debug)]
struct Session {
    peer: AsId,
    policy: SessionPolicy,
    adj_in: AdjRibIn,
    /// What the router last advertised to the peer, by prefix id.
    adj_out: Vec<Option<Route>>,
    mrai: MraiGate,
}

impl Session {
    fn new(peer: AsId, policy: SessionPolicy, prefixes: usize) -> Self {
        Session {
            peer,
            policy,
            adj_in: AdjRibIn::new(prefixes),
            adj_out: vec![None; prefixes],
            mrai: MraiGate::new(policy.mrai, prefixes),
        }
    }

    /// The session went down or came back: the peer holds none of our
    /// routes, and the pending MRAI updates died with the TCP session.
    fn reset_outbound(&mut self) {
        self.adj_out.fill(None);
        self.mrai.reset();
    }
}

/// One AS's router.
#[derive(Debug)]
pub struct Router {
    asn: AsId,
    /// Sessions sorted by peer AS number. Export walks them in this
    /// order, which fixes the order in which the network draws jitter.
    sessions: Vec<Session>,
    /// The interned prefixes, by prefix id.
    prefixes: Vec<Prefix>,
    /// Prefix ids in ascending prefix order (session resets walk this).
    prefix_order: Vec<usize>,
    /// Per prefix id: the local origination's stamp, if originated here.
    originated: Vec<Option<Option<AggregatorStamp>>>,
    /// Per prefix id: the selected best route.
    loc_rib: Vec<Option<Selection>>,
}

impl Router {
    /// A router for the given AS with no sessions.
    pub fn new(asn: AsId) -> Self {
        Router {
            asn,
            sessions: Vec::new(),
            prefixes: Vec::new(),
            prefix_order: Vec::new(),
            originated: Vec::new(),
            loc_rib: Vec::new(),
        }
    }

    /// This router's AS number.
    pub fn asn(&self) -> AsId {
        self.asn
    }

    /// Add (or reconfigure) a session to `peer`. Reconfiguring starts the
    /// session from empty RIBs.
    pub fn add_session(&mut self, peer: AsId, policy: SessionPolicy) {
        assert_ne!(peer, self.asn, "cannot peer with self");
        let session = Session::new(peer, policy, self.prefixes.len());
        match self.sessions.binary_search_by_key(&peer, |s| s.peer) {
            Ok(i) => self.sessions[i] = session,
            Err(i) => self.sessions.insert(i, session),
        }
    }

    /// The dense id of `prefix`, interning it (one empty slot in every
    /// per-prefix array) on first sight.
    pub(crate) fn intern(&mut self, prefix: Prefix) -> usize {
        if let Some(pid) = self.prefix_id(prefix) {
            return pid;
        }
        let pid = self.prefixes.len();
        self.prefixes.push(prefix);
        let at = self
            .prefix_order
            .partition_point(|&p| self.prefixes[p] < prefix);
        self.prefix_order.insert(at, pid);
        self.originated.push(None);
        self.loc_rib.push(None);
        for s in &mut self.sessions {
            s.adj_in.push_slot();
            s.adj_out.push(None);
            s.mrai.push_slot();
        }
        pid
    }

    /// The id of an already interned prefix.
    pub(crate) fn prefix_id(&self, prefix: Prefix) -> Option<usize> {
        self.prefixes.iter().position(|&p| p == prefix)
    }

    /// The prefix with id `pid`.
    pub(crate) fn prefix(&self, pid: usize) -> Prefix {
        self.prefixes[pid]
    }

    /// Number of sessions.
    pub(crate) fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The session index of `peer`, if a session exists.
    pub(crate) fn session_index(&self, peer: AsId) -> Option<usize> {
        self.sessions.binary_search_by_key(&peer, |s| s.peer).ok()
    }

    /// The neighbor on session `session`.
    pub(crate) fn peer(&self, session: usize) -> AsId {
        self.sessions[session].peer
    }

    /// The policy of session `session`.
    pub(crate) fn policy_at(&self, session: usize) -> &SessionPolicy {
        &self.sessions[session].policy
    }

    /// The session policy towards `peer`, if a session exists.
    pub fn session_policy(&self, peer: AsId) -> Option<&SessionPolicy> {
        self.session_index(peer).map(|s| self.policy_at(s))
    }

    /// All neighbor ASNs (ascending).
    pub fn neighbor_ids(&self) -> Vec<AsId> {
        self.sessions.iter().map(|s| s.peer).collect()
    }

    /// The current best selection for `prefix`, if reachable.
    pub fn best(&self, prefix: Prefix) -> Option<&Selection> {
        self.loc_rib[self.prefix_id(prefix)?].as_ref()
    }

    /// Whether the route from `peer` for `prefix` is currently suppressed.
    pub fn is_suppressed(&self, peer: AsId, prefix: Prefix) -> bool {
        match (self.session_index(peer), self.prefix_id(prefix)) {
            (Some(s), Some(pid)) => self.sessions[s].adj_in.get(pid).rfd.is_suppressed(),
            _ => false,
        }
    }

    /// Current RFD penalty on (peer, prefix) at `now`, if RFD is enabled.
    pub fn rfd_penalty(&self, peer: AsId, prefix: Prefix, now: SimTime) -> Option<f64> {
        let session = self.session_index(peer)?;
        match self.prefix_id(prefix) {
            Some(pid) => self.session_penalty(session, pid, now),
            None => self.policy_at(session).rfd_for(prefix).map(|_| 0.0),
        }
    }

    /// [`Router::rfd_penalty`] by session index and prefix id.
    pub(crate) fn session_penalty(&self, session: usize, pid: usize, now: SimTime) -> Option<f64> {
        let s = &self.sessions[session];
        let params = s.policy.rfd_for(self.prefixes[pid])?;
        Some(s.adj_in.get(pid).rfd.penalty_at(now, params))
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Process an update for prefix `pid` received on `session`.
    pub(crate) fn handle_update(
        &mut self,
        session: usize,
        pid: usize,
        action: BgpAction,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        let prefix = self.prefixes[pid];
        let own = self.asn;
        let s = &mut self.sessions[session];

        // 1. Loop detection: a path carrying our ASN makes the route
        //    unfeasible — treat as withdrawal, without an RFD penalty
        //    (RFC 2439 penalises route *changes*, and an unfeasible
        //    announcement never enters the RIB).
        let action = match action {
            BgpAction::Announce { ref path, .. } if path.contains(own) => BgpAction::Withdraw,
            other => other,
        };

        // 2. Adj-RIB-In + flap classification.
        let (kind, rib_changed) = match action {
            BgpAction::Announce { path, aggregator } => {
                s.adj_in
                    .apply_announce(pid, Route { path, aggregator }, now)
            }
            BgpAction::Withdraw => s.adj_in.apply_withdraw(pid, now),
        };

        // 3. RFD penalty accounting.
        let mut usability_changed = rib_changed;
        if let Some(params) = s.policy.rfd_for(prefix).copied() {
            let entry = s.adj_in.get_mut(pid);
            if kind != FlapKind::Duplicate {
                match entry.rfd.record(kind, now, &params) {
                    RfdTransition::Suppressed => {
                        let at = entry
                            .rfd
                            .release_at(&params)
                            .expect("suppressed has release time");
                        out.rfd_timers.push((session, at));
                        out.rfd_suppressed = true;
                        usability_changed = true;
                    }
                    RfdTransition::Released => {
                        out.rfd_released = true;
                        usability_changed = true;
                    }
                    RfdTransition::StillSuppressed => {
                        // The route stays invisible; the armed timer will
                        // re-check and re-arm as needed. Nothing visible
                        // changed downstream.
                        usability_changed = false;
                    }
                    RfdTransition::StillUsable => {}
                }
            } else if entry.rfd.is_suppressed() {
                usability_changed = false;
            }
        }

        if usability_changed {
            self.reselect(pid, now, out);
        }
    }

    /// An RFD reuse timer fired for (session, prefix).
    pub(crate) fn rfd_reuse_fired(
        &mut self,
        session: usize,
        pid: usize,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        let s = &mut self.sessions[session];
        let Some(params) = s.policy.rfd_for(self.prefixes[pid]).copied() else {
            return;
        };
        let entry = s.adj_in.get_mut(pid);
        if entry.rfd.tick(now, &params) {
            // Released: the stored route (if any) becomes usable again.
            out.rfd_released = true;
            self.reselect(pid, now, out);
        } else if entry.rfd.is_suppressed() {
            // Flaps while suppressed pushed the release time out; re-arm.
            // The new deadline must be strictly in the future: exp2/log2
            // rounding can make `release_at` lag `now` by an ulp while the
            // decayed penalty still reads a hair above the reuse
            // threshold, and re-arming at `now` would livelock the event
            // loop.
            let at = entry
                .rfd
                .release_at(&params)
                .expect("still suppressed")
                .max(now + SimDuration::from_millis(1));
            out.rfd_timers.push((session, at));
        }
    }

    /// An MRAI timer fired for (session, prefix): flush the coalesced
    /// update.
    pub(crate) fn mrai_expired(
        &mut self,
        session: usize,
        pid: usize,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        if let Some(action) = self.sessions[session].mrai.expire(pid, now) {
            out.sends.push((session, action));
        }
    }

    /// Session `session` went down (e.g. a fault-injected reset).
    ///
    /// The per-session transient state resets with the TCP session: the
    /// Adj-RIB-Out is forgotten (the peer no longer holds our routes)
    /// and the MRAI gate discards its pending/coalesced updates. Returns
    /// the prefixes with a route learned on the session, in ascending
    /// prefix order; the caller withdraws each one through
    /// [`Router::handle_update`], so the flap penalty accrues exactly as
    /// RFC 2439 prescribes for session loss and every Loc-RIB change is
    /// reported on its own.
    pub(crate) fn session_down(&mut self, session: usize) -> Vec<usize> {
        let s = &mut self.sessions[session];
        s.reset_outbound();
        self.prefix_order
            .iter()
            .copied()
            .filter(|&pid| s.adj_in.get(pid).route.is_some())
            .collect()
    }

    /// Session `session` re-established after a reset.
    ///
    /// BGP re-syncs a fresh session with a full table exchange: clear the
    /// (stale) Adj-RIB-Out and MRAI gate, then re-advertise the entire
    /// Loc-RIB towards this peer. Returns the Loc-RIB's prefixes in
    /// ascending prefix order; the caller re-advertises each one through
    /// [`Router::resync`]. On the peer's side each arriving announcement
    /// classifies as a re-advertisement flap — the RFD penalty cost of a
    /// session reset.
    pub(crate) fn session_up(&mut self, session: usize) -> Vec<usize> {
        self.sessions[session].reset_outbound();
        self.prefix_order
            .iter()
            .copied()
            .filter(|&pid| self.loc_rib[pid].is_some())
            .collect()
    }

    /// Re-advertise the current selection for `pid` on `session` alone.
    pub(crate) fn resync(
        &mut self,
        session: usize,
        pid: usize,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        let view = self.loc_rib[pid]
            .as_ref()
            .map(|s| s.exported_view(self.asn));
        self.export(pid, view.as_ref(), session..session + 1, now, out);
    }

    /// Originate (announce) prefix `pid` locally, with an optional beacon
    /// stamp.
    pub(crate) fn originate(
        &mut self,
        pid: usize,
        aggregator: Option<AggregatorStamp>,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        self.originated[pid] = Some(aggregator);
        self.reselect(pid, now, out);
    }

    /// Withdraw a locally-originated prefix.
    pub(crate) fn withdraw_origin(&mut self, pid: usize, now: SimTime, out: &mut RouterOutput) {
        self.originated[pid] = None;
        self.reselect(pid, now, out);
    }

    // ------------------------------------------------------------------
    // Decision + export
    // ------------------------------------------------------------------

    /// Re-run the decision process for `pid` and export any change.
    fn reselect(&mut self, pid: usize, now: SimTime, out: &mut RouterOutput) {
        let new = self.compute_best(pid);
        if self.loc_rib[pid] == new {
            return;
        }
        // The exported view is the same for every neighbor; build it once.
        let view = new.as_ref().map(|s| s.exported_view(self.asn));
        self.loc_rib[pid] = new;
        self.export(pid, view.as_ref(), 0..self.sessions.len(), now, out);
        out.loc_rib_change = Some(LocRibChange {
            prefix: self.prefixes[pid],
            route: view,
        });
    }

    fn compute_best(&self, pid: usize) -> Option<Selection> {
        if let Some(aggregator) = self.originated[pid] {
            return Some(Selection::Local { aggregator });
        }
        let candidates = self.sessions.iter().filter_map(|s| {
            let route = s.adj_in.get(pid).usable()?;
            // Defensive loop check (sender-side split horizon should make
            // this unreachable, but policy bugs must not loop forever).
            if route.path.contains(self.asn) {
                return None;
            }
            Some(Candidate {
                neighbor: s.peer,
                relationship: s.policy.relationship,
                route,
            })
        });
        select_best(candidates).map(|c| Selection::Learned {
            neighbor: c.neighbor,
            route: c.route.clone(),
        })
    }

    /// Diff the desired advertisement of the current selection for `pid`
    /// (whose exported view is `view`) against the Adj-RIB-Out of each
    /// session in `sessions`, and emit the needed updates through the
    /// MRAI gates.
    fn export(
        &mut self,
        pid: usize,
        view: Option<&Route>,
        sessions: Range<usize>,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        let own = self.asn;
        // Who did we learn the best route from (split horizon), and what
        // relationship was it learned over (Gao–Rexford)?
        let (learned_from, learned_rel) = match &self.loc_rib[pid] {
            Some(Selection::Learned { neighbor, .. }) => {
                let s = self.session_index(*neighbor).expect("learned on a session");
                (Some(s), Some(self.sessions[s].policy.relationship))
            }
            _ => (None, None),
        };

        for i in sessions {
            let session = &mut self.sessions[i];
            // Desired route towards this peer: none under split horizon
            // (never advertise back to the peer the route was learned
            // from) or when the export policy forbids.
            let desired = view
                .filter(|_| {
                    learned_from != Some(i)
                        && ExportPolicy::permits(learned_rel, session.policy.relationship)
                })
                .map(|route| match session.policy.prepend_extra {
                    0 => route.clone(),
                    extra => Route {
                        path: route.path.prepend(own, extra),
                        aggregator: route.aggregator,
                    },
                });

            let current = &mut session.adj_out[pid];
            if *current == desired {
                continue;
            }
            // Unequal, so a `None` desired means something was advertised.
            let action = match &desired {
                Some(route) => BgpAction::Announce {
                    path: route.path.clone(),
                    aggregator: route.aggregator,
                },
                None => BgpAction::Withdraw,
            };
            *current = desired;
            match session.mrai.submit(pid, action, now) {
                MraiVerdict::SendNow(action) => out.sends.push((i, action)),
                MraiVerdict::Deferred { at, arm } => {
                    out.mrai_deferrals += 1;
                    if arm {
                        out.mrai_timers.push((i, at));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Relationship;
    use crate::rfd::VendorProfile;

    fn pfx() -> Prefix {
        "10.0.0.0/24".parse().unwrap()
    }

    /// Deliver `action` for `prefix` from `from`, as the network would.
    fn recv(
        r: &mut Router,
        from: AsId,
        prefix: Prefix,
        action: BgpAction,
        now: SimTime,
    ) -> RouterOutput {
        let pid = r.intern(prefix);
        let session = r.session_index(from).expect("session exists");
        let mut out = RouterOutput::default();
        r.handle_update(session, pid, action, now, &mut out);
        out
    }

    fn announce(path: &[u32]) -> BgpAction {
        BgpAction::Announce {
            path: path.iter().map(|&a| AsId(a)).collect(),
            aggregator: None,
        }
    }

    /// The output's sends as (peer, action).
    fn sends(r: &Router, out: &RouterOutput) -> Vec<(AsId, BgpAction)> {
        out.sends
            .iter()
            .map(|(s, a)| (r.peer(*s), a.clone()))
            .collect()
    }

    fn originate(
        r: &mut Router,
        prefix: Prefix,
        aggregator: Option<AggregatorStamp>,
        now: SimTime,
    ) -> RouterOutput {
        let pid = r.intern(prefix);
        let mut out = RouterOutput::default();
        r.originate(pid, aggregator, now, &mut out);
        out
    }

    fn reuse_fired(r: &mut Router, peer: AsId, prefix: Prefix, now: SimTime) -> RouterOutput {
        let pid = r.intern(prefix);
        let mut out = RouterOutput::default();
        r.rfd_reuse_fired(r.session_index(peer).unwrap(), pid, now, &mut out);
        out
    }

    /// A session reset, driven prefix by prefix as the network does.
    fn session_down(r: &mut Router, peer: AsId, now: SimTime) -> Vec<(Prefix, RouterOutput)> {
        let session = r.session_index(peer).unwrap();
        r.session_down(session)
            .into_iter()
            .map(|pid| {
                let mut out = RouterOutput::default();
                r.handle_update(session, pid, BgpAction::Withdraw, now, &mut out);
                (r.prefix(pid), out)
            })
            .collect()
    }

    /// A session re-establishment, driven prefix by prefix.
    fn session_up(r: &mut Router, peer: AsId, now: SimTime) -> Vec<(Prefix, RouterOutput)> {
        let session = r.session_index(peer).unwrap();
        r.session_up(session)
            .into_iter()
            .map(|pid| {
                let mut out = RouterOutput::default();
                r.resync(session, pid, now, &mut out);
                (r.prefix(pid), out)
            })
            .collect()
    }

    fn plain(rel: Relationship) -> SessionPolicy {
        SessionPolicy::plain(rel)
    }

    /// Router AS1 with customer AS2 and provider AS3.
    fn sample_router() -> Router {
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer));
        r.add_session(AsId(3), plain(Relationship::Provider));
        r
    }

    fn announce_from(origin: u32) -> BgpAction {
        announce(&[origin])
    }

    #[test]
    fn origination_exports_to_all_neighbors() {
        let mut r = sample_router();
        let out = originate(
            &mut r,
            pfx(),
            Some(AggregatorStamp::new(SimTime::ZERO)),
            SimTime::ZERO,
        );
        assert_eq!(out.sends.len(), 2);
        for (_, u) in sends(&r, &out) {
            match u {
                BgpAction::Announce { path, aggregator } => {
                    assert_eq!(path.asns(), &[AsId(1)]);
                    assert!(aggregator.is_some());
                }
                _ => panic!("expected announce"),
            }
        }
        assert!(matches!(r.best(pfx()), Some(Selection::Local { .. })));
    }

    #[test]
    fn learned_route_prepends_own_asn_on_export() {
        let mut r = sample_router();
        let out = recv(&mut r, AsId(2), pfx(), announce_from(2), SimTime::ZERO);
        // Learned from customer → export to provider AS3 (not back to AS2).
        let sent = sends(&r, &out);
        assert_eq!(sent.len(), 1);
        let (to, u) = &sent[0];
        assert_eq!(*to, AsId(3));
        match u {
            BgpAction::Announce { path, .. } => assert_eq!(path.asns(), &[AsId(1), AsId(2)]),
            _ => panic!("expected announce"),
        }
    }

    #[test]
    fn provider_route_not_exported_to_other_provider_or_peer() {
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Provider));
        r.add_session(AsId(3), plain(Relationship::Provider));
        r.add_session(AsId(4), plain(Relationship::Peer));
        r.add_session(AsId(5), plain(Relationship::Customer));
        let out = recv(&mut r, AsId(2), pfx(), announce_from(2), SimTime::ZERO);
        let dests: Vec<AsId> = sends(&r, &out).into_iter().map(|(d, _)| d).collect();
        assert_eq!(
            dests,
            vec![AsId(5)],
            "provider route goes only to customers"
        );
    }

    #[test]
    fn withdrawal_retracts_only_where_advertised() {
        let mut r = sample_router();
        recv(&mut r, AsId(2), pfx(), announce_from(2), SimTime::ZERO);
        let out = recv(
            &mut r,
            AsId(2),
            pfx(),
            BgpAction::Withdraw,
            SimTime::from_secs(1),
        );
        let sent = sends(&r, &out);
        assert_eq!(sent.len(), 1);
        let (to, u) = &sent[0];
        assert_eq!(*to, AsId(3));
        assert!(matches!(u, BgpAction::Withdraw));
        assert!(r.best(pfx()).is_none());
    }

    #[test]
    fn duplicate_withdrawal_is_silent() {
        let mut r = sample_router();
        let out = recv(&mut r, AsId(2), pfx(), BgpAction::Withdraw, SimTime::ZERO);
        assert!(out.sends.is_empty());
        assert!(out.loc_rib_change.is_none());
    }

    #[test]
    fn path_hunting_switches_to_alternative() {
        // AS1 has two customers advertising the same prefix.
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer));
        r.add_session(AsId(4), plain(Relationship::Customer));
        r.add_session(AsId(3), plain(Relationship::Provider));
        recv(&mut r, AsId(2), pfx(), announce_from(2), SimTime::ZERO);
        recv(
            &mut r,
            AsId(4),
            pfx(),
            announce(&[4, 9]),
            SimTime::from_secs(1),
        );
        // Best is AS2 (shorter). Withdraw it → switch to AS4's longer path
        // and *announce* (not withdraw) to the provider: path hunting.
        // The best change also retracts the old advertisement towards AS4
        // (now the learning neighbor) and offers the new best to AS2.
        let out = recv(
            &mut r,
            AsId(2),
            pfx(),
            BgpAction::Withdraw,
            SimTime::from_secs(2),
        );
        let sent = sends(&r, &out);
        let to_provider: Vec<_> = sent.iter().filter(|(to, _)| *to == AsId(3)).collect();
        assert_eq!(to_provider.len(), 1);
        match &to_provider[0].1 {
            BgpAction::Announce { path, .. } => {
                assert_eq!(path.asns(), &[AsId(1), AsId(4), AsId(9)]);
            }
            _ => panic!("expected alternative-path announce"),
        }
        // Split horizon: the new advertisement never goes back to AS4.
        assert!(sent
            .iter()
            .filter(|(to, _)| *to == AsId(4))
            .all(|(_, u)| matches!(u, BgpAction::Withdraw)));
    }

    #[test]
    fn looped_announcement_treated_as_withdrawal() {
        let mut r = sample_router();
        recv(&mut r, AsId(2), pfx(), announce_from(2), SimTime::ZERO);
        // AS2 now (bogusly) sends a path containing AS1.
        let looped = announce(&[2, 1]);
        let out = recv(&mut r, AsId(2), pfx(), looped, SimTime::from_secs(1));
        assert!(r.best(pfx()).is_none());
        assert!(out
            .sends
            .iter()
            .any(|(_, u)| matches!(u, BgpAction::Withdraw)));
    }

    #[test]
    fn rfd_suppression_withdraws_downstream_and_releases_later() {
        let params = VendorProfile::Cisco.params();
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer).with_rfd(params));
        r.add_session(AsId(3), plain(Relationship::Provider));

        let mut now = SimTime::ZERO;
        let mut suppressed_at = None;
        // Flap until suppression: W/A alternating every 60 s.
        for i in 0..40 {
            let out = if i % 2 == 0 {
                recv(&mut r, AsId(2), pfx(), BgpAction::Withdraw, now)
            } else {
                recv(&mut r, AsId(2), pfx(), announce_from(2), now)
            };
            if let Some(&(_, at)) = out.rfd_timers.first() {
                suppressed_at = Some((now, at));
                break;
            }
            now += SimDuration::from_secs(60);
        }
        let (t_supp, t_release) = suppressed_at.expect("suppression must trigger");
        assert!(r.is_suppressed(AsId(2), pfx()));
        assert!(t_release > t_supp + SimDuration::from_mins(10));

        // While suppressed, further updates do not propagate downstream.
        let out = recv(
            &mut r,
            AsId(2),
            pfx(),
            announce_from(2),
            t_supp + SimDuration::from_secs(60),
        );
        assert!(out.sends.is_empty(), "suppressed flaps must not export");

        // The reuse timer may need re-arming (the extra flap above pushed
        // release later); follow the chain until release.
        let mut fire_at = t_release;
        let mut released = false;
        for _ in 0..10 {
            let out = reuse_fired(&mut r, AsId(2), pfx(), fire_at);
            if let Some(&(_, at)) = out.rfd_timers.first() {
                fire_at = at;
                continue;
            }
            // Released: the stored announcement re-exports downstream.
            released = true;
            assert!(
                sends(&r, &out)
                    .iter()
                    .any(|(to, u)| *to == AsId(3) && u.is_announce()),
                "release must re-advertise"
            );
            break;
        }
        assert!(released, "route must eventually be released");
        assert!(!r.is_suppressed(AsId(2), pfx()));
    }

    #[test]
    fn reuse_timer_rearm_chain_terminates_and_moves_forward() {
        // Regression: firing the reuse timer early must re-arm at a
        // strictly later instant (float rounding in the decay/inverse
        // pair once produced `release_at == now` with the route still
        // suppressed, livelocking the event loop).
        let params = VendorProfile::Juniper.params();
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer).with_rfd(params));
        r.add_session(AsId(3), plain(Relationship::Provider));
        let mut now = SimTime::ZERO;
        while !r.is_suppressed(AsId(2), pfx()) {
            recv(&mut r, AsId(2), pfx(), BgpAction::Withdraw, now);
            now += SimDuration::from_secs(30);
            recv(&mut r, AsId(2), pfx(), announce_from(2), now);
            now += SimDuration::from_secs(30);
        }
        // Fire deliberately early, then follow the re-arm chain.
        let mut fire_at = now + SimDuration::from_secs(1);
        for _ in 0..100_000 {
            let out = reuse_fired(&mut r, AsId(2), pfx(), fire_at);
            match out.rfd_timers.first() {
                Some(&(_, at)) => {
                    assert!(at > fire_at, "re-arm must move forward: {at} vs {fire_at}");
                    fire_at = at;
                }
                None => {
                    assert!(!r.is_suppressed(AsId(2), pfx()));
                    return;
                }
            }
        }
        panic!("re-arm chain did not terminate");
    }

    #[test]
    fn rfd_only_applies_to_configured_session() {
        let params = VendorProfile::Juniper.params();
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Peer).with_rfd(params));
        r.add_session(AsId(4), plain(Relationship::Peer));
        r.add_session(AsId(3), plain(Relationship::Customer));

        let mut now = SimTime::ZERO;
        for i in 0..30 {
            let (u2, u4) = if i % 2 == 0 {
                (BgpAction::Withdraw, BgpAction::Withdraw)
            } else {
                (announce_from(2), announce(&[4]))
            };
            recv(&mut r, AsId(2), pfx(), u2, now);
            recv(&mut r, AsId(4), pfx(), u4, now);
            now += SimDuration::from_secs(60);
        }
        assert!(r.is_suppressed(AsId(2), pfx()));
        assert!(!r.is_suppressed(AsId(4), pfx()));
        // The undamped session still provides a best route.
        assert!(matches!(
            r.best(pfx()),
            Some(Selection::Learned { neighbor, .. }) if *neighbor == AsId(4)
        ));
    }

    #[test]
    fn mrai_defers_rapid_announcements() {
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer));
        r.add_session(
            AsId(3),
            plain(Relationship::Provider).with_mrai(SimDuration::from_secs(30)),
        );
        // First announce passes.
        let out = recv(&mut r, AsId(2), pfx(), announce_from(2), SimTime::ZERO);
        assert_eq!(out.sends.len(), 1);
        // Attribute change 5 s later defers (gate closed).
        let changed = announce(&[2, 9]);
        let out = recv(&mut r, AsId(2), pfx(), changed, SimTime::from_secs(5));
        assert!(out.sends.is_empty());
        assert_eq!(out.mrai_timers.len(), 1);
        let (session, at) = out.mrai_timers[0];
        assert_eq!(r.peer(session), AsId(3));
        // Expiry flushes the pending (coalesced) announcement.
        let pid = r.intern(pfx());
        let mut out = RouterOutput::default();
        r.mrai_expired(session, pid, at, &mut out);
        assert_eq!(out.sends.len(), 1);
        assert!(out.sends[0].1.is_announce());
    }

    #[test]
    fn prepend_extra_lengthens_exported_path() {
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer));
        let mut pol = plain(Relationship::Provider);
        pol.prepend_extra = 2;
        r.add_session(AsId(3), pol);
        let out = recv(&mut r, AsId(2), pfx(), announce_from(2), SimTime::ZERO);
        match &out.sends[0].1 {
            BgpAction::Announce { path, .. } => {
                assert_eq!(path.asns(), &[AsId(1), AsId(1), AsId(1), AsId(2)]);
            }
            _ => panic!("expected announce"),
        }
    }

    #[test]
    fn loc_rib_change_reports_exported_view() {
        let mut r = sample_router();
        let out = recv(&mut r, AsId(2), pfx(), announce_from(2), SimTime::ZERO);
        let change = out.loc_rib_change.expect("best changed");
        assert_eq!(change.prefix, pfx());
        let route = change.route.expect("announced");
        assert_eq!(route.path.asns(), &[AsId(1), AsId(2)]);
    }

    #[test]
    fn better_relationship_replaces_current_best() {
        let mut r = sample_router();
        // Provider route first.
        recv(&mut r, AsId(3), pfx(), announce(&[3]), SimTime::ZERO);
        assert!(
            matches!(r.best(pfx()), Some(Selection::Learned { neighbor, .. }) if *neighbor == AsId(3))
        );
        // Customer route displaces it despite equal length.
        let out = recv(
            &mut r,
            AsId(2),
            pfx(),
            announce_from(2),
            SimTime::from_secs(1),
        );
        assert!(
            matches!(r.best(pfx()), Some(Selection::Learned { neighbor, .. }) if *neighbor == AsId(2))
        );
        // The new best is customer-learned → exported to the provider.
        assert!(sends(&r, &out).iter().any(|(to, _)| *to == AsId(3)));
    }

    #[test]
    fn session_down_withdraws_learned_routes_and_propagates() {
        let mut r = sample_router();
        recv(&mut r, AsId(2), pfx(), announce_from(2), SimTime::ZERO);
        assert!(r.best(pfx()).is_some());
        let outs = session_down(&mut r, AsId(2), SimTime::from_secs(10));
        assert_eq!(outs.len(), 1);
        let (prefix, out) = &outs[0];
        assert_eq!(*prefix, pfx());
        // The loss propagates downstream as a withdrawal to AS3.
        assert!(sends(&r, out)
            .iter()
            .any(|(to, u)| *to == AsId(3) && matches!(u, BgpAction::Withdraw)));
        assert!(r.best(pfx()).is_none());
    }

    #[test]
    fn session_down_accrues_rfd_penalty() {
        let params = VendorProfile::Cisco.params();
        let mut r = Router::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer).with_rfd(params));
        recv(&mut r, AsId(2), pfx(), announce_from(2), SimTime::ZERO);
        let before = r
            .rfd_penalty(AsId(2), pfx(), SimTime::from_secs(10))
            .unwrap();
        session_down(&mut r, AsId(2), SimTime::from_secs(10));
        let after = r
            .rfd_penalty(AsId(2), pfx(), SimTime::from_secs(10))
            .unwrap();
        assert!(
            after > before,
            "session loss must be penalised as a flap ({before} -> {after})"
        );
    }

    #[test]
    fn session_up_resyncs_full_loc_rib_to_peer() {
        let mut r = sample_router();
        // AS1 originates one prefix and learns another from AS3.
        let other: Prefix = "10.0.1.0/24".parse().unwrap();
        originate(&mut r, pfx(), None, SimTime::ZERO);
        recv(&mut r, AsId(3), other, announce(&[3]), SimTime::ZERO);
        // Session to the customer AS2 resets.
        session_down(&mut r, AsId(2), SimTime::from_secs(5));
        let outs = session_up(&mut r, AsId(2), SimTime::from_secs(65));
        // Both Loc-RIB prefixes re-advertise towards the customer.
        let announced: Vec<Prefix> = outs
            .iter()
            .filter(|(_, out)| {
                sends(&r, out)
                    .iter()
                    .any(|(to, u)| *to == AsId(2) && u.is_announce())
            })
            .map(|(prefix, _)| *prefix)
            .collect();
        assert!(announced.contains(&pfx()), "origin must re-advertise");
        assert!(
            announced.contains(&other),
            "learned route must re-advertise"
        );
    }

    #[test]
    fn session_up_readvertisement_flap_classifies_on_receiver() {
        // The receiving side of a re-established session sees the full
        // re-sync as re-advertisement flaps.
        let mut r = sample_router();
        recv(&mut r, AsId(2), pfx(), announce_from(2), SimTime::ZERO);
        session_down(&mut r, AsId(2), SimTime::from_secs(10));
        let pid = r.intern(pfx());
        let session = r.session_index(AsId(2)).unwrap();
        let entry = r.sessions[session].adj_in.get(pid);
        assert!(entry.route.is_none(), "session loss withdraws the route");
        assert!(entry.ever_announced, "history survives the reset");
    }

    #[test]
    fn session_down_without_session_or_routes_is_silent() {
        let mut r = sample_router();
        assert_eq!(r.session_index(AsId(99)), None, "no session to reset");
        assert!(session_down(&mut r, AsId(2), SimTime::ZERO).is_empty());
        assert!(session_up(&mut r, AsId(2), SimTime::ZERO).is_empty());
    }
}
