//! A BGP-speaking router for one AS.
//!
//! [`Router`] is the read-only half of an AS: its number and its
//! sessions (peer and policy). Everything a router mutates lives in the
//! simulation lane of one prefix ([`crate::network`]) and is handed in
//! as that router's `PrefixState`. Every entry point (an incoming
//! update, a timer expiry, a local origination) writes into a
//! caller-owned `RouterOutput` what must happen next — messages to put on
//! the wire, timers to arm, and the Loc-RIB change (if any) for
//! vantage-point taps. The network driver translates those into scheduled
//! events. Keeping the router pure makes the RFD/MRAI interactions
//! unit-testable without a simulator.
//!
//! The inputs name sessions by dense index: a session is a position in
//! the router's peer-sorted session list, and `PrefixState::sessions`
//! holds one `SessionSlot` per session in the same order. Routes carry
//! their AS paths as ids into the lane's path arena
//! (`PrefixState::paths`); only [`Selection`], what the network reports
//! outside the lane, holds an [`AsPath`].
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
use crate::paths::{PathArena, PathId};
use crate::policy::{ExportPolicy, Relationship, SessionPolicy};
use crate::prefix::Prefix;
use crate::rfd::{FlapKind, RfdTransition};
use crate::rib::{AdjEntry, LaneRoute, Route};

/// What a router selected for a prefix, as
/// [`Network::best`](crate::Network::best) reports it.
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

/// What a router selected for a prefix, as its lane stores it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LaneSelection {
    /// The prefix is locally originated, with this stamp.
    Local { aggregator: Option<AggregatorStamp> },
    /// Best route learned from `neighbor`, as received.
    Learned { neighbor: AsId, route: LaneRoute },
}

impl LaneSelection {
    /// The route as this router exports it (own ASN prepended), interned
    /// in `paths`. Every neighbor and the tap record share it.
    fn exported_view(self, own: AsId, paths: &mut PathArena) -> LaneRoute {
        match self {
            LaneSelection::Local { aggregator } => LaneRoute {
                path: paths.prepend(PathId::EMPTY, own),
                aggregator,
            },
            LaneSelection::Learned { route, .. } => LaneRoute {
                path: paths.prepend(route.path, own),
                aggregator: route.aggregator,
            },
        }
    }

    /// The selection with its path built from `paths`.
    pub(crate) fn materialize(self, paths: &PathArena) -> Selection {
        match self {
            LaneSelection::Local { aggregator } => Selection::Local { aggregator },
            LaneSelection::Learned { neighbor, route } => Selection::Learned {
                neighbor,
                route: route.materialize(paths),
            },
        }
    }
}

/// A Loc-RIB change, reported so vantage-point taps can record it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct LocRibChange {
    /// The affected prefix.
    pub prefix: Prefix,
    /// The new best route in exported view (`None` = prefix unreachable).
    pub route: Option<LaneRoute>,
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

/// A router's own state for one prefix.
#[derive(Clone, Debug, Default)]
pub(crate) struct LocalSlot {
    /// The local origination's stamp, if the prefix is originated here.
    pub originated: Option<Option<AggregatorStamp>>,
    /// The selected best route.
    pub best: Option<LaneSelection>,
}

/// One session's state for one prefix.
#[derive(Clone, Debug, Default)]
pub(crate) struct SessionSlot {
    /// What the neighbor advertised, with its RFD state.
    pub adj_in: AdjEntry,
    /// What the router last advertised to the neighbor.
    pub adj_out: Option<LaneRoute>,
    /// The MRAI gate towards the neighbor.
    pub mrai: MraiGate,
}

// A lane holds one slot per link, so a byte here is a byte per link per
// prefix. Pinned at its measured size so it cannot grow unnoticed.
const _: () = assert!(std::mem::size_of::<SessionSlot>() == 120);

impl SessionSlot {
    /// The session went down or came back: the peer holds none of our
    /// routes, and the pending MRAI update died with the TCP session.
    fn reset_outbound(&mut self) {
        self.adj_out = None;
        self.mrai.reset();
    }
}

/// A router's whole state for one prefix, borrowed from that prefix's
/// lane.
pub(crate) struct PrefixState<'a> {
    /// The prefix.
    pub prefix: Prefix,
    /// The router's own state.
    pub local: &'a mut LocalSlot,
    /// One slot per session, in session order.
    pub sessions: &'a mut [SessionSlot],
    /// The lane's path arena, which every route's path points into.
    pub paths: &'a mut PathArena,
}

/// One BGP session: the neighbor and how the router treats it.
#[derive(Debug)]
struct Session {
    peer: AsId,
    policy: SessionPolicy,
}

/// One AS's router.
#[derive(Debug)]
pub struct Router {
    asn: AsId,
    /// Sessions sorted by peer AS number. Export walks them in this
    /// order, which fixes the order in which a lane draws jitter.
    sessions: Vec<Session>,
}

impl Router {
    /// A router for the given AS with no sessions.
    pub fn new(asn: AsId) -> Self {
        Router {
            asn,
            sessions: Vec::new(),
        }
    }

    /// This router's AS number.
    pub fn asn(&self) -> AsId {
        self.asn
    }

    /// Add (or reconfigure) a session to `peer`.
    pub fn add_session(&mut self, peer: AsId, policy: SessionPolicy) {
        assert_ne!(peer, self.asn, "cannot peer with self");
        let session = Session { peer, policy };
        match self.sessions.binary_search_by_key(&peer, |s| s.peer) {
            Ok(i) => self.sessions[i] = session,
            Err(i) => self.sessions.insert(i, session),
        }
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

    /// Whether any neighbor is a customer: the only sessions a route
    /// learned from a peer or provider is exported over.
    pub(crate) fn has_customer(&self) -> bool {
        self.sessions
            .iter()
            .any(|s| s.policy.relationship == Relationship::Customer)
    }

    /// The RFD penalty at `now` of `entry`, an Adj-RIB-In entry on
    /// `session`; `None` when the session does not damp.
    pub(crate) fn session_penalty(
        &self,
        session: usize,
        entry: &AdjEntry,
        now: SimTime,
    ) -> Option<f64> {
        let params = self.policy_at(session).rfd.as_ref()?;
        Some(entry.rfd.penalty_at(now, params))
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Process an update received on `session`.
    pub(crate) fn handle_update(
        &self,
        st: &mut PrefixState<'_>,
        session: usize,
        action: BgpAction,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        let own = self.asn;
        let entry = &mut st.sessions[session].adj_in;

        // 1. Loop detection: a path carrying our ASN makes the route
        //    unfeasible — treat as withdrawal, without an RFD penalty
        //    (RFC 2439 penalises route *changes*, and an unfeasible
        //    announcement never enters the RIB).
        let action = match action {
            BgpAction::Announce { path, .. } if st.paths.contains(path, own) => BgpAction::Withdraw,
            other => other,
        };

        // 2. Adj-RIB-In + flap classification.
        let (kind, rib_changed) = match action {
            BgpAction::Announce { path, aggregator } => {
                entry.apply_announce(LaneRoute { path, aggregator })
            }
            BgpAction::Withdraw => entry.apply_withdraw(),
        };

        // 3. RFD penalty accounting.
        let mut usability_changed = rib_changed;
        if let Some(params) = self.policy_at(session).rfd.as_ref() {
            if kind != FlapKind::Duplicate {
                match entry.rfd.record(kind, now, params) {
                    RfdTransition::Suppressed => {
                        let at = entry
                            .rfd
                            .release_at(params)
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
            self.reselect(st, now, out);
        }
    }

    /// An RFD reuse timer fired for `session`.
    pub(crate) fn rfd_reuse_fired(
        &self,
        st: &mut PrefixState<'_>,
        session: usize,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        let Some(params) = self.policy_at(session).rfd.as_ref() else {
            return;
        };
        let entry = &mut st.sessions[session].adj_in;
        if entry.rfd.tick(now, params) {
            // Released: the stored route (if any) becomes usable again.
            out.rfd_released = true;
            self.reselect(st, now, out);
        } else if entry.rfd.is_suppressed() {
            // Flaps while suppressed pushed the release time out; re-arm.
            // The new deadline must be strictly in the future: exp2/log2
            // rounding can make `release_at` lag `now` by an ulp while the
            // decayed penalty still reads a hair above the reuse
            // threshold, and re-arming at `now` would livelock the event
            // loop.
            let at = entry
                .rfd
                .release_at(params)
                .expect("still suppressed")
                .max(now + SimDuration::from_millis(1));
            out.rfd_timers.push((session, at));
        }
    }

    /// An MRAI timer fired for `session`: flush the coalesced update.
    pub(crate) fn mrai_expired(
        &self,
        st: &mut PrefixState<'_>,
        session: usize,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        let interval = self.policy_at(session).mrai;
        if let Some(action) = st.sessions[session].mrai.expire(interval, now) {
            out.sends.push((session, action));
        }
    }

    /// Session `session` went down (e.g. a fault-injected reset).
    ///
    /// The per-session transient state resets with the TCP session: the
    /// Adj-RIB-Out is forgotten (the peer no longer holds our route) and
    /// the MRAI gate discards its pending update. A route learned on the
    /// session is withdrawn through [`Router::handle_update`], so the
    /// flap penalty accrues exactly as RFC 2439 prescribes for session
    /// loss. Returns whether there was such a route (and so an output to
    /// apply).
    pub(crate) fn session_down(
        &self,
        st: &mut PrefixState<'_>,
        session: usize,
        now: SimTime,
        out: &mut RouterOutput,
    ) -> bool {
        let slot = &mut st.sessions[session];
        slot.reset_outbound();
        let learned = slot.adj_in.route.is_some();
        if learned {
            self.handle_update(st, session, BgpAction::Withdraw, now, out);
        }
        learned
    }

    /// Session `session` re-established after a reset.
    ///
    /// BGP re-syncs a fresh session with a full table exchange: clear the
    /// (stale) Adj-RIB-Out and MRAI gate, then re-advertise the current
    /// selection towards this peer alone. On the peer's side the arriving
    /// announcement classifies as a re-advertisement flap — the RFD
    /// penalty cost of a session reset. Returns whether there was a
    /// selection to re-advertise.
    pub(crate) fn session_up(
        &self,
        st: &mut PrefixState<'_>,
        session: usize,
        now: SimTime,
        out: &mut RouterOutput,
    ) -> bool {
        st.sessions[session].reset_outbound();
        let Some(best) = st.local.best else {
            return false;
        };
        let view = best.exported_view(self.asn, st.paths);
        self.export(st, Some(view), session..session + 1, now, out);
        true
    }

    /// Originate (announce) the prefix locally, with an optional beacon
    /// stamp.
    pub(crate) fn originate(
        &self,
        st: &mut PrefixState<'_>,
        aggregator: Option<AggregatorStamp>,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        st.local.originated = Some(aggregator);
        self.reselect(st, now, out);
    }

    /// Withdraw a locally-originated prefix.
    pub(crate) fn withdraw_origin(
        &self,
        st: &mut PrefixState<'_>,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        st.local.originated = None;
        self.reselect(st, now, out);
    }

    // ------------------------------------------------------------------
    // Decision + export
    // ------------------------------------------------------------------

    /// Re-run the decision process and export any change.
    fn reselect(&self, st: &mut PrefixState<'_>, now: SimTime, out: &mut RouterOutput) {
        let new = self.compute_best(st);
        if st.local.best == new {
            return;
        }
        // The exported view is the same for every neighbor; build it once.
        let view = new.map(|s| s.exported_view(self.asn, st.paths));
        st.local.best = new;
        self.export(st, view, 0..self.sessions.len(), now, out);
        out.loc_rib_change = Some(LocRibChange {
            prefix: st.prefix,
            route: view,
        });
    }

    fn compute_best(&self, st: &PrefixState<'_>) -> Option<LaneSelection> {
        if let Some(aggregator) = st.local.originated {
            return Some(LaneSelection::Local { aggregator });
        }
        let candidates = self
            .sessions
            .iter()
            .zip(st.sessions.iter())
            .filter_map(|(s, slot)| {
                let route = slot.adj_in.usable()?;
                // `handle_update` turns a looped announcement into a
                // withdrawal, so no Adj-RIB-In route holds our ASN.
                debug_assert!(
                    !st.paths.contains(route.path, self.asn),
                    "looped route in {}'s Adj-RIB-In from {}",
                    self.asn,
                    s.peer
                );
                Some(Candidate {
                    neighbor: s.peer,
                    relationship: s.policy.relationship,
                    path_len: st.paths.len(route.path),
                    route,
                })
            });
        select_best(candidates).map(|c| LaneSelection::Learned {
            neighbor: c.neighbor,
            route: c.route,
        })
    }

    /// Diff the desired advertisement of the current selection (whose
    /// exported view is `view`) against the Adj-RIB-Out of each session in
    /// `sessions`, and emit the needed updates through the MRAI gates.
    fn export(
        &self,
        st: &mut PrefixState<'_>,
        view: Option<LaneRoute>,
        sessions: Range<usize>,
        now: SimTime,
        out: &mut RouterOutput,
    ) {
        // Who did we learn the best route from (split horizon), and what
        // relationship was it learned over (Gao–Rexford)?
        let (learned_from, learned_rel) = match st.local.best {
            Some(LaneSelection::Learned { neighbor, .. }) => {
                let s = self.session_index(neighbor).expect("learned on a session");
                (Some(s), Some(self.policy_at(s).relationship))
            }
            _ => (None, None),
        };

        for i in sessions {
            let policy = self.policy_at(i);
            // Desired route towards this peer: none under split horizon
            // (never advertise back to the peer the route was learned
            // from) or when the export policy forbids.
            let desired = view.filter(|_| {
                learned_from != Some(i) && ExportPolicy::permits(learned_rel, policy.relationship)
            });

            let slot = &mut st.sessions[i];
            if slot.adj_out == desired {
                continue;
            }
            // Unequal, so a `None` desired means something was advertised.
            let action = match desired {
                Some(route) => BgpAction::Announce {
                    path: route.path,
                    aggregator: route.aggregator,
                },
                None => BgpAction::Withdraw,
            };
            slot.adj_out = desired;
            match slot.mrai.submit(policy.mrai, action, now) {
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
    use std::collections::BTreeMap;

    use super::*;
    use crate::rfd::VendorProfile;

    fn pfx() -> Prefix {
        "10.0.0.0/24".parse().unwrap()
    }

    /// An update as the tests write and read it, with its path as an
    /// [`AsPath`]; the rig interns it on the way in and builds it on the
    /// way out.
    #[derive(Clone, Debug, PartialEq)]
    enum Update {
        Announce {
            path: AsPath,
            aggregator: Option<AggregatorStamp>,
        },
        Withdraw,
    }

    impl Update {
        fn is_announce(&self) -> bool {
            matches!(self, Update::Announce { .. })
        }
    }

    /// A router plus its state for every prefix a test touches, held
    /// the way the lanes of a network hold it. One path arena serves all
    /// prefixes: ids need only be consistent within the rig.
    struct Rig {
        router: Router,
        prefixes: BTreeMap<Prefix, (LocalSlot, Vec<SessionSlot>)>,
        paths: PathArena,
    }

    impl Rig {
        fn new(asn: AsId) -> Self {
            Rig {
                router: Router::new(asn),
                prefixes: BTreeMap::new(),
                paths: PathArena::default(),
            }
        }

        /// `update` as the router receives it, its path interned.
        fn intern(&mut self, update: Update) -> BgpAction {
            match update {
                Update::Announce { path, aggregator } => BgpAction::Announce {
                    path: self.paths.intern(path.asns()),
                    aggregator,
                },
                Update::Withdraw => BgpAction::Withdraw,
            }
        }

        /// `action` as a test reads it, its path built.
        fn update(&self, action: BgpAction) -> Update {
            match action {
                BgpAction::Announce { path, aggregator } => Update::Announce {
                    path: self.paths.path(path),
                    aggregator,
                },
                BgpAction::Withdraw => Update::Withdraw,
            }
        }

        fn add_session(&mut self, peer: AsId, policy: SessionPolicy) {
            self.router.add_session(peer, policy);
        }

        fn session_index(&self, peer: AsId) -> Option<usize> {
            self.router.session_index(peer)
        }

        fn peer(&self, session: usize) -> AsId {
            self.router.peer(session)
        }

        /// Feed one input for `prefix` to the router.
        fn input(
            &mut self,
            prefix: Prefix,
            f: impl FnOnce(&Router, &mut PrefixState<'_>, &mut RouterOutput),
        ) -> RouterOutput {
            let sessions = self.router.session_count();
            let (local, slots) = self
                .prefixes
                .entry(prefix)
                .or_insert_with(|| (LocalSlot::default(), vec![SessionSlot::default(); sessions]));
            let mut out = RouterOutput::default();
            let mut st = PrefixState {
                prefix,
                local,
                sessions: slots,
                paths: &mut self.paths,
            };
            f(&self.router, &mut st, &mut out);
            out
        }

        fn best(&self, prefix: Prefix) -> Option<Selection> {
            let best = self.prefixes.get(&prefix)?.0.best?;
            Some(best.materialize(&self.paths))
        }

        fn entry(&self, peer: AsId, prefix: Prefix) -> Option<&AdjEntry> {
            let session = self.session_index(peer)?;
            Some(&self.prefixes.get(&prefix)?.1[session].adj_in)
        }

        fn is_suppressed(&self, peer: AsId, prefix: Prefix) -> bool {
            self.entry(peer, prefix)
                .is_some_and(|e| e.rfd.is_suppressed())
        }

        fn rfd_penalty(&self, peer: AsId, prefix: Prefix, now: SimTime) -> Option<f64> {
            let session = self.session_index(peer)?;
            let entry = self.entry(peer, prefix)?;
            self.router.session_penalty(session, entry, now)
        }
    }

    /// Deliver `update` for `prefix` from `from`, as the network would.
    fn recv(r: &mut Rig, from: AsId, prefix: Prefix, update: Update, now: SimTime) -> RouterOutput {
        let session = r.session_index(from).expect("session exists");
        let action = r.intern(update);
        r.input(prefix, |router, st, out| {
            router.handle_update(st, session, action, now, out)
        })
    }

    fn announce(path: &[u32]) -> Update {
        Update::Announce {
            path: path.iter().map(|&a| AsId(a)).collect(),
            aggregator: None,
        }
    }

    /// The output's sends as (peer, update).
    fn sends(r: &Rig, out: &RouterOutput) -> Vec<(AsId, Update)> {
        out.sends
            .iter()
            .map(|&(s, a)| (r.peer(s), r.update(a)))
            .collect()
    }

    fn originate(
        r: &mut Rig,
        prefix: Prefix,
        aggregator: Option<AggregatorStamp>,
        now: SimTime,
    ) -> RouterOutput {
        r.input(prefix, |router, st, out| {
            router.originate(st, aggregator, now, out)
        })
    }

    fn reuse_fired(r: &mut Rig, peer: AsId, prefix: Prefix, now: SimTime) -> RouterOutput {
        let session = r.session_index(peer).unwrap();
        r.input(prefix, |router, st, out| {
            router.rfd_reuse_fired(st, session, now, out)
        })
    }

    /// A session transition in every prefix the rig holds, in ascending
    /// prefix order; returns the outputs of the prefixes it touched.
    fn transition(r: &mut Rig, peer: AsId, now: SimTime, up: bool) -> Vec<(Prefix, RouterOutput)> {
        let session = r.session_index(peer).unwrap();
        let prefixes: Vec<Prefix> = r.prefixes.keys().copied().collect();
        prefixes
            .into_iter()
            .filter_map(|prefix| {
                let mut touched = false;
                let out = r.input(prefix, |router, st, out| {
                    touched = if up {
                        router.session_up(st, session, now, out)
                    } else {
                        router.session_down(st, session, now, out)
                    };
                });
                touched.then_some((prefix, out))
            })
            .collect()
    }

    fn session_down(r: &mut Rig, peer: AsId, now: SimTime) -> Vec<(Prefix, RouterOutput)> {
        transition(r, peer, now, false)
    }

    fn session_up(r: &mut Rig, peer: AsId, now: SimTime) -> Vec<(Prefix, RouterOutput)> {
        transition(r, peer, now, true)
    }

    fn plain(rel: Relationship) -> SessionPolicy {
        SessionPolicy::plain(rel)
    }

    /// Router AS1 with customer AS2 and provider AS3.
    fn sample_router() -> Rig {
        let mut r = Rig::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer));
        r.add_session(AsId(3), plain(Relationship::Provider));
        r
    }

    fn announce_from(origin: u32) -> Update {
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
                Update::Announce { path, aggregator } => {
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
            Update::Announce { path, .. } => assert_eq!(path.asns(), &[AsId(1), AsId(2)]),
            _ => panic!("expected announce"),
        }
    }

    #[test]
    fn provider_route_not_exported_to_other_provider_or_peer() {
        let mut r = Rig::new(AsId(1));
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
            Update::Withdraw,
            SimTime::from_secs(1),
        );
        let sent = sends(&r, &out);
        assert_eq!(sent.len(), 1);
        let (to, u) = &sent[0];
        assert_eq!(*to, AsId(3));
        assert!(matches!(u, Update::Withdraw));
        assert!(r.best(pfx()).is_none());
    }

    #[test]
    fn duplicate_withdrawal_is_silent() {
        let mut r = sample_router();
        let out = recv(&mut r, AsId(2), pfx(), Update::Withdraw, SimTime::ZERO);
        assert!(out.sends.is_empty());
        assert!(out.loc_rib_change.is_none());
    }

    #[test]
    fn path_hunting_switches_to_alternative() {
        // AS1 has two customers advertising the same prefix.
        let mut r = Rig::new(AsId(1));
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
            Update::Withdraw,
            SimTime::from_secs(2),
        );
        let sent = sends(&r, &out);
        let to_provider: Vec<_> = sent.iter().filter(|(to, _)| *to == AsId(3)).collect();
        assert_eq!(to_provider.len(), 1);
        match &to_provider[0].1 {
            Update::Announce { path, .. } => {
                assert_eq!(path.asns(), &[AsId(1), AsId(4), AsId(9)]);
            }
            _ => panic!("expected alternative-path announce"),
        }
        // Split horizon: the new advertisement never goes back to AS4.
        assert!(sent
            .iter()
            .filter(|(to, _)| *to == AsId(4))
            .all(|(_, u)| matches!(u, Update::Withdraw)));
    }

    #[test]
    fn looped_announcement_treated_as_withdrawal() {
        let mut r = sample_router();
        recv(&mut r, AsId(2), pfx(), announce_from(2), SimTime::ZERO);
        // AS2 now (bogusly) sends a path containing AS1.
        let looped = announce(&[2, 1]);
        let out = recv(&mut r, AsId(2), pfx(), looped, SimTime::from_secs(1));
        assert!(r.best(pfx()).is_none());
        assert!(sends(&r, &out)
            .iter()
            .any(|(_, u)| matches!(u, Update::Withdraw)));
    }

    #[test]
    fn rfd_suppression_withdraws_downstream_and_releases_later() {
        let params = VendorProfile::Cisco.params();
        let mut r = Rig::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer).with_rfd(params));
        r.add_session(AsId(3), plain(Relationship::Provider));

        let mut now = SimTime::ZERO;
        let mut suppressed_at = None;
        // Flap until suppression: W/A alternating every 60 s.
        for i in 0..40 {
            let out = if i % 2 == 0 {
                recv(&mut r, AsId(2), pfx(), Update::Withdraw, now)
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
        let mut r = Rig::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Customer).with_rfd(params));
        r.add_session(AsId(3), plain(Relationship::Provider));
        let mut now = SimTime::ZERO;
        while !r.is_suppressed(AsId(2), pfx()) {
            recv(&mut r, AsId(2), pfx(), Update::Withdraw, now);
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
        let mut r = Rig::new(AsId(1));
        r.add_session(AsId(2), plain(Relationship::Peer).with_rfd(params));
        r.add_session(AsId(4), plain(Relationship::Peer));
        r.add_session(AsId(3), plain(Relationship::Customer));

        let mut now = SimTime::ZERO;
        for i in 0..30 {
            let (u2, u4) = if i % 2 == 0 {
                (Update::Withdraw, Update::Withdraw)
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
            Some(Selection::Learned { neighbor, .. }) if neighbor == AsId(4)
        ));
    }

    #[test]
    fn mrai_defers_rapid_announcements() {
        let mut r = Rig::new(AsId(1));
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
        let out = r.input(pfx(), |router, st, out| {
            router.mrai_expired(st, session, at, out)
        });
        assert_eq!(out.sends.len(), 1);
        assert!(out.sends[0].1.is_announce());
    }

    #[test]
    fn loc_rib_change_reports_exported_view() {
        let mut r = sample_router();
        let out = recv(&mut r, AsId(2), pfx(), announce_from(2), SimTime::ZERO);
        let change = out.loc_rib_change.expect("best changed");
        assert_eq!(change.prefix, pfx());
        let route = change.route.expect("announced").materialize(&r.paths);
        assert_eq!(route.path.asns(), &[AsId(1), AsId(2)]);
    }

    #[test]
    fn better_relationship_replaces_current_best() {
        let mut r = sample_router();
        // Provider route first.
        recv(&mut r, AsId(3), pfx(), announce(&[3]), SimTime::ZERO);
        assert!(
            matches!(r.best(pfx()), Some(Selection::Learned { neighbor, .. }) if neighbor == AsId(3))
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
            matches!(r.best(pfx()), Some(Selection::Learned { neighbor, .. }) if neighbor == AsId(2))
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
            .any(|(to, u)| *to == AsId(3) && matches!(u, Update::Withdraw)));
        assert!(r.best(pfx()).is_none());
    }

    #[test]
    fn session_down_accrues_rfd_penalty() {
        let params = VendorProfile::Cisco.params();
        let mut r = Rig::new(AsId(1));
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
        let entry = r.entry(AsId(2), pfx()).unwrap();
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
