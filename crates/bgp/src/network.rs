//! The simulated inter-domain network: routers, links, and the event loop.
//!
//! [`Network`] owns one [`Router`] per AS, per-link delay and FIFO state,
//! and a [`netsim::EventQueue`]. It drives the simulation by popping
//! events and feeding them to the pure router state machines, translating
//! each router output back into scheduled events:
//!
//! * `sends` become deliveries after the link delay (jittered, but never
//!   reordered within a directed link — BGP sessions run over TCP, so
//!   per-session FIFO order is preserved by clamping);
//! * MRAI and RFD timer requests become timer events;
//! * Loc-RIB changes at *tapped* ASs (the vantage points) are appended to
//!   the tap log, which the `collector` crate turns into update dumps.
//!
//! Beacon origination is scheduled with [`Network::schedule_announce`] /
//! [`Network::schedule_withdraw`]; announcements scheduled with
//! `stamp: true` carry an [`AggregatorStamp`] of their fire time, exactly
//! like the paper's beacons encode send timestamps in the aggregator
//! attribute.
//!
//! # Data layout
//!
//! Inside the event loop everything is a dense index (DESIGN.md §5e):
//! routers live in a `Vec` ordered by AS number, each router's sessions
//! in a `Vec` ordered by peer AS number, and prefixes get ids in the
//! order they are first scheduled. The directed links form a CSR
//! adjacency — router `r`'s links are `start[r]..start[r + 1]`, one per
//! session, in session order — over which delay, FIFO horizon and
//! down-state are flat arrays. AS numbers and prefixes are translated to
//! indices only at the public API edge. The CSR is built when the first
//! event is scheduled; from then on the topology is fixed.

use std::collections::BTreeMap;

use netsim::faults::{FaultCounters, FaultPlan};
use netsim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::message::{AggregatorStamp, AsId, BgpAction};
use crate::policy::SessionPolicy;
use crate::prefix::Prefix;
use crate::rib::Route;
use crate::router::{Router, RouterOutput};

/// Global network parameters.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Link delay used when `connect` is called without an explicit delay.
    pub default_link_delay: SimDuration,
    /// Multiplicative jitter: each delivery takes `delay × (1 + U[0, jitter])`.
    pub jitter: f64,
    /// Per-hop router processing/batching delay `(lo, hi)`, added to every
    /// delivery: `lo` plus a whole number of milliseconds drawn uniformly
    /// from `[0, hi − lo)`, so the delay lies in the half-open range
    /// `[lo, hi)` (it is exactly `lo` when `hi ≤ lo`). Real BGP update propagation is dominated by per-router
    /// batching (scan timers, update pacing), not wire latency — this is
    /// what gives the paper's Fig. 8 its seconds-scale propagation times.
    /// Defaults to zero so protocol-level tests stay exact.
    pub processing_delay: (SimDuration, SimDuration),
    /// Seed for the network's private randomness (jitter only).
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            default_link_delay: SimDuration::from_millis(100),
            jitter: 0.5,
            processing_delay: (SimDuration::ZERO, SimDuration::ZERO),
            seed: 0,
        }
    }
}

impl NetworkConfig {
    /// A configuration with realistic per-hop processing delays
    /// (0.5 s up to, but excluding, 8 s), matching the propagation-time
    /// scale the paper measures against the RIPE beacons.
    pub fn realistic(seed: u64) -> Self {
        NetworkConfig {
            processing_delay: (SimDuration::from_millis(500), SimDuration::from_secs(8)),
            seed,
            ..Default::default()
        }
    }
}

/// Events understood by the network driver. Routers are named by router
/// id, sessions by their index in the router's session list (which also
/// names the directed link), prefixes by prefix id.
#[derive(Clone, Debug)]
enum NetEvent {
    /// Deliver `action` for `prefix`, sent by `router` on `session`
    /// (already delayed).
    Deliver {
        router: u32,
        session: u32,
        prefix: u32,
        action: BgpAction,
    },
    /// The MRAI gate of (router, session, prefix) may reopen.
    MraiExpire {
        router: u32,
        session: u32,
        prefix: u32,
    },
    /// An RFD reuse check for (router, session, prefix).
    RfdReuse {
        router: u32,
        session: u32,
        prefix: u32,
    },
    /// A locally-scheduled origination (beacon announcement); `stamp`
    /// stamps the aggregator attribute with the fire time.
    Originate {
        router: u32,
        prefix: u32,
        stamp: bool,
    },
    /// A locally-scheduled withdrawal (beacon withdrawal).
    WithdrawOrigin { router: u32, prefix: u32 },
    /// A fault-injected reset: the session `router` holds on `session`
    /// (and its reverse) drops.
    SessionDown { router: u32, session: u32 },
    /// The reset session re-establishes (full table re-sync).
    SessionUp { router: u32, session: u32 },
}

/// One observation at a vantage point: the VP's best route for a beacon
/// prefix changed. `route: None` records a withdrawal.
#[derive(Clone, Debug, PartialEq)]
pub struct TapRecord {
    /// The vantage-point AS.
    pub vantage: AsId,
    /// When the VP's Loc-RIB changed (before collector export delay).
    pub time: SimTime,
    /// The affected prefix.
    pub prefix: Prefix,
    /// The new best route in the VP's exported view, `None` on withdrawal.
    pub route: Option<Route>,
}

/// RFD activity under one parameter set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RfdProfileStats {
    /// Routes driven into suppression.
    pub suppressions: u64,
    /// Suppressed routes released (by decay or reuse timer).
    pub releases: u64,
}

/// Protocol-level counters aggregated across the whole network.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Announcements delivered to a router.
    pub updates_announced: u64,
    /// Withdrawals delivered to a router.
    pub updates_withdrawn: u64,
    /// Announcements the MRAI gates deferred.
    pub mrai_deferrals: u64,
    /// RFD suppressions/releases keyed by parameter-set name
    /// (`"cisco"`, `"juniper"`, `"rfc7454"`, or `"custom"`).
    pub rfd: BTreeMap<&'static str, RfdProfileStats>,
}

/// Per-directed-link state over a CSR adjacency. Link `start[r] + s` is
/// router `r`'s session `s`.
#[derive(Debug, Default)]
struct Links {
    /// Set once the arrays are built; the topology is fixed from then on.
    built: bool,
    /// `start[r]..start[r + 1]` are router `r`'s links.
    start: Vec<u32>,
    /// Receiving router of each link.
    to: Vec<u32>,
    /// The receiver's session index for each link (its session back to
    /// the sender).
    reverse: Vec<u32>,
    delay: Vec<SimDuration>,
    /// Last scheduled delivery per link, to preserve TCP FIFO.
    horizon: Vec<SimTime>,
    /// Whether the link's session is down (between a fault-injected
    /// reset and its re-establishment).
    down: Vec<bool>,
}

impl Links {
    fn id(&self, router: usize, session: usize) -> usize {
        self.start[router] as usize + session
    }
}

/// The simulated network.
pub struct Network {
    /// Routers by router id; ids follow ascending AS number.
    routers: Vec<Router>,
    /// Per router id: whether its Loc-RIB changes are tapped.
    tapped: Vec<bool>,
    links: Links,
    /// Delays passed to `connect`, held until the link arrays are built.
    staged_delays: BTreeMap<(AsId, AsId), SimDuration>,
    /// Dense prefix ids, assigned in first-scheduled order.
    prefix_ids: BTreeMap<Prefix, u32>,
    queue: EventQueue<NetEvent>,
    tap_log: Vec<TapRecord>,
    rng: SimRng,
    config: NetworkConfig,
    delivered: u64,
    stats: NetStats,
    /// Optional event trace. `None` (the default) costs one branch per
    /// dispatch; see DESIGN.md §5d.
    trace: Option<obs::TraceBuffer>,
    /// Interned sim-time lane per damped (router, session, prefix).
    rfd_lanes: BTreeMap<(usize, usize, usize), obs::Lane>,
    /// Interned sim-time lane per router for MRAI deferral instants.
    mrai_lanes: BTreeMap<usize, obs::Lane>,
    /// Tallies of injected faults (session resets, dropped deliveries).
    fault_counters: FaultCounters,
    /// True once a fault plan was applied (even one injecting nothing).
    faults_applied: bool,
    /// Interned sim-time lane per faulted link (router ids, low first).
    fault_lanes: BTreeMap<(usize, usize), obs::Lane>,
}

impl Network {
    /// An empty network.
    pub fn new(config: NetworkConfig) -> Self {
        let rng = SimRng::new(config.seed).split("network-jitter");
        Network {
            routers: Vec::new(),
            tapped: Vec::new(),
            links: Links::default(),
            staged_delays: BTreeMap::new(),
            prefix_ids: BTreeMap::new(),
            queue: EventQueue::new(),
            tap_log: Vec::new(),
            rng,
            config,
            delivered: 0,
            stats: NetStats::default(),
            trace: None,
            rfd_lanes: BTreeMap::new(),
            mrai_lanes: BTreeMap::new(),
            fault_counters: FaultCounters::default(),
            faults_applied: false,
            fault_lanes: BTreeMap::new(),
        }
    }

    /// Schedule every session reset a fault plan prescribes for this
    /// network's links over `[0, horizon)`. Each reset becomes a
    /// session-down/session-up event pair; between the two, deliveries on
    /// the link are dropped (and counted). Links are visited in ascending
    /// `(AsId, AsId)` order, and the plan itself is a pure function of its
    /// seed, so the same `(seed, plan)` always injects the same resets.
    pub fn apply_faults(&mut self, plan: &FaultPlan, horizon: SimDuration) {
        self.build_links();
        self.faults_applied = true;
        for (a, router) in self.routers.iter().enumerate() {
            for session in 0..router.session_count() {
                let b = self.links.to[self.links.id(a, session)] as usize;
                if a >= b {
                    continue; // each undirected link once
                }
                let (asn_a, asn_b) = (router.asn(), router.peer(session));
                if let Some((down_at, up_at)) =
                    plan.session_reset(u64::from(asn_a.0), u64::from(asn_b.0), horizon)
                {
                    let (router, session) = (a as u32, session as u32);
                    self.queue
                        .schedule_at(down_at, NetEvent::SessionDown { router, session });
                    self.queue
                        .schedule_at(up_at, NetEvent::SessionUp { router, session });
                }
            }
        }
    }

    /// Tallies of faults this network actually injected.
    pub fn fault_counters(&self) -> &FaultCounters {
        &self.fault_counters
    }

    /// True once [`Network::apply_faults`] ran.
    pub fn faults_applied(&self) -> bool {
        self.faults_applied
    }

    /// Attach an event trace. RFD state-machine transitions (suppress,
    /// release, penalty samples, delayed re-advertisements) and MRAI
    /// deferrals are recorded on sim-time lanes — one lane per damped
    /// (router, peer, prefix) session, one per deferring router.
    pub fn set_trace(&mut self, trace: obs::TraceBuffer) {
        self.trace = Some(trace);
    }

    /// Detach and return the trace, if one was attached.
    pub fn take_trace(&mut self) -> Option<obs::TraceBuffer> {
        self.trace.take()
    }

    /// Read-only view of the attached trace.
    pub fn trace(&self) -> Option<&obs::TraceBuffer> {
        self.trace.as_ref()
    }

    /// The router id of `asn`.
    fn router_id(&self, asn: AsId) -> Option<usize> {
        self.routers.binary_search_by_key(&asn, Router::asn).ok()
    }

    /// The router id of `asn`, which must exist.
    fn known_router(&self, asn: AsId) -> usize {
        self.router_id(asn)
            .unwrap_or_else(|| panic!("unknown router {asn}"))
    }

    /// Add a router for `asn` (no-op if it exists).
    ///
    /// # Panics
    /// If `asn` is new and the simulation has started (the first event
    /// was scheduled): the topology is fixed from then on.
    pub fn add_router(&mut self, asn: AsId) {
        if let Err(at) = self.routers.binary_search_by_key(&asn, Router::asn) {
            assert!(
                !self.links.built,
                "cannot add {asn}: the topology is fixed once events are scheduled"
            );
            self.routers.insert(at, Router::new(asn));
            self.tapped.insert(at, false);
        }
    }

    /// Connect `a` and `b` with the given per-side session policies and a
    /// symmetric link delay. Policies are *from each side's perspective*:
    /// `policy_at_a` is how `a` treats neighbor `b`.
    ///
    /// # Panics
    /// If the simulation has started (the first event was scheduled).
    pub fn connect(
        &mut self,
        a: AsId,
        b: AsId,
        policy_at_a: SessionPolicy,
        policy_at_b: SessionPolicy,
        delay: Option<SimDuration>,
    ) {
        assert_ne!(a, b, "self-link");
        assert!(
            !self.links.built,
            "cannot connect {a}–{b}: the topology is fixed once events are scheduled"
        );
        debug_assert_eq!(
            policy_at_a.relationship,
            policy_at_b.relationship.reversed(),
            "inconsistent relationship on link {a}–{b}"
        );
        self.add_router(a);
        self.add_router(b);
        let d = delay.unwrap_or(self.config.default_link_delay);
        self.staged_delays.insert((a, b), d);
        self.staged_delays.insert((b, a), d);
        let ia = self.known_router(a);
        self.routers[ia].add_session(b, policy_at_a);
        let ib = self.known_router(b);
        self.routers[ib].add_session(a, policy_at_b);
    }

    /// Build the per-link arrays from the routers' session lists. Runs
    /// once, before the first event is scheduled.
    fn build_links(&mut self) {
        if self.links.built {
            return;
        }
        let delays = std::mem::take(&mut self.staged_delays);
        let mut links = Links {
            built: true,
            ..Links::default()
        };
        for router in &self.routers {
            links.start.push(links.to.len() as u32);
            for session in 0..router.session_count() {
                let peer = router.peer(session);
                let to = self.known_router(peer);
                let reverse = self.routers[to]
                    .session_index(router.asn())
                    .expect("sessions come in pairs");
                links.to.push(to as u32);
                links.reverse.push(reverse as u32);
                links.delay.push(delays[&(router.asn(), peer)]);
            }
        }
        links.start.push(links.to.len() as u32);
        links.horizon = vec![SimTime::ZERO; links.to.len()];
        links.down = vec![false; links.to.len()];
        self.links = links;
    }

    /// The dense id of `prefix`, interning it in every router on first
    /// sight.
    fn prefix_id(&mut self, prefix: Prefix) -> u32 {
        if let Some(&pid) = self.prefix_ids.get(&prefix) {
            return pid;
        }
        let pid = self.prefix_ids.len() as u32;
        self.prefix_ids.insert(prefix, pid);
        for router in &mut self.routers {
            let interned = router.intern(prefix);
            debug_assert_eq!(interned, pid as usize, "routers share prefix ids");
        }
        pid
    }

    /// Mark `asn` as a vantage point whose Loc-RIB changes are recorded.
    pub fn attach_tap(&mut self, asn: AsId) {
        let Some(id) = self.router_id(asn) else {
            panic!("tap on unknown {asn}");
        };
        self.tapped[id] = true;
    }

    /// Immutable access to a router.
    pub fn router(&self, asn: AsId) -> Option<&Router> {
        self.router_id(asn).map(|id| &self.routers[id])
    }

    /// All AS numbers in the network (ascending).
    pub fn as_ids(&self) -> Vec<AsId> {
        self.routers.iter().map(Router::asn).collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of BGP updates delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total events processed by the queue.
    pub fn events_processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Protocol-level counters (updates, MRAI deferrals, RFD activity).
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The deepest the event queue has ever been.
    pub fn queue_depth_high_water(&self) -> usize {
        self.queue.depth_high_water()
    }

    /// Export queue and protocol metrics into a run report as the
    /// `netsim.queue` and `bgpsim.network` sections.
    pub fn export_obs(&self, report: &mut obs::RunReport) {
        report.push_section(self.queue.obs_section("netsim.queue"));
        let section = report.section("bgpsim.network");
        section
            .counter("updates_delivered", self.delivered)
            .counter("updates_announced", self.stats.updates_announced)
            .counter("updates_withdrawn", self.stats.updates_withdrawn)
            .counter("mrai_deferrals", self.stats.mrai_deferrals);
        for (name, profile) in &self.stats.rfd {
            section
                .counter(&format!("rfd_suppressions.{name}"), profile.suppressions)
                .counter(&format!("rfd_releases.{name}"), profile.releases);
        }
        if let Some(trace) = &self.trace {
            trace.export_into(report.section("bgpsim.trace"));
        }
    }

    /// Schedule an origination (announcement) of `prefix` at `router`.
    /// With `stamp`, the announcement carries an aggregator timestamp equal
    /// to the fire time — the beacon convention.
    ///
    /// # Panics
    /// If `router` is not in the network.
    pub fn schedule_announce(&mut self, at: SimTime, router: AsId, prefix: Prefix, stamp: bool) {
        self.build_links();
        let router = self.known_router(router) as u32;
        let prefix = self.prefix_id(prefix);
        self.queue.schedule_at(
            at,
            NetEvent::Originate {
                router,
                prefix,
                stamp,
            },
        );
    }

    /// Schedule a withdrawal of a locally-originated `prefix`.
    ///
    /// # Panics
    /// If `router` is not in the network.
    pub fn schedule_withdraw(&mut self, at: SimTime, router: AsId, prefix: Prefix) {
        self.build_links();
        let router = self.known_router(router) as u32;
        let prefix = self.prefix_id(prefix);
        self.queue
            .schedule_at(at, NetEvent::WithdrawOrigin { router, prefix });
    }

    /// Run until the queue is empty or the clock passes `until`.
    /// Returns the number of events processed by this call.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        self.build_links();
        // One output buffer for the whole run: dispatch clears it per
        // router input instead of allocating.
        let mut out = RouterOutput::default();
        let mut n = 0;
        while let Some((now, ev)) = self.queue.pop_until(until) {
            self.dispatch(now, ev, &mut out);
            n += 1;
        }
        n
    }

    /// Run until the queue fully drains (converged network).
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Take the accumulated tap log, leaving it empty.
    pub fn take_tap_log(&mut self) -> Vec<TapRecord> {
        std::mem::take(&mut self.tap_log)
    }

    /// Read-only view of the tap log.
    pub fn tap_log(&self) -> &[TapRecord] {
        &self.tap_log
    }

    fn dispatch(&mut self, now: SimTime, ev: NetEvent, out: &mut RouterOutput) {
        out.clear();
        // `rfd_session` names the session any RFD transition in the
        // output belongs to — only deliveries and reuse timers can flip
        // RFD state, and both name the session up front.
        let (router, prefix, rfd_session) = match ev {
            NetEvent::Deliver {
                router,
                session,
                prefix,
                action,
            } => {
                let link = self.links.id(router as usize, session as usize);
                // A down session drops traffic on the floor.
                if self.links.down[link] {
                    self.fault_counters.updates_dropped_down += 1;
                    if self.trace.is_some() {
                        let to = self.links.to[link] as usize;
                        self.trace_fault(now, router as usize, to, "update_dropped");
                    }
                    return;
                }
                self.delivered += 1;
                if action.is_announce() {
                    self.stats.updates_announced += 1;
                } else {
                    self.stats.updates_withdrawn += 1;
                }
                let to = self.links.to[link] as usize;
                let session = self.links.reverse[link] as usize;
                let prefix = prefix as usize;
                self.routers[to].handle_update(session, prefix, action, now, out);
                (to, prefix, Some(session))
            }
            NetEvent::MraiExpire {
                router,
                session,
                prefix,
            } => {
                let (router, prefix) = (router as usize, prefix as usize);
                self.routers[router].mrai_expired(session as usize, prefix, now, out);
                (router, prefix, None)
            }
            NetEvent::RfdReuse {
                router,
                session,
                prefix,
            } => {
                let (router, session, prefix) =
                    (router as usize, session as usize, prefix as usize);
                self.routers[router].rfd_reuse_fired(session, prefix, now, out);
                (router, prefix, Some(session))
            }
            NetEvent::Originate {
                router,
                prefix,
                stamp,
            } => {
                let (router, prefix) = (router as usize, prefix as usize);
                let aggregator = stamp.then(|| AggregatorStamp::new(now));
                self.routers[router].originate(prefix, aggregator, now, out);
                (router, prefix, None)
            }
            NetEvent::WithdrawOrigin { router, prefix } => {
                let (router, prefix) = (router as usize, prefix as usize);
                self.routers[router].withdraw_origin(prefix, now, out);
                (router, prefix, None)
            }
            NetEvent::SessionDown { router, session } => {
                self.session_transition(now, router as usize, session as usize, false, out);
                return;
            }
            NetEvent::SessionUp { router, session } => {
                self.session_transition(now, router as usize, session as usize, true, out);
                return;
            }
        };

        self.apply_output(now, router, prefix, rfd_session, out);
    }

    /// Drive both endpoints of a link through a session reset transition
    /// and apply each affected prefix's router output individually (so
    /// every Loc-RIB change reaches the tap log). Each endpoint walks its
    /// prefixes in ascending prefix order.
    fn session_transition(
        &mut self,
        now: SimTime,
        a: usize,
        a_session: usize,
        up: bool,
        out: &mut RouterOutput,
    ) {
        let link = self.links.id(a, a_session);
        let b = self.links.to[link] as usize;
        let b_session = self.links.reverse[link] as usize;
        let back = self.links.id(b, b_session);
        self.links.down[link] = !up;
        self.links.down[back] = !up;
        if !up {
            self.fault_counters.session_resets += 1;
        }
        if self.trace.is_some() {
            self.trace_fault(now, a, b, if up { "session_up" } else { "session_down" });
        }
        for (router, session) in [(a, a_session), (b, b_session)] {
            let prefixes = if up {
                self.routers[router].session_up(session)
            } else {
                self.routers[router].session_down(session)
            };
            for prefix in prefixes {
                out.clear();
                let r = &mut self.routers[router];
                if up {
                    r.resync(session, prefix, now, out);
                } else {
                    r.handle_update(session, prefix, BgpAction::Withdraw, now, out);
                }
                self.apply_output(now, router, prefix, Some(session), out);
            }
        }
    }

    /// Translate one router output for `prefix` into scheduled events,
    /// stats, trace records and tap-log entries.
    fn apply_output(
        &mut self,
        now: SimTime,
        router: usize,
        prefix: usize,
        rfd_session: Option<usize>,
        out: &mut RouterOutput,
    ) {
        self.stats.mrai_deferrals += u64::from(out.mrai_deferrals);
        if self.trace.is_some() {
            self.trace_output(now, router, prefix, rfd_session, out);
        }
        if out.rfd_suppressed || out.rfd_released {
            let r = &self.routers[router];
            let name = rfd_session
                .and_then(|session| r.policy_at(session).rfd_for(r.prefix(prefix)))
                .map_or("custom", |params| params.profile_name());
            let profile = self.stats.rfd.entry(name).or_default();
            if out.rfd_suppressed {
                profile.suppressions += 1;
            }
            if out.rfd_released {
                profile.releases += 1;
            }
        }

        // Translate the router's requests into events.
        let (router_id, prefix_id) = (router as u32, prefix as u32);
        for (session, action) in out.sends.drain(..) {
            let delivery = self.delivery_time(self.links.id(router, session), now);
            self.queue.schedule_at(
                delivery,
                NetEvent::Deliver {
                    router: router_id,
                    session: session as u32,
                    prefix: prefix_id,
                    action,
                },
            );
        }
        for &(session, at) in &out.mrai_timers {
            self.queue.schedule_at(
                at.max(now),
                NetEvent::MraiExpire {
                    router: router_id,
                    session: session as u32,
                    prefix: prefix_id,
                },
            );
        }
        for &(session, at) in &out.rfd_timers {
            self.queue.schedule_at(
                at.max(now),
                NetEvent::RfdReuse {
                    router: router_id,
                    session: session as u32,
                    prefix: prefix_id,
                },
            );
        }
        if let Some(change) = out.loc_rib_change.take() {
            if self.tapped[router] {
                self.tap_log.push(TapRecord {
                    vantage: self.routers[router].asn(),
                    time: now,
                    prefix: change.prefix,
                    route: change.route,
                });
            }
        }
    }

    /// Record one dispatch's RFD/MRAI activity into the attached trace.
    /// Only called when a trace is attached, so the untraced dispatch
    /// path pays exactly one branch.
    fn trace_output(
        &mut self,
        now: SimTime,
        router: usize,
        prefix: usize,
        rfd_session: Option<usize>,
        out: &RouterOutput,
    ) {
        let trace = self.trace.as_mut().expect("caller checked");
        let r = &self.routers[router];
        let now_ms = now.as_millis();
        if out.mrai_deferrals > 0 {
            let next = self.mrai_lanes.len() as u32;
            let lane = *self.mrai_lanes.entry(router).or_insert_with(|| {
                let lane = obs::Lane::pair(1, next);
                trace.set_lane_name(lane, &format!("mrai {}", r.asn()));
                lane
            });
            trace.counter_sim(
                "mrai_deferrals",
                lane,
                now_ms,
                f64::from(out.mrai_deferrals),
            );
        }
        let Some(session) = rfd_session else {
            return;
        };
        // Only damped sessions get a lane; the penalty is `None` when the
        // session has no RFD configured.
        let Some(penalty) = r.session_penalty(session, prefix, now) else {
            return;
        };
        let next = self.rfd_lanes.len() as u32;
        let lane = *self
            .rfd_lanes
            .entry((router, session, prefix))
            .or_insert_with(|| {
                let lane = obs::Lane::pair(2, next);
                let name = format!("rfd {}<-{} {}", r.asn(), r.peer(session), r.prefix(prefix));
                trace.set_lane_name(lane, &name);
                lane
            });
        trace.counter_sim("penalty", lane, now_ms, penalty);
        if out.rfd_suppressed {
            trace.begin_sim("suppressed", lane, now_ms);
        }
        if out.rfd_released {
            trace.end_sim("suppressed", lane, now_ms);
            let usable_again = out
                .loc_rib_change
                .as_ref()
                .is_some_and(|c| c.route.is_some());
            if usable_again {
                // The paper's Fig. 2 signature: the re-advertisement the
                // damper delayed until the penalty decayed under reuse
                // (the actual send may still sit behind an MRAI gate).
                trace.instant_sim("readvertise", lane, now_ms);
            }
        }
    }

    /// Record an injected fault on the interned fault lane of the link
    /// between routers `a` and `b` (either direction). Only called when a
    /// trace is attached (callers check), keeping the untraced path at one
    /// branch.
    fn trace_fault(&mut self, now: SimTime, a: usize, b: usize, what: &'static str) {
        let trace = self.trace.as_mut().expect("caller checked");
        let key = (a.min(b), a.max(b));
        let next = self.fault_lanes.len() as u32;
        let routers = &self.routers;
        let lane = *self.fault_lanes.entry(key).or_insert_with(|| {
            let lane = obs::Lane::pair(3, next);
            let (a, b) = (routers[key.0].asn(), routers[key.1].asn());
            trace.set_lane_name(lane, &format!("fault {a}-{b}"));
            lane
        });
        trace.instant_sim(what, lane, now.as_millis());
    }

    /// Jittered delivery time on `link` that preserves per-link FIFO
    /// order.
    fn delivery_time(&mut self, link: usize, now: SimTime) -> SimTime {
        let base = self.links.delay[link];
        let jitter = 1.0 + self.config.jitter * self.rng.uniform();
        let (proc_lo, proc_hi) = self.config.processing_delay;
        let processing = if proc_hi > proc_lo {
            proc_lo
                + SimDuration::from_millis(self.rng.below((proc_hi - proc_lo).as_millis().max(1)))
        } else {
            proc_lo
        };
        let mut t = now + base.mul_f64(jitter) + processing;
        let horizon = &mut self.links.horizon[link];
        if t < *horizon {
            t = *horizon;
        }
        *horizon = t;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Relationship;
    use crate::rfd::VendorProfile;
    use crate::router::Selection;

    fn pfx() -> Prefix {
        "10.0.7.0/24".parse().unwrap()
    }

    fn cfg() -> NetworkConfig {
        NetworkConfig {
            default_link_delay: SimDuration::from_millis(50),
            jitter: 0.0,
            seed: 1,
            ..Default::default()
        }
    }

    /// Line topology: 10 ← 20 ← 30 (20 is provider of 10, 30 provider of 20).
    fn line() -> Network {
        let mut net = Network::new(cfg());
        net.connect(
            AsId(10),
            AsId(20),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net.connect(
            AsId(20),
            AsId(30),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net
    }

    #[test]
    fn announcement_propagates_up_the_chain() {
        let mut net = line();
        net.attach_tap(AsId(30));
        net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
        net.run_to_quiescence();
        // AS30 selected the route through 20 → 10.
        match net.router(AsId(30)).unwrap().best(pfx()) {
            Some(Selection::Learned { route, .. }) => {
                assert_eq!(
                    route.path.asns(),
                    &[AsId(20), AsId(10)],
                    "customer chain path"
                );
            }
            other => panic!("expected learned route, got {other:?}"),
        }
        // The tap recorded one announcement with the VP's ASN prepended.
        let log = net.tap_log();
        assert_eq!(log.len(), 1);
        let rec = &log[0];
        assert_eq!(rec.vantage, AsId(30));
        let route = rec.route.as_ref().unwrap();
        assert_eq!(route.path.asns(), &[AsId(30), AsId(20), AsId(10)]);
        assert!(route.aggregator.unwrap().valid);
        assert_eq!(route.aggregator.unwrap().sent_at, SimTime::ZERO);
    }

    #[test]
    fn withdrawal_propagates_and_is_logged() {
        let mut net = line();
        net.attach_tap(AsId(30));
        net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
        net.schedule_withdraw(SimTime::from_mins(1), AsId(10), pfx());
        net.run_to_quiescence();
        assert!(net.router(AsId(30)).unwrap().best(pfx()).is_none());
        let log = net.tap_log();
        assert_eq!(log.len(), 2);
        assert!(log[1].route.is_none(), "second record is the withdrawal");
    }

    #[test]
    fn propagation_delay_accumulates_per_hop() {
        let mut net = line();
        net.attach_tap(AsId(30));
        net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
        net.run_to_quiescence();
        let rec = &net.tap_log()[0];
        // Two hops at exactly 50 ms (jitter 0).
        assert_eq!(rec.time, SimTime::from_millis(100));
    }

    #[test]
    fn fifo_preserved_on_links() {
        // With jitter on, deliveries on one link must never reorder.
        let mut net = Network::new(NetworkConfig {
            default_link_delay: SimDuration::from_millis(80),
            jitter: 2.0,
            seed: 42,
            ..Default::default()
        });
        net.connect(
            AsId(1),
            AsId(2),
            SessionPolicy::plain(Relationship::Peer),
            SessionPolicy::plain(Relationship::Peer),
            None,
        );
        net.attach_tap(AsId(2));
        // Rapid alternation. If any withdrawal overtook its announcement,
        // the tap log would end announced instead of withdrawn.
        for i in 0..50u64 {
            net.schedule_announce(SimTime::from_millis(i * 20), AsId(1), pfx(), false);
            net.schedule_withdraw(SimTime::from_millis(i * 20 + 10), AsId(1), pfx());
        }
        net.run_to_quiescence();
        let log = net.tap_log();
        assert!(!log.is_empty());
        // Log alternates strictly announce/withdraw (dedup at AS2's RIB
        // guarantees this only if arrival order was FIFO).
        for w in log.windows(2) {
            assert_ne!(w[0].route.is_some(), w[1].route.is_some(), "must alternate");
        }
        assert!(log.last().unwrap().route.is_none());
    }

    #[test]
    fn rfd_on_middle_as_damps_the_chain() {
        // 10 ← 20 ← 30 with AS30 damping its session to 20 (Cisco).
        let mut net = Network::new(cfg());
        net.connect(
            AsId(10),
            AsId(20),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net.connect(
            AsId(20),
            AsId(30),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer).with_rfd(VendorProfile::Cisco.params()),
            None,
        );
        net.attach_tap(AsId(30));

        // Beacon burst: flap every minute for 2 h, ending on an announce.
        let mut t = SimTime::ZERO;
        for i in 0..120u64 {
            if i % 2 == 0 {
                net.schedule_withdraw(SimTime::from_mins(i), AsId(10), pfx());
            } else {
                net.schedule_announce(SimTime::from_mins(i), AsId(10), pfx(), true);
            }
            t = SimTime::from_mins(i);
        }
        let burst_end = t;
        net.run_to_quiescence();

        assert!(
            !net.router(AsId(30)).unwrap().is_suppressed(AsId(20), pfx()),
            "suppression must have been released at quiescence"
        );
        // The last tap record must be the delayed re-advertisement, well
        // after the burst end (RFD signature, r-delta ≫ 5 min).
        let log = net.tap_log();
        let last = log.last().unwrap();
        assert!(
            last.route.is_some(),
            "burst ends on announce → re-advertised"
        );
        let r_delta = last.time.saturating_since(burst_end);
        assert!(
            r_delta > SimDuration::from_mins(5),
            "r-delta should exceed 5 min, got {r_delta}"
        );
        assert!(
            r_delta <= VendorProfile::Cisco.params().max_suppress_time + SimDuration::from_mins(1),
            "release within max-suppress-time, got {r_delta}"
        );
        // And during the burst, AS30 saw far fewer updates than the 120
        // beacon events (damping hid them).
        let during_burst = log
            .iter()
            .filter(|r| r.time <= burst_end + SimDuration::from_mins(1))
            .count();
        assert!(
            during_burst < 60,
            "damping must thin the update stream, saw {during_burst}"
        );
    }

    #[test]
    fn stats_count_updates_and_rfd_by_profile() {
        // Same damped-chain setup as above: Cisco RFD at AS30's session.
        let mut net = Network::new(cfg());
        net.connect(
            AsId(10),
            AsId(20),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net.connect(
            AsId(20),
            AsId(30),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer).with_rfd(VendorProfile::Cisco.params()),
            None,
        );
        for i in 0..120u64 {
            if i % 2 == 0 {
                net.schedule_withdraw(SimTime::from_mins(i), AsId(10), pfx());
            } else {
                net.schedule_announce(SimTime::from_mins(i), AsId(10), pfx(), true);
            }
        }
        net.run_to_quiescence();
        let stats = net.stats();
        assert!(stats.updates_announced > 0 && stats.updates_withdrawn > 0);
        assert_eq!(
            stats.updates_announced + stats.updates_withdrawn,
            net.delivered()
        );
        let cisco = stats.rfd.get("cisco").expect("cisco profile active");
        assert!(cisco.suppressions >= 1, "flap burst must suppress");
        assert_eq!(
            cisco.suppressions, cisco.releases,
            "every suppression released at quiescence"
        );
        assert!(net.queue_depth_high_water() > 0);

        let mut report = obs::RunReport::new("t");
        net.export_obs(&mut report);
        let section = report.get("bgpsim.network").unwrap();
        assert!(
            matches!(
                section.get("rfd_suppressions.cisco"),
                Some(obs::Value::Counter(n)) if *n == cisco.suppressions
            ),
            "per-profile counters exported"
        );
        assert!(report.get("netsim.queue").is_some());
    }

    #[test]
    fn trace_records_suppress_release_span_and_readvertisement() {
        // Same damped chain as `rfd_on_middle_as_damps_the_chain`, with a
        // trace attached: the suppress→release sim-time gap must land in
        // the (5 min, max-suppress + slack] window the RFD signature
        // requires, and the delayed re-advertisement must be marked.
        let mut net = Network::new(cfg());
        net.connect(
            AsId(10),
            AsId(20),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net.connect(
            AsId(20),
            AsId(30),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer).with_rfd(VendorProfile::Cisco.params()),
            None,
        );
        net.set_trace(obs::TraceBuffer::new(4096));
        for i in 0..120u64 {
            if i % 2 == 0 {
                net.schedule_withdraw(SimTime::from_mins(i), AsId(10), pfx());
            } else {
                net.schedule_announce(SimTime::from_mins(i), AsId(10), pfx(), true);
            }
        }
        net.run_to_quiescence();

        let trace = net.take_trace().expect("trace attached");
        assert_eq!(trace.dropped(), 0, "4096 events is plenty here");
        let at = |name: &str, kind: obs::TraceKind| -> Vec<u64> {
            trace
                .events()
                .filter(|e| e.name == name && e.kind == kind)
                .map(|e| match e.time {
                    obs::TraceTime::Sim(ms) => ms,
                    other => panic!("sim lanes only, got {other:?}"),
                })
                .collect()
        };
        let begins = at("suppressed", obs::TraceKind::Begin);
        let ends = at("suppressed", obs::TraceKind::End);
        assert_eq!(begins.len(), 1, "one suppression in this burst");
        assert_eq!(ends.len(), 1);
        let gap = SimTime::from_millis(ends[0]).saturating_since(SimTime::from_millis(begins[0]));
        assert!(
            gap > SimDuration::from_mins(5),
            "r-delta signature, got {gap}"
        );
        // Continued flapping extends the span, but the release can trail
        // the *last* flap (burst end, minute 119) by at most the
        // max-suppress plateau.
        let burst_end = SimTime::from_mins(119);
        let r_delta = SimTime::from_millis(ends[0]).saturating_since(burst_end);
        assert!(
            r_delta <= VendorProfile::Cisco.params().max_suppress_time + SimDuration::from_mins(1),
            "release within max-suppress of burst end, got {r_delta}"
        );
        assert_eq!(at("readvertise", obs::TraceKind::Instant).len(), 1);
        assert!(
            !at("penalty", obs::TraceKind::Counter).is_empty(),
            "penalty samples on the damped lane"
        );
        // The damped session got a named lane.
        let lane = trace
            .events()
            .find(|e| e.name == "suppressed")
            .map(|e| e.lane)
            .unwrap();
        assert_eq!(trace.lane_name(lane), Some("rfd AS30<-AS20 10.0.7.0/24"));
    }

    #[test]
    fn session_reset_drops_traffic_then_resyncs() {
        use netsim::faults::{FaultPlan, FaultSpec};
        // Force a reset on the only 10–20 link of a line network while a
        // beacon announces; after the up-event the route must be back.
        let mut net = line();
        net.attach_tap(AsId(30));
        let plan = FaultPlan::new(FaultSpec {
            session_reset_rate: 1.0,
            session_reset_duration: netsim::SimDuration::from_mins(2),
            seed: 5,
            ..FaultSpec::default()
        });
        net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
        net.apply_faults(&plan, SimDuration::from_mins(30));
        net.run_to_quiescence();
        assert!(net.faults_applied());
        let counters = net.fault_counters();
        assert_eq!(counters.session_resets, 2, "both links reset at rate 1");
        // After every reset healed, the chain re-converges on the route.
        assert!(
            net.router(AsId(30)).unwrap().best(pfx()).is_some(),
            "route must re-establish after session up"
        );
        // The reset produced visible churn at the vantage point.
        let log = net.tap_log();
        assert!(log.last().unwrap().route.is_some());
    }

    #[test]
    fn session_reset_is_deterministic_and_traced() {
        use netsim::faults::{FaultPlan, FaultSpec};
        let run = |traced: bool| {
            let mut net = line();
            net.attach_tap(AsId(30));
            if traced {
                net.set_trace(obs::TraceBuffer::new(4096));
            }
            let plan = FaultPlan::new(FaultSpec {
                session_reset_rate: 1.0,
                session_reset_duration: netsim::SimDuration::from_mins(2),
                seed: 9,
                ..FaultSpec::default()
            });
            net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
            net.apply_faults(&plan, SimDuration::from_mins(30));
            net.run_to_quiescence();
            net
        };
        let mut a = run(false);
        let mut b = run(true);
        assert_eq!(a.fault_counters(), b.fault_counters());
        assert_eq!(
            a.take_tap_log(),
            b.take_tap_log(),
            "tracing must not perturb"
        );
        let trace = b.take_trace().expect("trace attached");
        assert!(
            trace
                .events()
                .any(|e| e.name == "session_down" && e.kind == obs::TraceKind::Instant),
            "session resets must land on the fault lane"
        );
        assert!(trace
            .events()
            .any(|e| e.name == "session_up" && e.kind == obs::TraceKind::Instant));
        let lane = trace
            .events()
            .find(|e| e.name == "session_down")
            .map(|e| e.lane)
            .unwrap();
        assert!(trace.lane_name(lane).unwrap().starts_with("fault "));
    }

    #[test]
    fn no_fault_plan_keeps_counters_zero() {
        let mut net = line();
        net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
        net.run_to_quiescence();
        assert!(!net.faults_applied());
        assert_eq!(net.fault_counters().total(), 0);
    }

    #[test]
    fn untraced_network_keeps_no_trace() {
        let mut net = line();
        net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
        net.run_to_quiescence();
        assert!(net.trace().is_none());
        assert!(net.take_trace().is_none());
    }

    #[test]
    fn no_rfd_chain_sees_every_flap() {
        let mut net = line();
        net.attach_tap(AsId(30));
        for i in 0..20u64 {
            if i % 2 == 0 {
                net.schedule_withdraw(SimTime::from_mins(i), AsId(10), pfx());
            } else {
                net.schedule_announce(SimTime::from_mins(i), AsId(10), pfx(), true);
            }
        }
        net.run_to_quiescence();
        // 10 withdrawals (first is duplicate: nothing announced yet) and
        // 10 announcements → 19 Loc-RIB changes at the VP.
        assert_eq!(net.tap_log().len(), 19);
    }

    #[test]
    fn multihomed_stub_triggers_path_hunting() {
        // 1 (origin) ← 2 and 1 ← 3; 2 and 3 both customers of 4.
        // When 2's session to 1 withdraws, 4 should hunt to the 3-path.
        let mut net = Network::new(cfg());
        let cust = SessionPolicy::plain(Relationship::Customer);
        let prov = SessionPolicy::plain(Relationship::Provider);
        net.connect(
            AsId(1),
            AsId(2),
            prov,
            cust,
            Some(SimDuration::from_millis(10)),
        );
        net.connect(
            AsId(1),
            AsId(3),
            prov,
            cust,
            Some(SimDuration::from_millis(500)),
        );
        net.connect(
            AsId(2),
            AsId(4),
            prov,
            cust,
            Some(SimDuration::from_millis(10)),
        );
        net.connect(
            AsId(3),
            AsId(4),
            prov,
            cust,
            Some(SimDuration::from_millis(10)),
        );
        net.attach_tap(AsId(4));
        net.schedule_announce(SimTime::ZERO, AsId(1), pfx(), false);
        net.run_to_quiescence();
        let withdrawal_at = net.now() + SimDuration::from_secs(10);
        net.schedule_withdraw(withdrawal_at, AsId(1), pfx());
        net.run_to_quiescence();
        let log = net.tap_log();
        // Sequence at AS4: announce (via 2, faster), maybe announce (via 3
        // after tie-up), then on withdrawal: hunt to the other path before
        // the final withdrawal arrives.
        assert!(log.last().unwrap().route.is_none(), "eventually withdrawn");
        let hunts = log
            .iter()
            .filter(|r| r.time > withdrawal_at && r.route.is_some())
            .count();
        assert!(
            hunts >= 1,
            "expected at least one alternative-path announcement"
        );
    }

    #[test]
    fn session_reset_walks_prefixes_in_ascending_order() {
        use netsim::faults::{FaultPlan, FaultSpec};
        // AS1 originates three prefixes in *descending* order to its
        // provider AS2 (the tap); then the 1–2 session resets. The
        // withdrawals at the reset and the re-sync announcements after it
        // must come in ascending prefix order, whatever order the
        // prefixes were first seen in.
        let mut net = Network::new(cfg());
        net.connect(
            AsId(1),
            AsId(2),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net.attach_tap(AsId(2));
        let mut prefixes: Vec<Prefix> = ["10.0.9.0/24", "10.0.5.0/24", "10.0.1.0/24"]
            .iter()
            .map(|p| p.parse().unwrap())
            .collect();
        for &p in &prefixes {
            net.schedule_announce(SimTime::ZERO, AsId(1), p, false);
        }
        let plan = FaultPlan::new(FaultSpec {
            session_reset_rate: 1.0,
            session_reset_duration: SimDuration::from_mins(2),
            seed: 3,
            ..FaultSpec::default()
        });
        net.apply_faults(&plan, SimDuration::from_mins(30));
        net.run_to_quiescence();
        assert_eq!(net.fault_counters().session_resets, 1);

        prefixes.sort();
        let log = net.tap_log();
        assert_eq!(log.len(), 9, "3 announcements, 3 withdrawals, 3 re-syncs");
        let withdrawn: Vec<Prefix> = log[3..6].iter().map(|r| r.prefix).collect();
        assert!(log[3..6].iter().all(|r| r.route.is_none()));
        assert_eq!(withdrawn, prefixes, "session_down order");
        let resynced: Vec<Prefix> = log[6..].iter().map(|r| r.prefix).collect();
        assert!(log[6..].iter().all(|r| r.route.is_some()));
        assert_eq!(resynced, prefixes, "session_up order");
    }

    #[test]
    fn connect_order_does_not_change_the_simulation() {
        // Export walks neighbors in ascending AS order, which fixes the
        // order of the jitter draws; wiring the same topology in another
        // order must replay the exact same run.
        use Relationship::{Customer, Peer};
        let links = [
            (1, 2, Peer),
            (1, 10, Customer),
            (2, 10, Customer),
            (2, 20, Customer),
            (10, 100, Customer),
            (10, 101, Customer),
            (20, 101, Customer),
            (20, 102, Customer),
        ];
        let run = |shuffled: bool| {
            let mut net = Network::new(NetworkConfig::realistic(7));
            let mrai = SimDuration::from_secs(30);
            let mut wiring: Vec<_> = links.to_vec();
            if shuffled {
                wiring.reverse();
                wiring.swap(1, 5);
            }
            for (i, &(a, b, rel)) in wiring.iter().enumerate() {
                let at_a = SessionPolicy::plain(rel).with_mrai(mrai);
                let at_b = SessionPolicy::plain(rel.reversed());
                // Half the links are wired from the other end.
                if shuffled && i % 2 == 0 {
                    net.connect(AsId(b), AsId(a), at_b, at_a, None);
                } else {
                    net.connect(AsId(a), AsId(b), at_a, at_b, None);
                }
            }
            let mut taps = [1, 100, 102];
            if shuffled {
                taps.reverse();
            }
            for t in taps {
                net.attach_tap(AsId(t));
            }
            let (pa, pb): (Prefix, Prefix) = (
                "10.0.2.0/24".parse().unwrap(),
                "10.0.1.0/24".parse().unwrap(),
            );
            net.schedule_announce(SimTime::ZERO, AsId(101), pa, true);
            net.schedule_announce(SimTime::ZERO, AsId(100), pb, true);
            net.schedule_withdraw(SimTime::from_mins(5), AsId(101), pa);
            net.schedule_announce(SimTime::from_mins(6), AsId(101), pa, true);
            net.run_to_quiescence();
            (net.events_processed(), net.take_tap_log())
        };
        let (sorted_events, sorted_log) = run(false);
        let (shuffled_events, shuffled_log) = run(true);
        assert!(!sorted_log.is_empty());
        assert_eq!(sorted_events, shuffled_events);
        assert_eq!(sorted_log, shuffled_log);
    }
}
