//! The simulated inter-domain network: routers, links, and the event loop.
//!
//! [`Network`] splits into two parts (DESIGN.md §5e):
//!
//! * a read-only **fabric** that every thread shares: one [`Router`] per
//!   AS (its sessions and policies), the CSR link arrays with their
//!   delays and elision flags, and the tap and observed flags;
//! * one **lane** per prefix that owns all mutable state of that prefix:
//!   the routers' RIB, MRAI and RFD slots for it, per-link FIFO horizons
//!   and down flags, its own event queue, its own tap buffer, the arena
//!   that interns every AS path its routes carry, and a jitter stream
//!   split from the seed by the prefix value.
//!
//! A lane pops its events and feeds them to the pure router state
//! machines, translating each router output back into scheduled events:
//!
//! * `sends` become deliveries after the link delay (jittered, but never
//!   reordered within a directed link for one prefix — BGP sessions run
//!   over TCP, so per-session FIFO order is preserved by clamping);
//! * MRAI and RFD timer requests become timer events;
//! * Loc-RIB changes at *tapped* ASs (the vantage points) are appended to
//!   the tap log, which the `collector` crate turns into update dumps.
//!
//! # Sinks: routers nobody observes
//!
//! A router is a **sink** when it is not tapped, not observed (see
//! [`Network::observe`]) and has no customer session. Valley-free export
//! sends a route learned from a peer or provider only to customers, so a
//! sink never exports what it learns: a delivery to it can change its own
//! RIB and RFD state, which nobody reads, and nothing else. A delivery on
//! a link into a sink is therefore counted, not simulated, unless a fault
//! plan resets that link (the deliveries a down link drops are counted as
//! faults, so those links stay simulated). The lane still draws the
//! delivery's jitter, so every RNG stream and FIFO horizon is what it
//! would be if the delivery were scheduled.
//!
//! A sink that originates a prefix is safe too: while it originates, its
//! `Local` selection outranks every learned route, and every route it
//! learns for its own prefix carries its ASN and is loop-rejected. Once
//! it withdraws, it is a sink like any other: whatever it would now
//! select was learned from a peer or provider and goes to no neighbour,
//! so it withdraws from every neighbour either way.
//!
//! [`Network::run_until`] runs the lanes on every available core, then
//! merges their new tap records into one log by (time, prefix) and sums
//! their counters. One prefix's propagation never reads another's state,
//! so every output depends on the seed alone, not on the core count.
//!
//! Beacon origination is scheduled with [`Network::schedule_announce`] /
//! [`Network::schedule_withdraw`]; announcements scheduled with
//! `stamp: true` carry an [`AggregatorStamp`](crate::AggregatorStamp) of
//! their fire time, exactly like the paper's beacons encode send
//! timestamps in the aggregator attribute.
//!
//! # Data layout
//!
//! Inside the event loop everything is a dense index: routers live in a
//! `Vec` ordered by AS number and each router's sessions in a `Vec`
//! ordered by peer AS number. The directed links form a CSR adjacency —
//! router `r`'s links are `start[r]..start[r + 1]`, one per session, in
//! session order — and a lane keeps its per-link state in flat arrays
//! over it. Lanes are kept in ascending prefix order. AS numbers and
//! prefixes are translated to indices only at the public API edge. The
//! CSR is built when the first event is scheduled; from then on the
//! topology is fixed.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::Mutex;
use std::thread;

use netsim::faults::{FaultCounters, FaultPlan};
use netsim::{SimDuration, SimTime};

use crate::lane::Lane;
use crate::message::{AsId, BgpAction};
use crate::policy::SessionPolicy;
use crate::prefix::Prefix;
use crate::rib::Route;
use crate::router::{Router, RouterOutput, Selection};

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
    /// Seed for the network's private randomness (jitter only). Each
    /// prefix draws from its own stream split from it by the prefix.
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

// A run's taps wait in the log until collection takes them; a byte here
// is a byte per tap. Pinned so the record cannot grow unnoticed.
const _: () = assert!(std::mem::size_of::<TapRecord>() <= 56);

/// RFD activity under one parameter set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RfdProfileStats {
    /// Routes driven into suppression.
    pub suppressions: u64,
    /// Suppressed routes released (by decay or reuse timer).
    pub releases: u64,
}

/// Protocol-level counters, per lane or summed over all lanes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Announcements delivered to a router.
    pub updates_announced: u64,
    /// Withdrawals delivered to a router.
    pub updates_withdrawn: u64,
    /// Deliveries to a sink, counted in the two counters above when
    /// sent instead of being simulated (see the module docs).
    pub deliveries_elided: u64,
    /// Announcements the MRAI gates deferred.
    pub mrai_deferrals: u64,
    /// RFD suppressions/releases keyed by parameter-set name
    /// (`"cisco"`, `"juniper"`, `"rfc7454"`, or `"custom"`).
    pub rfd: BTreeMap<&'static str, RfdProfileStats>,
}

impl NetStats {
    /// Updates delivered to a router.
    pub fn delivered(&self) -> u64 {
        self.updates_announced + self.updates_withdrawn
    }

    /// Count one delivered update.
    pub(crate) fn count_delivery(&mut self, action: BgpAction) {
        if action.is_announce() {
            self.updates_announced += 1;
        } else {
            self.updates_withdrawn += 1;
        }
    }

    /// Add `other`'s counts to these.
    fn merge(&mut self, other: &NetStats) {
        self.updates_announced += other.updates_announced;
        self.updates_withdrawn += other.updates_withdrawn;
        self.deliveries_elided += other.deliveries_elided;
        self.mrai_deferrals += other.mrai_deferrals;
        for (name, profile) in &other.rfd {
            let sum = self.rfd.entry(name).or_default();
            sum.suppressions += profile.suppressions;
            sum.releases += profile.releases;
        }
    }
}

/// The directed links as a CSR adjacency. Link `start[r] + s` is router
/// `r`'s session `s`.
#[derive(Debug, Default)]
pub(crate) struct Links {
    /// Set once the arrays are built; the topology is fixed from then on.
    built: bool,
    /// `start[r]..start[r + 1]` are router `r`'s links.
    start: Vec<u32>,
    /// Receiving router of each link.
    pub(crate) to: Vec<u32>,
    /// The receiver's session index for each link (its session back to
    /// the sender).
    pub(crate) reverse: Vec<u32>,
    pub(crate) delay: Vec<SimDuration>,
    /// Whether a delivery on the link is counted instead of simulated:
    /// the link leads into a sink and no session reset touches it. Set
    /// when the first run starts.
    pub(crate) elided: Vec<bool>,
}

impl Links {
    pub(crate) fn id(&self, router: usize, session: usize) -> usize {
        self.start[router] as usize + session
    }

    /// Router `router`'s links.
    pub(crate) fn range(&self, router: usize) -> Range<usize> {
        self.start[router] as usize..self.start[router + 1] as usize
    }
}

/// The read-only part of the network that every lane shares.
pub(crate) struct Fabric {
    /// Routers by router id; ids follow ascending AS number.
    pub(crate) routers: Vec<Router>,
    /// Per router id: whether its Loc-RIB changes are tapped.
    pub(crate) tapped: Vec<bool>,
    /// Per router id: whether anyone reads its RIB (tapped routers are).
    observed: Vec<bool>,
    pub(crate) links: Links,
    pub(crate) config: NetworkConfig,
}

impl Fabric {
    /// Whether router `router` is a sink: unobserved and without a
    /// customer session, so it exports nothing it learns.
    fn is_sink(&self, router: usize) -> bool {
        !self.observed[router] && !self.routers[router].has_customer()
    }
}

/// One session reset of a fault plan.
pub(crate) struct Reset {
    pub(crate) down_at: SimTime,
    pub(crate) up_at: SimTime,
    /// The link, by the lower router id's end.
    pub(crate) router: u32,
    pub(crate) session: u32,
}

/// An attached event trace plus its interned sim-time lanes.
pub(crate) struct Tracer {
    buffer: obs::TraceBuffer,
    /// One trace lane per damped (router, session, prefix).
    rfd_lanes: BTreeMap<(usize, usize, Prefix), obs::Lane>,
    /// One trace lane per router for MRAI deferral instants.
    mrai_lanes: BTreeMap<usize, obs::Lane>,
    /// One trace lane per faulted link (router ids, low first).
    fault_lanes: BTreeMap<(usize, usize), obs::Lane>,
}

impl Tracer {
    /// Record one dispatch's RFD/MRAI activity at `router`. `penalty` is
    /// the RFD session and its penalty after the dispatch, when the
    /// session damps the prefix.
    pub(crate) fn output(
        &mut self,
        r: &Router,
        router: usize,
        prefix: Prefix,
        penalty: Option<(usize, f64)>,
        now: SimTime,
        out: &RouterOutput,
    ) {
        let trace = &mut self.buffer;
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
        // Only damped sessions get a lane.
        let Some((session, penalty)) = penalty else {
            return;
        };
        let next = self.rfd_lanes.len() as u32;
        let lane = *self
            .rfd_lanes
            .entry((router, session, prefix))
            .or_insert_with(|| {
                let lane = obs::Lane::pair(2, next);
                let name = format!("rfd {}<-{} {}", r.asn(), r.peer(session), prefix);
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
    /// between routers `a` and `b` (either direction).
    pub(crate) fn fault(
        &mut self,
        fabric: &Fabric,
        now: SimTime,
        a: usize,
        b: usize,
        what: &'static str,
    ) {
        let trace = &mut self.buffer;
        let key = (a.min(b), a.max(b));
        let next = self.fault_lanes.len() as u32;
        let lane = *self.fault_lanes.entry(key).or_insert_with(|| {
            let lane = obs::Lane::pair(3, next);
            let (a, b) = (fabric.routers[key.0].asn(), fabric.routers[key.1].asn());
            trace.set_lane_name(lane, &format!("fault {a}-{b}"));
            lane
        });
        trace.instant_sim(what, lane, now.as_millis());
    }
}

/// The simulated network.
pub struct Network {
    fabric: Fabric,
    /// Delays passed to `connect`, held until the link arrays are built.
    staged_delays: BTreeMap<(AsId, AsId), SimDuration>,
    /// One lane per prefix, in ascending prefix order.
    lanes: Vec<Lane>,
    /// Every session reset the fault plan injects; each lane replays all
    /// of them.
    resets: Vec<Reset>,
    /// The latest `until` a run reached.
    reached: Option<SimTime>,
    /// The merged tap log, in (time, prefix) order.
    tap_log: Vec<TapRecord>,
    /// The lanes' counters, summed after every run.
    stats: NetStats,
    /// Tallies of injected faults (session resets, dropped deliveries).
    fault_counters: FaultCounters,
    /// Optional event trace. `None` (the default) costs one branch per
    /// dispatch; see DESIGN.md §5d.
    trace: Option<Tracer>,
}

impl Network {
    /// An empty network.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            fabric: Fabric {
                routers: Vec::new(),
                tapped: Vec::new(),
                observed: Vec::new(),
                links: Links::default(),
                config,
            },
            staged_delays: BTreeMap::new(),
            lanes: Vec::new(),
            resets: Vec::new(),
            reached: None,
            tap_log: Vec::new(),
            stats: NetStats::default(),
            fault_counters: FaultCounters::default(),
            trace: None,
        }
    }

    /// Schedule every session reset a fault plan prescribes for this
    /// network's links over `[0, horizon)`. Each reset becomes a
    /// session-down/session-up event pair in every lane; between the two,
    /// deliveries on the link are dropped (and counted). Links are
    /// visited in ascending `(AsId, AsId)` order, and the plan itself is
    /// a pure function of its seed, so the same `(seed, plan)` always
    /// injects the same resets.
    ///
    /// # Panics
    /// If a run has started: which links are simulated is fixed then.
    pub fn apply_faults(&mut self, plan: &FaultPlan, horizon: SimDuration) {
        assert!(
            self.reached.is_none(),
            "faults must be applied before the first run"
        );
        self.build_links();
        let links = &self.fabric.links;
        for (a, router) in self.fabric.routers.iter().enumerate() {
            for session in 0..router.session_count() {
                let b = links.to[links.id(a, session)] as usize;
                if a >= b {
                    continue; // each undirected link once
                }
                let (asn_a, asn_b) = (router.asn(), router.peer(session));
                if let Some((down_at, up_at)) =
                    plan.session_reset(u64::from(asn_a.0), u64::from(asn_b.0), horizon)
                {
                    let reset = Reset {
                        down_at,
                        up_at,
                        router: a as u32,
                        session: session as u32,
                    };
                    for lane in &mut self.lanes {
                        lane.schedule_reset(&reset);
                    }
                    self.resets.push(reset);
                }
            }
        }
    }

    /// Tallies of faults this network actually injected. A link reset
    /// counts once, however many lanes it cut; dropped deliveries are
    /// summed over the lanes.
    pub fn fault_counters(&self) -> &FaultCounters {
        &self.fault_counters
    }

    /// Attach an event trace. RFD state-machine transitions (suppress,
    /// release, penalty samples, delayed re-advertisements) and MRAI
    /// deferrals are recorded on sim-time lanes — one lane per damped
    /// (router, peer, prefix) session, one per deferring router. With a
    /// trace attached the prefix lanes run one after another, in prefix
    /// order, so the trace is as deterministic as the run.
    pub fn set_trace(&mut self, trace: obs::TraceBuffer) {
        self.trace = Some(Tracer {
            buffer: trace,
            rfd_lanes: BTreeMap::new(),
            mrai_lanes: BTreeMap::new(),
            fault_lanes: BTreeMap::new(),
        });
    }

    /// Detach and return the trace, if one was attached.
    pub fn take_trace(&mut self) -> Option<obs::TraceBuffer> {
        self.trace.take().map(|t| t.buffer)
    }

    /// Read-only view of the attached trace.
    pub fn trace(&self) -> Option<&obs::TraceBuffer> {
        self.trace.as_ref().map(|t| &t.buffer)
    }

    /// The router id of `asn`.
    fn router_id(&self, asn: AsId) -> Option<usize> {
        self.fabric
            .routers
            .binary_search_by_key(&asn, Router::asn)
            .ok()
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
        let fabric = &mut self.fabric;
        if let Err(at) = fabric.routers.binary_search_by_key(&asn, Router::asn) {
            assert!(
                !fabric.links.built,
                "cannot add {asn}: the topology is fixed once events are scheduled"
            );
            fabric.routers.insert(at, Router::new(asn));
            fabric.tapped.insert(at, false);
            fabric.observed.insert(at, false);
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
            !self.fabric.links.built,
            "cannot connect {a}–{b}: the topology is fixed once events are scheduled"
        );
        debug_assert_eq!(
            policy_at_a.relationship,
            policy_at_b.relationship.reversed(),
            "inconsistent relationship on link {a}–{b}"
        );
        self.add_router(a);
        self.add_router(b);
        let d = delay.unwrap_or(self.fabric.config.default_link_delay);
        self.staged_delays.insert((a, b), d);
        self.staged_delays.insert((b, a), d);
        let ia = self.known_router(a);
        self.fabric.routers[ia].add_session(b, policy_at_a);
        let ib = self.known_router(b);
        self.fabric.routers[ib].add_session(a, policy_at_b);
    }

    /// Build the per-link arrays from the routers' session lists. Runs
    /// once, before the first event is scheduled.
    fn build_links(&mut self) {
        if self.fabric.links.built {
            return;
        }
        let delays = std::mem::take(&mut self.staged_delays);
        let mut links = Links {
            built: true,
            ..Links::default()
        };
        for router in &self.fabric.routers {
            links.start.push(links.to.len() as u32);
            for session in 0..router.session_count() {
                let peer = router.peer(session);
                let to = self.known_router(peer);
                let reverse = self.fabric.routers[to]
                    .session_index(router.asn())
                    .expect("sessions come in pairs");
                links.to.push(to as u32);
                links.reverse.push(reverse as u32);
                links.delay.push(delays[&(router.asn(), peer)]);
            }
        }
        links.start.push(links.to.len() as u32);
        self.fabric.links = links;
    }

    /// Mark the links whose deliveries are counted, not simulated: every
    /// link into a sink that no session reset touches. Runs when the
    /// first run starts; the observed set and the resets are fixed from
    /// then on.
    fn elide_sink_links(&mut self) {
        let fabric = &self.fabric;
        let links = &fabric.links;
        let mut elided: Vec<bool> = links
            .to
            .iter()
            .map(|&to| fabric.is_sink(to as usize))
            .collect();
        for reset in &self.resets {
            let link = links.id(reset.router as usize, reset.session as usize);
            let back = links.id(links.to[link] as usize, links.reverse[link] as usize);
            elided[link] = false;
            elided[back] = false;
        }
        self.fabric.links.elided = elided;
    }

    /// The lane of `prefix`, created (and given every known session
    /// reset) on first sight.
    fn lane_mut(&mut self, prefix: Prefix) -> &mut Lane {
        self.build_links();
        let at = match self.lanes.binary_search_by_key(&prefix, |lane| lane.prefix) {
            Ok(at) => at,
            Err(at) => {
                let mut lane = Lane::new(prefix, &self.fabric);
                for reset in &self.resets {
                    lane.schedule_reset(reset);
                }
                self.lanes.insert(at, lane);
                at
            }
        };
        &mut self.lanes[at]
    }

    /// The lane of `prefix`, if one was scheduled.
    fn lane(&self, prefix: Prefix) -> Option<&Lane> {
        let at = self
            .lanes
            .binary_search_by_key(&prefix, |lane| lane.prefix)
            .ok()?;
        Some(&self.lanes[at])
    }

    /// Mark `asn` as a vantage point whose Loc-RIB changes are recorded.
    /// A tapped router is observed.
    ///
    /// # Panics
    /// If `asn` is unknown or a run has started.
    pub fn attach_tap(&mut self, asn: AsId) {
        let id = self.observed_router(asn);
        self.fabric.tapped[id] = true;
    }

    /// Declare that the caller will read `asn`'s RIB ([`Network::best`],
    /// [`Network::is_suppressed`]), so that it is fully simulated even if
    /// it is a sink (see the module docs).
    ///
    /// # Panics
    /// If `asn` is unknown or a run has started.
    pub fn observe(&mut self, asn: AsId) {
        self.observed_router(asn);
    }

    /// Mark `asn` observed and return its router id.
    fn observed_router(&mut self, asn: AsId) -> usize {
        assert!(
            self.reached.is_none(),
            "cannot observe {asn}: the observed set is fixed once a run starts"
        );
        let id = self.known_router(asn);
        self.fabric.observed[id] = true;
        id
    }

    /// The router id of `asn`, whose RIB the caller reads; `None` if it
    /// is unknown.
    ///
    /// # Panics
    /// If `asn` is a sink: its RIB is not simulated.
    fn readable_router(&self, asn: AsId) -> Option<usize> {
        let id = self.router_id(asn)?;
        assert!(
            !self.fabric.is_sink(id),
            "{asn} is an unobserved sink: call Network::observe before the first run to read it"
        );
        Some(id)
    }

    /// Immutable access to a router's sessions and policies.
    pub fn router(&self, asn: AsId) -> Option<&Router> {
        self.router_id(asn).map(|id| &self.fabric.routers[id])
    }

    /// The best route `asn` currently selects for `prefix`, if any, with
    /// its AS path built from the prefix lane's path arena.
    ///
    /// # Panics
    /// If `asn` is a sink (unobserved, no customer session).
    pub fn best(&self, asn: AsId, prefix: Prefix) -> Option<Selection> {
        let router = self.readable_router(asn)?;
        let lane = self.lane(prefix)?;
        let best = lane.local[router].best?;
        Some(best.materialize(&lane.paths))
    }

    /// Whether `asn` currently suppresses the route for `prefix` it
    /// learned from `peer`.
    ///
    /// # Panics
    /// If `asn` is a sink (unobserved, no customer session).
    pub fn is_suppressed(&self, asn: AsId, peer: AsId, prefix: Prefix) -> bool {
        let router = self.readable_router(asn);
        let (Some(lane), Some(router)) = (self.lane(prefix), router) else {
            return false;
        };
        self.fabric.routers[router]
            .session_index(peer)
            .is_some_and(|session| {
                let link = self.fabric.links.id(router, session);
                lane.slots[link].adj_in.rfd.is_suppressed()
            })
    }

    /// All AS numbers in the network (ascending).
    pub fn as_ids(&self) -> Vec<AsId> {
        self.fabric.routers.iter().map(Router::asn).collect()
    }

    /// Current simulated time: the latest lane clock (the time of the
    /// last event any lane processed).
    pub fn now(&self) -> SimTime {
        self.lanes
            .iter()
            .map(|lane| lane.queue.now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Number of BGP updates delivered so far, over all lanes. A
    /// delivery to a sink counts when it is sent.
    pub fn delivered(&self) -> u64 {
        self.stats.delivered()
    }

    /// Total events processed, over all lanes.
    pub fn events_processed(&self) -> u64 {
        self.lanes.iter().map(|lane| lane.queue.processed()).sum()
    }

    /// Protocol-level counters (updates, MRAI deferrals, RFD activity),
    /// summed over all lanes.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// One prefix's protocol-level counters, if the prefix was scheduled.
    pub fn prefix_stats(&self, prefix: Prefix) -> Option<&NetStats> {
        self.lane(prefix).map(|lane| &lane.stats)
    }

    /// The sum over lanes of each lane queue's deepest point. Each lane
    /// keeps its pending events for the whole run, but only a lane that
    /// is popping holds a ring of buckets (`netsim::engine`), so this
    /// bounds the events held, not the memory.
    pub fn queue_depth_high_water(&self) -> usize {
        self.lanes
            .iter()
            .map(|lane| lane.queue.depth_high_water())
            .sum()
    }

    /// Export queue and protocol metrics into a run report as the
    /// `netsim.queue` and `bgpsim.network` sections. The queue section
    /// aggregates the lane queues: events and pending events are sums,
    /// `depth_high_water` is [`Network::queue_depth_high_water`] and
    /// `now_secs` is [`Network::now`].
    pub fn export_obs(&self, report: &mut obs::RunReport) {
        let pending: usize = self.lanes.iter().map(|lane| lane.queue.len()).sum();
        report
            .section("netsim.queue")
            .counter("lanes", self.lanes.len() as u64)
            .counter("events_processed", self.events_processed())
            .counter("depth_high_water", self.queue_depth_high_water() as u64)
            .counter("pending", pending as u64)
            .gauge("now_secs", self.now().as_secs_f64());
        let section = report.section("bgpsim.network");
        section
            .counter("updates_delivered", self.delivered())
            .counter("updates_announced", self.stats.updates_announced)
            .counter("updates_withdrawn", self.stats.updates_withdrawn)
            .counter("deliveries_elided", self.stats.deliveries_elided)
            .counter("mrai_deferrals", self.stats.mrai_deferrals);
        for (name, profile) in &self.stats.rfd {
            section
                .counter(&format!("rfd_suppressions.{name}"), profile.suppressions)
                .counter(&format!("rfd_releases.{name}"), profile.releases);
        }
        if let Some(trace) = &self.trace {
            trace.buffer.export_into(report.section("bgpsim.trace"));
        }
    }

    /// Schedule an origination (announcement) of `prefix` at `router`.
    /// With `stamp`, the announcement carries an aggregator timestamp equal
    /// to the fire time — the beacon convention.
    ///
    /// # Panics
    /// If `router` is not in the network.
    pub fn schedule_announce(&mut self, at: SimTime, router: AsId, prefix: Prefix, stamp: bool) {
        let router = self.known_router(router);
        self.lane_mut(prefix).schedule_originate(at, router, stamp);
    }

    /// Schedule a withdrawal of a locally-originated `prefix`.
    ///
    /// # Panics
    /// If `router` is not in the network.
    pub fn schedule_withdraw(&mut self, at: SimTime, router: AsId, prefix: Prefix) {
        let router = self.known_router(router);
        self.lane_mut(prefix).schedule_withdraw(at, router);
    }

    /// Run every lane until its queue is empty or its clock passes
    /// `until`, then merge the lanes' new tap records and counters.
    /// Returns the number of events processed by this call.
    ///
    /// Untraced, the lanes run on `available_parallelism()` scoped
    /// threads that claim lanes one at a time; traced, they run in prefix
    /// order on the calling thread. Either way the result is the same.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        self.build_links();
        if self.reached.is_none() {
            self.elide_sink_links();
        }
        self.record_resets(until);
        let fabric = &self.fabric;
        let events = match &mut self.trace {
            Some(trace) => {
                let mut events = 0;
                for lane in &mut self.lanes {
                    events += lane.run(fabric, until, Some(trace));
                }
                events
            }
            None => run_parallel(&mut self.lanes, fabric, until),
        };
        self.merge_lanes();
        events
    }

    /// Run until the queue fully drains (converged network).
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Count (and trace) the link resets and re-establishments in
    /// `(reached, until]`. Every lane replays each of them, so they are
    /// counted here, once per link.
    fn record_resets(&mut self, until: SimTime) {
        let reached = self.reached;
        let fires = |t: SimTime| t <= until && reached.is_none_or(|r| t > r);
        for reset in &self.resets {
            for (at, what) in [(reset.down_at, "session_down"), (reset.up_at, "session_up")] {
                if !fires(at) {
                    continue;
                }
                if what == "session_down" {
                    self.fault_counters.session_resets += 1;
                }
                if let Some(trace) = &mut self.trace {
                    let links = &self.fabric.links;
                    let (a, session) = (reset.router as usize, reset.session as usize);
                    let b = links.to[links.id(a, session)] as usize;
                    trace.fault(&self.fabric, at, a, b, what);
                }
            }
        }
        self.reached = reached.max(Some(until));
    }

    /// Move the lanes' new tap records into the log and re-sum their
    /// counters.
    fn merge_lanes(&mut self) {
        let start = self.tap_log.len();
        let new: usize = self.lanes.iter().map(|lane| lane.tap.len()).sum();
        self.tap_log.reserve_exact(new);
        let mut stats = NetStats::default();
        let mut dropped_down = 0;
        for lane in &mut self.lanes {
            self.tap_log.extend(std::mem::take(&mut lane.tap));
            stats.merge(&lane.stats);
            dropped_down += lane.dropped_down;
        }
        // Lanes are in prefix order and each lane's records in time
        // order, so this stable sort merges by (time, prefix, lane
        // order). Every record of this run is later than every record of
        // the previous one, so the whole log stays sorted.
        self.tap_log[start..].sort_by_key(|r| (r.time, r.prefix));
        self.stats = stats;
        self.fault_counters.updates_dropped_down = dropped_down;
    }

    /// Take the accumulated tap log, leaving it empty.
    pub fn take_tap_log(&mut self) -> Vec<TapRecord> {
        std::mem::take(&mut self.tap_log)
    }

    /// Read-only view of the tap log, in (time, prefix) order.
    pub fn tap_log(&self) -> &[TapRecord] {
        &self.tap_log
    }
}

/// Run `lanes` up to `until` on one scoped thread per available core (at
/// most one per lane; the calling thread is one of them). Each thread
/// claims the next unclaimed lane until none is left. Returns the events
/// processed.
fn run_parallel(lanes: &mut [Lane], fabric: &Fabric, until: SimTime) -> u64 {
    let threads = thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(lanes.len());
    let unclaimed = Mutex::new(lanes.iter_mut());
    let work = || {
        let mut events = 0;
        loop {
            // The guard drops at the end of this statement: the lock is
            // held only to claim.
            let Some(lane) = unclaimed
                .lock()
                .expect("lane claims never panic while holding the lock")
                .next()
            else {
                return events;
            };
            events += lane.run(fabric, until, None);
        }
    };
    thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut events = work();
        for helper in helpers {
            events += helper
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
        events
    })
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

    /// The line network plus AS40, an untapped customer of AS20 and so a
    /// sink; with `observed`, AS40 is observed. AS10 announces, and with
    /// `resets` every link resets once.
    fn line_with_a_stub(observed: bool, resets: bool) -> Network {
        use netsim::faults::{FaultPlan, FaultSpec};
        let mut net = line();
        net.connect(
            AsId(40),
            AsId(20),
            SessionPolicy::plain(Relationship::Provider),
            SessionPolicy::plain(Relationship::Customer),
            None,
        );
        net.attach_tap(AsId(30));
        if observed {
            net.observe(AsId(40));
        }
        net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
        net.schedule_withdraw(SimTime::from_mins(1), AsId(10), pfx());
        if resets {
            let plan = FaultPlan::new(FaultSpec {
                session_reset_rate: 1.0,
                session_reset_duration: SimDuration::from_mins(2),
                seed: 5,
                ..FaultSpec::default()
            });
            net.apply_faults(&plan, SimDuration::from_mins(30));
        }
        net.run_to_quiescence();
        net
    }

    #[test]
    fn deliveries_to_a_sink_are_counted_not_simulated() {
        let elided = line_with_a_stub(false, false);
        let simulated = line_with_a_stub(true, false);
        // AS20 announces to AS40, then withdraws. (AS10 is a sink too,
        // but split horizon sends it nothing.)
        assert_eq!(elided.stats().deliveries_elided, 2);
        assert_eq!(simulated.stats().deliveries_elided, 0);
        assert!(simulated.best(AsId(40), pfx()).is_none());
        assert_eq!(elided.delivered(), simulated.delivered());
        assert_eq!(elided.events_processed() + 2, simulated.events_processed());
        assert_eq!(elided.tap_log(), simulated.tap_log());

        let mut report = obs::RunReport::new("t");
        elided.export_obs(&mut report);
        let section = report.get("bgpsim.network").unwrap();
        assert_eq!(
            section.get("deliveries_elided"),
            Some(&obs::Value::Counter(2))
        );
    }

    #[test]
    fn a_reset_link_into_a_sink_stays_simulated() {
        let net = line_with_a_stub(false, true);
        assert_eq!(net.fault_counters().session_resets, 3);
        assert_eq!(net.stats().deliveries_elided, 0);
    }

    #[test]
    #[should_panic(expected = "faults must be applied before the first run")]
    fn faults_after_the_first_run_panic() {
        let mut net = line_with_a_stub(false, false);
        net.apply_faults(
            &netsim::faults::FaultPlan::new(netsim::faults::FaultSpec::default()),
            SimDuration::from_mins(30),
        );
    }

    #[test]
    fn announcement_propagates_up_the_chain() {
        let mut net = line();
        net.attach_tap(AsId(30));
        net.schedule_announce(SimTime::ZERO, AsId(10), pfx(), true);
        net.run_to_quiescence();
        // AS30 selected the route through 20 → 10.
        match net.best(AsId(30), pfx()) {
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
        assert!(net.best(AsId(30), pfx()).is_none());
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
            !net.is_suppressed(AsId(30), AsId(20), pfx()),
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
        let counters = net.fault_counters();
        assert_eq!(counters.session_resets, 2, "both links reset at rate 1");
        // After every reset healed, the chain re-converges on the route.
        assert!(
            net.best(AsId(30), pfx()).is_some(),
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
    fn session_reset_records_merge_in_ascending_prefix_order() {
        use netsim::faults::{FaultPlan, FaultSpec};
        // AS1 originates three prefixes in *descending* order to its
        // provider AS2 (the tap); then the 1–2 session resets. Each lane
        // withdraws and re-syncs its own prefix at the same instants, and
        // the merge by (time, prefix) must put the withdrawals and the
        // re-sync announcements in ascending prefix order, whatever order
        // the prefixes were first seen in.
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

    /// The line network with each of `flaps`' prefixes flapping at AS10
    /// every minute from its start offset, and every link reset once, run
    /// to quiescence.
    fn flapping_line(flaps: &[(Prefix, SimDuration)], traced: bool) -> Network {
        use netsim::faults::{FaultPlan, FaultSpec};
        let mut net = line();
        net.attach_tap(AsId(30));
        if traced {
            net.set_trace(obs::TraceBuffer::new(1 << 14));
        }
        for &(prefix, offset) in flaps {
            for k in 0..30u64 {
                let minute = SimTime::from_mins(k) + offset;
                net.schedule_announce(minute, AsId(10), prefix, true);
                net.schedule_withdraw(minute + SimDuration::from_secs(30), AsId(10), prefix);
            }
        }
        let plan = FaultPlan::new(FaultSpec {
            session_reset_rate: 1.0,
            session_reset_duration: SimDuration::from_mins(2),
            seed: 5,
            ..FaultSpec::default()
        });
        net.apply_faults(&plan, SimDuration::from_mins(30));
        net.run_to_quiescence();
        net
    }

    #[test]
    fn lane_aggregates_relate_to_each_prefix_run_alone() {
        let flaps: Vec<(Prefix, SimDuration)> = ["10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"]
            .iter()
            .zip([0, 7, 14])
            .map(|(p, secs)| (p.parse().unwrap(), SimDuration::from_secs(secs)))
            .collect();
        let joint = flapping_line(&flaps, false);
        let alone: Vec<Network> = flaps
            .iter()
            .map(|&flap| flapping_line(&[flap], false))
            .collect();
        let sum = |f: fn(&Network) -> u64| alone.iter().map(f).sum::<u64>();

        // A link reset counts once, however many lanes it cuts.
        assert_eq!(joint.fault_counters().session_resets, 2);
        assert!(alone.iter().all(|n| n.fault_counters().session_resets == 2));
        // Deliveries dropped on a down link are summed over the lanes.
        let dropped = sum(|n| n.fault_counters().updates_dropped_down);
        assert!(dropped > 0, "flaps must be in flight while a link is down");
        assert_eq!(joint.fault_counters().updates_dropped_down, dropped);
        assert_eq!(joint.events_processed(), sum(Network::events_processed));
        assert_eq!(joint.delivered(), sum(Network::delivered));
        assert_eq!(
            joint.queue_depth_high_water() as u64,
            sum(|n| n.queue_depth_high_water() as u64)
        );
        // The clock is the latest lane clock.
        assert_eq!(joint.now(), alone.iter().map(Network::now).max().unwrap());
        for (net, &(prefix, _)) in alone.iter().zip(&flaps) {
            assert_eq!(joint.prefix_stats(prefix), Some(net.stats()));
        }

        let mut report = obs::RunReport::new("t");
        joint.export_obs(&mut report);
        let queue = report.get("netsim.queue").unwrap();
        assert_eq!(queue.get("lanes"), Some(&obs::Value::Counter(3)));
        assert_eq!(
            queue.get("depth_high_water"),
            Some(&obs::Value::Counter(joint.queue_depth_high_water() as u64))
        );

        // A trace runs the lanes one by one; nothing else changes.
        let mut traced = flapping_line(&flaps, true);
        assert_eq!(traced.tap_log(), joint.tap_log());
        assert_eq!(traced.stats(), joint.stats());
        assert_eq!(traced.fault_counters(), joint.fault_counters());
        let trace = traced.take_trace().unwrap();
        let resets = trace.events().filter(|e| e.name == "session_down").count();
        assert_eq!(resets, 2, "each link reset is traced once");
    }
}
