//! One simulation lane: everything the simulation of one prefix mutates.
//!
//! A [`Lane`] owns that prefix's Adj-RIB-In/Out, MRAI and RFD slots and
//! Loc-RIB in every router, the per-link FIFO horizons and down flags,
//! its own event queue, a jitter stream split from the network seed by
//! the prefix, its path arena, and buffers of the tap records and (with
//! a trace attached) the trace events it produced since the network last
//! merged them. It reads the routers' sessions and policies, the CSR link
//! arrays (with the flags of the links into sinks, whose deliveries it
//! counts instead of scheduling) and the tap flags from the network's
//! shared, read-only [`Fabric`].
//! Two lanes share no mutable state, so the network runs them on
//! separate threads, traced or not (DESIGN.md §5e).
//!
//! A lane records each trace event on a *key* ([`trace_key`]): its kind
//! (MRAI, RFD or fault), a router, and the router's session or the
//! link's far end. Interning keys into named trace lanes needs every
//! lane's events in one order, so the network does it when it merges.
//!
//! Every route inside the lane — in a RIB slot, an MRAI gate, a
//! `Deliver` event, a Loc-RIB selection — carries its AS path as a
//! `PathId` into the lane's [`PathArena`], so routes are `Copy` and
//! comparing two paths compares two integers. The boundary is the tap:
//! a tapped Loc-RIB change becomes a [`TapRecord`] whose path is an
//! `AsPath` the arena builds once per distinct path and shares.

use netsim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::message::{AggregatorStamp, BgpAction};
use crate::network::{trace_key, Fabric, NetStats, Reset, TapRecord, FAULT, MRAI, RFD};
use crate::paths::PathArena;
use crate::prefix::Prefix;
use crate::rib::Route;
use crate::router::{LocalSlot, PrefixState, RouterOutput, SessionSlot};

/// Events of one lane. Routers are named by router id, sessions by their
/// index in the router's session list (which also names the directed
/// link); the prefix is the lane's.
#[derive(Clone, Copy, Debug)]
pub(crate) enum NetEvent {
    /// Deliver `action`, sent by `router` on `session` (already delayed).
    Deliver {
        router: u32,
        session: u32,
        action: BgpAction,
    },
    /// The MRAI gate of (router, session) may reopen.
    MraiExpire { router: u32, session: u32 },
    /// An RFD reuse check for (router, session).
    RfdReuse { router: u32, session: u32 },
    /// A locally-scheduled origination (beacon announcement); `stamp`
    /// stamps the aggregator attribute with the fire time.
    Originate { router: u32, stamp: bool },
    /// A locally-scheduled withdrawal (beacon withdrawal).
    WithdrawOrigin { router: u32 },
    /// A fault-injected reset: the session `router` holds on `session`
    /// (and its reverse) drops.
    SessionDown { router: u32, session: u32 },
    /// The reset session re-establishes (full table re-sync).
    SessionUp { router: u32, session: u32 },
}

// A lane keeps every pending event for the whole run; a byte here is a
// byte per pending event. Pinned so the queue's payload cannot grow
// unnoticed.
const _: () = assert!(std::mem::size_of::<NetEvent>() <= 32);

/// All mutable simulation state of one prefix.
pub(crate) struct Lane {
    pub(crate) prefix: Prefix,
    pub(crate) queue: EventQueue<NetEvent>,
    /// Jitter and processing-delay draws, keyed by the prefix value.
    rng: SimRng,
    /// Per router id: its own state for the prefix.
    pub(crate) local: Vec<LocalSlot>,
    /// Per link id (router `r`'s session `s` is link `start[r] + s`):
    /// router `r`'s state of session `s` for the prefix.
    pub(crate) slots: Vec<SessionSlot>,
    /// Per link: the last scheduled delivery, to preserve TCP FIFO.
    horizon: Vec<SimTime>,
    /// Per link: whether its session is down (between a fault-injected
    /// reset and its re-establishment).
    down: Vec<bool>,
    /// Every AS path the lane's routes carry.
    pub(crate) paths: PathArena,
    /// Tap records not yet merged into the network's log, in time order.
    pub(crate) tap: Vec<TapRecord>,
    /// Trace events of this run, each on a key, when the network has a
    /// trace attached. Unbounded: the network takes it at every merge.
    pub(crate) trace: Option<obs::TraceBuffer>,
    pub(crate) stats: NetStats,
    /// Deliveries dropped on a down session.
    pub(crate) dropped_down: u64,
}

impl Lane {
    /// An idle lane for `prefix` over `fabric`, whose links are built.
    pub(crate) fn new(prefix: Prefix, fabric: &Fabric) -> Lane {
        let links = fabric.links.to.len();
        Lane {
            prefix,
            queue: EventQueue::new(),
            rng: SimRng::new(fabric.config.seed)
                .split("network-jitter")
                .split(&prefix.to_string()),
            local: vec![LocalSlot::default(); fabric.routers.len()],
            slots: vec![SessionSlot::default(); links],
            horizon: vec![SimTime::ZERO; links],
            down: vec![false; links],
            paths: PathArena::default(),
            tap: Vec::new(),
            trace: None,
            stats: NetStats::default(),
            dropped_down: 0,
        }
    }

    pub(crate) fn schedule_originate(&mut self, at: SimTime, router: usize, stamp: bool) {
        let router = router as u32;
        self.queue
            .schedule_at(at, NetEvent::Originate { router, stamp });
    }

    pub(crate) fn schedule_withdraw(&mut self, at: SimTime, router: usize) {
        let router = router as u32;
        self.queue
            .schedule_at(at, NetEvent::WithdrawOrigin { router });
    }

    pub(crate) fn schedule_reset(&mut self, reset: &Reset) {
        let (router, session) = (reset.router, reset.session);
        self.queue
            .schedule_at(reset.down_at, NetEvent::SessionDown { router, session });
        self.queue
            .schedule_at(reset.up_at, NetEvent::SessionUp { router, session });
    }

    /// Process every event up to `until`; returns how many.
    pub(crate) fn run(&mut self, fabric: &Fabric, until: SimTime) -> u64 {
        // One output buffer for the whole run: dispatch clears it per
        // router input instead of allocating.
        let mut out = RouterOutput::default();
        let mut n = 0;
        while let Some((now, ev)) = self.queue.pop_until(until) {
            self.dispatch(fabric, now, ev, &mut out);
            n += 1;
        }
        n
    }

    /// Router `router`'s state for this lane's prefix.
    fn state(&mut self, fabric: &Fabric, router: usize) -> PrefixState<'_> {
        let links = fabric.links.range(router);
        PrefixState {
            prefix: self.prefix,
            local: &mut self.local[router],
            sessions: &mut self.slots[links],
            paths: &mut self.paths,
        }
    }

    fn dispatch(&mut self, fabric: &Fabric, now: SimTime, ev: NetEvent, out: &mut RouterOutput) {
        out.clear();
        let links = &fabric.links;
        // `rfd_session` names the session any RFD transition in the
        // output belongs to — only deliveries and reuse timers can flip
        // RFD state, and both name the session up front.
        let (router, rfd_session) = match ev {
            NetEvent::Deliver {
                router,
                session,
                action,
            } => {
                let link = links.id(router as usize, session as usize);
                let to = links.to[link] as usize;
                // A down session drops traffic on the floor.
                if self.down[link] {
                    self.dropped_down += 1;
                    if let Some(trace) = &mut self.trace {
                        let key = trace_key(FAULT, router as usize, to);
                        trace.instant_sim("update_dropped", key, now.as_millis());
                    }
                    return;
                }
                self.stats.count_delivery(action);
                let session = links.reverse[link] as usize;
                fabric.routers[to].handle_update(
                    &mut self.state(fabric, to),
                    session,
                    action,
                    now,
                    out,
                );
                (to, Some(session))
            }
            NetEvent::MraiExpire { router, session } => {
                let router = router as usize;
                fabric.routers[router].mrai_expired(
                    &mut self.state(fabric, router),
                    session as usize,
                    now,
                    out,
                );
                (router, None)
            }
            NetEvent::RfdReuse { router, session } => {
                let (router, session) = (router as usize, session as usize);
                fabric.routers[router].rfd_reuse_fired(
                    &mut self.state(fabric, router),
                    session,
                    now,
                    out,
                );
                (router, Some(session))
            }
            NetEvent::Originate { router, stamp } => {
                let router = router as usize;
                let aggregator = stamp.then(|| AggregatorStamp::new(now));
                fabric.routers[router].originate(
                    &mut self.state(fabric, router),
                    aggregator,
                    now,
                    out,
                );
                (router, None)
            }
            NetEvent::WithdrawOrigin { router } => {
                let router = router as usize;
                fabric.routers[router].withdraw_origin(&mut self.state(fabric, router), now, out);
                (router, None)
            }
            NetEvent::SessionDown { router, session } => {
                let end = (router as usize, session as usize);
                self.session_transition(fabric, now, end, false, out);
                return;
            }
            NetEvent::SessionUp { router, session } => {
                let end = (router as usize, session as usize);
                self.session_transition(fabric, now, end, true, out);
                return;
            }
        };

        self.apply_output(fabric, now, router, rfd_session, out);
    }

    /// Drive both endpoints of the link router `a` holds on `a_session`
    /// through a session reset transition, applying each endpoint's
    /// output on its own (so every Loc-RIB change reaches the tap buffer).
    fn session_transition(
        &mut self,
        fabric: &Fabric,
        now: SimTime,
        (a, a_session): (usize, usize),
        up: bool,
        out: &mut RouterOutput,
    ) {
        let links = &fabric.links;
        let link = links.id(a, a_session);
        let b = links.to[link] as usize;
        let b_session = links.reverse[link] as usize;
        self.down[link] = !up;
        self.down[links.id(b, b_session)] = !up;
        for (router, session) in [(a, a_session), (b, b_session)] {
            out.clear();
            let r = &fabric.routers[router];
            let mut st = self.state(fabric, router);
            let touched = if up {
                r.session_up(&mut st, session, now, out)
            } else {
                r.session_down(&mut st, session, now, out)
            };
            if touched {
                self.apply_output(fabric, now, router, Some(session), out);
            }
        }
    }

    /// Translate one router output into scheduled events, stats, trace
    /// records and tap records.
    fn apply_output(
        &mut self,
        fabric: &Fabric,
        now: SimTime,
        router: usize,
        rfd_session: Option<usize>,
        out: &mut RouterOutput,
    ) {
        let links = &fabric.links;
        let r = &fabric.routers[router];
        self.stats.mrai_deferrals += u64::from(out.mrai_deferrals);
        if let Some(trace) = &mut self.trace {
            let now_ms = now.as_millis();
            if out.mrai_deferrals > 0 {
                let key = trace_key(MRAI, router, 0);
                trace.counter_sim("mrai_deferrals", key, now_ms, f64::from(out.mrai_deferrals));
            }
            // Only damped sessions have a penalty to sample.
            let damped = rfd_session.and_then(|session| {
                let entry = &self.slots[links.id(router, session)].adj_in;
                Some((session, r.session_penalty(session, entry, now)?))
            });
            if let Some((session, penalty)) = damped {
                let key = trace_key(RFD, router, session);
                trace.counter_sim("penalty", key, now_ms, penalty);
                if out.rfd_suppressed {
                    trace.begin_sim("suppressed", key, now_ms);
                }
                if out.rfd_released {
                    trace.end_sim("suppressed", key, now_ms);
                    let usable_again = out
                        .loc_rib_change
                        .as_ref()
                        .is_some_and(|c| c.route.is_some());
                    if usable_again {
                        // The paper's Fig. 2 signature: the re-advertisement
                        // the damper delayed until the penalty decayed under
                        // reuse (the actual send may still sit behind an
                        // MRAI gate).
                        trace.instant_sim("readvertise", key, now_ms);
                    }
                }
            }
        }
        if out.rfd_suppressed || out.rfd_released {
            let name = rfd_session
                .and_then(|session| r.policy_at(session).rfd.as_ref())
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
        let router_id = router as u32;
        for (session, action) in out.sends.drain(..) {
            let link = links.id(router, session);
            // Drawn for every send, so the jitter stream and the FIFO
            // horizons do not depend on which deliveries are simulated.
            let delivery = self.delivery_time(fabric, link, now);
            if links.elided[link] {
                // Into a sink over a link that is never down: counting it
                // is all its delivery would change that anyone reads.
                self.stats.count_delivery(action);
                self.stats.deliveries_elided += 1;
                continue;
            }
            self.queue.schedule_at(
                delivery,
                NetEvent::Deliver {
                    router: router_id,
                    session: session as u32,
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
                },
            );
        }
        for &(session, at) in &out.rfd_timers {
            self.queue.schedule_at(
                at.max(now),
                NetEvent::RfdReuse {
                    router: router_id,
                    session: session as u32,
                },
            );
        }
        if let Some(change) = out.loc_rib_change.take() {
            if fabric.tapped[router] {
                let route = change.route.map(|route| Route {
                    path: self.paths.shared(route.path),
                    aggregator: route.aggregator,
                });
                self.tap.push(TapRecord {
                    vantage: r.asn(),
                    time: now,
                    prefix: change.prefix,
                    route,
                });
            }
        }
    }

    /// Jittered delivery time on `link` that preserves the link's FIFO
    /// order for this prefix.
    fn delivery_time(&mut self, fabric: &Fabric, link: usize, now: SimTime) -> SimTime {
        let config = &fabric.config;
        let base = fabric.links.delay[link];
        let jitter = 1.0 + config.jitter * self.rng.uniform();
        let (proc_lo, proc_hi) = config.processing_delay;
        let processing = if proc_hi > proc_lo {
            proc_lo
                + SimDuration::from_millis(self.rng.below((proc_hi - proc_lo).as_millis().max(1)))
        } else {
            proc_lo
        };
        let mut t = now + base.mul_f64(jitter) + processing;
        let horizon = &mut self.horizon[link];
        if t < *horizon {
            t = *horizon;
        }
        *horizon = t;
        t
    }
}
