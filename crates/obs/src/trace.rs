//! Structured event tracing: a bounded, lossy ring buffer of typed
//! events with a Chrome trace-event exporter.
//!
//! Aggregate metrics ([`crate::Histogram`], [`crate::RunReport`]) answer
//! *how much*; a trace answers *when*. [`TraceBuffer`] records typed
//! [`TraceEvent`]s — span begin/end, instants, counter samples — each
//! stamped with either wall-clock time or simulated time and tagged with
//! a [`Lane`] (chain index, (session, prefix) pair, …). The buffer is a
//! fixed-capacity ring: when full, the *oldest* event is overwritten and
//! [`TraceBuffer::dropped`] incremented, so tracing a long run costs
//! bounded memory and the loss is explicit, never silent.
//!
//! [`TraceBuffer::to_chrome_json`] renders the buffer as a Chrome
//! trace-event JSON object (a `traceEvents` array) that loads directly
//! in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. Lanes
//! map to threads (`tid`); sim-time and wall-time events live under two
//! separate synthetic processes so their incomparable clocks never share
//! an axis.
//!
//! ## Cost contract
//!
//! A disabled trace is an `Option::None` sink: exactly one branch per
//! instrumentation site and nothing else. An enabled record is a bounds
//! check plus a 5-word struct store — no allocation, no locks, no
//! syscalls (wall stamps use the buffer's pre-captured [`Instant`]
//! epoch). Event names are `&'static str` by design; anything dynamic
//! (lane labels) is registered off the hot path via
//! [`TraceBuffer::set_lane_name`].

use std::io;
use std::path::Path;
use std::time::Instant;

use crate::json::{json_f64, json_string};
use crate::report::Section;

/// A trace lane: the `tid` axis of the exported trace. Encode whatever
/// identifies the timeline — a chain index, a (router, peer) pair — and
/// give it a human name with [`TraceBuffer::set_lane_name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lane(pub u64);

impl Lane {
    /// The default lane for per-run events.
    pub const MAIN: Lane = Lane(0);

    /// A lane from two 32-bit parts (e.g. `(session peer, prefix id)` or
    /// `(router, peer)`): `hi` in the upper word, `lo` in the lower.
    pub const fn pair(hi: u32, lo: u32) -> Lane {
        Lane(((hi as u64) << 32) | lo as u64)
    }
}

/// Which clock stamped an event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceTime {
    /// Wall-clock seconds since the buffer's epoch.
    Wall(f64),
    /// Simulated milliseconds (`SimTime::as_millis`).
    Sim(u64),
}

/// The event type, mirroring the Chrome trace-event phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A span opens on this lane (`ph: "B"`).
    Begin,
    /// The innermost open span on this lane closes (`ph: "E"`).
    End,
    /// A point event (`ph: "i"`).
    Instant,
    /// A sampled counter value (`ph: "C"`); the sample is in
    /// [`TraceEvent::value`].
    Counter,
}

/// One recorded event. `value` carries the counter sample or a numeric
/// argument for begin/instant events; `NaN` means "no value" and is
/// omitted from the export.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Event name (the Chrome `name`); static by design so recording
    /// never allocates.
    pub name: &'static str,
    /// Span/instant/counter.
    pub kind: TraceKind,
    /// Wall or sim timestamp.
    pub time: TraceTime,
    /// Timeline this event belongs to.
    pub lane: Lane,
    /// Counter sample or numeric argument; `NaN` = absent.
    pub value: f64,
}

/// A bounded, lossy ring buffer of [`TraceEvent`]s.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    /// Next write slot once the ring has wrapped.
    next: usize,
    cap: usize,
    dropped: u64,
    lane_names: Vec<(Lane, String)>,
    epoch: Instant,
}

impl TraceBuffer {
    /// A buffer holding at most `cap` events (`cap >= 1`), with the
    /// wall-clock epoch captured now.
    pub fn new(cap: usize) -> TraceBuffer {
        TraceBuffer::with_epoch(cap, Instant::now())
    }

    /// A buffer sharing an existing epoch — use when several buffers
    /// (one per thread) are merged later and their wall stamps must be
    /// mutually comparable.
    pub fn with_epoch(cap: usize, epoch: Instant) -> TraceBuffer {
        assert!(cap >= 1, "trace buffer needs capacity");
        TraceBuffer {
            events: Vec::with_capacity(cap.min(1024)),
            next: 0,
            cap,
            dropped: 0,
            lane_names: Vec::new(),
            epoch,
        }
    }

    /// The wall-clock epoch wall stamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Maximum events held before the ring starts dropping.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events overwritten because the ring was full. Surfaced in run
    /// reports via [`TraceBuffer::export_into`]; a non-zero value means
    /// the exported trace is a *suffix* of the run.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Record one event. When the ring is full the oldest event is
    /// overwritten (the trace keeps the most recent window).
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Seconds since the epoch, for a wall stamp taken now.
    #[inline]
    fn wall_now(&self) -> TraceTime {
        TraceTime::Wall(self.epoch.elapsed().as_secs_f64())
    }

    /// Open a span on `lane` at sim time `sim_ms` (milliseconds).
    #[inline]
    pub fn begin_sim(&mut self, name: &'static str, lane: Lane, sim_ms: u64) {
        self.push(TraceEvent {
            name,
            kind: TraceKind::Begin,
            time: TraceTime::Sim(sim_ms),
            lane,
            value: f64::NAN,
        });
    }

    /// Close the innermost span on `lane` at sim time `sim_ms`.
    #[inline]
    pub fn end_sim(&mut self, name: &'static str, lane: Lane, sim_ms: u64) {
        self.push(TraceEvent {
            name,
            kind: TraceKind::End,
            time: TraceTime::Sim(sim_ms),
            lane,
            value: f64::NAN,
        });
    }

    /// A point event on `lane` at sim time `sim_ms`.
    #[inline]
    pub fn instant_sim(&mut self, name: &'static str, lane: Lane, sim_ms: u64) {
        self.push(TraceEvent {
            name,
            kind: TraceKind::Instant,
            time: TraceTime::Sim(sim_ms),
            lane,
            value: f64::NAN,
        });
    }

    /// A counter sample on `lane` at sim time `sim_ms`.
    #[inline]
    pub fn counter_sim(&mut self, name: &'static str, lane: Lane, sim_ms: u64, value: f64) {
        self.push(TraceEvent {
            name,
            kind: TraceKind::Counter,
            time: TraceTime::Sim(sim_ms),
            lane,
            value,
        });
    }

    /// Open a span on `lane` stamped with the wall clock.
    #[inline]
    pub fn begin_wall(&mut self, name: &'static str, lane: Lane) {
        let time = self.wall_now();
        self.push(TraceEvent {
            name,
            kind: TraceKind::Begin,
            time,
            lane,
            value: f64::NAN,
        });
    }

    /// Close the innermost span on `lane`, wall-stamped.
    #[inline]
    pub fn end_wall(&mut self, name: &'static str, lane: Lane) {
        let time = self.wall_now();
        self.push(TraceEvent {
            name,
            kind: TraceKind::End,
            time,
            lane,
            value: f64::NAN,
        });
    }

    /// A wall-stamped counter sample on `lane`.
    #[inline]
    pub fn counter_wall(&mut self, name: &'static str, lane: Lane, value: f64) {
        let time = self.wall_now();
        self.push(TraceEvent {
            name,
            kind: TraceKind::Counter,
            time,
            lane,
            value,
        });
    }

    /// Give `lane` a human-readable name (the Perfetto track label).
    /// Idempotent; call off the hot path (e.g. once per new session).
    pub fn set_lane_name(&mut self, lane: Lane, name: &str) {
        if let Some(entry) = self.lane_names.iter_mut().find(|(l, _)| *l == lane) {
            if entry.1 != name {
                entry.1 = name.to_string();
            }
            return;
        }
        self.lane_names.push((lane, name.to_string()));
    }

    /// The registered name of `lane`, if any.
    pub fn lane_name(&self, lane: Lane) -> Option<&str> {
        self.lane_names
            .iter()
            .find(|(l, _)| *l == lane)
            .map(|(_, n)| n.as_str())
    }

    /// Events in insertion order (oldest surviving event first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, tail) = self.events.split_at(self.next.min(self.events.len()));
        tail.iter().chain(wrapped.iter())
    }

    /// Absorb another buffer's events, lane names, and drop count. Events
    /// pushed past this buffer's capacity drop the oldest as usual.
    pub fn merge(&mut self, other: TraceBuffer) {
        self.dropped += other.dropped;
        let events: Vec<TraceEvent> = other.events().copied().collect();
        for ev in events {
            self.push(ev);
        }
        for (lane, name) in other.lane_names {
            if self.lane_name(lane).is_none() {
                self.lane_names.push((lane, name));
            }
        }
    }

    /// Snapshot the buffer's bookkeeping into a report section
    /// (`events_recorded`, `events_dropped`, `capacity`).
    pub fn export_into(&self, section: &mut Section) {
        section
            .counter("events_recorded", self.events.len() as u64 + self.dropped)
            .counter("events_dropped", self.dropped)
            .counter("capacity", self.cap as u64);
    }

    /// Render as a Chrome trace-event JSON object — a `traceEvents`
    /// array plus `displayTimeUnit` — loadable in Perfetto or
    /// `chrome://tracing`. Sim-stamped events appear under the synthetic
    /// process `pid 1` ("sim-time", µs = sim ms × 1000 so Perfetto's
    /// millisecond ruler reads in sim seconds); wall-stamped events under
    /// `pid 2` ("wall-clock").
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let emit_meta = |out: &mut String,
                         first: &mut bool,
                         pid: u32,
                         tid: Option<Lane>,
                         kind: &str,
                         name: &str| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str("{\"name\":");
            json_string(out, kind);
            out.push_str(",\"ph\":\"M\",\"pid\":");
            out.push_str(&pid.to_string());
            if let Some(lane) = tid {
                out.push_str(",\"tid\":");
                out.push_str(&lane.0.to_string());
            }
            out.push_str(",\"args\":{\"name\":");
            json_string(out, name);
            out.push_str("}}");
        };

        let has_sim = self
            .events
            .iter()
            .any(|e| matches!(e.time, TraceTime::Sim(_)));
        let has_wall = self
            .events
            .iter()
            .any(|e| matches!(e.time, TraceTime::Wall(_)));
        if has_sim {
            emit_meta(&mut out, &mut first, 1, None, "process_name", "sim-time");
        }
        if has_wall {
            emit_meta(&mut out, &mut first, 2, None, "process_name", "wall-clock");
        }
        for (lane, name) in &self.lane_names {
            // A named lane may carry either clock; emit the label under
            // whichever process(es) actually have events on that lane.
            for (pid, is_sim) in [(1u32, true), (2u32, false)] {
                let used = self
                    .events
                    .iter()
                    .any(|e| e.lane == *lane && matches!(e.time, TraceTime::Sim(_)) == is_sim);
                if used {
                    emit_meta(&mut out, &mut first, pid, Some(*lane), "thread_name", name);
                }
            }
        }

        for ev in self.events() {
            if !first {
                out.push(',');
            }
            first = false;
            let (pid, ts_us) = match ev.time {
                TraceTime::Sim(ms) => (1u32, ms as f64 * 1000.0),
                TraceTime::Wall(secs) => (2u32, secs * 1e6),
            };
            out.push_str("{\"name\":");
            json_string(&mut out, ev.name);
            out.push_str(",\"ph\":\"");
            out.push_str(match ev.kind {
                TraceKind::Begin => "B",
                TraceKind::End => "E",
                TraceKind::Instant => "i",
                TraceKind::Counter => "C",
            });
            out.push_str("\",\"pid\":");
            out.push_str(&pid.to_string());
            out.push_str(",\"tid\":");
            out.push_str(&ev.lane.0.to_string());
            out.push_str(",\"ts\":");
            json_f64(&mut out, ts_us);
            if ev.kind == TraceKind::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            if ev.kind == TraceKind::Counter || ev.value.is_finite() {
                out.push_str(",\"args\":{\"value\":");
                json_f64(&mut out, ev.value);
                out.push_str("}}");
            } else {
                out.push('}');
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Write the Chrome-trace JSON to `path` atomically (with a trailing
    /// newline), via [`crate::write_atomic`].
    pub fn write_chrome_json(&self, path: &Path) -> io::Result<()> {
        let mut json = self.to_chrome_json();
        json.push('\n');
        crate::write_atomic(path, json.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_instants(buf: &mut TraceBuffer, n: u64) {
        for i in 0..n {
            buf.instant_sim("ev", Lane::MAIN, i);
        }
    }

    #[test]
    fn records_in_order_below_capacity() {
        let mut buf = TraceBuffer::new(8);
        buf.begin_sim("span", Lane(3), 100);
        buf.counter_sim("penalty", Lane(3), 150, 2000.0);
        buf.end_sim("span", Lane(3), 200);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 0);
        let kinds: Vec<TraceKind> = buf.events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![TraceKind::Begin, TraceKind::Counter, TraceKind::End]
        );
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut buf = TraceBuffer::new(4);
        sim_instants(&mut buf, 10);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped(), 6);
        // The surviving window is the most recent events, oldest first.
        let ts: Vec<u64> = buf
            .events()
            .map(|e| match e.time {
                TraceTime::Sim(ms) => ms,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn lane_pair_packs_and_names_register_idempotently() {
        let lane = Lane::pair(30, 7);
        assert_eq!(lane.0, (30u64 << 32) | 7);
        let mut buf = TraceBuffer::new(4);
        buf.set_lane_name(lane, "rfd 30<-20 10.0.7.0/24");
        buf.set_lane_name(lane, "rfd 30<-20 10.0.7.0/24");
        assert_eq!(buf.lane_name(lane), Some("rfd 30<-20 10.0.7.0/24"));
        assert_eq!(buf.lane_names.len(), 1);
    }

    #[test]
    fn chrome_export_is_structurally_sound() {
        let mut buf = TraceBuffer::new(16);
        let lane = Lane::pair(30, 0);
        buf.set_lane_name(lane, "session 30<-20");
        buf.begin_sim("rfd_suppressed", lane, 240_000);
        buf.counter_sim("penalty", lane, 240_000, 2_100.5);
        buf.instant_sim("mrai_deferral", lane, 241_000);
        buf.end_sim("rfd_suppressed", lane, 3_840_000);
        buf.counter_wall("accept_rate", Lane(1), 0.23);
        let json = buf.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        // Both clock processes present, lane named under the sim process.
        assert!(json.contains("\"args\":{\"name\":\"sim-time\"}"));
        assert!(json.contains("\"args\":{\"name\":\"wall-clock\"}"));
        assert!(json.contains("\"args\":{\"name\":\"session 30<-20\"}"));
        // Sim ms -> Chrome µs.
        assert!(json.contains("\"ph\":\"B\",\"pid\":1,\"tid\":128849018880,\"ts\":240000000"));
        assert!(json.contains("\"ph\":\"E\",\"pid\":1,\"tid\":128849018880,\"ts\":3840000000"));
        assert!(json.contains("\"ph\":\"C\"") && json.contains("{\"value\":2100.5}"));
        assert!(json.contains("\"ph\":\"i\"") && json.contains("\"s\":\"t\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_buffer_exports_valid_skeleton() {
        let buf = TraceBuffer::new(4);
        assert_eq!(
            buf.to_chrome_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn merge_combines_events_names_and_drops() {
        let epoch = Instant::now();
        let mut a = TraceBuffer::with_epoch(8, epoch);
        a.instant_sim("a", Lane(1), 5);
        let mut b = TraceBuffer::with_epoch(2, epoch);
        b.set_lane_name(Lane(2), "chain 1");
        sim_instants(&mut b, 5); // 3 dropped in b
        let b_dropped = b.dropped();
        assert_eq!(b_dropped, 3);
        a.merge(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.dropped(), b_dropped);
        assert_eq!(a.lane_name(Lane(2)), Some("chain 1"));
    }

    #[test]
    fn merge_lane_name_collision_keeps_self_name() {
        let epoch = Instant::now();
        let mut a = TraceBuffer::with_epoch(8, epoch);
        a.set_lane_name(Lane(1), "mine");
        a.set_lane_name(Lane(3), "only in a");
        let mut b = TraceBuffer::with_epoch(8, epoch);
        b.set_lane_name(Lane(1), "theirs");
        b.set_lane_name(Lane(2), "only in b");
        a.merge(b);
        // Colliding lane: the receiving buffer's name wins; non-colliding
        // names from both sides survive, and no duplicate entry appears.
        assert_eq!(a.lane_name(Lane(1)), Some("mine"));
        assert_eq!(a.lane_name(Lane(2)), Some("only in b"));
        assert_eq!(a.lane_name(Lane(3)), Some("only in a"));
        assert_eq!(
            a.lane_names.iter().filter(|(l, _)| *l == Lane(1)).count(),
            1
        );
    }

    #[test]
    fn merge_dropped_accounting_sums_all_sources() {
        let epoch = Instant::now();
        // Receiver has its own drops (cap 2, 4 pushes → 2 dropped)...
        let mut a = TraceBuffer::with_epoch(2, epoch);
        sim_instants(&mut a, 4);
        assert_eq!(a.dropped(), 2);
        // ...the donor arrives with drops of its own (cap 3, 5 pushes)...
        let mut b = TraceBuffer::with_epoch(3, epoch);
        sim_instants(&mut b, 5);
        assert_eq!(b.dropped(), 2);
        a.merge(b);
        // ...and replaying the donor's 3 surviving events into a full
        // cap-2 receiver evicts 3 more: 2 + 2 + 3.
        assert_eq!(a.dropped(), 7);
        assert_eq!(a.len(), 2);
        // The report counter sees pushes-ever = held + dropped.
        let mut section = Section::new("obs.trace");
        a.export_into(&mut section);
        assert_eq!(
            section.get("events_recorded"),
            Some(&crate::Value::Counter(9))
        );
        assert_eq!(
            section.get("events_dropped"),
            Some(&crate::Value::Counter(7))
        );
    }

    #[test]
    fn export_into_surfaces_drop_counter() {
        let mut buf = TraceBuffer::new(2);
        sim_instants(&mut buf, 5);
        let mut section = Section::new("obs.trace");
        buf.export_into(&mut section);
        assert_eq!(
            section.get("events_recorded"),
            Some(&crate::Value::Counter(5))
        );
        assert_eq!(
            section.get("events_dropped"),
            Some(&crate::Value::Counter(3))
        );
        assert_eq!(section.get("capacity"), Some(&crate::Value::Counter(2)));
    }

    #[test]
    fn wall_stamps_are_monotone_from_epoch() {
        let mut buf = TraceBuffer::new(4);
        buf.begin_wall("w", Lane::MAIN);
        buf.end_wall("w", Lane::MAIN);
        let ts: Vec<f64> = buf
            .events()
            .map(|e| match e.time {
                TraceTime::Wall(s) => s,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(ts[0] >= 0.0 && ts[1] >= ts[0]);
    }

    #[test]
    fn write_chrome_json_lands_on_disk_atomically() {
        let path = std::env::temp_dir().join(format!("obs_trace_test_{}.json", std::process::id()));
        let mut buf = TraceBuffer::new(4);
        buf.instant_sim("x", Lane::MAIN, 1);
        buf.write_chrome_json(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.ends_with("\"displayTimeUnit\":\"ms\"}\n"));
        let _ = std::fs::remove_file(&path);
    }
}
