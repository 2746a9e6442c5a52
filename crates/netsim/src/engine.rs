//! The event queue at the heart of the simulator.
//!
//! [`EventQueue`] pops events in timestamp order with a strictly FIFO
//! tie-break: two events scheduled for the same instant pop in the order
//! they were pushed. This makes simulations deterministic, which matters
//! here — the paper's analysis pipeline (signature detection, Burst–Break
//! pairing) is sensitive to update interleavings, and we want every
//! experiment to be reproducible from its seed alone.
//!
//! The queue is generic over the event payload. The BGP simulator uses it
//! with a message-delivery/timer enum; unit tests use plain integers.
//!
//! # Layout: a calendar queue
//!
//! The queue is a calendar queue (Brown, CACM 1988) with one bucket per
//! millisecond. The *ring* covers the window `[now, now + WINDOW)`: bucket
//! `t % WINDOW` holds the pending events of time `t`, in FIFO order. A
//! two-level bitmap finds the next non-empty bucket and the payloads live
//! in a slab with a free list, so scheduling or popping an event inside
//! the window costs O(1). Events at or after `now + WINDOW` — MRAI and
//! RFD timers, session resets and future beacon originations — wait in a
//! binary heap ordered by (time, insertion sequence number).
//!
//! `WINDOW` is 2^14 ms (16.4 s). Under `NetworkConfig::realistic` a
//! lane's deliveries land 0.5–8 s ahead plus the jittered link delay, so
//! they go straight to their bucket; only the 30 s MRAI gate and the
//! longer timers pass through the heap, which then holds a few dozen
//! events instead of every pending one. A power of two makes the bucket
//! index a mask.
//!
//! **Why the order is exact.** Every heap event is at or after
//! `now + WINDOW` and every ring event before it. Each pop moves the
//! clock and then, before anything else can be scheduled, moves the heap
//! events the window now covers into their buckets in (time, seq) order.
//! An event that reaches bucket `t` through the heap was therefore
//! scheduled before any event pushed onto that bucket directly, and the
//! buckets stay FIFO. The heap's own sequence numbers break its ties.
//!
//! **Memory.** The ring (64 KiB of bucket tails plus the bitmap) and its
//! slab exist only during a run of pops: the first pop allocates them,
//! and a [`EventQueue::pop`] or [`EventQueue::pop_until`] that returns
//! `None` moves whatever the window still holds back into the heap and
//! frees them. Between runs every pending event waits in the heap. A
//! simulation lane pops until `None` and the lanes of one thread run one
//! after another, so at most one ring per running thread is alive.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::SimTime;

/// Width of the ring: one bucket per millisecond, 2^14 ms ≈ 16.4 s.
const WINDOW: u64 = 1 << 14;
const BUCKETS: usize = WINDOW as usize;
/// Words of the bucket bitmap, and of its summary (one bit per word).
const WORDS: usize = BUCKETS / 64;
const SUMMARY_WORDS: usize = WORDS / 64;
/// The end of the slab's free list.
const NIL: u32 = u32::MAX;

/// A discrete-event queue with a simulation clock.
///
/// The clock only moves forward: popping an event advances `now` to the
/// event's timestamp. Scheduling an event in the past is a logic error and
/// panics in debug builds; in release builds the event is clamped to `now`
/// so a long-running experiment degrades rather than corrupts.
pub struct EventQueue<E> {
    /// The events in `[now, now + WINDOW)`, during a run of pops.
    ring: Option<Box<Ring<E>>>,
    /// Every other pending event.
    far: BinaryHeap<Far<E>>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
    depth_hwm: usize,
}

/// An event waiting in the heap.
struct Far<E> {
    time: SimTime,
    /// Monotone insertion index; breaks ties between same-time events.
    seq: u64,
    event: E,
}

impl<E> PartialEq for Far<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<E> Eq for Far<E> {}

impl<E> PartialOrd for Far<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Far<E> {
    // Reversed: BinaryHeap is a max-heap and the earliest (time, seq)
    // must come out first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The window's buckets. Each non-empty bucket is a cycle of slab
/// entries: its tail's `next` is its head.
struct Ring<E> {
    /// Per bucket: the slab index of its last entry (stale when empty).
    tails: Vec<u32>,
    /// Bit `b` is set iff bucket `b` is non-empty.
    occupied: [u64; WORDS],
    /// Bit `w` is set iff `occupied[w]` is non-zero.
    summary: [u64; SUMMARY_WORDS],
    slab: Vec<Entry<E>>,
    /// Head of the list of free slab entries, chained through `next`.
    free: u32,
    len: usize,
}

struct Entry<E> {
    /// The next entry of its bucket's cycle, or of the free list.
    next: u32,
    /// `None` while the entry is free.
    event: Option<E>,
}

impl<E> Ring<E> {
    fn new() -> Box<Self> {
        Box::new(Ring {
            tails: vec![0; BUCKETS],
            occupied: [0; WORDS],
            summary: [0; SUMMARY_WORDS],
            slab: Vec::new(),
            free: NIL,
            len: 0,
        })
    }

    /// Append `event` to bucket `b`.
    fn push(&mut self, b: usize, event: E) {
        let i = if self.free == NIL {
            self.slab.push(Entry {
                next: NIL,
                event: Some(event),
            });
            (self.slab.len() - 1) as u32
        } else {
            let i = self.free;
            let entry = &mut self.slab[i as usize];
            self.free = entry.next;
            entry.event = Some(event);
            i
        };
        let (w, bit) = (b / 64, 1u64 << (b % 64));
        if self.occupied[w] & bit == 0 {
            self.occupied[w] |= bit;
            self.summary[w / 64] |= 1 << (w % 64);
            self.slab[i as usize].next = i;
        } else {
            let tail = self.tails[b] as usize;
            self.slab[i as usize].next = self.slab[tail].next;
            self.slab[tail].next = i;
        }
        self.tails[b] = i;
        self.len += 1;
    }

    /// Remove the first event of the non-empty bucket `b`.
    fn pop(&mut self, b: usize) -> E {
        let tail = self.tails[b] as usize;
        let head = self.slab[tail].next;
        if head as usize == tail {
            let w = b / 64;
            self.occupied[w] &= !(1 << (b % 64));
            if self.occupied[w] == 0 {
                self.summary[w / 64] &= !(1 << (w % 64));
            }
        } else {
            self.slab[tail].next = self.slab[head as usize].next;
        }
        let entry = &mut self.slab[head as usize];
        entry.next = self.free;
        self.free = head;
        self.len -= 1;
        entry
            .event
            .take()
            .expect("a bucket holds only live entries")
    }

    /// The first non-empty bucket at or after `from`, wrapping around.
    /// The ring must not be empty.
    fn next_bucket(&self, from: usize) -> usize {
        self.scan(from)
            .or_else(|| self.scan(0))
            .expect("a non-empty ring has an occupied bucket")
    }

    /// The first non-empty bucket at or after `from`, without wrapping.
    fn scan(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let here = self.occupied[w] & (!0u64 << (from % 64));
        if here != 0 {
            return Some(w * 64 + here.trailing_zeros() as usize);
        }
        let w = first_set(&self.summary, w + 1)?;
        Some(w * 64 + self.occupied[w].trailing_zeros() as usize)
    }
}

/// The first set bit at or after bit `from` of `words`.
fn first_set(words: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut bits = words.get(w)? & (!0u64 << (from % 64));
    while bits == 0 {
        w += 1;
        bits = *words.get(w)?;
    }
    Some(w * 64 + bits.trailing_zeros() as usize)
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("len", &self.len())
            .field("processed", &self.popped)
            .field("depth_high_water", &self.depth_hwm)
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            ring: None,
            far: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
            depth_hwm: 0,
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.far.len() + self.ring.as_ref().map_or(0, |ring| ring.len)
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events processed so far (a throughput metric).
    pub fn processed(&self) -> u64 {
        self.popped
    }

    /// The deepest the queue has ever been (a memory-pressure metric).
    pub fn depth_high_water(&self) -> usize {
        self.depth_hwm
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// Panics in debug builds if `at` is before the current clock; clamps to
    /// `now` in release builds.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at} now={}",
            self.now
        );
        let time = at.max(self.now);
        match &mut self.ring {
            Some(ring) if time.as_millis() < window_end(self.now) => {
                ring.push(bucket(time), event);
            }
            _ => self.push_far(time, event),
        }
        self.depth_hwm = self.depth_hwm.max(self.len());
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next().map(|(time, _)| time)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::MAX)
    }

    /// Pop the next event only if it fires at or before `deadline`.
    ///
    /// Lets a driver interleave event processing with periodic bookkeeping
    /// (e.g. collector dump rotation) without draining the whole queue.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.next() {
            Some((time, b)) if time <= deadline => Some((time, self.take(time, b))),
            _ => {
                self.park();
                None
            }
        }
    }

    /// Drop every pending event, keeping the clock where it is.
    pub fn clear(&mut self) {
        self.ring = None;
        self.far.clear();
    }

    fn push_far(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.far.push(Far { time, seq, event });
    }

    /// The next event's time, and its bucket if it is in the ring.
    fn next(&self) -> Option<(SimTime, Option<usize>)> {
        match &self.ring {
            Some(ring) if ring.len > 0 => {
                let b = ring.next_bucket(bucket(self.now));
                Some((self.bucket_time(b), Some(b)))
            }
            _ => self.far.peek().map(|far| (far.time, None)),
        }
    }

    /// The time of ring bucket `b`: the window starts at `now`.
    fn bucket_time(&self, b: usize) -> SimTime {
        let ahead = (b as u64).wrapping_sub(bucket(self.now) as u64) % WINDOW;
        SimTime::from_millis(self.now.as_millis() + ahead)
    }

    /// Remove the next event, found by [`EventQueue::next`] at `time` in
    /// bucket `b` (or the heap), and advance the clock to it.
    fn take(&mut self, time: SimTime, b: Option<usize>) -> E {
        let ring = self.ring.get_or_insert_with(Ring::new);
        let event = match b {
            Some(b) => ring.pop(b),
            None => self.far.pop().expect("the next event is in the heap").event,
        };
        self.now = time;
        self.popped += 1;
        // The window moved: bring in the heap events it now covers.
        let end = window_end(time);
        while self
            .far
            .peek()
            .is_some_and(|far| far.time.as_millis() < end)
        {
            let far = self.far.pop().expect("peeked");
            ring.push(bucket(far.time), far.event);
        }
        event
    }

    /// End a run of pops: move the window's events back into the heap,
    /// in (time, FIFO) order under fresh sequence numbers, and free the
    /// ring. Every heap event is later than every ring event, so the
    /// fresh numbers keep the order exact.
    fn park(&mut self) {
        let Some(mut ring) = self.ring.take() else {
            return;
        };
        while ring.len > 0 {
            let b = ring.next_bucket(bucket(self.now));
            let time = self.bucket_time(b);
            let event = ring.pop(b);
            self.push_far(time, event);
        }
    }
}

/// The ring bucket of `time`.
fn bucket(time: SimTime) -> usize {
    (time.as_millis() % WINDOW) as usize
}

/// The first millisecond past the window that starts at `now`.
fn window_end(now: SimTime) -> u64 {
    now.as_millis().saturating_add(WINDOW)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn peek_time_after_a_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), 0u32);
        q.pop();
        q.schedule_at(q.now() + SimDuration::from_secs(5), 1u32);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(15)));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), "early");
        q.schedule_at(SimTime::from_secs(10), "late");
        assert_eq!(
            q.pop_until(SimTime::from_secs(5)).map(|(_, e)| e),
            Some("early")
        );
        assert_eq!(q.pop_until(SimTime::from_secs(5)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn processed_counts_pops() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule_at(SimTime::from_secs(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.processed(), 10);
    }

    #[test]
    fn clear_keeps_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(9), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn past_events_clamp_in_release() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn clamped_event_pops_after_same_time_events() {
        // A past event clamps to `now`, which can collide with events
        // legitimately scheduled for `now` *before* the clamp happened.
        // The FIFO tie-break must still apply: the clamped event pops
        // last, not in timestamp-of-origin order.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "advance");
        q.pop();
        q.schedule_at(SimTime::from_secs(10), "first");
        q.schedule_at(SimTime::from_secs(10), "second");
        q.schedule_at(SimTime::from_secs(1), "clamped");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["first", "second", "clamped"]);
        assert_eq!(q.now(), SimTime::from_secs(10));
    }

    #[test]
    fn depth_high_water_tracks_peak_not_current() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule_at(SimTime::from_secs(i + 1), i);
        }
        assert_eq!(q.depth_high_water(), 5);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 3);
        assert_eq!(q.depth_high_water(), 5, "high water must not recede");
        assert_eq!(q.processed(), 2);
    }

    #[test]
    fn a_drained_queue_holds_no_ring() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule_at(SimTime::from_millis(i * 7), i);
        }
        assert!(q.ring.is_none(), "scheduling alone allocates no ring");
        q.pop();
        assert!(q.ring.is_some(), "the first pop allocates the ring");
        while q.pop().is_some() {}
        assert!(q.ring.is_none(), "a drained queue frees its ring");
    }

    #[test]
    fn pop_until_parks_the_window_in_order() {
        // Stopping early moves the window's events back into the heap;
        // same-time events scheduled afterwards must still pop after them.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        q.schedule_at(SimTime::from_secs(1), "advance");
        q.schedule_at(t, "a");
        q.schedule_at(t, "b");
        assert_eq!(
            q.pop_until(SimTime::from_secs(1)).map(|(_, e)| e),
            Some("advance")
        );
        assert_eq!(q.pop_until(SimTime::from_secs(1)), None);
        assert!(q.ring.is_none(), "a run that stops frees its ring");
        q.schedule_at(t, "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn far_events_join_their_bucket_before_later_ones() {
        // "far" is scheduled beyond the window, "near" at the same time
        // once the window has moved over it: FIFO needs "far" first.
        let mut q = EventQueue::new();
        let at = SimTime::from_millis(WINDOW + 5);
        q.schedule_at(SimTime::ZERO, "start");
        q.pop();
        q.schedule_at(at, "far");
        q.schedule_at(SimTime::from_millis(10), "step");
        assert_eq!(q.pop().map(|(_, e)| e), Some("step"));
        q.schedule_at(at, "near");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(at, "far"), (at, "near")]);
    }

    #[test]
    fn hour_long_gaps_keep_time_order() {
        let mut q = EventQueue::new();
        let times = [
            3_600_000u64,
            0,
            7_200_000,
            7_200_001,
            16_383,
            16_384,
            7_200_000,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_millis(t), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(t, i)| (t.as_millis(), i))
            .collect();
        assert_eq!(
            order,
            vec![
                (0, 1),
                (16_383, 4),
                (16_384, 5),
                (3_600_000, 0),
                (7_200_000, 2),
                (7_200_000, 6),
                (7_200_001, 3)
            ]
        );
    }
}
