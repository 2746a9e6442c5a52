//! The event queue at the heart of the simulator.
//!
//! [`EventQueue`] is a priority queue ordered by event timestamp with a
//! strictly FIFO tie-break: two events scheduled for the same instant pop in
//! the order they were pushed. This makes simulations deterministic, which
//! matters here — the paper's analysis pipeline (signature detection,
//! Burst–Break pairing) is sensitive to update interleavings, and we want
//! every experiment to be reproducible from its seed alone.
//!
//! The queue is generic over the event payload. The BGP simulator uses it
//! with a message-delivery/timer enum; unit tests use plain integers.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event plus its scheduled execution time and a FIFO sequence number.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotone insertion index; breaks ties between same-time events.
    pub seq: u64,
    /// The payload delivered to the simulation when the event fires.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    // Reversed: BinaryHeap is a max-heap, we want earliest-time first, and
    // among equal times the smallest sequence number first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event queue with a simulation clock.
///
/// The clock only moves forward: popping an event advances `now` to the
/// event's timestamp. Scheduling an event in the past is a logic error and
/// panics in debug builds; in release builds the event is clamped to `now`
/// so a long-running experiment degrades rather than corrupts.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    now: SimTime,
    next_seq: u64,
    popped: u64,
    depth_hwm: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
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
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, event });
        if self.heap.len() > self.depth_hwm {
            self.depth_hwm = self.heap.len();
        }
    }

    /// Schedule `event` to fire `delay` after the current clock.
    pub fn schedule_after(&mut self, delay: crate::time::SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.time;
        self.popped += 1;
        Some((s.time, s.event))
    }

    /// Pop the next event only if it fires at or before `deadline`.
    ///
    /// Lets a driver interleave event processing with periodic bookkeeping
    /// (e.g. collector dump rotation) without draining the whole queue.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Drop every pending event, keeping the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
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
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), 0u32);
        q.pop();
        q.schedule_after(SimDuration::from_secs(5), 1u32);
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
}
