//! Deterministic event queue.
//!
//! The queue is generic over the event payload so that higher layers (the
//! blockchain, the storage fabric, the UnifyFL experiment engine) define
//! their own event enums. Events scheduled for the same instant pop in FIFO
//! order, which makes whole-experiment runs bit-reproducible. A scheduler
//! that needs a *semantic* tie-break ahead of FIFO (e.g. "at equal times,
//! the lowest cluster index acts first") can attach an explicit key via
//! [`EventQueue::schedule_keyed`]; ordering is then `(time, key, seq)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::clock::SimTime;

struct Entry<E> {
    time: SimTime,
    key: u64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, key, seq)
        // pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue of timed events.
///
/// ```
/// use unifyfl_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "b");
/// q.schedule(SimTime::from_secs(1), "a");
/// q.schedule(SimTime::from_secs(2), "c");
/// assert_eq!(q.len(), 3);
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time`. Events at equal times fire in
    /// scheduling order.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        self.schedule_keyed(time, 0, payload)
    }

    /// Schedules `payload` to fire at `time` with an explicit tie-break
    /// `key`: events pop in `(time, key, scheduling order)` order. Plain
    /// [`EventQueue::schedule`] uses key 0, so keyed and unkeyed events
    /// interleave deterministically.
    pub fn schedule_keyed(&mut self, time: SimTime, key: u64, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time,
            key,
            seq,
            payload,
        });
    }

    /// Removes and returns the earliest event. Returns `None` when the
    /// queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|entry| (entry.time, entry.payload))
    }

    /// Drops every pending event in one pass, leaving the queue empty but
    /// reusable: the sequence counter keeps advancing, so events scheduled
    /// after a clear still order after everything that came before.
    /// Cheaper than popping a long schedule dry — no per-event heap sift.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Number of events still pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3u32);
        q.schedule(SimTime::from_secs(1), 1u32);
        q.schedule(SimTime::from_secs(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(SimTime::from_secs(7), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_events_break_time_ties_by_key_then_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        // Scheduled out of key order; equal keys keep FIFO.
        q.schedule_keyed(t, 2, "k2-first");
        q.schedule_keyed(t, 0, "k0");
        q.schedule_keyed(t, 2, "k2-second");
        q.schedule_keyed(t, 1, "k1");
        // An earlier time beats any key.
        q.schedule_keyed(SimTime::from_secs(1), 9, "early");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["early", "k0", "k1", "k2-first", "k2-second"]);
    }

    #[test]
    fn clear_empties_but_preserves_seq_ordering() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        // The queue stays usable, FIFO at equal times across the clear.
        q.schedule(SimTime::from_secs(3), "d");
        q.schedule(SimTime::from_secs(3), "c");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some("d"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
    }
}
