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
use std::collections::HashSet;

use crate::clock::SimTime;

/// Opaque handle identifying a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

struct Entry<E> {
    time: SimTime,
    key: u64,
    seq: u64,
    id: EventId,
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
/// let a = q.schedule(SimTime::from_secs(1), "a");
/// let _b = q.schedule(SimTime::from_secs(1), "b");
/// q.cancel(a);
/// assert_eq!(q.len(), 1);
/// assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Ids currently in the heap that have *not* been cancelled.
    pending: HashSet<EventId>,
    /// Ids currently in the heap whose entries were cancelled and await
    /// physical removal (lazily on pop/peek, eagerly by compaction).
    cancelled: HashSet<EventId>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: HashSet::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `time` and returns a cancellation
    /// handle. Events at equal times fire in scheduling order.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        self.schedule_keyed(time, 0, payload)
    }

    /// Schedules `payload` to fire at `time` with an explicit tie-break
    /// `key`: events pop in `(time, key, scheduling order)` order. Plain
    /// [`EventQueue::schedule`] uses key 0, so keyed and unkeyed events
    /// interleave deterministically.
    pub fn schedule_keyed(&mut self, time: SimTime, key: u64, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let id = EventId(seq);
        self.heap.push(Entry {
            time,
            key,
            seq,
            id,
            payload,
        });
        self.pending.insert(id);
        id
    }

    /// Cancels a previously scheduled event. Cancelling an event that already
    /// fired, was already cancelled, or was never scheduled is a no-op — it
    /// cannot corrupt [`EventQueue::len`] or retain memory.
    pub fn cancel(&mut self, id: EventId) {
        if self.pending.remove(&id) {
            self.cancelled.insert(id);
            self.maybe_compact();
        }
    }

    /// Rebuilds the heap without cancelled entries once they outnumber the
    /// live ones, so a cancel-heavy workload cannot retain dead payloads
    /// until they happen to reach the top.
    fn maybe_compact(&mut self) {
        if self.cancelled.len() <= self.pending.len() || self.cancelled.len() < 64 {
            return;
        }
        let cancelled = std::mem::take(&mut self.cancelled);
        let entries = std::mem::take(&mut self.heap);
        self.heap = entries
            .into_iter()
            .filter(|e| !cancelled.contains(&e.id))
            .collect();
    }

    /// Removes and returns the earliest pending event, skipping cancelled
    /// ones. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.id) {
                continue;
            }
            self.pending.remove(&entry.id);
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// The firing time of the next live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drain cancelled entries off the top so the peek is accurate.
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.id) {
                let entry = self.heap.pop().expect("peeked entry exists");
                self.cancelled.remove(&entry.id);
                continue;
            }
            return Some(entry.time);
        }
        None
    }

    /// Drops every pending event (live and cancelled) in one pass, leaving
    /// the queue empty but reusable: the sequence counter keeps advancing,
    /// so events scheduled after a clear still order after everything that
    /// came before. Cheaper than popping a long schedule dry — no per-event
    /// heap sift or cancellation lookup.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.pending.clear();
        self.cancelled.clear();
    }

    /// Number of live (non-cancelled) events still pending.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
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
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        q.cancel(a);
        // A stale cancel must not poison the live-event accounting.
        assert_eq!(q.len(), 0);
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.is_empty());
    }

    #[test]
    fn double_cancel_and_unknown_cancel_keep_len_exact() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), 1u32);
        let b = q.schedule(SimTime::from_secs(2), 2u32);
        q.cancel(a);
        q.cancel(a); // double cancel: no-op
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        q.cancel(b); // cancel after fire: no-op
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
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
    fn mass_cancellation_compacts_and_drains_clean() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..500u64)
            .map(|i| q.schedule(SimTime::from_millis(i), i))
            .collect();
        // Cancel everything but a handful scattered through the schedule.
        for (i, id) in ids.iter().enumerate() {
            if i % 100 != 7 {
                q.cancel(*id);
            }
        }
        assert_eq!(q.len(), 5);
        let survivors: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(survivors, vec![7, 107, 207, 307, 407]);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn clear_empties_but_preserves_seq_ordering() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        // The queue stays usable and a stale pre-clear cancel is harmless.
        q.schedule(SimTime::from_secs(3), "d");
        let c = q.schedule(SimTime::from_secs(3), "c");
        q.cancel(a);
        q.cancel(c);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("d"));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10)
            .map(|i| q.schedule(SimTime::from_secs(i), i))
            .collect();
        for id in ids.iter().take(4) {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 6);
        assert!(!q.is_empty());
    }
}
