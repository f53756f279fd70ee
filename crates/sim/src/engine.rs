//! Deterministic discrete-event scheduling core.
//!
//! A calendar queue with total ordering: events fire in `(time, seq)`
//! order, where `seq` is the insertion sequence number — two events at the
//! same timestamp fire in the order they were scheduled, so simulation
//! runs are bit-for-bit reproducible.
//!
//! Payloads live *inline* in the heap entries (no side table), so a pop is
//! one heap operation with no hashing. Timer events that may need to be
//! withdrawn — offer expiry, backoff deadlines — are scheduled through
//! [`EventQueue::schedule_cancelable`], which returns an [`EventToken`];
//! cancellation is lazy (a tombstone set), so the hot non-cancelable path
//! pays nothing for the feature.

use std::collections::{BinaryHeap, HashSet};

/// The simulation core selector, kept as a one-variant enum only so
/// callers outside this workspace that still name
/// [`EngineKind::Event`] keep compiling. There is one core
/// ([`crate::event`]); nothing reads this value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The event-driven core, the only one.
    #[default]
    Event,
}

/// A pending event of type `E` at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// Fire time, ms since simulation epoch.
    pub at_ms: u64,
    /// Insertion order tiebreaker.
    pub seq: u64,
    /// Payload.
    pub event: E,
}

/// Handle to a cancelable event, returned by
/// [`EventQueue::schedule_cancelable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken {
    seq: u64,
}

/// One heap entry: payload inline, ordered by `(at_ms, seq)` ascending.
#[derive(Debug)]
struct Entry<E> {
    at_ms: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at_ms == other.at_ms && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    // reversed so the max-heap pops the earliest (time, seq) first
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at_ms.cmp(&self.at_ms).then(other.seq.cmp(&self.seq))
    }
}

/// Deterministic priority queue of events.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now_ms: u64,
    /// Tombstones for canceled-but-not-yet-popped entries.
    canceled: HashSet<u64>,
    /// Seqs of live cancelable entries (so a double-cancel reports false).
    cancelable: HashSet<u64>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now_ms: 0,
            canceled: HashSet::new(),
            cancelable: HashSet::new(),
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time: the fire time of the last popped event.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Number of pending (non-canceled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.canceled.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `event` at absolute time `at_ms`.
    ///
    /// # Panics
    /// Panics when scheduling into the past.
    pub fn schedule(&mut self, at_ms: u64, event: E) {
        assert!(
            at_ms >= self.now_ms,
            "cannot schedule into the past: {at_ms} < now {}",
            self.now_ms
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at_ms, seq, event });
    }

    /// Schedule `event` `delay_ms` after now.
    pub fn schedule_in(&mut self, delay_ms: u64, event: E) {
        self.schedule(self.now_ms + delay_ms, event);
    }

    /// Schedule a *cancelable* event (an expiry or backoff timer) at
    /// absolute time `at_ms`. The returned token withdraws or moves it via
    /// [`EventQueue::cancel`] / [`EventQueue::reschedule`].
    ///
    /// # Panics
    /// Panics when scheduling into the past.
    pub fn schedule_cancelable(&mut self, at_ms: u64, event: E) -> EventToken {
        let seq = self.next_seq;
        self.schedule(at_ms, event);
        self.cancelable.insert(seq);
        EventToken { seq }
    }

    /// Withdraw a pending cancelable event. Returns `true` if the event
    /// was still pending (it will now never fire), `false` if it already
    /// fired or was already canceled. Cancellation is lazy: the entry is
    /// tombstoned and skipped at pop time.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        if self.cancelable.remove(&token.seq) {
            self.canceled.insert(token.seq);
            true
        } else {
            false
        }
    }

    /// Move a pending cancelable event to a new fire time (cancel + fresh
    /// schedule of `event`). Returns the new token, or `None` if the old
    /// event had already fired or been canceled — the caller's `event` is
    /// then dropped and nothing is scheduled.
    pub fn reschedule(&mut self, token: EventToken, at_ms: u64, event: E) -> Option<EventToken> {
        if !self.cancel(token) {
            return None;
        }
        Some(self.schedule_cancelable(at_ms, event))
    }

    /// Pop the next event, advancing simulated time to its fire time.
    /// Canceled entries are discarded silently.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        loop {
            let entry = self.heap.pop()?;
            if !self.canceled.is_empty() && self.canceled.remove(&entry.seq) {
                continue;
            }
            if !self.cancelable.is_empty() {
                self.cancelable.remove(&entry.seq);
            }
            self.now_ms = entry.at_ms;
            return Some(Scheduled { at_ms: entry.at_ms, seq: entry.seq, event: entry.event });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5, 1);
        q.schedule(5, 2);
        q.schedule(5, 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        assert_eq!(q.now_ms(), 0);
        q.pop();
        assert_eq!(q.now_ms(), 100);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(50, "first");
        q.pop();
        q.schedule_in(25, "second");
        let s = q.pop().unwrap();
        assert_eq!(s.at_ms, 75);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn past_scheduling_rejected() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        q.pop();
        q.schedule(50, ());
    }

    #[test]
    fn empty_pop_is_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancel_withdraws_a_pending_timer() {
        let mut q = EventQueue::new();
        let t = q.schedule_cancelable(10, "expiry");
        q.schedule(20, "keep");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(t), "first cancel wins");
        assert!(!q.cancel(t), "second cancel is a no-op");
        assert_eq!(q.len(), 1);
        let s = q.pop().unwrap();
        assert_eq!((s.at_ms, s.event), (20, "keep"));
        assert!(q.pop().is_none(), "canceled event must never fire");
    }

    #[test]
    fn cancel_after_fire_reports_false() {
        let mut q = EventQueue::new();
        let t = q.schedule_cancelable(5, "timer");
        assert_eq!(q.pop().unwrap().event, "timer");
        assert!(!q.cancel(t), "already fired");
    }

    #[test]
    fn reschedule_moves_the_fire_time() {
        let mut q = EventQueue::new();
        let t = q.schedule_cancelable(10, "expiry");
        q.schedule(15, "middle");
        let t2 = q.reschedule(t, 30, "expiry").expect("still pending");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|s| (s.at_ms, s.event)).collect();
        assert_eq!(order, vec![(15, "middle"), (30, "expiry")]);
        let mut q2: EventQueue<&str> = EventQueue::new();
        assert!(q2.reschedule(t2, 40, "gone").is_none(), "fired token cannot move");
    }
}
