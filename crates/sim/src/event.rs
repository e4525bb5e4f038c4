//! A deterministic discrete-event queue.
//!
//! The queue is the single hottest structure in the simulator: every
//! message delivery, server completion and processor step goes through
//! one `push` and one `pop`. It is implemented as a bucketed time wheel
//! — a ring of per-cycle FIFO buckets covering the near future, which
//! turns the common case (events scheduled a few tens of cycles ahead)
//! into O(1) deque operations — with a binary-heap fallback for events
//! beyond the wheel horizon (long compute phases, backoff waits).

use crate::hash::StableHasher;
use crate::time::Cycle;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Cycles covered by the near-future wheel. Must be a power of two.
/// Network and memory latencies are tens of cycles, so virtually all
/// protocol traffic lands in the wheel; only long compute delays and
/// pathological backoffs spill to the far heap.
const WHEEL_SIZE: usize = 1024;
const WHEEL_MASK: usize = WHEEL_SIZE - 1;

/// A priority queue of timestamped events with deterministic ordering.
///
/// Events are returned in nondecreasing time order; events scheduled for
/// the same cycle are returned in ascending **key** order. Callers that
/// use plain [`EventQueue::push`] get an auto-incremented insertion
/// sequence as the key, i.e. FIFO within a cycle — the historical
/// behaviour. Callers that need a same-cycle order derived from their
/// own state (the machine simulator's per-node keys) stamp their own
/// keys via [`EventQueue::push_keyed`]. Either way the total
/// order makes every simulation run reproducible bit-for-bit from its
/// inputs, which the experiment harness relies on.
///
/// Internally both the wheel buckets (kept sorted ascending by key, so
/// peeking and popping the next key are O(1); pushes append in O(1) in
/// the common case of ascending same-cycle arrivals and binary-insert
/// otherwise) and the far heap (ordered by `(cycle, key)`) respect the
/// key, so the wheel/heap split is invisible to callers: the pop order
/// is identical to a single `(cycle, key)`-ordered heap.
///
/// # Example
///
/// ```
/// use dsm_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle::new(3), 'b');
/// q.push(Cycle::new(1), 'a');
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.pop(), Some((Cycle::new(1), 'a')));
/// assert_eq!(q.pop(), Some((Cycle::new(3), 'b')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Near-future buckets; the bucket for cycle `t` (when `t` is within
    /// `[base, base + WHEEL_SIZE)`) is `wheel[t & WHEEL_MASK]`. Each
    /// bucket holds events of a single cycle sorted ascending by
    /// tie-break key, so the front is always the next event to pop.
    wheel: Vec<VecDeque<(u128, E)>>,
    /// The earliest cycle the wheel can currently hold. Only moves
    /// forward.
    base: u64,
    /// Number of events stored in wheel buckets (the rest are in `far`).
    wheel_len: usize,
    /// Events at or beyond the wheel horizon (and, for API generality,
    /// events pushed before `base`, which cannot happen in a forward-
    /// running simulation but is still handled correctly).
    far: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    key: Reverse<(Cycle, u128)>,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: (0..WHEEL_SIZE).map(|_| VecDeque::new()).collect(),
            base: 0,
            wheel_len: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue pre-sized for `capacity` concurrently
    /// pending events (the wheel buckets still grow on demand; the
    /// far-heap allocation is reserved up front).
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::new();
        q.far.reserve(capacity);
        q
    }

    /// Schedules `event` to fire at time `at`, tie-broken within the
    /// cycle by the auto-incremented insertion sequence (FIFO).
    pub fn push(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(at, seq as u128, event);
    }

    /// Schedules `event` to fire at time `at` with an explicit same-cycle
    /// tie-break `key`. Events sharing a cycle pop in ascending key
    /// order; keys must be unique within a cycle for the order to be
    /// total. The machine simulator stamps keys derived from per-node
    /// counters, so the pop order is a pure function of simulated
    /// causality.
    pub fn push_keyed(&mut self, at: Cycle, key: u128, event: E) {
        let t = at.as_u64();
        if self.wheel_len == 0 && t >= self.base {
            // Empty wheel: slide the window so it starts at `t`.
            self.base = t;
        }
        if t >= self.base && t - self.base < WHEEL_SIZE as u64 {
            let bucket = &mut self.wheel[t as usize & WHEEL_MASK];
            // Follow-on events are pushed while draining events in
            // ascending key order, so same-cycle arrivals are usually
            // ascending too: appending keeps the bucket sorted for
            // free. Out-of-order arrivals binary-insert.
            if bucket.back().is_none_or(|&(k, _)| k < key) {
                bucket.push_back((key, event));
            } else {
                let pos = bucket.partition_point(|&(k, _)| k < key);
                bucket.insert(pos, (key, event));
            }
            self.wheel_len += 1;
        } else {
            self.far.push(Entry {
                key: Reverse((at, key)),
                event,
            });
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.pop_keyed().map(|(at, _, e)| (at, e))
    }

    /// Like [`EventQueue::pop`], but also returns the event's tie-break
    /// key. The machine simulator uses the key to derive follow-on event
    /// keys (a wire arrival's key seeds its delivery's key).
    pub fn pop_keyed(&mut self) -> Option<(Cycle, u128, E)> {
        let wheel_key = self.earliest_wheel_key();
        let far_key = self.far.peek().map(|e| ((e.key.0 .0).as_u64(), e.key.0 .1));
        let take_wheel = match (wheel_key, far_key) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(w), Some(f)) => w < f,
        };
        if take_wheel {
            Some(self.take_wheel_min())
        } else {
            let e = self.far.pop().expect("nonempty far heap");
            let at = e.key.0 .0;
            if self.wheel_len == 0 {
                // Keep the (empty) wheel window from falling behind
                // simulated time, so future near-term pushes use it.
                self.base = self.base.max(at.as_u64());
            }
            Some((at, e.key.0 .1, e.event))
        }
    }

    /// Removes and returns the minimum-key event of the bucket `base`
    /// currently rests on — the sorted bucket's front, O(1).
    fn take_wheel_min(&mut self) -> (Cycle, u128, E) {
        let bucket = &mut self.wheel[self.base as usize & WHEEL_MASK];
        let (key, event) = bucket.pop_front().expect("nonempty bucket");
        self.wheel_len -= 1;
        (Cycle::new(self.base), key, event)
    }

    /// Advances the wheel window over leading empty buckets until it
    /// rests on the earliest wheel event, and returns that event's
    /// `(cycle, key)`. Advancing is amortized O(1) (each bucket is
    /// skipped at most once per run); the minimum key is the resting
    /// sorted bucket's front, O(1).
    fn earliest_wheel_key(&mut self) -> Option<(u64, u128)> {
        if self.wheel_len == 0 {
            return None;
        }
        loop {
            let bucket = &self.wheel[self.base as usize & WHEEL_MASK];
            if let Some(&(key, _)) = bucket.front() {
                return Some((self.base, key));
            }
            self.base += 1;
        }
    }

    /// Returns the time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        let mut earliest: Option<u64> = None;
        if self.wheel_len > 0 {
            for i in 0..WHEEL_SIZE as u64 {
                let t = self.base + i;
                if !self.wheel[t as usize & WHEEL_MASK].is_empty() {
                    earliest = Some(t);
                    break;
                }
            }
        }
        match (earliest, self.far.peek().map(|e| (e.key.0 .0).as_u64())) {
            (Some(w), Some(f)) => Some(Cycle::new(w.min(f))),
            (Some(w), None) => Some(Cycle::new(w)),
            (None, Some(f)) => Some(Cycle::new(f)),
            (None, None) => None,
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.far.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feeds the queue's complete pending-event state into `h`, using
    /// `f` to hash each event payload.
    ///
    /// Events are visited in pop order — `(cycle, key)` — and each is
    /// hashed together with its cycle and key, so two queues digest
    /// equal iff they would pop the identical timestamped event stream.
    /// The wheel/heap split, the window base and bucket layout are
    /// implementation details and do not enter the digest. The
    /// insertion counter *is* included: it determines the tie-break
    /// order of future auto-keyed pushes.
    pub fn digest_with(&self, h: &mut StableHasher, mut f: impl FnMut(&E, &mut StableHasher)) {
        h.write_u64(self.next_seq);
        h.write_usize(self.len());
        if self.wheel_len > 0 {
            // The window is exactly WHEEL_SIZE cycles wide, so each
            // bucket holds events of a single cycle; walk the window in
            // time order and each bucket in key order to visit wheel
            // events in pop order.
            for i in 0..WHEEL_SIZE as u64 {
                let t = self.base + i;
                let bucket = &self.wheel[t as usize & WHEEL_MASK];
                for (key, event) in bucket.iter() {
                    h.write_u64(t);
                    h.write_u64((*key >> 64) as u64);
                    h.write_u64(*key as u64);
                    f(event, h);
                }
            }
        }
        let mut far: Vec<&Entry<E>> = self.far.iter().collect();
        far.sort_by_key(|e| e.key.0);
        for e in far {
            h.write_u64(e.key.0 .0.as_u64());
            h.write_u64((e.key.0 .1 >> 64) as u64);
            h.write_u64(e.key.0 .1 as u64);
            f(&e.event, h);
        }
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        if self.wheel_len > 0 {
            for bucket in &mut self.wheel {
                bucket.clear();
            }
            self.wheel_len = 0;
        }
        self.far.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::StableHasher;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[9u64, 2, 7, 2, 0, 11] {
            q.push(Cycle::new(t), t);
        }
        let mut out = Vec::new();
        while let Some((t, e)) = q.pop() {
            assert_eq!(t.as_u64(), e);
            out.push(e);
        }
        assert_eq!(out, vec![0, 2, 2, 7, 9, 11]);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle::new(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn keyed_pushes_pop_in_key_order_regardless_of_insertion() {
        let mut q = EventQueue::new();
        // Same cycle, keys inserted out of order: pop order follows keys.
        q.push_keyed(Cycle::new(5), 30, "c");
        q.push_keyed(Cycle::new(5), 10, "a");
        q.push_keyed(Cycle::new(5), 20, "b");
        // A far-future keyed event plus a same-cycle wheel/far mix.
        q.push_keyed(Cycle::new(5000), 1, "far-b");
        q.push_keyed(Cycle::new(5000), 0, "far-a");
        assert_eq!(q.pop_keyed(), Some((Cycle::new(5), 10, "a")));
        assert_eq!(q.pop_keyed(), Some((Cycle::new(5), 20, "b")));
        assert_eq!(q.pop_keyed(), Some((Cycle::new(5), 30, "c")));
        assert_eq!(q.pop_keyed(), Some((Cycle::new(5000), 0, "far-a")));
        assert_eq!(q.pop_keyed(), Some((Cycle::new(5000), 1, "far-b")));
        assert_eq!(q.pop_keyed(), None);
    }

    #[test]
    fn keyed_digest_independent_of_insertion_order() {
        let digest = |pushes: &[(u64, u128)]| {
            let mut q = EventQueue::new();
            for &(t, k) in pushes {
                q.push_keyed(Cycle::new(t), k, k as u64);
            }
            let mut h = StableHasher::new();
            q.digest_with(&mut h, |e, h| h.write_u64(*e));
            h.finish()
        };
        let a = digest(&[(7, 3), (7, 1), (9, 2), (7, 2)]);
        let b = digest(&[(7, 1), (7, 2), (7, 3), (9, 2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::with_capacity(4);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycle::new(8), ());
        q.push(Cycle::new(3), ());
        assert_eq!(q.peek_time(), Some(Cycle::new(3)));
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(10), "a");
        q.push(Cycle::new(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        // Push an earlier event after popping; it must come out first.
        q.push(Cycle::new(15), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        let mut q = EventQueue::new();
        // Far beyond the wheel window, then near-term.
        q.push(Cycle::new(1_000_000), "far");
        q.push(Cycle::new(3), "near");
        assert_eq!(q.pop().unwrap(), (Cycle::new(3), "near"));
        assert_eq!(q.pop().unwrap(), (Cycle::new(1_000_000), "far"));
        // After the far pop the window has caught up.
        q.push(Cycle::new(1_000_001), "next");
        assert_eq!(q.pop().unwrap(), (Cycle::new(1_000_001), "next"));
    }

    #[test]
    fn same_cycle_fifo_across_wheel_and_far() {
        let mut q = EventQueue::new();
        // "a" lands beyond the horizon (far heap); after the window
        // advances, "b" at the same cycle lands in the wheel. FIFO
        // order must still hold.
        q.push(Cycle::new(5000), "a");
        q.push(Cycle::new(0), "warm");
        assert_eq!(q.pop().unwrap().1, "warm");
        q.push(Cycle::new(4500), "advance");
        assert_eq!(q.pop().unwrap().1, "advance");
        q.push(Cycle::new(5000), "b"); // now within the window
        assert_eq!(q.pop().unwrap(), (Cycle::new(5000), "a"));
        assert_eq!(q.pop().unwrap(), (Cycle::new(5000), "b"));
    }

    /// The original heap-only queue, kept as the ordering oracle.
    struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<(Cycle, u64, usize)>>,
        events: Vec<Option<E>>,
    }

    impl<E> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                events: Vec::new(),
            }
        }

        fn push(&mut self, at: Cycle, event: E) {
            let seq = self.events.len() as u64;
            self.events.push(Some(event));
            self.heap.push(Reverse((at, seq, seq as usize)));
        }

        fn pop(&mut self) -> Option<(Cycle, E)> {
            let Reverse((at, _, idx)) = self.heap.pop()?;
            Some((at, self.events[idx].take().expect("popped once")))
        }
    }

    #[test]
    fn equivalent_to_reference_heap_on_randomized_schedule() {
        // Drive the time wheel and the pre-wheel heap implementation
        // with an identical randomized push/pop schedule and demand
        // identical pop sequences. The schedule mixes same-cycle
        // bursts, near-future deltas, far-future spills past the wheel
        // horizon, and pops, with the RNG seeded through StableHasher
        // so the schedule itself is pinned forever.
        let mut h = StableHasher::new();
        h.write_str("event-queue-equivalence");
        h.write_u64(4);
        let mut rng = SimRng::new(h.finish());

        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut now = 0u64;
        let mut next_id = 0u64;
        let mut pops = 0usize;
        for step in 0..50_000u64 {
            let roll = rng.range(10);
            if roll < 6 {
                // Push at a mostly-near, sometimes-far future time.
                let delta = match rng.range(20) {
                    0 => rng.range(10_000), // far beyond the horizon
                    1..=4 => 0,             // same-cycle burst
                    _ => rng.range(200),    // typical protocol latency
                };
                let at = Cycle::new(now + delta);
                wheel.push(at, next_id);
                heap.push(at, next_id);
                next_id += 1;
            } else {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "divergence at step {step}");
                if let Some((at, _)) = a {
                    now = at.as_u64(); // simulated time only moves forward
                    pops += 1;
                }
            }
            assert_eq!(wheel.len(), next_id as usize - pops);
        }
        // Drain the remainder.
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b, "divergence during drain");
            if a.is_none() {
                break;
            }
        }
    }
}
