//! A deterministic discrete-event queue.
//!
//! The queue is the single hottest structure in the simulator: every
//! message delivery, server completion and processor step goes through
//! one `push` and one `pop`. It is implemented as a bucketed time wheel
//! — a ring of per-cycle buckets covering the near future, which turns
//! the common case (events scheduled a few tens of cycles ahead) into
//! O(1) list operations — with a binary-heap fallback for events
//! beyond the wheel horizon (long compute phases, backoff waits).
//!
//! The buckets own no storage. Every wheel event lives in one slab of
//! entries shared by all buckets; a bucket is a head and tail index
//! into it, its entries linked in ascending key order. Popped entries
//! go to a free list, so the wheel's memory follows the most events
//! ever pending at once (a few dozen to a few hundred in practice),
//! not the bucket count, and stays within the L1 cache. An occupancy
//! bitmap with one bit per bucket finds the next nonempty bucket a
//! word at a time.

use crate::hash::StableHasher;
use crate::time::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles covered by the near-future wheel. Must be a multiple of 64.
/// Network and memory latencies are tens of cycles, so virtually all
/// protocol traffic lands in the wheel; only long compute delays and
/// pathological backoffs spill to the far heap.
const WHEEL_SIZE: usize = 1024;
const WHEEL_MASK: usize = WHEEL_SIZE - 1;
/// Words of the bucket occupancy bitmap.
const OCC_WORDS: usize = WHEEL_SIZE / 64;
/// The null slab index: end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

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
/// Internally both the wheel buckets (linked in ascending key order, so
/// peeking and popping the next key are O(1); pushes append in O(1) in
/// the common case of ascending same-cycle arrivals, prepend in O(1)
/// below the bucket's minimum, and walk the list otherwise) and the far
/// heap (ordered by `(cycle, key)`) respect the key, so the wheel/heap
/// split is invisible to callers: the pop order is identical to a
/// single `(cycle, key)`-ordered heap.
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
    /// `[base, base + WHEEL_SIZE)`) is `buckets[t & WHEEL_MASK]`. Each
    /// bucket lists events of a single cycle in ascending tie-break
    /// key, so its head is always the next event to pop.
    buckets: Vec<Bucket>,
    /// Bit `i` is set iff `buckets[i]` is nonempty.
    occupied: [u64; OCC_WORDS],
    /// Entries of every wheel bucket, plus free slots.
    slab: Vec<Slot<E>>,
    /// Head of the free-slot list (linked through [`Slot::next`]).
    free: u32,
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

/// One wheel bucket: the first and last slab index of its list. Both
/// are meaningful only while the bucket's occupancy bit is set.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// A slab entry: a pending wheel event, or (with `event` empty) a free
/// slot.
#[derive(Debug, Clone)]
struct Slot<E> {
    key: u128,
    /// The next entry of the same bucket, or the next free slot.
    next: u32,
    event: Option<E>,
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
            buckets: vec![
                Bucket {
                    head: NIL,
                    tail: NIL
                };
                WHEEL_SIZE
            ],
            occupied: [0; OCC_WORDS],
            slab: Vec::new(),
            free: NIL,
            base: 0,
            wheel_len: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue pre-sized for `capacity` concurrently
    /// pending events (the wheel slab still grows on demand; the
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
            self.wheel_insert(t as usize & WHEEL_MASK, key, event);
        } else {
            self.far.push(Entry {
                key: Reverse((at, key)),
                event,
            });
        }
    }

    /// Links a new entry into bucket `b`, keeping the list sorted.
    fn wheel_insert(&mut self, b: usize, key: u128, event: E) {
        let idx = self.alloc(key, event);
        self.wheel_len += 1;
        let (w, bit) = (b / 64, 1u64 << (b % 64));
        if self.occupied[w] & bit == 0 {
            self.occupied[w] |= bit;
            self.buckets[b] = Bucket {
                head: idx,
                tail: idx,
            };
            return;
        }
        let Bucket { head, tail } = self.buckets[b];
        // Follow-on events are pushed while draining events in
        // ascending key order, so same-cycle arrivals are usually
        // ascending too: appending keeps the bucket sorted for free.
        // Out-of-order arrivals go in front of the first entry whose
        // key is not below theirs.
        if self.slab[tail as usize].key < key {
            self.slab[tail as usize].next = idx;
            self.buckets[b].tail = idx;
        } else if key <= self.slab[head as usize].key {
            self.slab[idx as usize].next = head;
            self.buckets[b].head = idx;
        } else {
            // head.key < key <= tail.key: the walk stops at or before
            // the tail.
            let mut prev = head;
            loop {
                let next = self.slab[prev as usize].next;
                if self.slab[next as usize].key >= key {
                    break;
                }
                prev = next;
            }
            self.slab[idx as usize].next = self.slab[prev as usize].next;
            self.slab[prev as usize].next = idx;
        }
    }

    /// Takes a slot for a new entry, reusing a free one when there is
    /// one. The entry's `next` is [`NIL`].
    fn alloc(&mut self, key: u128, event: E) -> u32 {
        let slot = Slot {
            key,
            next: NIL,
            event: Some(event),
        };
        if self.free == NIL {
            let idx = u32::try_from(self.slab.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("event queue slab overflow");
            self.slab.push(slot);
            idx
        } else {
            let idx = self.free;
            self.free = std::mem::replace(&mut self.slab[idx as usize], slot).next;
            idx
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
    /// currently rests on — the list head, O(1) — and frees its slot.
    fn take_wheel_min(&mut self) -> (Cycle, u128, E) {
        let b = self.base as usize & WHEEL_MASK;
        let idx = self.buckets[b].head;
        let slot = &mut self.slab[idx as usize];
        let (key, next) = (slot.key, slot.next);
        let event = slot.event.take().expect("listed slot holds an event");
        slot.next = self.free;
        self.free = idx;
        if next == NIL {
            self.occupied[b / 64] &= !(1u64 << (b % 64));
        } else {
            self.buckets[b].head = next;
        }
        self.wheel_len -= 1;
        (Cycle::new(self.base), key, event)
    }

    /// Cycles from `base` to the earliest nonempty bucket. The wheel
    /// must hold at least one event.
    fn first_occupied_offset(&self) -> u64 {
        let start = self.base as usize & WHEEL_MASK;
        let (w0, b0) = (start / 64, start % 64);
        // Test words in ring order from the starting word: first its
        // bits at or after `start`, last (wrapped around) its bits
        // before `start`, the far end of the window.
        for step in 0..=OCC_WORDS {
            let w = (w0 + step) % OCC_WORDS;
            let mut word = self.occupied[w];
            if step == 0 {
                word &= !0u64 << b0;
            } else if step == OCC_WORDS {
                word &= !(!0u64 << b0);
            }
            if word != 0 {
                let b = w * 64 + word.trailing_zeros() as usize;
                return ((b + WHEEL_SIZE - start) & WHEEL_MASK) as u64;
            }
        }
        unreachable!("wheel_len > 0 but no bucket is occupied")
    }

    /// Advances the wheel window over leading empty buckets until it
    /// rests on the earliest wheel event, and returns that event's
    /// `(cycle, key)`. The bitmap finds the bucket in at most
    /// `OCC_WORDS` word tests; the minimum key is its list head, O(1).
    fn earliest_wheel_key(&mut self) -> Option<(u64, u128)> {
        if self.wheel_len == 0 {
            return None;
        }
        self.base += self.first_occupied_offset();
        let head = self.buckets[self.base as usize & WHEEL_MASK].head;
        Some((self.base, self.slab[head as usize].key))
    }

    /// Returns the time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        let earliest = (self.wheel_len > 0).then(|| self.base + self.first_occupied_offset());
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
    /// Events are visited in pop order — `(cycle, key)`, wheel and far
    /// heap merged — and each event is hashed together with its cycle
    /// and key. Two queues holding the
    /// same pending events therefore digest equal whatever their window
    /// history: the window base, the wheel/heap split, bucket layout and
    /// slab slots do not enter it. The insertion counter *is* included:
    /// it determines the tie-break order of future auto-keyed pushes.
    pub fn digest_with(&self, h: &mut StableHasher, mut f: impl FnMut(&E, &mut StableHasher)) {
        h.write_u64(self.next_seq);
        h.write_usize(self.len());
        let mut pending: Vec<(u64, u128, &E)> = Vec::with_capacity(self.len());
        if self.wheel_len > 0 {
            // The window is exactly WHEEL_SIZE cycles wide, so each
            // bucket holds events of a single cycle.
            for i in 0..WHEEL_SIZE as u64 {
                let t = self.base + i;
                let b = t as usize & WHEEL_MASK;
                if self.occupied[b / 64] & (1u64 << (b % 64)) == 0 {
                    continue;
                }
                let mut idx = self.buckets[b].head;
                while idx != NIL {
                    let slot = &self.slab[idx as usize];
                    let event = slot.event.as_ref().expect("listed slot holds an event");
                    pending.push((t, slot.key, event));
                    idx = slot.next;
                }
            }
        }
        let far = self
            .far
            .iter()
            .map(|e| (e.key.0 .0.as_u64(), e.key.0 .1, &e.event));
        pending.extend(far);
        pending.sort_by_key(|&(t, key, _)| (t, key));
        for (t, key, event) in pending {
            h.write_u64(t);
            h.write_u64((key >> 64) as u64);
            h.write_u64(key as u64);
            f(event, h);
        }
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.occupied = [0; OCC_WORDS];
        self.slab.clear();
        self.free = NIL;
        self.wheel_len = 0;
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

    /// The same pending events digest alike whether or not the window
    /// caught up with an event that was pushed beyond the horizon.
    #[test]
    fn digest_is_independent_of_window_history() {
        let digest = |q: &EventQueue<&str>| {
            let mut h = StableHasher::new();
            q.digest_with(&mut h, |e, h| h.write_str(e));
            h.finish()
        };
        // Caught up: "far" went to the far heap at base 0; the window
        // then slid to 4500, and "near" (a wheel event) sorts after it.
        let mut caught_up = EventQueue::new();
        caught_up.push_keyed(Cycle::new(0), 0, "warm");
        caught_up.push_keyed(Cycle::new(5000), 1, "far");
        assert_eq!(caught_up.pop_keyed(), Some((Cycle::new(0), 0, "warm")));
        caught_up.push_keyed(Cycle::new(4500), 2, "advance");
        assert_eq!(
            caught_up.pop_keyed(),
            Some((Cycle::new(4500), 2, "advance"))
        );
        caught_up.push_keyed(Cycle::new(5001), 3, "near");
        assert_eq!(caught_up.far.len(), 1, "\"far\" stays in the far heap");
        // Direct: the same two events pushed into a fresh window, both
        // into the wheel.
        let mut direct = EventQueue::new();
        direct.push_keyed(Cycle::new(5000), 1, "far");
        direct.push_keyed(Cycle::new(5001), 3, "near");
        assert!(direct.far.is_empty());
        // Same pending set and insertion counter (keyed pushes leave it
        // at 0), so the digests must agree.
        assert_eq!(digest(&caught_up), digest(&direct));
    }

    /// The original heap-only queue, kept as the ordering oracle: one
    /// heap ordered by `(cycle, key)`, auto keys from its own counter.
    struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<(Cycle, u128, usize)>>,
        events: Vec<Option<E>>,
        next_seq: u64,
    }

    impl<E> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                events: Vec::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, at: Cycle, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.push_keyed(at, seq as u128, event);
        }

        fn push_keyed(&mut self, at: Cycle, key: u128, event: E) {
            self.heap.push(Reverse((at, key, self.events.len())));
            self.events.push(Some(event));
        }

        fn pop_keyed(&mut self) -> Option<(Cycle, u128, E)> {
            let Reverse((at, key, idx)) = self.heap.pop()?;
            Some((at, key, self.events[idx].take().expect("popped once")))
        }

        fn peek_time(&self) -> Option<Cycle> {
            self.heap.peek().map(|Reverse((at, _, _))| *at)
        }

        /// What [`EventQueue::digest_with`] must produce: the counter,
        /// the length, then every pending event in `(cycle, key)`
        /// order.
        fn digest_with(&self, h: &mut StableHasher, mut f: impl FnMut(&E, &mut StableHasher)) {
            h.write_u64(self.next_seq);
            h.write_usize(self.heap.len());
            let mut pending: Vec<_> = self.heap.iter().map(|Reverse(e)| *e).collect();
            pending.sort();
            for (at, key, idx) in pending {
                h.write_u64(at.as_u64());
                h.write_u64((key >> 64) as u64);
                h.write_u64(key as u64);
                f(self.events[idx].as_ref().expect("pending"), h);
            }
        }
    }

    #[test]
    fn equivalent_to_reference_heap_on_randomized_schedule() {
        // Drive the time wheel and the pre-wheel heap implementation
        // with an identical randomized push/pop schedule and demand
        // identical pop sequences, peeks and digests. The schedule
        // mixes auto-keyed FIFO pushes; keyed pushes whose keys arrive
        // out of order within a cycle (mid-bucket inserts); bursts of
        // more than 64 events in one cycle; pushes just inside, at and
        // just past the wheel horizon and far beyond it; and pops in
        // runs that keep few events pending, so slab slots are reused
        // over and over and the wheel empties and slides. The RNG is
        // seeded through StableHasher so the schedule is pinned.
        let mut h = StableHasher::new();
        h.write_str("event-queue-equivalence");
        h.write_u64(5);
        let mut rng = SimRng::new(h.finish());

        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut now = 0u64;
        let mut next_id = 0u64;
        let mut pops = 0usize;
        let mut most_pending = 0usize;
        let mut digests = 0usize;
        let horizon = WHEEL_SIZE as u64;
        for step in 0..60_000u64 {
            let delta = |rng: &mut SimRng| match rng.range(20) {
                0 => rng.range(10_000), // far beyond the horizon
                1..=4 => 0,             // same cycle as now
                _ => rng.range(200),    // typical protocol latency
            };
            // Keys with a random high half sort out of insertion order;
            // the id in the low half keeps them unique.
            let keyed =
                |rng: &mut SimRng, id: u64| ((1 + rng.range(1 << 16)) as u128) << 64 | id as u128;
            let roll = rng.range(1000);
            if roll < 350 {
                let at = Cycle::new(now + delta(&mut rng));
                wheel.push(at, next_id);
                heap.push(at, next_id);
                next_id += 1;
            } else if roll < 490 {
                let at = Cycle::new(now + delta(&mut rng));
                let key = keyed(&mut rng, next_id);
                wheel.push_keyed(at, key, next_id);
                heap.push_keyed(at, key, next_id);
                next_id += 1;
            } else if roll < 492 {
                let at = Cycle::new(now + rng.range(50));
                for _ in 0..65 + rng.range(100) {
                    let key = keyed(&mut rng, next_id);
                    wheel.push_keyed(at, key, next_id);
                    heap.push_keyed(at, key, next_id);
                    next_id += 1;
                }
            } else if roll < 495 {
                for d in [horizon - 1, horizon, horizon + 1] {
                    let at = Cycle::new(now + d);
                    let key = keyed(&mut rng, next_id);
                    wheel.push_keyed(at, key, next_id);
                    heap.push_keyed(at, key, next_id);
                    next_id += 1;
                }
            } else {
                for _ in 0..1 + rng.range(2) {
                    let a = wheel.pop_keyed();
                    let b = heap.pop_keyed();
                    assert_eq!(a, b, "divergence at step {step}");
                    if let Some((at, _, _)) = a {
                        now = at.as_u64(); // simulated time only moves forward
                        pops += 1;
                    }
                }
            }
            assert_eq!(wheel.len(), next_id as usize - pops);
            most_pending = most_pending.max(wheel.len());
            if rng.range(500) == 0 {
                assert_eq!(wheel.peek_time(), heap.peek_time(), "peek at step {step}");
                let mut a = StableHasher::new();
                wheel.digest_with(&mut a, |e, h| h.write_u64(*e));
                let mut b = StableHasher::new();
                heap.digest_with(&mut b, |e, h| h.write_u64(*e));
                assert_eq!(a.finish(), b.finish(), "digest at step {step}");
                digests += 1;
            }
        }
        // The schedule really reused slots: far more events went through
        // the wheel than its slab ever held.
        assert!(
            next_id as usize > 20 * wheel.slab.len(),
            "slab {}",
            wheel.slab.len()
        );
        assert!(most_pending > 64 && digests > 50);
        // Drain the remainder.
        loop {
            let a = wheel.pop_keyed();
            let b = heap.pop_keyed();
            assert_eq!(a, b, "divergence during drain");
            if a.is_none() {
                break;
            }
        }
    }
}
