//! A Wing–Gong-style linearizability checker for complete histories.
//!
//! Given a [`History`] and a sequential specification ([`SeqSpec`]),
//! [`check`] searches for a *linearization*: a total order of the
//! operations that (a) respects real time — if operation `a` responded
//! before operation `b` was invoked, `a` comes first — and (b) is a
//! legal sequential execution of the specification. The search is the
//! classic Wing & Gong recursion: repeatedly pick a *minimal* pending
//! operation (one invoked no later than every pending operation's
//! response) whose effect is legal in the current abstract state,
//! apply it, and recurse; memoizing on (set of linearized operations,
//! abstract state) keeps the search from re-exploring equivalent
//! frontiers.
//!
//! The checker is exact, not a heuristic: `Ok` means a linearization
//! exists, [`Rejection::NotLinearizable`] means none exists. Histories
//! are capped at [`MAX_OPS`] operations so test inputs stay bounded —
//! the cap is a deliberate test-suite budget, reported loudly rather
//! than silently truncated.

use crate::history::{HistEvent, HistOp, HistRet, History};
use std::collections::HashSet;
use std::hash::Hash;

/// Hard cap on checkable history size (operations).
pub const MAX_OPS: usize = 256;

/// A sequential specification: an abstract state plus a transition
/// relation saying which (operation, return) pairs are legal.
pub trait SeqSpec {
    /// The abstract state (e.g. the queue's contents).
    type State: Clone + Eq + Hash;

    /// The state of a freshly created object.
    fn init(&self) -> Self::State;

    /// If `op` returning `ret` is legal in `state`, the successor
    /// state; `None` if illegal at this point.
    ///
    /// # Panics
    ///
    /// Implementations panic when `op` does not belong to the
    /// specification at all (e.g. a stack op in a queue history) —
    /// that is a harness bug, not a linearizability violation.
    fn apply(&self, state: &Self::State, op: &HistOp, ret: &HistRet) -> Option<Self::State>;
}

/// Sequential FIFO queue: [`HistOp::Enqueue`] / [`HistOp::Dequeue`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoQueueSpec;

impl SeqSpec for FifoQueueSpec {
    type State = std::collections::VecDeque<u64>;

    fn init(&self) -> Self::State {
        Self::State::new()
    }

    fn apply(&self, state: &Self::State, op: &HistOp, ret: &HistRet) -> Option<Self::State> {
        match (op, ret) {
            (HistOp::Enqueue(v), HistRet::Ok) => {
                let mut s = state.clone();
                s.push_back(*v);
                Some(s)
            }
            (HistOp::Dequeue, HistRet::Value(v)) => {
                if state.front() == Some(v) {
                    let mut s = state.clone();
                    s.pop_front();
                    Some(s)
                } else {
                    None
                }
            }
            (HistOp::Dequeue, HistRet::Empty) => state.is_empty().then(|| state.clone()),
            other => panic!("not a queue event: {other:?}"),
        }
    }
}

/// Sequential LIFO stack: [`HistOp::Push`] / [`HistOp::Pop`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LifoStackSpec;

impl SeqSpec for LifoStackSpec {
    type State = Vec<u64>;

    fn init(&self) -> Self::State {
        Vec::new()
    }

    fn apply(&self, state: &Self::State, op: &HistOp, ret: &HistRet) -> Option<Self::State> {
        match (op, ret) {
            (HistOp::Push(v), HistRet::Ok) => {
                let mut s = state.clone();
                s.push(*v);
                Some(s)
            }
            (HistOp::Pop, HistRet::Value(v)) => {
                if state.last() == Some(v) {
                    let mut s = state.clone();
                    s.pop();
                    Some(s)
                } else {
                    None
                }
            }
            (HistOp::Pop, HistRet::Empty) => state.is_empty().then(|| state.clone()),
            other => panic!("not a stack event: {other:?}"),
        }
    }
}

/// Sequential set (also the hash map's key-set view):
/// [`HistOp::Insert`] / [`HistOp::Remove`] / [`HistOp::Contains`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SetSpec;

impl SeqSpec for SetSpec {
    type State = std::collections::BTreeSet<u64>;

    fn init(&self) -> Self::State {
        Self::State::new()
    }

    fn apply(&self, state: &Self::State, op: &HistOp, ret: &HistRet) -> Option<Self::State> {
        match (op, ret) {
            (HistOp::Insert(k), HistRet::Bool(added)) => {
                if *added != state.contains(k) {
                    let mut s = state.clone();
                    s.insert(*k);
                    Some(s)
                } else {
                    None
                }
            }
            (HistOp::Remove(k), HistRet::Bool(deleted)) => {
                if *deleted == state.contains(k) {
                    let mut s = state.clone();
                    s.remove(k);
                    Some(s)
                } else {
                    None
                }
            }
            (HistOp::Contains(k), HistRet::Bool(found)) => {
                (*found == state.contains(k)).then(|| state.clone())
            }
            other => panic!("not a set event: {other:?}"),
        }
    }
}

/// Why a history failed the check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The history exceeds [`MAX_OPS`]; shrink the workload.
    TooLarge {
        /// Operations recorded.
        ops: usize,
        /// The cap.
        max: usize,
    },
    /// No linearization exists.
    NotLinearizable {
        /// Most operations any explored prefix linearized.
        linearized_best: usize,
        /// Total operations in the history.
        total: usize,
    },
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::TooLarge { ops, max } => write!(
                f,
                "history has {ops} operations, over the checker cap of {max}"
            ),
            Rejection::NotLinearizable {
                linearized_best,
                total,
            } => write!(
                f,
                "no linearization exists (best prefix linearized \
                 {linearized_best} of {total} operations)"
            ),
        }
    }
}

/// A bitset over up to [`MAX_OPS`] operations.
type Mask = [u64; 4];

fn bit_set(mask: &Mask, i: usize) -> bool {
    mask[i / 64] & (1 << (i % 64)) != 0
}

fn with_bit(mask: &Mask, i: usize) -> Mask {
    let mut m = *mask;
    m[i / 64] |= 1 << (i % 64);
    m
}

struct Dfs<'a, S: SeqSpec> {
    spec: &'a S,
    evs: &'a [HistEvent],
    memo: HashSet<(Mask, S::State)>,
    best: usize,
}

impl<S: SeqSpec> Dfs<'_, S> {
    fn search(&mut self, mask: &Mask, state: &S::State, done: usize) -> bool {
        if done == self.evs.len() {
            return true;
        }
        self.best = self.best.max(done);
        if !self.memo.insert((*mask, state.clone())) {
            return false;
        }
        // An operation may linearize next only if no pending operation
        // responded strictly before it was invoked.
        let min_resp = self
            .evs
            .iter()
            .enumerate()
            .filter(|&(i, _)| !bit_set(mask, i))
            .map(|(_, e)| e.responded)
            .min()
            .expect("pending events exist");
        for (i, e) in self.evs.iter().enumerate() {
            if bit_set(mask, i) || e.invoked > min_resp {
                continue;
            }
            if let Some(next) = self.spec.apply(state, &e.op, &e.ret) {
                if self.search(&with_bit(mask, i), &next, done + 1) {
                    return true;
                }
            }
        }
        false
    }
}

/// Checks `history` against `spec`. `Ok(())` iff a linearization
/// exists (the empty history trivially passes).
pub fn check<S: SeqSpec>(spec: &S, history: &History) -> Result<(), Rejection> {
    let evs = history.events();
    if evs.len() > MAX_OPS {
        return Err(Rejection::TooLarge {
            ops: evs.len(),
            max: MAX_OPS,
        });
    }
    if evs.is_empty() {
        return Ok(());
    }
    let mut dfs = Dfs {
        spec,
        evs,
        memo: HashSet::new(),
        best: 0,
    };
    if dfs.search(&[0; 4], &spec.init(), 0) {
        Ok(())
    } else {
        Err(Rejection::NotLinearizable {
            linearized_best: dfs.best,
            total: evs.len(),
        })
    }
}

/// Like [`check`], but on rejection writes the rendered history and
/// the rejection reason to an artifact file (for CI upload) and then
/// panics.
///
/// The artifact lands in `rejects` as `<name>.txt`; the directory is
/// created if needed.
///
/// # Panics
///
/// Panics when the history is rejected.
pub fn assert_linearizable<S: SeqSpec>(
    name: &str,
    spec: &S,
    history: &History,
    rejects: &std::path::Path,
) {
    let Err(rejection) = check(spec, history) else {
        return;
    };
    let path = rejects.join(format!("{name}.txt"));
    let body = format!(
        "history `{name}` rejected: {rejection}\n\n{}",
        history.render()
    );
    let saved = std::fs::create_dir_all(rejects)
        .and_then(|()| std::fs::write(&path, &body))
        .map(|()| path.display().to_string());
    match saved {
        Ok(p) => panic!("history `{name}` is not linearizable: {rejection} (written to {p})"),
        Err(e) => panic!(
            "history `{name}` is not linearizable: {rejection} \
             (artifact write failed: {e})\n{}",
            history.render()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(proc: u32, invoked: u64, responded: u64, op: HistOp, ret: HistRet) -> HistEvent {
        HistEvent {
            proc,
            invoked,
            responded,
            op,
            ret,
        }
    }

    fn hist(events: &[HistEvent]) -> History {
        let mut h = History::new();
        for &e in events {
            h.push(e);
        }
        h
    }

    #[test]
    fn empty_history_passes() {
        assert_eq!(check(&FifoQueueSpec, &History::new()), Ok(()));
    }

    #[test]
    fn sequential_queue_passes() {
        let h = hist(&[
            ev(0, 0, 1, HistOp::Enqueue(1), HistRet::Ok),
            ev(0, 2, 3, HistOp::Enqueue(2), HistRet::Ok),
            ev(1, 4, 5, HistOp::Dequeue, HistRet::Value(1)),
            ev(1, 6, 7, HistOp::Dequeue, HistRet::Value(2)),
            ev(1, 8, 9, HistOp::Dequeue, HistRet::Empty),
        ]);
        assert_eq!(check(&FifoQueueSpec, &h), Ok(()));
    }

    #[test]
    fn overlapping_enqueues_allow_either_order() {
        // Two concurrent enqueues; the dequeues observe 2 before 1,
        // which is legal exactly because the enqueues overlapped.
        let h = hist(&[
            ev(0, 0, 10, HistOp::Enqueue(1), HistRet::Ok),
            ev(1, 0, 10, HistOp::Enqueue(2), HistRet::Ok),
            ev(2, 11, 12, HistOp::Dequeue, HistRet::Value(2)),
            ev(2, 13, 14, HistOp::Dequeue, HistRet::Value(1)),
        ]);
        assert_eq!(check(&FifoQueueSpec, &h), Ok(()));
    }

    #[test]
    fn real_time_order_is_enforced() {
        // Enqueue(1) responded before Enqueue(2) was invoked, so
        // dequeuing 2 first is NOT linearizable.
        let h = hist(&[
            ev(0, 0, 1, HistOp::Enqueue(1), HistRet::Ok),
            ev(1, 2, 3, HistOp::Enqueue(2), HistRet::Ok),
            ev(2, 4, 5, HistOp::Dequeue, HistRet::Value(2)),
            ev(2, 6, 7, HistOp::Dequeue, HistRet::Value(1)),
        ]);
        assert!(matches!(
            check(&FifoQueueSpec, &h),
            Err(Rejection::NotLinearizable { .. })
        ));
    }

    #[test]
    fn lost_value_is_rejected() {
        // A value dequeued twice (the classic lost-update symptom).
        let h = hist(&[
            ev(0, 0, 1, HistOp::Enqueue(1), HistRet::Ok),
            ev(1, 2, 3, HistOp::Dequeue, HistRet::Value(1)),
            ev(2, 2, 3, HistOp::Dequeue, HistRet::Value(1)),
        ]);
        assert!(check(&FifoQueueSpec, &h).is_err());
    }

    #[test]
    fn empty_inside_nonempty_window_is_rejected() {
        // The queue was continuously non-empty across the dequeue's
        // whole window, so Empty is impossible.
        let h = hist(&[
            ev(0, 0, 1, HistOp::Enqueue(1), HistRet::Ok),
            ev(1, 2, 3, HistOp::Dequeue, HistRet::Empty),
        ]);
        assert!(check(&FifoQueueSpec, &h).is_err());
    }

    #[test]
    fn stack_spec_is_lifo() {
        let ok = hist(&[
            ev(0, 0, 1, HistOp::Push(1), HistRet::Ok),
            ev(0, 2, 3, HistOp::Push(2), HistRet::Ok),
            ev(1, 4, 5, HistOp::Pop, HistRet::Value(2)),
            ev(1, 6, 7, HistOp::Pop, HistRet::Value(1)),
            ev(1, 8, 9, HistOp::Pop, HistRet::Empty),
        ]);
        assert_eq!(check(&LifoStackSpec, &ok), Ok(()));
        let fifo = hist(&[
            ev(0, 0, 1, HistOp::Push(1), HistRet::Ok),
            ev(0, 2, 3, HistOp::Push(2), HistRet::Ok),
            ev(1, 4, 5, HistOp::Pop, HistRet::Value(1)),
        ]);
        assert!(check(&LifoStackSpec, &fifo).is_err());
    }

    #[test]
    fn set_spec_checks_membership_answers() {
        let ok = hist(&[
            ev(0, 0, 1, HistOp::Insert(7), HistRet::Bool(true)),
            ev(1, 2, 3, HistOp::Insert(7), HistRet::Bool(false)),
            ev(1, 4, 5, HistOp::Contains(7), HistRet::Bool(true)),
            ev(0, 6, 7, HistOp::Remove(7), HistRet::Bool(true)),
            ev(1, 8, 9, HistOp::Remove(7), HistRet::Bool(false)),
            ev(1, 10, 11, HistOp::Contains(7), HistRet::Bool(false)),
        ]);
        assert_eq!(check(&SetSpec, &ok), Ok(()));
        // Contains(true) while the key was never present in its
        // window.
        let bad = hist(&[
            ev(0, 0, 1, HistOp::Contains(7), HistRet::Bool(true)),
            ev(1, 2, 3, HistOp::Insert(7), HistRet::Bool(true)),
        ]);
        assert!(check(&SetSpec, &bad).is_err());
    }

    #[test]
    fn oversized_history_is_reported_not_truncated() {
        let mut h = History::new();
        for i in 0..(MAX_OPS as u64 + 1) {
            h.push(ev(0, 2 * i, 2 * i + 1, HistOp::Enqueue(i), HistRet::Ok));
        }
        assert_eq!(
            check(&FifoQueueSpec, &h),
            Err(Rejection::TooLarge {
                ops: MAX_OPS + 1,
                max: MAX_OPS
            })
        );
    }

    #[test]
    fn max_sized_concurrent_history_checks_quickly() {
        // 256 ops in concurrent pairs; exercises the memoization.
        let mut h = History::new();
        for i in 0..128u64 {
            h.push(ev(0, 4 * i, 4 * i + 3, HistOp::Enqueue(i), HistRet::Ok));
            h.push(ev(1, 4 * i, 4 * i + 3, HistOp::Dequeue, HistRet::Value(i)));
        }
        assert_eq!(check(&FifoQueueSpec, &h), Ok(()));
    }

    #[test]
    fn rejection_displays_human_readably() {
        let r = Rejection::NotLinearizable {
            linearized_best: 3,
            total: 5,
        };
        assert!(r.to_string().contains("3 of 5"));
        let t = Rejection::TooLarge { ops: 300, max: 256 };
        assert!(t.to_string().contains("300"));
    }
}
