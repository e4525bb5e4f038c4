//! The scalable tree barrier of Mellor-Crummey & Scott \[20\], used by the
//! Transitive Closure application for barrier synchronization.
//!
//! Each processor spins only on locations written by a bounded number of
//! other processors: arrival propagates up a 4-ary tree via per-child
//! "not ready" flags, and wakeup propagates down a binary tree via
//! per-processor sense words. All accesses are ordinary loads and
//! stores on the base write-invalidate protocol.

use crate::alloc::ShmAlloc;
use crate::submachine::{Step, SubMachine};
use dsm_protocol::{MemOp, OpResult};
use dsm_sim::{Addr, SimRng};

const ARRIVAL_ARITY: u32 = 4;
const WAKEUP_ARITY: u32 = 2;
const SPIN_DELAY: u64 = 4;

/// Shared layout of one tree barrier for `nprocs` processors.
///
/// Build once with [`TreeBarrier::layout`], feed
/// [`initial_values`](TreeBarrier::initial_values) to the machine
/// builder, and create one [`TreeBarrierWait`] per episode per
/// processor.
#[derive(Debug, Clone)]
pub struct TreeBarrier {
    nprocs: u32,
    /// Per processor: base of 4 consecutive child-not-ready words.
    childnotready: Vec<Addr>,
    /// Per processor: wakeup sense word.
    parentsense: Vec<Addr>,
}

impl TreeBarrier {
    /// Lays the barrier out in shared memory.
    ///
    /// # Panics
    ///
    /// Panics if `nprocs` is zero.
    pub fn layout(alloc: &mut ShmAlloc, nprocs: u32) -> Self {
        assert!(nprocs > 0, "barrier needs at least one processor");
        let childnotready = (0..nprocs)
            .map(|_| alloc.array(ARRIVAL_ARITY as u64))
            .collect();
        let parentsense = (0..nprocs).map(|_| alloc.word()).collect();
        TreeBarrier {
            nprocs,
            childnotready,
            parentsense,
        }
    }

    /// Number of participating processors.
    pub fn nprocs(&self) -> u32 {
        self.nprocs
    }

    fn has_arrival_child(&self, p: u32, slot: u32) -> bool {
        ARRIVAL_ARITY as u64 * p as u64 + slot as u64 + 1 < self.nprocs as u64
    }

    /// The (address, value) pairs that must be poked into memory before
    /// the first episode: each `childnotready` flag starts equal to
    /// `havechild`.
    pub fn initial_values(&self) -> Vec<(Addr, u64)> {
        let mut out = Vec::new();
        for p in 0..self.nprocs {
            for slot in 0..ARRIVAL_ARITY {
                let v = u64::from(self.has_arrival_child(p, slot));
                out.push((self.childnotready[p as usize] + slot as u64 * 8, v));
            }
            out.push((self.parentsense[p as usize], 0));
        }
        out
    }

    /// Creates the wait sub-machine for processor `p`'s next episode.
    /// `sense` must alternate 1, 0, 1, … across episodes (start at 1).
    pub fn wait(&self, p: u32, sense: u64) -> TreeBarrierWait {
        assert!(p < self.nprocs, "processor {p} out of range");
        let arrival_parent = if p == 0 {
            None
        } else {
            let parent = (p - 1) / ARRIVAL_ARITY;
            let slot = (p - 1) % ARRIVAL_ARITY;
            Some(self.childnotready[parent as usize] + slot as u64 * 8)
        };
        let wakeup_children = (1..=WAKEUP_ARITY)
            .map(|i| WAKEUP_ARITY * p + i)
            .filter(|&c| c < self.nprocs)
            .map(|c| self.parentsense[c as usize])
            .collect();
        TreeBarrierWait {
            own_flags: self.childnotready[p as usize],
            have_child: (0..ARRIVAL_ARITY)
                .map(|s| self.has_arrival_child(p, s))
                .collect(),
            arrival_parent,
            own_sense_word: self.parentsense[p as usize],
            wakeup_children,
            sense,
            state: WaitState::CheckChild(0),
        }
    }
}

/// One barrier episode for one processor.
#[derive(Debug, Clone)]
pub struct TreeBarrierWait {
    own_flags: Addr,
    have_child: Vec<bool>,
    arrival_parent: Option<Addr>,
    own_sense_word: Addr,
    wakeup_children: Vec<Addr>,
    sense: u64,
    state: WaitState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitState {
    CheckChild(u32),
    WaitChild(u32),
    ResetChild(u32),
    NotifyParent,
    SpinParent,
    WaitParent,
    WakeChild(u32),
    Finished,
}

impl SubMachine for TreeBarrierWait {
    fn step(&mut self, last: Option<OpResult>, _rng: &mut SimRng) -> Step {
        loop {
            match self.state {
                WaitState::CheckChild(slot) => {
                    if slot >= ARRIVAL_ARITY {
                        self.state = WaitState::ResetChild(0);
                        continue;
                    }
                    if !self.have_child[slot as usize] {
                        self.state = WaitState::CheckChild(slot + 1);
                        continue;
                    }
                    self.state = WaitState::WaitChild(slot);
                    return Step::Op(MemOp::Load {
                        addr: self.own_flags + slot as u64 * 8,
                    });
                }
                WaitState::WaitChild(slot) => {
                    let v = last.expect("child flag read").value().expect("load value");
                    if v == 0 {
                        // This child arrived; check the next.
                        self.state = WaitState::CheckChild(slot + 1);
                        continue;
                    }
                    // Still waiting: spin until the child clears it.
                    return Step::SpinWhile {
                        addr: self.own_flags + slot as u64 * 8,
                        value: v,
                        pause: SPIN_DELAY,
                    };
                }
                WaitState::ResetChild(slot) => {
                    if slot >= ARRIVAL_ARITY {
                        self.state = WaitState::NotifyParent;
                        continue;
                    }
                    if !self.have_child[slot as usize] {
                        self.state = WaitState::ResetChild(slot + 1);
                        continue;
                    }
                    self.state = WaitState::ResetChild(slot + 1);
                    return Step::Op(MemOp::Store {
                        addr: self.own_flags + slot as u64 * 8,
                        value: 1,
                    });
                }
                WaitState::NotifyParent => {
                    match self.arrival_parent {
                        Some(slot_addr) => {
                            self.state = WaitState::SpinParent;
                            return Step::Op(MemOp::Store {
                                addr: slot_addr,
                                value: 0,
                            });
                        }
                        None => {
                            // Root: go straight to waking children.
                            self.state = WaitState::WakeChild(0);
                            continue;
                        }
                    }
                }
                WaitState::SpinParent => {
                    self.state = WaitState::WaitParent;
                    return Step::Op(MemOp::Load {
                        addr: self.own_sense_word,
                    });
                }
                WaitState::WaitParent => {
                    let v = last.expect("sense read").value().expect("load value");
                    if v == self.sense {
                        self.state = WaitState::WakeChild(0);
                        continue;
                    }
                    return Step::SpinWhile {
                        addr: self.own_sense_word,
                        value: v,
                        pause: SPIN_DELAY,
                    };
                }
                WaitState::WakeChild(i) => {
                    if (i as usize) < self.wakeup_children.len() {
                        let addr = self.wakeup_children[i as usize];
                        self.state = WaitState::WakeChild(i + 1);
                        return Step::Op(MemOp::Store {
                            addr,
                            value: self.sense,
                        });
                    }
                    self.state = WaitState::Finished;
                    return Step::Done;
                }
                WaitState::Finished => return Step::Done,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_disjoint() {
        let mut alloc = ShmAlloc::new(32, 8);
        let b = TreeBarrier::layout(&mut alloc, 8);
        let mut lines: Vec<u64> = b
            .childnotready
            .iter()
            .chain(b.parentsense.iter())
            .map(|a| a.line(32).number())
            .collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), 16, "every structure on its own line");
    }

    #[test]
    fn initial_values_match_tree_shape() {
        let mut alloc = ShmAlloc::new(32, 8);
        let b = TreeBarrier::layout(&mut alloc, 6);
        let init = b.initial_values();
        // Proc 0 has arrival children 1..=4 (all exist), proc 1 has
        // child 5 in slot 0 only, procs 2+ have none.
        let flag = |p: usize, s: u64| {
            init.iter()
                .find(|(a, _)| *a == b.childnotready[p] + s * 8)
                .map(|(_, v)| *v)
                .unwrap()
        };
        for s in 0..4 {
            assert_eq!(flag(0, s), 1);
        }
        assert_eq!(flag(1, 0), 1);
        assert_eq!(flag(1, 1), 0);
        assert_eq!(flag(2, 0), 0);
    }

    #[test]
    fn single_processor_barrier_is_trivial() {
        let mut alloc = ShmAlloc::new(32, 1);
        let b = TreeBarrier::layout(&mut alloc, 1);
        let mut w = b.wait(0, 1);
        let mut rng = SimRng::new(1);
        // No children, no parent: immediately done.
        assert_eq!(w.step(None, &mut rng), Step::Done);
    }

    /// Sequentially simulate all processors' episodes against one
    /// shared word map, round-robin, and check nobody exits the barrier
    /// before everyone arrived.
    #[test]
    fn all_exit_only_after_all_arrive() {
        use std::collections::HashMap;
        let nprocs = 10u32;
        let mut alloc = ShmAlloc::new(32, nprocs);
        let b = TreeBarrier::layout(&mut alloc, nprocs);
        let mut mem: HashMap<u64, u64> = b
            .initial_values()
            .into_iter()
            .map(|(a, v)| (a.as_u64(), v))
            .collect();

        let mut rng = SimRng::new(2);
        let mut waits: Vec<TreeBarrierWait> = (0..nprocs).map(|p| b.wait(p, 1)).collect();
        let mut last: Vec<Option<OpResult>> = vec![None; nprocs as usize];
        let mut done = vec![false; nprocs as usize];
        // Hold processor 7 back for a while.
        let delayed: usize = 7;
        let mut spins: Vec<Option<(Addr, u64)>> = vec![None; nprocs as usize];
        let mut ticks = 0;
        while !done.iter().all(|&d| d) {
            ticks += 1;
            assert!(ticks < 100_000, "barrier did not complete");
            for p in 0..nprocs as usize {
                if done[p] || (p == delayed && ticks < 50) {
                    continue;
                }
                // One spin iteration per tick: re-read, maybe exit.
                if let Some((addr, value)) = spins[p] {
                    let v = mem.get(&addr.as_u64()).copied().unwrap_or(0);
                    if v != value {
                        spins[p] = None;
                        last[p] = Some(OpResult::Loaded {
                            value: v,
                            serial: None,
                            reserved: false,
                        });
                    }
                    continue;
                }
                match waits[p].step(last[p].take(), &mut rng) {
                    Step::Op(MemOp::Load { addr }) => {
                        last[p] = Some(OpResult::Loaded {
                            value: mem.get(&addr.as_u64()).copied().unwrap_or(0),
                            serial: None,
                            reserved: false,
                        });
                    }
                    Step::Op(MemOp::Store { addr, value }) => {
                        mem.insert(addr.as_u64(), value);
                        last[p] = Some(OpResult::Stored);
                    }
                    Step::Op(other) => panic!("barrier issued {other:?}"),
                    Step::Compute(_) => {}
                    Step::SpinWhile { addr, value, .. } => spins[p] = Some((addr, value)),
                    Step::Done => {
                        done[p] = true;
                        assert!(
                            ticks >= 50,
                            "processor {p} exited before the delayed processor arrived"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_processor_rejected() {
        let mut alloc = ShmAlloc::new(32, 4);
        let b = TreeBarrier::layout(&mut alloc, 4);
        let _ = b.wait(4, 1);
    }
}
