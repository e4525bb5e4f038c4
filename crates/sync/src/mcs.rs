//! The MCS list-based queue lock (Mellor-Crummey & Scott \[20\]).
//!
//! The paper's third synthetic application protects a counter with an
//! MCS lock "to cover the case in which load_linked/store_conditional
//! simulates compare_and_swap". The lock needs two atomic operations on
//! its tail pointer — `fetch_and_store` (swap) to enqueue and
//! `compare_and_swap` to dequeue — and this module builds them from each
//! primitive family:
//!
//! * **CAS** — native CAS; swap is simulated by a load + CAS retry loop;
//! * **LL/SC** — both swap and CAS simulated with LL/SC loops;
//! * **FAΦ** — native `fetch_and_store`; since FAΦ cannot simulate CAS
//!   (it is at level 2 of Herlihy's hierarchy), release uses the
//!   swap-only variant from the MCS paper, which repairs the queue when
//!   it races with a concurrent enqueue.
//!
//! Queue-node pointers are represented as the byte address of the
//! node's `next` word; 0 is nil (the allocator never hands out line 0).

use crate::primitive::{PrimChoice, Primitive};
use crate::submachine::{Step, SubMachine};
use dsm_protocol::{MemOp, OpResult, PhiOp};
use dsm_sim::{Addr, SimRng};

/// The shared memory layout of one MCS lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McsLock {
    /// The tail pointer — the atomically accessed synchronization word.
    pub tail: Addr,
}

/// One processor's queue node: `next` and `locked` words (same line —
/// the owner spins on `locked` locally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McsQnode {
    /// Address of the `next` pointer word; doubles as this node's id.
    pub next: Addr,
    /// Address of the `locked` flag word.
    pub locked: Addr,
}

impl McsQnode {
    /// Builds a qnode from its base address (two consecutive words).
    pub fn at(base: Addr) -> Self {
        McsQnode {
            next: base,
            locked: base + 8,
        }
    }

    /// This node's pointer value.
    pub fn id(&self) -> u64 {
        self.next.as_u64()
    }
}

/// How long (cycles) a waiter sleeps between spin reads of its `locked`
/// flag. Spins are local cache hits under the INV base protocol, so this
/// mainly bounds simulator event counts.
const SPIN_DELAY: u64 = 4;

/// Acquire side of the MCS lock.
#[derive(Debug, Clone)]
pub struct McsAcquire {
    lock: McsLock,
    qnode: McsQnode,
    choice: PrimChoice,
    state: AcqState,
    /// Serial number the successful enqueue SC used (serial-number
    /// scheme only); the tail's serial afterwards is this plus one.
    enqueue_serial: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcqState {
    InitNext,
    InitLocked,
    SwapStart,
    WaitSwapFetch,
    WaitSwapLoad,
    WaitSwapCas { expected: u64 },
    WaitSwapLl,
    WaitSwapSc { observed: u64 },
    LinkPred { pred: u64 },
    SpinLoad,
    WaitSpin,
}

impl McsAcquire {
    /// Creates an acquire of `lock` using `qnode` as this processor's
    /// queue node.
    pub fn new(lock: McsLock, qnode: McsQnode, choice: PrimChoice) -> Self {
        McsAcquire {
            lock,
            qnode,
            choice,
            state: AcqState::InitNext,
            enqueue_serial: None,
        }
    }

    /// After a successful LL/SC acquire under the serial-number scheme,
    /// the tail's serial number (our SC's serial plus one) — the datum
    /// §3.1 says lets the release issue a *bare* store-conditional,
    /// "reducing by one the number of memory accesses required to
    /// relinquish the lock".
    pub fn tail_serial_after_acquire(&self) -> Option<u64> {
        self.enqueue_serial.map(|s| s.wrapping_add(1))
    }

    /// Resets for a fresh acquisition.
    pub fn reset(&mut self) {
        self.state = AcqState::InitNext;
    }

    fn start_swap(&mut self) -> Step {
        match self.choice.prim {
            Primitive::FetchPhi => {
                self.state = AcqState::WaitSwapFetch;
                Step::Op(MemOp::FetchPhi {
                    addr: self.lock.tail,
                    op: PhiOp::Store(self.qnode.id()),
                })
            }
            Primitive::Cas => {
                self.state = AcqState::WaitSwapLoad;
                if self.choice.load_exclusive {
                    Step::Op(MemOp::LoadExclusive {
                        addr: self.lock.tail,
                    })
                } else {
                    Step::Op(MemOp::Load {
                        addr: self.lock.tail,
                    })
                }
            }
            Primitive::Llsc => {
                self.state = AcqState::WaitSwapLl;
                Step::Op(MemOp::LoadLinked {
                    addr: self.lock.tail,
                })
            }
        }
    }

    fn swapped(&mut self, pred: u64) -> Step {
        if pred == 0 {
            Step::Done
        } else {
            self.state = AcqState::LinkPred { pred };
            // pred is the address of the predecessor's `next` word.
            Step::Op(MemOp::Store {
                addr: Addr::new(pred),
                value: self.qnode.id(),
            })
        }
    }
}

impl SubMachine for McsAcquire {
    fn step(&mut self, last: Option<OpResult>, _rng: &mut SimRng) -> Step {
        match self.state {
            AcqState::InitNext => {
                self.state = AcqState::InitLocked;
                Step::Op(MemOp::Store {
                    addr: self.qnode.next,
                    value: 0,
                })
            }
            AcqState::InitLocked => {
                self.state = AcqState::SwapStart;
                Step::Op(MemOp::Store {
                    addr: self.qnode.locked,
                    value: 1,
                })
            }
            AcqState::SwapStart => self.start_swap(),
            AcqState::WaitSwapFetch => {
                let OpResult::Fetched { old } = last.expect("swap result") else {
                    panic!("expected Fetched");
                };
                self.swapped(old)
            }
            AcqState::WaitSwapLoad => {
                let v = last.expect("load result").value().expect("load value");
                self.state = AcqState::WaitSwapCas { expected: v };
                Step::Op(MemOp::Cas {
                    addr: self.lock.tail,
                    expected: v,
                    new: self.qnode.id(),
                })
            }
            AcqState::WaitSwapCas { expected } => match last.expect("CAS result") {
                OpResult::CasDone { success: true, .. } => self.swapped(expected),
                OpResult::CasDone {
                    success: false,
                    observed,
                } => {
                    self.state = AcqState::WaitSwapCas { expected: observed };
                    Step::Op(MemOp::Cas {
                        addr: self.lock.tail,
                        expected: observed,
                        new: self.qnode.id(),
                    })
                }
                other => panic!("expected CasDone, got {other:?}"),
            },
            AcqState::WaitSwapLl => {
                let OpResult::Loaded { value, serial, .. } = last.expect("LL result") else {
                    panic!("expected Loaded");
                };
                self.enqueue_serial = serial;
                self.state = AcqState::WaitSwapSc { observed: value };
                Step::Op(MemOp::StoreConditional {
                    addr: self.lock.tail,
                    value: self.qnode.id(),
                    serial,
                })
            }
            AcqState::WaitSwapSc { observed } => match last.expect("SC result") {
                OpResult::ScDone { success: true } => self.swapped(observed),
                OpResult::ScDone { success: false } => {
                    self.state = AcqState::WaitSwapLl;
                    Step::Op(MemOp::LoadLinked {
                        addr: self.lock.tail,
                    })
                }
                other => panic!("expected ScDone, got {other:?}"),
            },
            AcqState::LinkPred { .. } => {
                self.state = AcqState::SpinLoad;
                Step::Op(MemOp::Load {
                    addr: self.qnode.locked,
                })
            }
            AcqState::SpinLoad => {
                self.state = AcqState::WaitSpin;
                Step::Op(MemOp::Load {
                    addr: self.qnode.locked,
                })
            }
            AcqState::WaitSpin => {
                let v = last.expect("spin read").value().expect("load value");
                if v == 0 {
                    Step::Done
                } else {
                    Step::SpinWhile {
                        addr: self.qnode.locked,
                        value: v,
                        pause: SPIN_DELAY,
                    }
                }
            }
        }
    }
}

/// Release side of the MCS lock.
#[derive(Debug, Clone)]
pub struct McsRelease {
    lock: McsLock,
    qnode: McsQnode,
    choice: PrimChoice,
    state: RelState,
    bare_serial: Option<u64>,
    /// Memory accesses this release saved via the bare SC (0 or 1).
    pub bare_sc_hits: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RelState {
    ReadNext,
    WaitNext,
    // CAS / LL-SC path.
    WaitCas,
    WaitLl,
    WaitSc,
    WaitSpinNext,
    // FAΦ (swap-only) path.
    WaitSwapOut,
    WaitUsurperSwap { old_tail: u64 },
    FapSpinNext { usurper: u64 },
    FapWaitSpinNext { usurper: u64 },
    WaitHandoff,
    DropTail,
    WaitBareSc,
}

impl McsRelease {
    /// Creates a release of `lock` from `qnode`.
    pub fn new(lock: McsLock, qnode: McsQnode, choice: PrimChoice) -> Self {
        McsRelease {
            lock,
            qnode,
            choice,
            state: RelState::ReadNext,
            bare_serial: None,
            bare_sc_hits: 0,
        }
    }

    /// Enables the §3.1 bare-store-conditional release: `serial` is the
    /// tail serial recorded by
    /// [`McsAcquire::tail_serial_after_acquire`]. When no successor has
    /// enqueued, the release is a single SC instead of an LL/SC pair;
    /// if anyone enqueued, the tail's serial moved on, the bare SC
    /// fails, and the release falls back to the ordinary path.
    pub fn with_bare_serial(mut self, serial: Option<u64>) -> Self {
        self.bare_serial = serial;
        self
    }

    /// Resets for another release.
    pub fn reset(&mut self) {
        self.state = RelState::ReadNext;
    }

    fn unlock_successor(&mut self, successor: u64) -> Step {
        self.state = RelState::WaitHandoff;
        // successor points at a qnode's `next` word; its `locked` word
        // is 8 bytes further.
        Step::Op(MemOp::Store {
            addr: Addr::new(successor + 8),
            value: 0,
        })
    }

    /// Spins on our `next` word and resumes in `WaitSpinNext` with the
    /// successor's link.
    fn spin_next(&mut self) -> Step {
        self.state = RelState::WaitSpinNext;
        self.spin_next_word()
    }

    /// Spins until a successor links itself into our `next` word.
    fn spin_next_word(&self) -> Step {
        Step::SpinWhile {
            addr: self.qnode.next,
            value: 0,
            pause: SPIN_DELAY,
        }
    }

    /// Finishes the release, optionally dropping the cached copy of the
    /// tail word so the next enqueuer's swap finds it uncached.
    fn finish(&mut self) -> Step {
        if self.choice.drop_copy {
            self.state = RelState::DropTail;
            Step::Op(MemOp::DropCopy {
                addr: self.lock.tail,
            })
        } else {
            Step::Done
        }
    }
}

impl SubMachine for McsRelease {
    fn step(&mut self, last: Option<OpResult>, _rng: &mut SimRng) -> Step {
        match self.state {
            RelState::ReadNext => {
                self.state = RelState::WaitNext;
                Step::Op(MemOp::Load {
                    addr: self.qnode.next,
                })
            }
            RelState::WaitNext => {
                let next = last.expect("next read").value().expect("load value");
                if next != 0 {
                    return self.unlock_successor(next);
                }
                // No known successor: detach the queue.
                match self.choice.prim {
                    Primitive::Cas => {
                        self.state = RelState::WaitCas;
                        Step::Op(MemOp::Cas {
                            addr: self.lock.tail,
                            expected: self.qnode.id(),
                            new: 0,
                        })
                    }
                    Primitive::Llsc => {
                        if let Some(serial) = self.bare_serial.take() {
                            // Bare SC: no LL needed — we know both the
                            // expected value (us) and the serial.
                            self.state = RelState::WaitBareSc;
                            return Step::Op(MemOp::StoreConditional {
                                addr: self.lock.tail,
                                value: 0,
                                serial: Some(serial),
                            });
                        }
                        self.state = RelState::WaitLl;
                        Step::Op(MemOp::LoadLinked {
                            addr: self.lock.tail,
                        })
                    }
                    Primitive::FetchPhi => {
                        // Swap-only release (MCS, Algorithm 5): swap nil
                        // in and repair if we raced with an enqueue.
                        self.state = RelState::WaitSwapOut;
                        Step::Op(MemOp::FetchPhi {
                            addr: self.lock.tail,
                            op: PhiOp::Store(0),
                        })
                    }
                }
            }
            RelState::WaitCas => match last.expect("CAS result") {
                OpResult::CasDone { success: true, .. } => self.finish(),
                OpResult::CasDone { success: false, .. } => {
                    // Someone is enqueueing behind us: wait for the link.
                    self.spin_next()
                }
                other => panic!("expected CasDone, got {other:?}"),
            },
            RelState::WaitLl => {
                let OpResult::Loaded { value, serial, .. } = last.expect("LL result") else {
                    panic!("expected Loaded");
                };
                if value == self.qnode.id() {
                    self.state = RelState::WaitSc;
                    Step::Op(MemOp::StoreConditional {
                        addr: self.lock.tail,
                        value: 0,
                        serial,
                    })
                } else {
                    // Tail moved on: a successor is linking itself.
                    self.spin_next()
                }
            }
            RelState::WaitBareSc => match last.expect("SC result") {
                OpResult::ScDone { success: true } => {
                    // The single-access release the paper promises.
                    self.bare_sc_hits = 1;
                    self.finish()
                }
                OpResult::ScDone { success: false } => {
                    // A successor enqueued (the serial moved on): fall
                    // back to the ordinary release.
                    self.state = RelState::WaitLl;
                    Step::Op(MemOp::LoadLinked {
                        addr: self.lock.tail,
                    })
                }
                other => panic!("expected ScDone, got {other:?}"),
            },
            RelState::WaitSc => match last.expect("SC result") {
                OpResult::ScDone { success: true } => self.finish(),
                OpResult::ScDone { success: false } => {
                    self.state = RelState::WaitLl;
                    Step::Op(MemOp::LoadLinked {
                        addr: self.lock.tail,
                    })
                }
                other => panic!("expected ScDone, got {other:?}"),
            },
            RelState::WaitSpinNext => {
                let next = last.expect("spin read").value().expect("load value");
                if next != 0 {
                    self.unlock_successor(next)
                } else {
                    self.spin_next()
                }
            }
            RelState::WaitSwapOut => {
                let OpResult::Fetched { old } = last.expect("swap result") else {
                    panic!("expected Fetched");
                };
                if old == self.qnode.id() {
                    // Nobody slipped in: done.
                    return self.finish();
                }
                // old != us: processes enqueued after us and we have now
                // pulled them off the queue. Put them back and hand over.
                self.state = RelState::WaitUsurperSwap { old_tail: old };
                Step::Op(MemOp::FetchPhi {
                    addr: self.lock.tail,
                    op: PhiOp::Store(old),
                })
            }
            RelState::WaitUsurperSwap { .. } => {
                let OpResult::Fetched { old: usurper } = last.expect("swap result") else {
                    panic!("expected Fetched");
                };
                self.state = RelState::FapSpinNext { usurper };
                Step::Op(MemOp::Load {
                    addr: self.qnode.next,
                })
            }
            RelState::FapSpinNext { usurper } => {
                self.state = RelState::FapWaitSpinNext { usurper };
                Step::Op(MemOp::Load {
                    addr: self.qnode.next,
                })
            }
            RelState::FapWaitSpinNext { usurper } => {
                let next = last.expect("spin read").value().expect("load value");
                if next == 0 {
                    return self.spin_next_word();
                }
                if usurper != 0 {
                    // An usurper grabbed the lock word while it was nil;
                    // give it our successors by linking them behind it.
                    self.state = RelState::WaitHandoff;
                    Step::Op(MemOp::Store {
                        addr: Addr::new(usurper),
                        value: next,
                    })
                } else {
                    self.unlock_successor(next)
                }
            }
            RelState::WaitHandoff => self.finish(),
            RelState::DropTail => Step::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submachine::{drive_sync, SeqMem};

    const TAIL: Addr = Addr::new(0x100);

    fn lock() -> McsLock {
        McsLock { tail: TAIL }
    }

    fn qnode(n: u64) -> McsQnode {
        McsQnode::at(Addr::new(0x1000 + n * 64))
    }

    #[test]
    fn qnode_layout() {
        let q = McsQnode::at(Addr::new(0x40));
        assert_eq!(q.next, Addr::new(0x40));
        assert_eq!(q.locked, Addr::new(0x48));
        assert_eq!(q.id(), 0x40);
    }

    #[test]
    fn uncontended_acquire_release_each_primitive() {
        for prim in Primitive::ALL {
            let mut mem = SeqMem::default();
            let mut rng = SimRng::new(1);
            let q = qnode(0);
            let mut acq = McsAcquire::new(lock(), q, PrimChoice::plain(prim));
            drive_sync(&mut acq, &mut rng, 1000, |op| mem.eval(op));
            assert_eq!(mem.get(TAIL), q.id(), "{prim}: tail points at us");

            let mut rel = McsRelease::new(lock(), q, PrimChoice::plain(prim));
            drive_sync(&mut rel, &mut rng, 1000, |op| mem.eval(op));
            assert_eq!(mem.get(TAIL), 0, "{prim}: tail cleared");
        }
    }

    #[test]
    fn queued_acquire_spins_until_handoff() {
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        let (q0, q1) = (qnode(0), qnode(1));

        // P0 acquires.
        let mut acq0 = McsAcquire::new(lock(), q0, PrimChoice::plain(Primitive::Cas));
        drive_sync(&mut acq0, &mut rng, 1000, |op| mem.eval(op));

        // P1 starts acquiring: it must link behind P0 and spin.
        let mut acq1 = McsAcquire::new(lock(), q1, PrimChoice::plain(Primitive::Cas));
        let mut last = None;
        let mut spun = 0;
        let acquired_after_release = loop {
            match acq1.step(last.take(), &mut rng) {
                Step::Op(op) => last = Some(mem.eval(op)),
                Step::Compute(_) => panic!("MCS waits with SpinWhile, not Compute"),
                Step::SpinWhile { addr, value, .. } => loop {
                    assert_eq!(addr, q1.locked, "P1 spins on its own flag");
                    spun += 1;
                    if spun == 3 {
                        // Release P0 mid-spin.
                        let mut rel0 =
                            McsRelease::new(lock(), q0, PrimChoice::plain(Primitive::Cas));
                        drive_sync(&mut rel0, &mut rng, 1000, |op| mem.eval(op));
                    }
                    assert!(spun < 100, "P1 never got the lock");
                    let r = mem.eval(MemOp::Load { addr });
                    if r.value() != Some(value) {
                        last = Some(r);
                        break;
                    }
                },
                Step::Done => break true,
            }
        };
        assert!(acquired_after_release);
        assert_eq!(mem.get(q0.next), q1.id(), "P0's next linked to P1");
        assert_eq!(mem.get(q1.locked), 0, "P0 unlocked P1 on release");
        assert_eq!(mem.get(TAIL), q1.id(), "tail now points at P1");
    }

    #[test]
    fn release_with_waiting_successor_hands_off_directly() {
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        let (q0, q1) = (qnode(0), qnode(1));
        // Queue state: P0 holds, P1 linked and spinning.
        mem.set(TAIL, q1.id());
        mem.set(q0.next, q1.id());
        mem.set(q1.locked, 1);

        let mut rel = McsRelease::new(lock(), q0, PrimChoice::plain(Primitive::Cas));
        let ops = drive_sync(&mut rel, &mut rng, 100, |op| mem.eval(op));
        assert_eq!(ops, 2, "read next + unlock successor");
        assert_eq!(mem.get(q1.locked), 0);
        assert_eq!(mem.get(TAIL), q1.id(), "tail untouched");
    }

    #[test]
    fn swap_only_release_repairs_usurped_queue() {
        // Scenario from the MCS paper: P0 releases with swap; between
        // P1's swap-in and link-store, P0's release swaps the tail to
        // nil; an usurper P2 then swaps itself in. P0 must splice P1
        // behind P2.
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        let (q0, q1, q2) = (qnode(0), qnode(1), qnode(2));

        // P1 has swapped itself in (tail = q1) but NOT yet linked into
        // q0.next.
        mem.set(TAIL, q1.id());
        mem.set(q1.locked, 1);

        let mut rel = McsRelease::new(lock(), q0, PrimChoice::plain(Primitive::FetchPhi));
        let mut last = None;
        let mut step_count = 0;
        loop {
            step_count += 1;
            assert!(step_count < 200, "release did not finish");
            match rel.step(last.take(), &mut rng) {
                Step::Op(op) => {
                    last = Some(mem.eval(op));
                    // After P0's first swap (tail -> 0), P2 usurps and
                    // P1 completes its link.
                    if step_count == 2 {
                        assert_eq!(mem.get(TAIL), 0, "P0 swapped nil in");
                        mem.set(TAIL, q2.id()); // P2 swaps in (sees nil => holds lock)
                        mem.set(q0.next, q1.id()); // P1 finishes its link
                    }
                }
                Step::Compute(_) => {}
                Step::SpinWhile { .. } => panic!("P1 linked before P0 looked"),
                Step::Done => break,
            }
        }
        // P0 restored the tail to q1 (the original old_tail) and gave
        // the usurper P2 the orphaned successors: q2.next = q1.
        assert_eq!(mem.get(TAIL), q1.id());
        assert_eq!(
            mem.get(q2.next),
            q1.id(),
            "usurper inherits the orphaned queue"
        );
        assert_eq!(mem.get(q1.locked), 1, "P1 still waits (P2 holds the lock)");
    }

    #[test]
    fn llsc_release_retries_sc() {
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        let q0 = qnode(0);
        mem.set(TAIL, q0.id());
        let mut rel = McsRelease::new(lock(), q0, PrimChoice::plain(Primitive::Llsc));
        let mut failed_once = false;
        drive_sync(&mut rel, &mut rng, 100, |op| {
            if matches!(op, MemOp::StoreConditional { .. }) && !failed_once {
                failed_once = true;
                // Another processor rewrites the tail between LL and SC.
                mem.set(TAIL, q0.id());
            }
            mem.eval(op)
        });
        assert!(failed_once);
        assert_eq!(mem.get(TAIL), 0);
    }
}
