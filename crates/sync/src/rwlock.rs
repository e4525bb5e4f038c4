//! A centralized reader-writer lock.
//!
//! The paper lists reader-writer locks \[21\] among the synchronization
//! styles that "need or benefit from compare_and_swap" (§2.2). This is
//! the centralized counter-based variant: one word encodes a writer bit
//! and a reader count, manipulated with CAS or LL/SC (a `fetch_and_Φ`-
//! only machine cannot implement the conditional acquire path, which is
//! precisely Herlihy's point about levels of the hierarchy — though it
//! *can* execute the unconditional reader release, and
//! [`ReadRelease`] uses `fetch_and_add` when asked to).
//!
//! Writers are exclusive; readers are concurrent with each other.
//! Acquisition uses test-and-test-and-set style spinning with bounded
//! exponential backoff.

use crate::backoff::Backoff;
use crate::primitive::Primitive;
use crate::submachine::{Step, SubMachine};
use dsm_protocol::{MemOp, OpResult, PhiOp};
use dsm_sim::{Addr, SimRng};

/// The writer-held bit in the lock word (the low bits count readers).
pub const WRITER_BIT: u64 = 1 << 63;

/// Acquires the lock for reading: spins until no writer holds it, then
/// atomically increments the reader count.
#[derive(Debug, Clone)]
pub struct ReadAcquire {
    lock: Addr,
    prim: Primitive,
    backoff: Backoff,
    state: RwState,
}

/// Releases a read hold: atomically decrements the reader count.
#[derive(Debug, Clone)]
pub struct ReadRelease {
    lock: Addr,
    prim: Primitive,
    state: RwState,
}

/// Acquires the lock for writing: spins until the word is 0 (no writer,
/// no readers), then atomically sets the writer bit.
#[derive(Debug, Clone)]
pub struct WriteAcquire {
    lock: Addr,
    prim: Primitive,
    backoff: Backoff,
    state: RwState,
}

/// Releases a write hold: an ordinary store of 0.
#[derive(Debug, Clone)]
pub struct WriteRelease {
    lock: Addr,
    done: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RwState {
    Read,
    WaitRead,
    WaitSwap { observed: u64 },
    WaitFetch,
}

fn assert_universal(prim: Primitive) {
    assert!(
        prim != Primitive::FetchPhi,
        "fetch_and_Φ alone cannot implement the conditional RW-lock acquire \
         (it is at level 2 of Herlihy's hierarchy); use CAS or LL/SC"
    );
}

impl ReadAcquire {
    /// Creates a read acquire using `prim` (CAS or LL/SC).
    ///
    /// # Panics
    ///
    /// Panics if `prim` is [`Primitive::FetchPhi`].
    pub fn new(lock: Addr, prim: Primitive) -> Self {
        assert_universal(prim);
        ReadAcquire {
            lock,
            prim,
            backoff: Backoff::default(),
            state: RwState::Read,
        }
    }
}

impl SubMachine for ReadAcquire {
    fn step(&mut self, last: Option<OpResult>, rng: &mut SimRng) -> Step {
        match self.state {
            RwState::Read => {
                self.state = RwState::WaitRead;
                match self.prim {
                    Primitive::Llsc => Step::Op(MemOp::LoadLinked { addr: self.lock }),
                    _ => Step::Op(MemOp::Load { addr: self.lock }),
                }
            }
            RwState::WaitRead => {
                let result = last.expect("lock read");
                let v = result.value().expect("load value");
                if v & WRITER_BIT != 0 {
                    self.state = RwState::Read;
                    return Step::Compute(self.backoff.next(rng));
                }
                self.state = RwState::WaitSwap { observed: v };
                match self.prim {
                    Primitive::Llsc => {
                        let serial = match result {
                            OpResult::Loaded { serial, .. } => serial,
                            _ => None,
                        };
                        Step::Op(MemOp::StoreConditional {
                            addr: self.lock,
                            value: v + 1,
                            serial,
                        })
                    }
                    _ => Step::Op(MemOp::Cas {
                        addr: self.lock,
                        expected: v,
                        new: v + 1,
                    }),
                }
            }
            RwState::WaitSwap { .. } => match last.expect("swap result") {
                OpResult::CasDone { success: true, .. } | OpResult::ScDone { success: true } => {
                    Step::Done
                }
                OpResult::CasDone { success: false, .. } | OpResult::ScDone { success: false } => {
                    self.state = RwState::Read;
                    Step::Compute(self.backoff.next(rng))
                }
                other => panic!("unexpected {other:?}"),
            },
            RwState::WaitFetch => unreachable!("read acquire never fetches"),
        }
    }
}

impl ReadRelease {
    /// Creates a read release. With [`Primitive::FetchPhi`] the
    /// decrement is a single unconditional `fetch_and_add(-1)`; the
    /// universal primitives use their retry loops.
    pub fn new(lock: Addr, prim: Primitive) -> Self {
        ReadRelease {
            lock,
            prim,
            state: RwState::Read,
        }
    }
}

impl SubMachine for ReadRelease {
    fn step(&mut self, last: Option<OpResult>, _rng: &mut SimRng) -> Step {
        match self.state {
            RwState::Read => match self.prim {
                Primitive::FetchPhi => {
                    self.state = RwState::WaitFetch;
                    Step::Op(MemOp::FetchPhi {
                        addr: self.lock,
                        op: PhiOp::Add(u64::MAX),
                    })
                }
                Primitive::Llsc => {
                    self.state = RwState::WaitRead;
                    Step::Op(MemOp::LoadLinked { addr: self.lock })
                }
                Primitive::Cas => {
                    self.state = RwState::WaitRead;
                    Step::Op(MemOp::Load { addr: self.lock })
                }
            },
            RwState::WaitFetch => {
                let OpResult::Fetched { old } = last.expect("fetch result") else {
                    panic!("expected Fetched");
                };
                debug_assert!(old & !WRITER_BIT > 0, "releasing an unheld read lock");
                Step::Done
            }
            RwState::WaitRead => {
                let result = last.expect("lock read");
                let v = result.value().expect("load value");
                debug_assert!(v & !WRITER_BIT > 0, "releasing an unheld read lock");
                self.state = RwState::WaitSwap { observed: v };
                match self.prim {
                    Primitive::Llsc => {
                        let serial = match result {
                            OpResult::Loaded { serial, .. } => serial,
                            _ => None,
                        };
                        Step::Op(MemOp::StoreConditional {
                            addr: self.lock,
                            value: v - 1,
                            serial,
                        })
                    }
                    _ => Step::Op(MemOp::Cas {
                        addr: self.lock,
                        expected: v,
                        new: v - 1,
                    }),
                }
            }
            RwState::WaitSwap { .. } => match last.expect("swap result") {
                OpResult::CasDone { success: true, .. } | OpResult::ScDone { success: true } => {
                    Step::Done
                }
                OpResult::CasDone { success: false, .. } | OpResult::ScDone { success: false } => {
                    self.state = RwState::Read;
                    // Retry immediately: the decrement is unconditional.
                    self.step(None, _rng)
                }
                other => panic!("unexpected {other:?}"),
            },
        }
    }
}

impl WriteAcquire {
    /// Creates a write acquire using `prim` (CAS or LL/SC).
    ///
    /// # Panics
    ///
    /// Panics if `prim` is [`Primitive::FetchPhi`].
    pub fn new(lock: Addr, prim: Primitive) -> Self {
        assert_universal(prim);
        WriteAcquire {
            lock,
            prim,
            backoff: Backoff::default(),
            state: RwState::Read,
        }
    }
}

impl SubMachine for WriteAcquire {
    fn step(&mut self, last: Option<OpResult>, rng: &mut SimRng) -> Step {
        match self.state {
            RwState::Read => {
                self.state = RwState::WaitRead;
                match self.prim {
                    Primitive::Llsc => Step::Op(MemOp::LoadLinked { addr: self.lock }),
                    _ => Step::Op(MemOp::Load { addr: self.lock }),
                }
            }
            RwState::WaitRead => {
                let result = last.expect("lock read");
                let v = result.value().expect("load value");
                if v != 0 {
                    // Readers active or writer present: back off.
                    self.state = RwState::Read;
                    return Step::Compute(self.backoff.next(rng));
                }
                self.state = RwState::WaitSwap { observed: v };
                match self.prim {
                    Primitive::Llsc => {
                        let serial = match result {
                            OpResult::Loaded { serial, .. } => serial,
                            _ => None,
                        };
                        Step::Op(MemOp::StoreConditional {
                            addr: self.lock,
                            value: WRITER_BIT,
                            serial,
                        })
                    }
                    _ => Step::Op(MemOp::Cas {
                        addr: self.lock,
                        expected: 0,
                        new: WRITER_BIT,
                    }),
                }
            }
            RwState::WaitSwap { .. } => match last.expect("swap result") {
                OpResult::CasDone { success: true, .. } | OpResult::ScDone { success: true } => {
                    Step::Done
                }
                OpResult::CasDone { success: false, .. } | OpResult::ScDone { success: false } => {
                    self.state = RwState::Read;
                    Step::Compute(self.backoff.next(rng))
                }
                other => panic!("unexpected {other:?}"),
            },
            RwState::WaitFetch => unreachable!("write acquire never fetches"),
        }
    }
}

impl WriteRelease {
    /// Creates a write release.
    pub fn new(lock: Addr) -> Self {
        WriteRelease { lock, done: false }
    }
}

impl SubMachine for WriteRelease {
    fn step(&mut self, _last: Option<OpResult>, _rng: &mut SimRng) -> Step {
        if self.done {
            Step::Done
        } else {
            self.done = true;
            Step::Op(MemOp::Store {
                addr: self.lock,
                value: 0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submachine::{drive_sync, SeqMem};

    const L: Addr = Addr::new(0x40);

    fn lock_at(value: u64) -> SeqMem {
        let mut mem = SeqMem::default();
        mem.set(L, value);
        mem
    }

    #[test]
    fn readers_stack_up_and_drain() {
        for prim in [Primitive::Cas, Primitive::Llsc] {
            let mut mem = lock_at(0);
            let mut rng = SimRng::new(1);
            for expected in 1..=3u64 {
                let mut a = ReadAcquire::new(L, prim);
                drive_sync(&mut a, &mut rng, 100, |op| mem.eval(op));
                assert_eq!(mem.get(L), expected, "{prim}");
            }
            for expected in (0..=2u64).rev() {
                let mut r = ReadRelease::new(L, prim);
                drive_sync(&mut r, &mut rng, 100, |op| mem.eval(op));
                assert_eq!(mem.get(L), expected, "{prim}");
            }
        }
    }

    #[test]
    fn fetch_add_read_release() {
        let mut mem = lock_at(2);
        let mut rng = SimRng::new(1);
        let mut r = ReadRelease::new(L, Primitive::FetchPhi);
        let ops = drive_sync(&mut r, &mut rng, 100, |op| mem.eval(op));
        assert_eq!(ops, 1, "unconditional decrement is a single fetch_and_add");
        assert_eq!(mem.get(L), 1);
    }

    #[test]
    fn writer_excludes_and_releases() {
        let mut mem = lock_at(0);
        let mut rng = SimRng::new(1);
        let mut w = WriteAcquire::new(L, Primitive::Cas);
        drive_sync(&mut w, &mut rng, 100, |op| mem.eval(op));
        assert_eq!(mem.get(L), WRITER_BIT);
        let mut r = WriteRelease::new(L);
        drive_sync(&mut r, &mut rng, 100, |op| mem.eval(op));
        assert_eq!(mem.get(L), 0);
    }

    #[test]
    fn reader_spins_while_writer_holds() {
        let mut mem = lock_at(WRITER_BIT);
        let mut rng = SimRng::new(1);
        let mut a = ReadAcquire::new(L, Primitive::Cas);
        let mut reads = 0;
        let mut last = None;
        // Step through a few spins, then release the writer.
        for _ in 0..200 {
            match a.step(last.take(), &mut rng) {
                Step::Op(op) => {
                    if matches!(op, MemOp::Load { .. }) {
                        reads += 1;
                        if reads == 4 {
                            mem.set(L, 0); // writer releases
                        }
                    }
                    last = Some(mem.eval(op));
                }
                Step::Compute(_) => {}
                Step::SpinWhile { .. } => unreachable!("no spin-waits here"),
                Step::Done => {
                    assert_eq!(mem.get(L), 1);
                    return;
                }
            }
        }
        panic!("reader never acquired");
    }

    #[test]
    fn writer_spins_while_readers_present() {
        let mut mem = lock_at(2);
        let mut rng = SimRng::new(1);
        let mut w = WriteAcquire::new(L, Primitive::Llsc);
        let mut reads = 0;
        let mut last = None;
        for _ in 0..400 {
            match w.step(last.take(), &mut rng) {
                Step::Op(op) => {
                    if matches!(op, MemOp::LoadLinked { .. }) {
                        reads += 1;
                        if reads == 3 {
                            mem.set(L, 0); // readers drain
                        }
                    }
                    last = Some(mem.eval(op));
                }
                Step::Compute(_) => {}
                Step::SpinWhile { .. } => unreachable!("no spin-waits here"),
                Step::Done => {
                    assert_eq!(mem.get(L), WRITER_BIT);
                    return;
                }
            }
        }
        panic!("writer never acquired");
    }

    #[test]
    #[should_panic(expected = "level 2 of Herlihy's hierarchy")]
    fn fetch_phi_cannot_acquire() {
        let _ = WriteAcquire::new(L, Primitive::FetchPhi);
    }
}
