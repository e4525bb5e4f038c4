//! Lock-protected counter increments (the updates of Figures 4 and 5).
//!
//! The counter itself is ordinary shared data; only the *lock word* is
//! a synchronization variable. An update is: acquire → load counter →
//! store counter+1 → release.

use dsm_protocol::{MemOp, OpResult};
use dsm_sim::{Addr, SimRng};
use dsm_sync::{
    McsAcquire, McsLock, McsQnode, McsRelease, PrimChoice, Step, SubMachine, TtsAcquire, TtsRelease,
};

/// Which lock protects the counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// Test-and-test-and-set with bounded exponential backoff.
    Tts,
    /// The MCS queue lock.
    Mcs,
}

enum LockPhase {
    AcquireTts(TtsAcquire),
    AcquireMcs(McsAcquire),
    LoadCounter,
    WaitLoad,
    WaitStore,
    ReleaseTts(TtsRelease),
    ReleaseMcs(McsRelease),
}

/// One lock-protected increment of an ordinary counter word.
pub struct LockedIncr {
    counter: Addr,
    lock: Addr,
    kind: LockKind,
    choice: PrimChoice,
    qnode: McsQnode,
    phase: LockPhase,
}

impl std::fmt::Debug for LockedIncr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockedIncr")
            .field("counter", &self.counter)
            .field("lock", &self.lock)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

impl LockedIncr {
    /// Creates an increment of `counter` protected by the lock at
    /// `lock`. `qnode` is this processor's MCS queue node (unused for
    /// TTS, but required so callers can treat both kinds uniformly).
    pub fn new(
        counter: Addr,
        lock: Addr,
        kind: LockKind,
        choice: PrimChoice,
        qnode: McsQnode,
    ) -> Self {
        let phase = match kind {
            LockKind::Tts => LockPhase::AcquireTts(TtsAcquire::new(lock, choice)),
            LockKind::Mcs => {
                LockPhase::AcquireMcs(McsAcquire::new(McsLock { tail: lock }, qnode, choice))
            }
        };
        LockedIncr {
            counter,
            lock,
            kind,
            choice,
            qnode,
            phase,
        }
    }
}

impl SubMachine for LockedIncr {
    fn step(&mut self, mut last: Option<OpResult>, rng: &mut SimRng) -> Step {
        loop {
            match &mut self.phase {
                LockPhase::AcquireTts(a) => match a.step(last.take(), rng) {
                    Step::Done => self.phase = LockPhase::LoadCounter,
                    other => return other,
                },
                LockPhase::AcquireMcs(a) => match a.step(last.take(), rng) {
                    Step::Done => self.phase = LockPhase::LoadCounter,
                    other => return other,
                },
                LockPhase::LoadCounter => {
                    self.phase = LockPhase::WaitLoad;
                    return Step::Op(MemOp::Load { addr: self.counter });
                }
                LockPhase::WaitLoad => {
                    let v = last
                        .take()
                        .expect("counter load")
                        .value()
                        .expect("load value");
                    self.phase = LockPhase::WaitStore;
                    return Step::Op(MemOp::Store {
                        addr: self.counter,
                        value: v + 1,
                    });
                }
                LockPhase::WaitStore => {
                    last.take();
                    self.phase = match self.kind {
                        LockKind::Tts => {
                            LockPhase::ReleaseTts(TtsRelease::new(self.lock, self.choice))
                        }
                        LockKind::Mcs => LockPhase::ReleaseMcs(McsRelease::new(
                            McsLock { tail: self.lock },
                            self.qnode,
                            self.choice,
                        )),
                    };
                }
                LockPhase::ReleaseTts(r) => match r.step(last.take(), rng) {
                    Step::Done => return Step::Done,
                    other => return other,
                },
                LockPhase::ReleaseMcs(r) => match r.step(last.take(), rng) {
                    Step::Done => return Step::Done,
                    other => return other,
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_sync::{drive_sync, Primitive, SeqMem};

    const COUNTER: Addr = Addr::new(0x20);
    const LOCK: Addr = Addr::new(0x40);

    #[test]
    fn tts_protected_increment() {
        for prim in Primitive::ALL {
            let mut mem = SeqMem::default();
            let mut rng = SimRng::new(1);
            let mut incr = LockedIncr::new(
                COUNTER,
                LOCK,
                LockKind::Tts,
                PrimChoice::plain(prim),
                McsQnode::at(Addr::new(0x1000)),
            );
            drive_sync(&mut incr, &mut rng, 1000, |op| mem.eval(op));
            assert_eq!(mem.get(COUNTER), 1, "{prim}");
            assert_eq!(mem.get(LOCK), 0, "{prim}: lock released");
        }
    }

    #[test]
    fn mcs_protected_increment() {
        for prim in Primitive::ALL {
            let mut mem = SeqMem::default();
            let mut rng = SimRng::new(1);
            let mut incr = LockedIncr::new(
                COUNTER,
                LOCK,
                LockKind::Mcs,
                PrimChoice::plain(prim),
                McsQnode::at(Addr::new(0x1000)),
            );
            drive_sync(&mut incr, &mut rng, 1000, |op| mem.eval(op));
            assert_eq!(mem.get(COUNTER), 1, "{prim}");
            assert_eq!(mem.get(LOCK), 0, "{prim}: queue empty after release");
        }
    }

    #[test]
    fn repeated_increments_accumulate() {
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        for _ in 0..5 {
            let mut incr = LockedIncr::new(
                COUNTER,
                LOCK,
                LockKind::Tts,
                PrimChoice::plain(Primitive::Cas),
                McsQnode::at(Addr::new(0x1000)),
            );
            drive_sync(&mut incr, &mut rng, 1000, |op| mem.eval(op));
        }
        assert_eq!(mem.get(COUNTER), 5);
    }
}
