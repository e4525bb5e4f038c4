//! Test-and-test-and-set lock with bounded exponential backoff.
//!
//! The paper replaced the SPLASH library locks with "an assembly
//! language implementation of the test-and-test-and-set lock with
//! bounded exponential backoff implemented using the atomic primitives
//! and auxiliary instructions under study". This module reproduces that
//! lock for each primitive family:
//!
//! * **FAΦ** — the set attempt is a `test_and_set`;
//! * **CAS** — the attempt is `compare_and_swap(lock, 0, 1)`;
//! * **LL/SC** — the attempt is `load_linked`; if the value is 0,
//!   `store_conditional(1)`.

use crate::backoff::Backoff;
use crate::primitive::{PrimChoice, Primitive};
use crate::submachine::{Step, SubMachine};
use dsm_protocol::{MemOp, OpResult, PhiOp};
use dsm_sim::{Addr, SimRng};

/// Acquire side of the TTS lock.
///
/// # Example
///
/// ```
/// use dsm_sim::{Addr, SimRng};
/// use dsm_sync::{drive_sync, PrimChoice, Primitive, SeqMem, TtsAcquire};
///
/// let mut rng = SimRng::new(3);
/// let lock = Addr::new(32);
/// let mut acq = TtsAcquire::new(lock, PrimChoice::plain(Primitive::FetchPhi));
/// let mut mem = SeqMem::default();
/// drive_sync(&mut acq, &mut rng, 100, |op| mem.eval(op));
/// assert_eq!(mem.get(lock), 1, "lock acquired");
/// ```
#[derive(Debug, Clone)]
pub struct TtsAcquire {
    lock: Addr,
    choice: PrimChoice,
    backoff: Backoff,
    state: State,
    /// Failed set attempts (for statistics).
    pub attempts_failed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Test,
    WaitTest,
    WaitSet,
    WaitLl,
    WaitSc,
}

impl TtsAcquire {
    /// Creates an acquire of `lock` with the default backoff.
    pub fn new(lock: Addr, choice: PrimChoice) -> Self {
        Self::with_backoff(lock, choice, Backoff::default())
    }

    /// Creates an acquire with a specific backoff configuration.
    pub fn with_backoff(lock: Addr, choice: PrimChoice, backoff: Backoff) -> Self {
        TtsAcquire {
            lock,
            choice,
            backoff,
            state: State::Test,
            attempts_failed: 0,
        }
    }

    /// Resets for a fresh acquisition.
    pub fn reset(&mut self) {
        self.state = State::Test;
        self.backoff.reset();
    }

    fn attempt(&mut self) -> Step {
        match self.choice.prim {
            Primitive::FetchPhi => {
                self.state = State::WaitSet;
                Step::Op(MemOp::FetchPhi {
                    addr: self.lock,
                    op: PhiOp::TestAndSet,
                })
            }
            Primitive::Cas => {
                self.state = State::WaitSet;
                Step::Op(MemOp::Cas {
                    addr: self.lock,
                    expected: 0,
                    new: 1,
                })
            }
            Primitive::Llsc => {
                self.state = State::WaitLl;
                Step::Op(MemOp::LoadLinked { addr: self.lock })
            }
        }
    }

    fn failed(&mut self, rng: &mut SimRng) -> Step {
        self.attempts_failed += 1;
        self.state = State::Test;
        Step::Compute(self.backoff.next(rng))
    }
}

impl SubMachine for TtsAcquire {
    fn step(&mut self, last: Option<OpResult>, rng: &mut SimRng) -> Step {
        match self.state {
            // The "test" read: spin until the lock looks free.
            State::Test => {
                self.state = State::WaitTest;
                Step::Op(MemOp::Load { addr: self.lock })
            }
            State::WaitTest => {
                let value = last
                    .expect("result of test read")
                    .value()
                    .expect("load value");
                if value == 0 {
                    self.attempt()
                } else {
                    self.state = State::Test;
                    Step::Compute(self.backoff.next(rng))
                }
            }
            State::WaitSet => match last.expect("result of set attempt") {
                OpResult::Fetched { old } => {
                    if old == 0 {
                        Step::Done
                    } else {
                        self.failed(rng)
                    }
                }
                OpResult::CasDone { success, .. } => {
                    if success {
                        Step::Done
                    } else {
                        self.failed(rng)
                    }
                }
                other => panic!("unexpected set-attempt result {other:?}"),
            },
            State::WaitLl => {
                let OpResult::Loaded { value, serial, .. } = last.expect("result of LL") else {
                    panic!("expected Loaded");
                };
                if value == 0 {
                    self.state = State::WaitSc;
                    Step::Op(MemOp::StoreConditional {
                        addr: self.lock,
                        value: 1,
                        serial,
                    })
                } else {
                    self.failed(rng)
                }
            }
            State::WaitSc => match last.expect("result of SC") {
                OpResult::ScDone { success: true } => Step::Done,
                OpResult::ScDone { success: false } => self.failed(rng),
                other => panic!("expected ScDone, got {other:?}"),
            },
        }
    }
}

/// Release side of the TTS lock: a single ordinary store of 0 (plus an
/// optional `drop_copy`).
#[derive(Debug, Clone)]
pub struct TtsRelease {
    lock: Addr,
    drop_copy: bool,
    state: u8,
}

impl TtsRelease {
    /// Creates a release of `lock`.
    pub fn new(lock: Addr, choice: PrimChoice) -> Self {
        TtsRelease {
            lock,
            drop_copy: choice.drop_copy,
            state: 0,
        }
    }

    /// Resets for another release.
    pub fn reset(&mut self) {
        self.state = 0;
    }
}

impl SubMachine for TtsRelease {
    fn step(&mut self, _last: Option<OpResult>, _rng: &mut SimRng) -> Step {
        match self.state {
            0 => {
                self.state = 1;
                Step::Op(MemOp::Store {
                    addr: self.lock,
                    value: 0,
                })
            }
            1 if self.drop_copy => {
                self.state = 2;
                Step::Op(MemOp::DropCopy { addr: self.lock })
            }
            _ => {
                self.state = 0;
                Step::Done
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submachine::{drive_sync, SeqMem};

    const LOCK: Addr = Addr::new(32);

    /// A lock word that reads as held for the first `busy_reads` loads.
    struct LockMem {
        mem: SeqMem,
        busy_reads: u64,
    }

    impl LockMem {
        fn new(lock: u64, busy_reads: u64) -> Self {
            let mut mem = SeqMem::default();
            mem.set(LOCK, lock);
            LockMem { mem, busy_reads }
        }

        fn lock(&self) -> u64 {
            self.mem.get(LOCK)
        }

        fn eval(&mut self, op: MemOp) -> OpResult {
            if matches!(op, MemOp::Load { .. }) && self.busy_reads > 0 {
                self.busy_reads -= 1;
                return OpResult::Loaded {
                    value: 1,
                    serial: None,
                    reserved: false,
                };
            }
            self.mem.eval(op)
        }
    }

    fn acquire_with(prim: Primitive, busy_reads: u64) -> (LockMem, u64) {
        let mut mem = LockMem::new(0, busy_reads);
        let mut rng = SimRng::new(5);
        let mut acq = TtsAcquire::new(LOCK, PrimChoice::plain(prim));
        let ops = drive_sync(&mut acq, &mut rng, 1000, |op| mem.eval(op));
        (mem, ops as u64)
    }

    #[test]
    fn acquires_free_lock_with_each_primitive() {
        for prim in Primitive::ALL {
            let (mem, _) = acquire_with(prim, 0);
            assert_eq!(mem.lock(), 1, "{prim} failed to acquire");
        }
    }

    #[test]
    fn spins_while_held_then_acquires() {
        let (mem, ops) = acquire_with(Primitive::Cas, 5);
        assert_eq!(mem.lock(), 1);
        // 5 busy reads + 1 free read + 1 CAS.
        assert_eq!(ops, 7);
    }

    #[test]
    fn llsc_acquire_uses_ll_sc_pair() {
        let mut mem = LockMem::new(0, 0);
        let mut rng = SimRng::new(5);
        let mut acq = TtsAcquire::new(LOCK, PrimChoice::plain(Primitive::Llsc));
        let mut kinds = Vec::new();
        drive_sync(&mut acq, &mut rng, 100, |op| {
            kinds.push(format!("{op:?}").split(' ').next().unwrap().to_string());
            mem.eval(op)
        });
        assert!(kinds.iter().any(|k| k.contains("LoadLinked")));
        assert!(kinds.iter().any(|k| k.contains("StoreConditional")));
    }

    #[test]
    fn release_stores_zero() {
        let mut mem = LockMem::new(1, 0);
        let mut rng = SimRng::new(5);
        let mut rel = TtsRelease::new(LOCK, PrimChoice::plain(Primitive::Cas));
        let ops = drive_sync(&mut rel, &mut rng, 10, |op| mem.eval(op));
        assert_eq!(ops, 1);
        assert_eq!(mem.lock(), 0);
    }

    #[test]
    fn release_with_drop_copy() {
        let mut mem = LockMem::new(1, 0);
        let mut rng = SimRng::new(5);
        let mut rel = TtsRelease::new(LOCK, PrimChoice::plain(Primitive::Cas).with_drop_copy());
        let ops = drive_sync(&mut rel, &mut rng, 10, |op| mem.eval(op));
        assert_eq!(ops, 2);
        assert_eq!(mem.lock(), 0);
    }

    #[test]
    fn backoff_counts_failed_attempts() {
        // The CAS attempt fails once: another processor grabs the lock
        // between test and set, and releases it during our backoff.
        let mut mem = LockMem::new(0, 0);
        let mut rng = SimRng::new(5);
        let mut acq = TtsAcquire::new(LOCK, PrimChoice::plain(Primitive::Cas));
        let mut raced = false;
        drive_sync(&mut acq, &mut rng, 1000, |op| {
            if matches!(op, MemOp::Cas { .. }) && !raced {
                raced = true;
                mem.mem.set(LOCK, 1);
                let r = mem.eval(op);
                mem.mem.set(LOCK, 0);
                return r;
            }
            mem.eval(op)
        });
        assert_eq!(acq.attempts_failed, 1);
        assert_eq!(mem.lock(), 1);
    }
}
