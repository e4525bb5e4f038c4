//! Lock-free counter updates (the workload of Figure 3).

use crate::primitive::{PrimChoice, Primitive};
use crate::submachine::{Step, SubMachine};
use dsm_protocol::{MemOp, OpResult, PhiOp};
use dsm_sim::{Addr, SimRng};

/// One lock-free increment of a shared counter, built from the chosen
/// primitive:
///
/// * **FAΦ** — a single `fetch_and_add`;
/// * **CAS** — read (optionally `load_exclusive`) then a
///   `compare_and_swap` retry loop (failed CAS retries directly with the
///   observed value);
/// * **LL/SC** — `load_linked` / `store_conditional` retry loop.
///
/// With [`PrimChoice::drop_copy`] set, a `drop_copy` follows the
/// successful update.
///
/// # Example
///
/// ```
/// use dsm_sim::{Addr, SimRng};
/// use dsm_sync::{drive_sync, LockFreeIncr, PrimChoice, Primitive, SeqMem};
///
/// let mut rng = SimRng::new(1);
/// let counter = Addr::new(32);
/// let mut incr = LockFreeIncr::new(counter, PrimChoice::plain(Primitive::FetchPhi));
/// let mut mem = SeqMem::default();
/// mem.set(counter, 10);
/// let ops = drive_sync(&mut incr, &mut rng, 100, |op| mem.eval(op));
/// assert_eq!(ops, 1);
/// assert_eq!(mem.get(counter), 11);
/// ```
#[derive(Debug, Clone)]
pub struct LockFreeIncr {
    counter: Addr,
    choice: PrimChoice,
    amount: u64,
    state: State,
    observed: Option<u64>,
    /// Number of failed update attempts (for retry statistics).
    pub retries: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Start,
    WaitFetch,
    WaitLoad,
    WaitCas,
    WaitLl,
    WaitSc,
    WaitDrop,
}

impl LockFreeIncr {
    /// Creates an increment-by-one of `counter`.
    pub fn new(counter: Addr, choice: PrimChoice) -> Self {
        Self::by(counter, choice, 1)
    }

    /// Creates an increment by `amount`.
    pub fn by(counter: Addr, choice: PrimChoice, amount: u64) -> Self {
        LockFreeIncr {
            counter,
            choice,
            amount,
            state: State::Start,
            observed: None,
            retries: 0,
        }
    }

    /// Resets the sub-machine for another increment.
    pub fn reset(&mut self) {
        self.state = State::Start;
    }

    /// The value the counter held just before the successful update,
    /// captured when the sub-machine finishes.
    pub fn observed(&self) -> Option<u64> {
        self.observed
    }
}

impl SubMachine for LockFreeIncr {
    fn step(&mut self, last: Option<OpResult>, _rng: &mut SimRng) -> Step {
        match self.state {
            State::Start => match self.choice.prim {
                Primitive::FetchPhi => {
                    self.state = State::WaitFetch;
                    Step::Op(MemOp::FetchPhi {
                        addr: self.counter,
                        op: PhiOp::Add(self.amount),
                    })
                }
                Primitive::Cas => {
                    self.state = State::WaitLoad;
                    if self.choice.load_exclusive {
                        Step::Op(MemOp::LoadExclusive { addr: self.counter })
                    } else {
                        Step::Op(MemOp::Load { addr: self.counter })
                    }
                }
                Primitive::Llsc => {
                    self.state = State::WaitLl;
                    Step::Op(MemOp::LoadLinked { addr: self.counter })
                }
            },
            State::WaitFetch => {
                let OpResult::Fetched { old } = last.expect("result of fetch_and_add") else {
                    panic!("expected Fetched result");
                };
                self.observed = Some(old);
                self.finish()
            }
            State::WaitLoad => {
                let value = last
                    .expect("result of load")
                    .value()
                    .expect("load carries a value");
                self.state = State::WaitCas;
                Step::Op(MemOp::Cas {
                    addr: self.counter,
                    expected: value,
                    new: value.wrapping_add(self.amount),
                })
            }
            State::WaitCas => match last.expect("result of CAS") {
                OpResult::CasDone {
                    success: true,
                    observed,
                } => {
                    self.observed = Some(observed);
                    self.finish()
                }
                OpResult::CasDone {
                    success: false,
                    observed,
                } => {
                    // Retry directly with the freshly observed value.
                    self.retries += 1;
                    Step::Op(MemOp::Cas {
                        addr: self.counter,
                        expected: observed,
                        new: observed.wrapping_add(self.amount),
                    })
                }
                other => panic!("expected CasDone, got {other:?}"),
            },
            State::WaitLl => {
                let OpResult::Loaded { value, serial, .. } = last.expect("result of LL") else {
                    panic!("expected Loaded result");
                };
                self.state = State::WaitSc;
                self.observed = Some(value);
                Step::Op(MemOp::StoreConditional {
                    addr: self.counter,
                    value: value.wrapping_add(self.amount),
                    serial,
                })
            }
            State::WaitSc => match last.expect("result of SC") {
                OpResult::ScDone { success: true } => self.finish(),
                OpResult::ScDone { success: false } => {
                    self.retries += 1;
                    self.state = State::WaitLl;
                    Step::Op(MemOp::LoadLinked { addr: self.counter })
                }
                other => panic!("expected ScDone, got {other:?}"),
            },
            State::WaitDrop => {
                self.state = State::Start;
                Step::Done
            }
        }
    }
}

impl LockFreeIncr {
    fn finish(&mut self) -> Step {
        if self.choice.drop_copy {
            self.state = State::WaitDrop;
            Step::Op(MemOp::DropCopy { addr: self.counter })
        } else {
            self.state = State::Start;
            Step::Done
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submachine::{drive_sync, SeqMem};

    const COUNTER: Addr = Addr::new(32);

    /// A counter word that another processor increments just before
    /// each of the first `fail_first_n` CAS or SC attempts.
    struct TestMem {
        mem: SeqMem,
        fail_first_n: u64,
    }

    impl TestMem {
        fn new(value: u64, fail_first_n: u64) -> Self {
            let mut mem = SeqMem::default();
            mem.set(COUNTER, value);
            TestMem { mem, fail_first_n }
        }

        fn value(&self) -> u64 {
            self.mem.get(COUNTER)
        }

        fn eval(&mut self, op: MemOp) -> OpResult {
            if matches!(op, MemOp::Cas { .. } | MemOp::StoreConditional { .. })
                && self.fail_first_n > 0
            {
                self.fail_first_n -= 1;
                self.mem.set(COUNTER, self.value() + 1);
            }
            self.mem.eval(op)
        }
    }

    #[test]
    fn fap_increment_is_one_op() {
        let mut mem = TestMem::new(5, 0);
        let mut rng = SimRng::new(1);
        let mut incr = LockFreeIncr::new(COUNTER, PrimChoice::plain(Primitive::FetchPhi));
        let ops = drive_sync(&mut incr, &mut rng, 10, |op| mem.eval(op));
        assert_eq!(ops, 1);
        assert_eq!(mem.value(), 6);
        assert_eq!(incr.observed(), Some(5));
    }

    #[test]
    fn cas_increment_retries_until_success() {
        let mut mem = TestMem::new(0, 3);
        let mut rng = SimRng::new(1);
        let mut incr = LockFreeIncr::new(COUNTER, PrimChoice::plain(Primitive::Cas));
        let ops = drive_sync(&mut incr, &mut rng, 100, |op| mem.eval(op));
        // 1 load + 4 CAS attempts: each of the first 3 fails on an
        // interfering bump and retries with the value it observed.
        assert_eq!(ops, 5);
        assert_eq!(incr.retries, 3);
        assert_eq!(mem.value(), 4, "three interfering bumps plus our increment");
    }

    #[test]
    fn llsc_increment_retries_with_fresh_ll() {
        let mut mem = TestMem::new(7, 2);
        let mut rng = SimRng::new(1);
        let mut incr = LockFreeIncr::new(COUNTER, PrimChoice::plain(Primitive::Llsc));
        let ops = drive_sync(&mut incr, &mut rng, 100, |op| mem.eval(op));
        // (LL + SC-fail) x2 then LL + SC-success; each failure is an
        // interfering bump that clears the reservation.
        assert_eq!(ops, 6);
        assert_eq!(mem.value(), 10, "two interfering bumps plus our increment");
    }

    #[test]
    fn drop_copy_appends_a_drop() {
        let mut mem = TestMem::new(0, 0);
        let mut rng = SimRng::new(1);
        let mut incr = LockFreeIncr::new(
            COUNTER,
            PrimChoice::plain(Primitive::FetchPhi).with_drop_copy(),
        );
        let mut saw_drop = false;
        drive_sync(&mut incr, &mut rng, 10, |op| {
            if matches!(op, MemOp::DropCopy { .. }) {
                saw_drop = true;
            }
            mem.eval(op)
        });
        assert!(saw_drop);
    }

    #[test]
    fn load_exclusive_is_used_when_requested() {
        let mut mem = TestMem::new(0, 0);
        let mut rng = SimRng::new(1);
        let mut incr = LockFreeIncr::new(
            COUNTER,
            PrimChoice::plain(Primitive::Cas).with_load_exclusive(),
        );
        let mut saw_lx = false;
        drive_sync(&mut incr, &mut rng, 10, |op| {
            if matches!(op, MemOp::LoadExclusive { .. }) {
                saw_lx = true;
            }
            mem.eval(op)
        });
        assert!(saw_lx);
    }

    #[test]
    fn reset_allows_reuse() {
        let mut mem = TestMem::new(0, 0);
        let mut rng = SimRng::new(1);
        let mut incr = LockFreeIncr::new(COUNTER, PrimChoice::plain(Primitive::FetchPhi));
        drive_sync(&mut incr, &mut rng, 10, |op| mem.eval(op));
        incr.reset();
        drive_sync(&mut incr, &mut rng, 10, |op| mem.eval(op));
        assert_eq!(mem.value(), 2);
    }
}
