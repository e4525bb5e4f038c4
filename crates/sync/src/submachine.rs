//! Composable sub-state-machines for synchronization algorithms.
//!
//! A [`SubMachine`] is a resumable fragment of a processor program: a
//! lock acquire, a lock release, a counter update. Workload programs
//! drive one sub-machine at a time, feeding it operation results until
//! it reports [`Step::Done`]. Unit tests drive them with [`drive_sync`]
//! against a [`SeqMem`].

use dsm_protocol::{MemOp, OpResult, Value};
use dsm_sim::{Addr, ProcId, SimRng};
use std::collections::HashMap;

/// One step of a sub-machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Issue this memory operation and come back with its result.
    Op(MemOp),
    /// Compute locally (e.g. backoff) and come back with `last == None`.
    Compute(u64),
    /// Spin until the word at `addr` stops holding `value`: repeat
    /// `Compute(pause)` then `Load(addr)` until the load returns another
    /// value, and come back with that load's result. Maps one to one
    /// onto the machine's `Action::SpinWhile`.
    SpinWhile {
        /// The word re-read each iteration.
        addr: Addr,
        /// Keep spinning while the word holds this value.
        value: Value,
        /// Cycles of local computation before each re-read.
        pause: u64,
    },
    /// The fragment finished.
    Done,
}

/// A resumable program fragment.
///
/// The first call to [`step`](SubMachine::step) receives `last == None`;
/// each later call receives the result of the operation the sub-machine
/// requested (or `None` after a [`Step::Compute`]).
pub trait SubMachine: Send {
    /// Advances the fragment.
    fn step(&mut self, last: Option<OpResult>, rng: &mut SimRng) -> Step;
}

/// Drives `sub` to completion against a closure that synchronously
/// evaluates operations — used by unit tests to check sub-machine logic
/// without a full machine.
///
/// Returns the number of operations issued.
///
/// # Panics
///
/// Panics if the sub-machine runs for more than `fuel` steps.
pub fn drive_sync<M, F>(sub: &mut M, rng: &mut SimRng, fuel: usize, mut eval: F) -> usize
where
    M: SubMachine + ?Sized,
    F: FnMut(MemOp) -> OpResult,
{
    let mut last = None;
    let mut ops = 0;
    let mut steps = 0;
    while steps < fuel {
        steps += 1;
        match sub.step(last.take(), rng) {
            Step::Op(op) => {
                ops += 1;
                last = Some(eval(op));
            }
            Step::Compute(_) => {}
            Step::SpinWhile { addr, value, .. } => loop {
                // One iteration (pause, re-read) per step of fuel.
                ops += 1;
                let r = eval(MemOp::Load { addr });
                if r.value() != Some(value) {
                    last = Some(r);
                    break;
                }
                steps += 1;
                assert!(
                    steps < fuel,
                    "spin on {addr} did not end within {fuel} steps"
                );
            },
            Step::Done => return ops,
        }
    }
    panic!("sub-machine did not finish within {fuel} steps");
}

/// A sequential reference memory: each operation takes effect at once,
/// in the order it is evaluated, on words that start at zero. Every
/// operation but LL/SC is [`MemOp::apply`]. LL/SC keeps the machine's reservation rule: a processor
/// holds at most one reservation, and any write to the reserved address
/// clears it, so a `store_conditional` succeeds only if nothing wrote
/// its address since the same processor's `load_linked` of it.
///
/// # Example
///
/// ```
/// use dsm_protocol::{MemOp, OpResult};
/// use dsm_sim::{Addr, ProcId};
/// use dsm_sync::SeqMem;
///
/// let a = Addr::new(0x40);
/// let mut mem = SeqMem::default();
/// mem.eval(MemOp::LoadLinked { addr: a });
/// mem.eval_by(ProcId::new(1), MemOp::Store { addr: a, value: 5 });
/// let sc = MemOp::StoreConditional { addr: a, value: 6, serial: None };
/// assert_eq!(mem.eval(sc), OpResult::ScDone { success: false });
/// assert_eq!(mem.get(a), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SeqMem {
    words: HashMap<Addr, Value>,
    reservations: HashMap<ProcId, Addr>,
}

impl SeqMem {
    /// The current value of the word at `addr`.
    pub fn get(&self, addr: Addr) -> Value {
        self.words.get(&addr).copied().unwrap_or(0)
    }

    /// Writes `value` to `addr` as some other agent would: every
    /// reservation on `addr` is cleared.
    pub fn set(&mut self, addr: Addr, value: Value) {
        self.reservations.retain(|_, r| *r != addr);
        self.words.insert(addr, value);
    }

    /// Evaluates `op` as processor 0.
    pub fn eval(&mut self, op: MemOp) -> OpResult {
        self.eval_by(ProcId::new(0), op)
    }

    /// Evaluates `op` as processor `proc`.
    pub fn eval_by(&mut self, proc: ProcId, op: MemOp) -> OpResult {
        let addr = op.addr();
        match op {
            MemOp::LoadLinked { .. } => {
                self.reservations.insert(proc, addr);
                OpResult::Loaded {
                    value: self.get(addr),
                    serial: None,
                    reserved: true,
                }
            }
            MemOp::StoreConditional { value, .. } => {
                let success = self.reservations.get(&proc) == Some(&addr);
                if success {
                    self.set(addr, value);
                }
                OpResult::ScDone { success }
            }
            _ => {
                let (result, write) = op.apply(self.get(addr));
                if let Some(value) = write {
                    self.set(addr, value);
                }
                result
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_protocol::PhiOp;
    use dsm_sim::Addr;

    struct TwoOps {
        n: u8,
    }

    impl SubMachine for TwoOps {
        fn step(&mut self, last: Option<OpResult>, _rng: &mut SimRng) -> Step {
            if self.n > 0 {
                assert!(last.is_some() || self.n == 2);
            }
            match self.n {
                0 | 1 => {
                    self.n += 1;
                    Step::Op(MemOp::FetchPhi {
                        addr: Addr::new(0),
                        op: PhiOp::Add(1),
                    })
                }
                _ => Step::Done,
            }
        }
    }

    #[test]
    fn drive_sync_counts_ops() {
        let mut rng = SimRng::new(1);
        let mut m = TwoOps { n: 0 };
        let ops = drive_sync(&mut m, &mut rng, 100, |_| OpResult::Fetched { old: 0 });
        assert_eq!(ops, 2);
    }

    #[test]
    fn seq_mem_reservation_is_per_processor_and_cleared_by_writes() {
        let (a, b) = (Addr::new(0x40), Addr::new(0x80));
        let (p0, p1) = (ProcId::new(0), ProcId::new(1));
        let ll = |addr| MemOp::LoadLinked { addr };
        let sc = |addr, value| MemOp::StoreConditional {
            addr,
            value,
            serial: None,
        };
        let mut mem = SeqMem::default();
        // Both processors reserve `a`; the first SC wins and its write
        // clears the other's reservation.
        mem.eval_by(p0, ll(a));
        mem.eval_by(p1, ll(a));
        assert!(mem.eval_by(p1, sc(a, 1)).succeeded());
        assert!(!mem.eval_by(p0, sc(a, 2)).succeeded());
        assert_eq!(mem.get(a), 1);
        // A later LL replaces the earlier reservation.
        mem.eval_by(p0, ll(a));
        mem.eval_by(p0, ll(b));
        assert!(!mem.eval_by(p0, sc(a, 3)).succeeded());
        // A write to another address leaves the reservation alone; a
        // failed CAS writes nothing.
        mem.eval_by(p1, MemOp::Store { addr: a, value: 4 });
        let cas = MemOp::Cas {
            addr: b,
            expected: 9,
            new: 1,
        };
        assert!(!mem.eval_by(p1, cas).succeeded());
        assert!(mem.eval_by(p0, sc(b, 5)).succeeded());
        assert_eq!((mem.get(a), mem.get(b)), (4, 5));
    }

    #[test]
    #[should_panic(expected = "did not finish")]
    fn drive_sync_fuel_limit() {
        struct Forever;
        impl SubMachine for Forever {
            fn step(&mut self, _: Option<OpResult>, _: &mut SimRng) -> Step {
                Step::Compute(1)
            }
        }
        let mut rng = SimRng::new(1);
        drive_sync(&mut Forever, &mut rng, 10, |_| OpResult::Stored);
    }
}
