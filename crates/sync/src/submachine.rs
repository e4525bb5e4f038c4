//! Composable sub-state-machines for synchronization algorithms.
//!
//! A [`SubMachine`] is a resumable fragment of a processor program: a
//! lock acquire, a lock release, a counter update. Workload programs
//! drive one sub-machine at a time, feeding it operation results until
//! it reports [`Step::Done`].

use dsm_protocol::{MemOp, OpResult, Value};
use dsm_sim::{Addr, SimRng};

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
