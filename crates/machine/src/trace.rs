//! Trace recording and trace-driven replay.
//!
//! The paper's simulator is *execution-driven* (MINT interprets the
//! program as the memory system responds), not *trace-driven* (replay a
//! pre-recorded reference stream). For synchronization studies the
//! distinction is load-bearing: retry loops (CAS, LL/SC, lock spins)
//! issue a *different* stream depending on contention, so a trace
//! recorded under one schedule replays incorrectly under another.
//!
//! These adapters make that argument executable: record a program's
//! action stream with [`TraceRecorder`], replay it with [`TraceReplay`],
//! and watch a contended counter lose updates — see
//! `ablation_tracedriven` in `dsm-bench` and the tests below.

use crate::program::{Action, ProcCtx, Program};
use std::sync::{Arc, Mutex};

/// A shared, growable recording of one processor's action stream.
///
/// Backed by `Arc<Mutex<..>>` (not `Rc<RefCell<..>>`) because programs
/// must be `Send`: the experiment runner builds and runs machines on
/// its worker threads.
pub type Trace = Arc<Mutex<Vec<Action>>>;

/// Creates an empty trace.
pub fn new_trace() -> Trace {
    Arc::new(Mutex::new(Vec::new()))
}

/// Wraps a program, recording every action it takes.
pub struct TraceRecorder<P> {
    inner: P,
    trace: Trace,
}

impl<P> TraceRecorder<P> {
    /// Wraps `inner`, appending its actions to `trace`.
    pub fn new(inner: P, trace: Trace) -> Self {
        TraceRecorder { inner, trace }
    }
}

impl<P: Program> Program for TraceRecorder<P> {
    fn step(&mut self, ctx: &mut ProcCtx<'_>) -> Action {
        let action = self.inner.step(ctx);
        self.trace.lock().unwrap().push(action);
        action
    }
}

/// Replays a recorded action stream verbatim, ignoring operation
/// results — a trace-driven processor.
///
/// Replaying is only *valid* when the program's control flow does not
/// depend on the values it reads; for synchronization code it is
/// exactly wrong, which is the point of the demonstration.
pub struct TraceReplay {
    actions: Vec<Action>,
    next: usize,
}

impl TraceReplay {
    /// Creates a replayer over a recorded stream.
    pub fn new(actions: Vec<Action>) -> Self {
        TraceReplay { actions, next: 0 }
    }
}

impl Program for TraceReplay {
    fn step(&mut self, _ctx: &mut ProcCtx<'_>) -> Action {
        let action = self.actions.get(self.next).copied().unwrap_or(Action::Done);
        self.next += 1;
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineBuilder;
    use dsm_protocol::{MemOp, OpResult, SyncConfig, SyncPolicy};
    use dsm_sim::{Addr, Cycle, MachineConfig};

    const X: Addr = Addr::new(0x40);

    /// A CAS-loop increment program: its stream depends on contention.
    fn cas_counter(iters: u64) -> impl Program {
        let mut left = iters;
        let mut expecting: Option<u64> = None;
        move |ctx: &mut ProcCtx<'_>| match (expecting, ctx.last) {
            (None, _) => {
                expecting = Some(u64::MAX); // sentinel: load issued
                Action::Op(MemOp::Load { addr: X })
            }
            (Some(u64::MAX), Some(OpResult::Loaded { value, .. })) => {
                expecting = Some(value);
                Action::Op(MemOp::Cas {
                    addr: X,
                    expected: value,
                    new: value + 1,
                })
            }
            (Some(_), Some(OpResult::CasDone { success, observed })) => {
                if success {
                    left -= 1;
                    if left == 0 {
                        return Action::Done;
                    }
                    expecting = Some(u64::MAX);
                    Action::Op(MemOp::Load { addr: X })
                } else {
                    expecting = Some(observed);
                    Action::Op(MemOp::Cas {
                        addr: X,
                        expected: observed,
                        new: observed + 1,
                    })
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn record_solo(iters: u64) -> Vec<Action> {
        let trace = new_trace();
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(2));
        b.register_sync(
            X,
            SyncConfig {
                policy: SyncPolicy::Inv,
                ..Default::default()
            },
        );
        b.add_program(TraceRecorder::new(cas_counter(iters), Arc::clone(&trace)));
        b.add_program(|_: &mut ProcCtx<'_>| Action::Done);
        let mut m = b.build();
        m.run(Cycle::new(10_000_000)).unwrap();
        assert_eq!(m.read_word(X), iters);
        let t = trace.lock().unwrap().clone();
        t
    }

    #[test]
    fn recorder_captures_the_stream() {
        let trace = record_solo(5);
        // Uncontended: load + CAS per iteration, plus the final Done.
        assert_eq!(trace.len(), 11);
        assert!(matches!(trace[0], Action::Op(MemOp::Load { .. })));
        assert!(matches!(trace[1], Action::Op(MemOp::Cas { .. })));
        assert!(matches!(trace[10], Action::Done));
    }

    #[test]
    fn replay_reproduces_solo_runs_exactly() {
        let trace = record_solo(5);
        // Replaying the trace in the same (uncontended) conditions is
        // valid and yields the same final state.
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(2));
        b.register_sync(
            X,
            SyncConfig {
                policy: SyncPolicy::Inv,
                ..Default::default()
            },
        );
        b.add_program(TraceReplay::new(trace));
        b.add_program(|_: &mut ProcCtx<'_>| Action::Done);
        let mut m = b.build();
        m.run(Cycle::new(10_000_000)).unwrap();
        assert_eq!(m.read_word(X), 5);
    }

    /// The headline demonstration: traces recorded per-processor in
    /// *isolation* replay wrongly when run *concurrently* — failed CAS
    /// retries are missing from the streams, so updates are lost. This
    /// is why the paper's simulator (like MINT) must be
    /// execution-driven.
    #[test]
    fn trace_driven_replay_loses_updates_under_contention() {
        let iters = 20u64;
        let nodes = 4u32;
        // Record each processor alone (no contention: no retries in the
        // trace).
        let solo_trace = record_solo(iters);

        // Replay all four concurrently.
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(nodes));
        b.register_sync(
            X,
            SyncConfig {
                policy: SyncPolicy::Inv,
                ..Default::default()
            },
        );
        for _ in 0..nodes {
            b.add_program(TraceReplay::new(solo_trace.clone()));
        }
        let mut m = b.build();
        m.run(Cycle::new(100_000_000)).unwrap();
        m.validate_coherence().unwrap();
        let got = m.read_word(X);
        assert!(
            got < nodes as u64 * iters,
            "trace-driven replay should LOSE updates ({got} of {})",
            nodes as u64 * iters
        );

        // Execution-driven processors running the same logic get it
        // exactly right.
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(nodes));
        b.register_sync(
            X,
            SyncConfig {
                policy: SyncPolicy::Inv,
                ..Default::default()
            },
        );
        for _ in 0..nodes {
            b.add_program(cas_counter(iters));
        }
        let mut m = b.build();
        m.run(Cycle::new(100_000_000)).unwrap();
        assert_eq!(m.read_word(X), nodes as u64 * iters);
    }
}
