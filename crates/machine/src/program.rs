//! The processor-program interface.
//!
//! The paper drove its simulator with MINT, executing real MIPS code.
//! What the results depend on is the *memory-reference stream* each
//! processor generates, so our processors run [`Program`] state machines
//! that yield one [`Action`] at a time: a memory operation, a block of
//! local computation, a constant-time barrier (which MINT provided for
//! exactly this purpose), or termination.

use dsm_protocol::{MemOp, OpResult, Value};
use dsm_sim::{Addr, Cycle, ProcId, SimRng};

/// What a processor does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Issue a memory operation; the processor blocks until it
    /// completes and the result appears in [`ProcCtx::last`].
    Op(MemOp),
    /// Compute locally for the given number of cycles.
    Compute(u64),
    /// Spin on a word until it changes: exactly
    /// `loop { Compute(pause); r = Load(addr); if r.value != value { break } }`,
    /// with the exiting load's result delivered in [`ProcCtx::last`].
    /// The engine runs the loop itself, so the program is not stepped
    /// while it spins, and an uninstrumented run may skip iterations
    /// that provably read an unchanged cached value (see
    /// ARCHITECTURE.md, "Spin-wait elision").
    SpinWhile {
        /// The word re-read each iteration.
        addr: Addr,
        /// Keep spinning while the word holds this value.
        value: Value,
        /// Cycles of local computation before each re-read.
        pause: u64,
    },
    /// Wait at the constant-time barrier with the given id. All
    /// processors that have not terminated must reach the same barrier;
    /// they resume simultaneously and the barrier itself costs zero
    /// simulated time (like MINT's barriers, "they have no effect on the
    /// results other than enforcing the intended sharing patterns").
    Barrier(u32),
    /// The program has finished.
    Done,
}

/// Per-step context handed to a [`Program`].
#[derive(Debug)]
pub struct ProcCtx<'a> {
    /// This processor's id.
    pub proc: ProcId,
    /// Current simulated time.
    pub now: Cycle,
    /// Result of the previous [`Action::Op`], if the previous action was
    /// an operation.
    pub last: Option<OpResult>,
    /// Serialized network messages on the previous operation's critical
    /// path (0 for cache hits) — the quantity Table 1 reports.
    pub last_chain: Option<u32>,
    /// Deterministic per-processor randomness (backoff jitter etc.).
    pub rng: &'a mut SimRng,
}

impl ProcCtx<'_> {
    /// The last result, for programs that know one must exist.
    ///
    /// # Panics
    ///
    /// Panics if the previous action was not an operation.
    pub fn result(&self) -> OpResult {
        self.last
            .expect("previous action was not a memory operation")
    }
}

/// A program executed by one simulated processor.
///
/// Programs are Mealy machines: each call to [`step`](Program::step)
/// observes the result of the previous action (via [`ProcCtx::last`])
/// and yields the next action. Shared results are best communicated to
/// the experiment driver through `Arc<Mutex<...>>` handles captured by
/// the program when it is built (programs must be `Send`: the
/// experiment runner builds and runs machines on its worker threads).
pub trait Program: Send {
    /// Produces the next action. Called once at start (with
    /// `ctx.last == None`) and again after each action completes.
    fn step(&mut self, ctx: &mut ProcCtx<'_>) -> Action;
}

impl<F: FnMut(&mut ProcCtx<'_>) -> Action + Send> Program for F {
    fn step(&mut self, ctx: &mut ProcCtx<'_>) -> Action {
        self(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_programs() {
        let mut calls = 0;
        let mut p = |_ctx: &mut ProcCtx<'_>| {
            calls += 1;
            Action::Done
        };
        let mut rng = SimRng::new(1);
        let mut ctx = ProcCtx {
            proc: ProcId::new(0),
            now: Cycle::ZERO,
            last: None,
            last_chain: None,
            rng: &mut rng,
        };
        // Exercise through the trait to prove the blanket impl works.
        fn run(p: &mut dyn Program, ctx: &mut ProcCtx<'_>) -> Action {
            p.step(ctx)
        }
        assert_eq!(run(&mut p, &mut ctx), Action::Done);
        let _ = p;
        assert_eq!(calls, 1);
    }

    #[test]
    #[should_panic(expected = "not a memory operation")]
    fn result_panics_without_last() {
        let mut rng = SimRng::new(1);
        let ctx = ProcCtx {
            proc: ProcId::new(0),
            now: Cycle::ZERO,
            last: None,
            last_chain: None,
            rng: &mut rng,
        };
        let _ = ctx.result();
    }
}
