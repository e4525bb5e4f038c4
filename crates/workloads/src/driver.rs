//! Glue between [`SubMachine`] fragments and machine
//! [`Program`](dsm_machine::Program)s.

use dsm_machine::{Action, ProcCtx};
use dsm_sync::{Step, SubMachine};

/// Runs one [`SubMachine`] at a time inside a
/// [`Program`](dsm_machine::Program).
///
/// Typical program shape:
///
/// ```ignore
/// fn step(&mut self, ctx: &mut ProcCtx<'_>) -> Action {
///     loop {
///         if let Some(action) = self.runner.drive(ctx) {
///             return action; // fragment still running
///         }
///         match self.phase {
///             // ...decide what to do next; maybe self.runner.start(...)
///         }
///     }
/// }
/// ```
#[derive(Default)]
pub struct SubRunner {
    active: Option<Box<dyn SubMachine>>,
}

impl std::fmt::Debug for SubRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubRunner")
            .field("active", &self.active.is_some())
            .finish()
    }
}

impl SubRunner {
    /// Creates an idle runner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a fragment to run. Any previous fragment is discarded.
    pub fn start<M: SubMachine + 'static>(&mut self, fragment: M) {
        self.active = Some(Box::new(fragment));
    }

    /// `true` if a fragment is running.
    pub fn running(&self) -> bool {
        self.active.is_some()
    }

    /// Advances the active fragment. Returns the action to take, or
    /// `None` when no fragment is active (the caller decides what
    /// happens next).
    pub fn drive(&mut self, ctx: &mut ProcCtx<'_>) -> Option<Action> {
        let m = self.active.as_mut()?;
        let action = step_action(m.step(ctx.last.take(), ctx.rng));
        if action.is_none() {
            self.active = None;
        }
        action
    }
}

/// Advances a *typed* fragment held directly by a program (so its
/// fields remain readable after completion, unlike a boxed
/// [`SubRunner`] fragment). Returns `None` once the fragment is done.
pub fn drive_sub<M: SubMachine>(fragment: &mut M, ctx: &mut ProcCtx<'_>) -> Option<Action> {
    step_action(fragment.step(ctx.last.take(), ctx.rng))
}

/// The machine action a sub-machine step asks for, or `None` when the
/// fragment is done.
pub fn step_action(step: Step) -> Option<Action> {
    match step {
        Step::Op(op) => Some(Action::Op(op)),
        Step::Compute(c) => Some(Action::Compute(c)),
        Step::SpinWhile { addr, value, pause } => Some(Action::SpinWhile { addr, value, pause }),
        Step::Done => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_protocol::{MemOp, OpResult};
    use dsm_sim::{Addr, Cycle, ProcId, SimRng};

    struct OneOp(bool);
    impl SubMachine for OneOp {
        fn step(&mut self, _last: Option<OpResult>, _rng: &mut SimRng) -> Step {
            if self.0 {
                Step::Done
            } else {
                self.0 = true;
                Step::Op(MemOp::Load {
                    addr: Addr::new(32),
                })
            }
        }
    }

    #[test]
    fn drives_to_completion() {
        let mut r = SubRunner::new();
        assert!(!r.running());
        r.start(OneOp(false));
        assert!(r.running());
        let mut rng = SimRng::new(1);
        let mut ctx = ProcCtx {
            proc: ProcId::new(0),
            now: Cycle::ZERO,
            last: None,
            last_chain: None,
            rng: &mut rng,
        };
        let a = r.drive(&mut ctx);
        assert!(matches!(a, Some(Action::Op(_))));
        ctx.last = Some(OpResult::Loaded {
            value: 0,
            serial: None,
            reserved: false,
        });
        assert!(r.drive(&mut ctx).is_none());
        assert!(!r.running());
        // Idle runner yields None immediately.
        assert!(r.drive(&mut ctx).is_none());
    }
}
