//! The paper's applications, real and synthetic.
//!
//! * [`synthetic`] — the three synthetic counter applications
//!   (Figures 3, 4, 5): a lock-free counter, a counter protected by a
//!   TTS lock with bounded exponential backoff, and a counter protected
//!   by an MCS lock, each parameterized by contention level `c` and
//!   write-run length `a`;
//! * [`tclosure`] — the Transitive Closure application of Figure 1
//!   (lock-free self-scheduling counter + scalable tree barrier);
//! * [`wire_route`] — a LocusRoute-analog router kernel (see the
//!   substitution note in the module docs and DESIGN.md);
//! * [`cholesky`] — a sparse-Cholesky-analog factorization kernel;
//! * [`lockfree`] — lock-free structure scenarios (queue hammering,
//!   set churn, map read/write mixes) with cycle-stamped history
//!   capture for the linearizability oracle;
//! * [`driver`] / [`locked`] — program-composition helpers.

#![warn(missing_docs)]

pub mod cholesky;
pub mod driver;
pub mod locked;
pub mod lockfree;
pub mod synthetic;
pub mod tclosure;
pub mod wire_route;

pub use cholesky::{build_cholesky, CholeskyConfig, CholeskyLayout};
pub use driver::{drive_sub, step_action, SubRunner};
pub use locked::{LockKind, LockedIncr};
pub use lockfree::{
    build_lockfree, check_invariants, queue_residue, set_chains, LfConfig, LfLayout, LfRun,
    LfStructure,
};
pub use synthetic::{build_synthetic, CounterKind, SyntheticConfig, SyntheticLayout};
pub use tclosure::{build_tclosure, sequential_closure, TcConfig, TcLayout};
pub use wire_route::{build_wire_route, WireRouteConfig, WireRouteLayout};
