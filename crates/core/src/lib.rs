//! # atomic-dsm
//!
//! A from-scratch reproduction of *"Implementation of Atomic Primitives
//! on Distributed Shared Memory Multiprocessors"* (Michael & Scott,
//! HPCA 1995): a cycle-level simulator of a 64-node directory-based DSM
//! multiprocessor, hardware implementations of `fetch_and_Φ`,
//! `compare_and_swap` and `load_linked`/`store_conditional` under
//! write-invalidate (INV), write-update (UPD) and uncached (UNC)
//! policies, the auxiliary `load_exclusive` and `drop_copy`
//! instructions, and the full experimental apparatus that regenerates
//! every table and figure in the paper.
//!
//! ## Crate map
//!
//! This facade re-exports the workspace:
//!
//! * [`sim`] — discrete-event kernel, typed ids, machine configuration;
//! * [`mesh`] — the 2-D wormhole mesh (latency model + flit-level
//!   ablation router);
//! * [`protocol`] — directory coherence protocols and the primitive
//!   implementations;
//! * [`machine`] — the full-machine simulator and the [`Program`] API;
//! * [`mint`] — the MINT-like assembly front end (write workloads as
//!   assembly programs);
//! * [`sync`] — TTS/MCS locks, the scalable tree barrier, lock-free
//!   counters;
//! * [`workloads`] — the synthetic counter applications and the three
//!   application kernels;
//! * [`stats`] — contention/write-run/message instrumentation;
//! * [`trace`] — structured event tracing (Perfetto JSON + binary ring
//!   buffer sinks);
//! * [`experiments`] — drivers for Table 1 and Figures 2–6.
//!
//! ## Quickstart
//!
//! ```
//! use atomic_dsm::machine::{Action, MachineBuilder, ProcCtx};
//! use atomic_dsm::protocol::{MemOp, PhiOp, SyncConfig, SyncPolicy};
//! use atomic_dsm::sim::{Addr, Cycle, MachineConfig};
//!
//! // Four processors fetch_and_add a shared uncached counter.
//! let counter = Addr::new(0x40);
//! let mut b = MachineBuilder::new(MachineConfig::with_nodes(4));
//! b.register_sync(counter, SyncConfig { policy: SyncPolicy::Unc, ..Default::default() });
//! for _ in 0..4 {
//!     let mut left = 100u32;
//!     b.add_program(move |ctx: &mut ProcCtx<'_>| {
//!         if ctx.last.is_some() {
//!             left -= 1;
//!         }
//!         if left == 0 {
//!             Action::Done
//!         } else {
//!             Action::Op(MemOp::FetchPhi { addr: counter, op: PhiOp::Add(1) })
//!         }
//!     });
//! }
//! let mut machine = b.build();
//! machine.run(Cycle::new(10_000_000))?;
//! assert_eq!(machine.read_word(counter), 400);
//! # Ok::<(), atomic_dsm::machine::RunError>(())
//! ```

#![warn(missing_docs)]

pub mod experiments;

pub use dsm_machine as machine;
pub use dsm_mesh as mesh;
pub use dsm_mint as mint;
pub use dsm_protocol as protocol;
pub use dsm_sim as sim;
pub use dsm_stats as stats;
pub use dsm_sync as sync;
pub use dsm_trace as trace;
pub use dsm_workloads as workloads;

pub use dsm_machine::{Machine, MachineBuilder, Program};
pub use dsm_protocol::{CasVariant, LlscScheme, MemOp, OpResult, PhiOp, SyncConfig, SyncPolicy};
pub use dsm_sim::MachineConfig;
pub use dsm_sync::{PrimChoice, Primitive};
