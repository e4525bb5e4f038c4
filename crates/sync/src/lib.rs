//! Synchronization algorithms built from the simulated atomic
//! primitives.
//!
//! Everything here is expressed as composable [`SubMachine`]s — program
//! fragments that issue memory operations and consume their results —
//! so the same algorithm implementation runs on every primitive
//! implementation (INV/UPD/UNC × FAΦ/LL-SC/CAS) the paper compares:
//!
//! * [`LockFreeIncr`] — lock-free counter update (Figure 3);
//! * [`TtsAcquire`]/[`TtsRelease`] — test-and-test-and-set lock with
//!   bounded exponential [`Backoff`] (Figure 4, LocusRoute, Cholesky);
//! * [`McsAcquire`]/[`McsRelease`] — the MCS queue lock, including the
//!   swap-only release variant for machines with only `fetch_and_Φ`
//!   (Figure 5);
//! * [`TreeBarrier`] — the scalable tree barrier used by Transitive
//!   Closure;
//! * [`lockfree`] — the lock-free data-structure tier (Michael–Scott
//!   queue, Harris list, bucket hash map) over native or Blelloch–Wei
//!   emulated LL/SC;
//! * [`ShmAlloc`] — shared-memory layout helper.
//!
//! Naming note: the Michael–Scott *queue* types are exported with an
//! `Ms` prefix ([`MsQueue`], [`MsEnqueue`], [`MsDequeue`]) and the MCS
//! *lock* types with an `Mcs` prefix ([`McsLock`], [`McsAcquire`],
//! [`McsRelease`], [`McsQnode`]); both families stay re-exported here
//! side by side, and `tests/sync_exports.rs` pins that down.

#![warn(missing_docs)]

pub mod alloc;
pub mod backoff;
pub mod barrier;
pub mod counter;
pub mod lockfree;
pub mod mcs;
pub mod primitive;
pub mod rwlock;
pub mod stack;
pub mod submachine;
pub mod tts;

pub use alloc::ShmAlloc;
pub use backoff::Backoff;
pub use barrier::{TreeBarrier, TreeBarrierWait};
pub use counter::LockFreeIncr;
pub use lockfree::list::{HarrisList, ListContains, ListInsert, ListRemove};
pub use lockfree::map::{BucketMap, MapContains, MapInsert, MapRemove};
pub use lockfree::queue::{MsDequeue, MsEnqueue, MsQueue};
pub use lockfree::LinkPrim;
pub use mcs::{McsAcquire, McsLock, McsQnode, McsRelease};
pub use primitive::{PrimChoice, Primitive};
pub use rwlock::{ReadAcquire, ReadRelease, WriteAcquire, WriteRelease};
pub use stack::{StackPop, StackPrim, StackPush};
pub use submachine::{drive_sync, SeqMem, Step, SubMachine};
pub use tts::{TtsAcquire, TtsRelease};
