//! Directory-based cache-coherence protocols and hardware atomic
//! primitives for a DSM multiprocessor.
//!
//! This crate is the heart of the reproduction: it implements the
//! DASH-style write-invalidate base protocol, the three synchronization
//! coherence policies (INV / UPD / UNC), every primitive implementation
//! variant the paper studies, the auxiliary `load_exclusive` and
//! `drop_copy` instructions, and the four memory-side LL/SC reservation
//! schemes of §3.1.
//!
//! The crate is *pure protocol logic*: the [`HomeNode`] (directory +
//! memory module) and [`CacheNode`] (cache controller) engines consume
//! [`Msg`]s and emit [`Msg`]s into an [`Outbox`]; timing, the network
//! and processors live in `dsm-machine`.
//!
//! # Architecture
//!
//! * [`types`] — operations ([`MemOp`]), results ([`OpResult`]),
//!   policies ([`SyncPolicy`], [`CasVariant`], [`LlscScheme`]);
//! * [`msg`] — the message vocabulary ([`MsgKind`]) with payload sizing;
//! * [`cache`] — the set-associative processor cache;
//! * [`directory`] — directory entries with per-line busy serialization;
//! * [`reservation`] — LL/SC reservations (cache-side and all four
//!   memory-side schemes);
//! * [`home`] / [`cachectl`] — the two protocol engines;
//! * [`addrmap`] — per-line synchronization configuration.
//!
//! # Example: a fetch_and_add travelling to uncached memory
//!
//! ```
//! use dsm_protocol::{AddressMap, CacheNode, HomeNode, MemOp, Outbox};
//! use dsm_protocol::{PhiOp, SyncConfig, SyncPolicy};
//! use dsm_sim::{Addr, CacheParams, NodeId};
//!
//! let mut map = AddressMap::new(32);
//! let counter = Addr::new(0); // line 0, home node 0
//! map.register(counter, SyncConfig { policy: SyncPolicy::Unc, ..Default::default() });
//!
//! let mut home = HomeNode::new(NodeId::new(0), 32, 64);
//! let mut cc = CacheNode::new(NodeId::new(1), 32, CacheParams::default());
//! cc.set_nodes(4);
//!
//! let mut out = Outbox::new();
//! let started = cc
//!     .start_op(MemOp::FetchPhi { addr: counter, op: PhiOp::Add(2) }, &map, &mut out)
//!     .unwrap();
//! assert!(started.is_none());
//! let req = out.drain().remove(0);
//! home.handle(req, &map, &mut out).unwrap();
//! let reply = out.drain().remove(0);
//! let done = cc.handle(reply, &mut out).unwrap().unwrap();
//! assert_eq!(done.chain, 2); // Table 1: uncached access = 2 serialized messages
//! assert_eq!(home.peek_word(counter), 2);
//! ```

#![deny(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod addrmap;
pub mod cache;
pub mod cachectl;
pub mod data;
pub mod directory;
pub mod error;
pub mod home;
pub mod invariant;
pub mod msg;
pub mod nodeset;
pub mod reservation;
pub mod types;

pub use addrmap::AddressMap;
pub use cache::{Cache, CacheState};
pub use cachectl::{CacheNode, OpOutcome};
pub use data::LineData;
pub use directory::{DirEntry, DirState};
pub use error::{ProtocolError, ProtocolErrorKind};
pub use home::{HomeNode, Outbox};
pub use invariant::{check_line, check_quiescent, InvariantViolation};
pub use msg::{Msg, MsgKind};
pub use nodeset::NodeSet;
pub use reservation::{CacheReservation, LlGrant, ReservationStore};
pub use types::{CasVariant, LlscScheme, MemOp, OpResult, PhiOp, SyncConfig, SyncPolicy, Value};
