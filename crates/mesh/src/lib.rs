//! 2-D wormhole mesh interconnect models.
//!
//! The HPCA '95 paper simulates "a 2-D worm-hole mesh network" where
//! "memory and network latencies reflect the effect of memory contention
//! and of contention at the entry and exit of the network (though not at
//! internal nodes)". This crate provides:
//!
//! * [`Mesh`] — topology and dimension-ordered (XY) routing ([`topology`]);
//! * [`LatencyNetwork`] — the paper-faithful model: pipelined wormhole
//!   wire latency plus queueing contention at each node's network entry
//!   and exit ports ([`latency`]);
//! * [`FlitNetwork`] — a cycle-accurate flit-level wormhole router with
//!   credit-based flow control, used as an ablation to quantify what the
//!   paper's simplification ignores ([`wormhole`]).
//!
//! # Observability
//!
//! [`LatencyNetwork`] keeps aggregate [`NetworkStats`] (messages, flits,
//! entry/exit port wait, end-to-end latency). Per-message visibility
//! lives one layer up: when tracing is enabled (`DSM_TRACE`, see the
//! `dsm-trace` crate), `dsm-machine` emits a cycle-stamped event for
//! every `send` — source, destination, hop count, flit count and the
//! delivery time this model computed — so a Perfetto timeline shows each
//! message in flight, including the contention delay the ports added.
//!
//! # Example
//!
//! ```
//! use dsm_mesh::{LatencyNetwork, Mesh};
//! use dsm_sim::{Cycle, MachineConfig, NodeId};
//!
//! let cfg = MachineConfig::default();
//! let mesh = Mesh::new(&cfg);
//! let mut net = LatencyNetwork::new(mesh, cfg.params.clone());
//! let arrival = net.send(Cycle::ZERO, NodeId::new(0), NodeId::new(63), 6);
//! assert!(arrival > Cycle::ZERO);
//! ```

#![deny(missing_docs)]

pub mod latency;
pub mod topology;
pub mod wormhole;

pub use latency::{base_latency, LatencyNetwork, NetPorts, NetworkStats};
pub use topology::Mesh;
pub use wormhole::{FlitNetwork, FlitNetworkParams};
