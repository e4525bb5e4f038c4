//! Structured event tracing for the DSM simulator.
//!
//! The paper's argument is about *where cycles go* — which atomic
//! primitive loses time to network hops, directory occupancy, or retry
//! storms. End-of-run aggregates (`dsm-stats`) answer "how much"; this
//! crate answers "when and where": every message, coherence-state
//! transition, reservation event, queue-occupancy sample and retired
//! operation becomes a cycle-stamped [`TraceEvent`] that can be replayed
//! into any [`TraceSink`].
//!
//! Two sinks are built in:
//!
//! * [`PerfettoSink`] — Chrome/Perfetto `trace_event` JSON. Open the
//!   file at <https://ui.perfetto.dev> (or `chrome://tracing`) and every
//!   node appears as a process with `cpu`, `cache-ctrl`, `home` and
//!   `net-out` tracks; flow arrows link each request to its reply
//!   across the mesh.
//! * [`RingSink`] — a compact fixed-width binary ring buffer that
//!   retains the most recent N events, cheap enough to leave on for
//!   long runs and dump post-mortem.
//!
//! The [`Tracer`] front end owns the sinks and the flow-id bookkeeping.
//! It is an event stream only: per-node counters (messages, flits,
//! services, retries) are the machine's always-on statistics, kept
//! whether or not a tracer is attached. The tracer is configured by a
//! [`TraceSpec`] parsed from `--trace[=SPEC]` or the `DSM_TRACE`
//! environment variable — see [`TraceSpec::from_spec`] for the grammar.
//!
//! # Determinism
//!
//! Trace output is part of the simulator's reproducibility contract:
//! the same job produces byte-identical trace files regardless of
//! `--jobs`, host, or scheduling, because nothing in this crate reads a
//! clock, a random source, or unordered-container iteration order.
//!
//! # Example
//!
//! ```
//! use dsm_trace::{Tracer, TraceSpec};
//! use dsm_sim::{Cycle, LineAddr, NodeId, ProcId};
//!
//! let spec = TraceSpec::from_spec("perfetto,cat:msg+op").unwrap();
//! let mut tracer = Tracer::new(&spec, 4);
//!
//! // The machine drives the tracer as it simulates...
//! let flow = tracer.msg_send(
//!     Cycle::new(100),            // send time
//!     NodeId::new(0),             // src
//!     NodeId::new(3),             // dst
//!     LineAddr::new(42),          // line
//!     "GetX",                     // message kind
//!     2,                          // flits
//!     3,                          // hops
//!     Cycle::new(118),            // delivery time
//! );
//! tracer.msg_service(
//!     Cycle::new(118), Cycle::new(138),
//!     NodeId::new(0), NodeId::new(3),
//!     "GetX", true,
//!     "dir",                      // span phase label for the service
//! );
//! tracer.op(ProcId::new(0), Cycle::new(100), Cycle::new(160), "Store", false, 2);
//!
//! // ...and the JSON validates against the trace_event schema.
//! let json = tracer.perfetto_json().unwrap();
//! let summary = dsm_trace::perfetto::validate(&json).unwrap();
//! assert_eq!(summary.flow_starts, summary.flow_finishes);
//! assert_eq!(flow, 0);
//! ```

#![deny(missing_docs)]

pub mod event;
pub mod history;
pub mod linearize;
pub mod perfetto;
pub mod ring;
pub mod sink;
pub mod spec;
pub mod tracer;

pub use event::{Categories, Category, StateLabel, TraceEvent, UnknownCategory};
pub use history::{HistEvent, HistOp, HistRet, History};
pub use linearize::{
    assert_linearizable, check, FifoQueueSpec, LifoStackSpec, Rejection, SeqSpec, SetSpec,
};
pub use perfetto::PerfettoSink;
pub use ring::{RecordKind, RingFile, RingRecord, RingSink};
pub use sink::TraceSink;
pub use spec::{SpecError, TraceSpec};
pub use tracer::Tracer;
