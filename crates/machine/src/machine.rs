//! The machine simulator: processors + cache controllers + home nodes +
//! network, driven by a discrete-event loop.
//!
//! The engine has two layers:
//!
//! * `Core` — the simulation state (homes, caches, processors, network
//!   ports, the event queue, per-node statistics and the
//!   instrumentation: tracer, fault injector, paranoid flag) plus the
//!   event dispatcher.
//! * [`Machine`] — the public wrapper owning the run loop and its
//!   policy: cycle limit, watchdog and the fault-injection window.
//!
//! Every event carries an explicit 128-bit tie-break key (see the
//! "Canonical event keys" section below): same-cycle events dispatch
//! in key order, and the key of an event is derived only from
//! deterministic per-node counters. The committed paper artifacts were
//! generated under exactly this order, so it stays fixed.

use crate::env::RunEnv;
use crate::program::{Action, ProcCtx, Program};
use crate::stats::{MachineStats, NodeCounters};
use dsm_mesh::{Mesh, NetPorts};
use dsm_protocol::{
    check_line, check_quiescent, AddressMap, CacheNode, CacheState, DirState, HomeNode,
    InvariantViolation, MemOp, Msg, OpOutcome, OpResult, Outbox, ProtocolError, ProtocolErrorKind,
    SyncConfig, Value,
};
use dsm_sim::{
    Addr, Cycle, EventQueue, FaultConfig, FaultEvent, FaultFilter, FaultInjector, FaultRecord,
    LineAddr, MachineConfig, NodeId, ProcId, ProtoVariant, SimRng, StableHasher,
};
use dsm_trace::{Category, StateLabel, TraceSpec, Tracer};
use std::fmt;
use std::path::PathBuf;

/// Converts a directory state into the label-shaped form trace events
/// carry (`dsm-trace` does not depend on the protocol crate).
fn dir_label(state: &DirState) -> StateLabel {
    match state {
        DirState::Uncached => StateLabel::plain("Uncached"),
        DirState::Shared(sharers) => StateLabel {
            name: "Shared",
            n: sharers.len() as u32,
        },
        DirState::Dirty(owner) => StateLabel {
            name: "Dirty",
            n: owner.as_u32(),
        },
    }
}

/// Converts a cache-line state (`None` = not resident) into a label.
fn cache_label(state: Option<CacheState>) -> StateLabel {
    match state {
        None => StateLabel::plain("Invalid"),
        Some(CacheState::Shared) => StateLabel::plain("Shared"),
        Some(CacheState::Exclusive) => StateLabel::plain("Exclusive"),
    }
}

/// The state of one processor at the moment a run failed, for deadlock
/// and livelock diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcDump {
    /// Which processor.
    pub proc: ProcId,
    /// The outstanding memory operation, if the processor was blocked on
    /// one.
    pub op: Option<MemOp>,
    /// The target address of that operation.
    pub addr: Option<Addr>,
    /// When the outstanding operation was issued.
    pub issued: Option<Cycle>,
    /// The barrier the processor was waiting at, if any.
    pub barrier: Option<u32>,
}

impl fmt::Display for ProcDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.proc)?;
        match (self.op, self.issued) {
            (Some(op), Some(at)) => write!(f, " blocked on {op:?} issued at {at}")?,
            (Some(op), None) => write!(f, " blocked on {op:?}")?,
            _ => {}
        }
        if let Some(b) = self.barrier {
            write!(f, " waiting at barrier {b}")?;
        }
        Ok(())
    }
}

/// Error returned when a run cannot complete: cycle limit, deadlock,
/// livelock, a protocol-state error, or (in paranoid mode) a violated
/// protocol invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The cycle limit was reached with processors still active.
    CycleLimit {
        /// The limit that was exhausted.
        limit: Cycle,
        /// Processors that had not terminated.
        active: usize,
    },
    /// The event queue drained while processors were still blocked —
    /// a protocol or program bug.
    Deadlock {
        /// Time of the last processed event.
        at: Cycle,
        /// Processors that had not terminated.
        active: usize,
        /// Per-processor blocked-on state at the moment of deadlock.
        procs: Vec<ProcDump>,
    },
    /// Events kept firing but no memory operation retired for a full
    /// watchdog window ([`FaultConfig::watchdog`] cycles) while at least
    /// one processor had an operation outstanding.
    Livelock {
        /// Time at which the watchdog fired.
        at: Cycle,
        /// The retirement-progress window that elapsed, in cycles.
        window: u64,
        /// Per-processor blocked-on state when the watchdog fired.
        procs: Vec<ProcDump>,
    },
    /// A protocol engine reached a state it cannot legally handle.
    Protocol {
        /// Time of the offending transition.
        at: Cycle,
        /// The structured protocol diagnostic.
        error: ProtocolError,
    },
    /// Paranoid mode found a protocol invariant violated after a
    /// transition (or the quiescent check failed at run end).
    Invariant {
        /// Time of the check that failed.
        at: Cycle,
        /// The first violation found.
        violation: InvariantViolation,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::CycleLimit { limit, active } => {
                write!(
                    f,
                    "cycle limit {limit} reached with {active} processors active"
                )
            }
            RunError::Deadlock { at, active, procs } => {
                write!(
                    f,
                    "deadlock at {at}: {active} processors blocked with no pending events"
                )?;
                for p in procs
                    .iter()
                    .filter(|p| p.op.is_some() || p.barrier.is_some())
                {
                    write!(f, "; {p}")?;
                }
                Ok(())
            }
            RunError::Livelock { at, window, procs } => {
                write!(f, "livelock at {at}: no op retired for {window} cycles")?;
                for p in procs.iter().filter(|p| p.op.is_some()) {
                    write!(f, "; {p}")?;
                }
                Ok(())
            }
            RunError::Protocol { at, error } => write!(f, "at {at}: {error}"),
            RunError::Invariant { at, violation } => write!(f, "at {at}: {violation}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Simulated time at which the last processor terminated.
    pub cycles: Cycle,
    /// Total discrete events processed.
    pub events: u64,
}

// ---------------------------------------------------------------------
// Canonical event keys
// ---------------------------------------------------------------------
//
// Every queued event carries a `u128` key with the layout
//
//   bits 96..128  node the event belongs to
//   bits 88..96   rank: 0 = Wire, 1 = Deliver, 2 = local, 3 = barrier
//   bits  0..88   rank-specific sub-key
//
// Same-cycle events dispatch in ascending key order, so the dispatch
// order visits same-cycle events grouped by node. Sub-keys come from
// per-node monotone counters (the network's per-source launch sequence
// for wire/deliver events, `Core::local_seq` for local events), never
// from global state. Every simulated result depends on this order —
// the committed artifacts and the spin-elision reconstruction (which
// reproduces the literal run's keys) included — so it must not change.

/// Bit position of the rank field in an event key.
const RANK_SHIFT: u32 = 88;

/// Key of a [`Event::Wire`] arrival: destination node, rank 0, then
/// `(src, launch_seq)` — the per-source FIFO coordinate.
#[inline]
fn key_wire(dst: NodeId, src: NodeId, seq: u64) -> u128 {
    debug_assert!(seq < 1 << 56, "launch sequence overflow");
    (u128::from(dst.as_u32()) << 96) | (u128::from(src.as_u32()) << 56) | u128::from(seq)
}

/// Key of a local event (`Process`, `ProcStep`, `OpDone`): node, rank
/// 2, then the node's monotone local sequence number.
#[inline]
fn key_local(node: u32, seq: u64) -> u128 {
    (u128::from(node) << 96) | (2u128 << RANK_SHIFT) | u128::from(seq)
}

/// Key of a barrier-release `ProcStep`: node, rank 3. Rank 3 sorts
/// after every other same-cycle event of the node: the release is
/// pushed while dispatching the trigger event (the last arrival), so
/// it runs after the node's already-queued same-cycle work.
#[inline]
fn key_barrier(node: u32) -> u128 {
    (u128::from(node) << 96) | (3u128 << RANK_SHIFT) | u128::from(node)
}

/// A pending simulation event: a queue entry's payload.
///
/// Message events hold a `Box<Msg>` from [`Core`]'s recycling pool, so
/// an event stays three words (24 bytes) however large the message: a
/// `Msg` (up to 128 bytes) transits the queue two or three times, and
/// the wheel moves events, not messages. The message itself is still
/// copied by value into and out of its box once per hop (outbox to
/// box at launch, box to handler at processing), which is why its
/// size is pinned in `dsm-protocol`.
#[derive(Debug)]
enum Event {
    /// A message's head flit reached its destination's network exit
    /// port (split-phase network, phase 2 pending): dispatching it runs
    /// [`NetPorts::eject`] to serialize it through the exit port and
    /// learn the delivery time. The second field is the message's flit
    /// count, computed once at launch; it is a function of the message
    /// and the machine parameters, so the state digest omits it.
    Wire(Box<Msg>, u64),
    /// A message arrived at its destination (exit port included).
    Deliver(Box<Msg>),
    /// A server (memory module or cache controller) finished processing
    /// a message. The second field is the operation span the message
    /// works for (0 when tracing is off or the flow is span-less); it
    /// bridges the service-start → service-finish gap so protocol
    /// handler output inherits the requester's span. Diagnostic-only:
    /// it never influences simulation behaviour and is excluded from
    /// [`Machine::state_digest`] like the tracer that produces it.
    Process(Box<Msg>, u64),
    /// A processor is ready for its next program step.
    ProcStep(ProcId),
    /// A processor's outstanding operation completed.
    ///
    /// Boxed for the same reason as messages: completions outnumber
    /// every other event in cache-friendly workloads, and a slim event
    /// keeps the slab entries the time wheel touches small. The boxes
    /// come from (and return to) a recycling pool, so no allocation
    /// happens at steady state.
    OpDone(ProcId, Box<OpOutcome>),
}

/// Names of the [`Event`] kinds, indexed by [`Event::kind`].
const EVENT_KINDS: [&str; 5] = ["Wire", "Deliver", "Process", "ProcStep", "OpDone"];

impl Event {
    /// This event's index into [`EVENT_KINDS`].
    fn kind(&self) -> usize {
        match self {
            Event::Wire(..) => 0,
            Event::Deliver(_) => 1,
            Event::Process(..) => 2,
            Event::ProcStep(_) => 3,
            Event::OpDone(..) => 4,
        }
    }
}

struct ProcState {
    program: Box<dyn Program>,
    rng: SimRng,
    done: bool,
    blocked: bool,
    waiting_barrier: Option<u32>,
    last: Option<OpResult>,
    last_chain: Option<u32>,
    /// (op, issue time, tracked-as-sync) of the outstanding operation.
    current: Option<(MemOp, Cycle, bool)>,
    /// The trace span of the outstanding operation (0 = none).
    /// Diagnostic-only; excluded from [`Machine::state_digest`].
    span: u64,
    /// The [`Action::SpinWhile`] loop the processor is running, if any.
    spin: Option<Spin>,
    /// Set while the processor's spin is parked (see [`Park`]).
    park: Option<Park>,
}

/// An [`Action::SpinWhile`] in progress. The engine runs the loop: a
/// `ProcStep` with no `last` result issues the load, and one with a
/// result either pauses for another iteration or ends the spin.
#[derive(Debug, Clone, Copy)]
struct Spin {
    addr: Addr,
    value: Value,
    pause: u64,
}

/// A parked spinner: its load hit in the cache and returned the spin
/// value, so until a message reaches its cache controller every further
/// iteration would hit and return the same value. Instead of queueing
/// them, the engine keeps this record and, on wake, applies the effects
/// of the iterations that fired in between (see [`Core::advance_park`]).
///
/// The elided events are numbered from 0: event `e` belongs to
/// iteration `e / 3` and is its `OpDone` (`e % 3 == 0`), its check
/// `ProcStep` (1) or its load-issuing `ProcStep` (2).
#[derive(Debug, Clone, Copy)]
struct Park {
    /// Issue time of the load whose `OpDone` is elided event 0.
    t0: Cycle,
    /// Elided events applied so far; event `fired` is the pending one.
    fired: u64,
    /// Local sequence number of the pending event's key (see
    /// [`key_local`]) in the literal run.
    seq: u64,
    /// The outcome every parked load returns.
    outcome: OpOutcome,
}

// ---------------------------------------------------------------------
// Core: the engine
// ---------------------------------------------------------------------

/// The simulation state plus the event dispatcher that advances it.
struct Core {
    cfg: MachineConfig,
    map: AddressMap,
    mesh: Mesh,
    now: Cycle,
    events: EventQueue<Event>,
    ports: NetPorts,
    homes: Vec<HomeNode>,
    caches: Vec<CacheNode>,
    procs: Vec<ProcState>,
    /// Per-node memory-module server availability.
    mem_busy: Vec<Cycle>,
    /// Per-node cache-controller server availability.
    cache_busy: Vec<Cycle>,
    /// Statistics, updated in place in dispatch order.
    stats: MachineStats,
    /// Per-node monotone sequence for local event keys.
    local_seq: Vec<u64>,
    /// Non-terminated processors.
    active: usize,
    events_processed: u64,
    /// Last time a memory operation retired (watchdog bookkeeping).
    last_retire: Cycle,
    /// Reusable outbox: protocol handlers fill it, [`Core::route`]
    /// drains it in place, and the backing vector's capacity survives
    /// from event to event instead of being reallocated per dispatch.
    outbox: Outbox,
    /// Recycled message boxes: every in-flight message lives in a
    /// `Box<Msg>` (see [`Event`]), and at steady state the simulator
    /// would otherwise pay a malloc/free pair per message. The boxing
    /// is the point — these pools hold ready-made heap allocations for
    /// [`Event`] payloads — so clippy's vec_box (which assumes the
    /// indirection is accidental) does not apply.
    #[allow(clippy::vec_box)]
    msg_pool: Vec<Box<Msg>>,
    /// Recycled completion boxes, same idea as `msg_pool` but for
    /// [`Event::OpDone`] payloads.
    #[allow(clippy::vec_box)]
    outcome_pool: Vec<Box<OpOutcome>>,
    /// The longest spin pause that may park during this run, or `None`
    /// when this run does not park (set by [`Machine::run`]).
    park_bound: Option<u64>,
    /// Processors currently parked.
    parked: usize,
    /// Events counted in `events_processed` that parking applied
    /// without dispatching them.
    elided: u64,
    /// Dispatched events per kind, in [`EVENT_KINDS`] order.
    dispatched: [u64; EVENT_KINDS.len()],
    /// Structured event tracer (`--trace` / `DSM_TRACE`), boxed so the
    /// disabled case costs one pointer and one never-taken branch per
    /// instrumentation site.
    tracer: Option<Box<Tracer>>,
    /// Deterministic fault injector, present only when faults are on.
    injector: Option<FaultInjector>,
    /// Run the invariant checker after every protocol transition.
    paranoid: bool,
}

impl Core {
    /// Pushes a local event with the node's next monotone key.
    fn push_local(&mut self, at: Cycle, node: u32, event: Event) {
        let i = node as usize;
        let key = key_local(node, self.local_seq[i]);
        self.local_seq[i] += 1;
        self.events.push_keyed(at, key, event);
    }

    /// Wraps a message in a (pooled) box for the event queue.
    fn box_msg(&mut self, msg: Msg) -> Box<Msg> {
        match self.msg_pool.pop() {
            Some(mut b) => {
                *b = msg;
                b
            }
            None => Box::new(msg),
        }
    }

    /// Wraps a completion in a (pooled) box for the event queue.
    fn box_outcome(&mut self, outcome: OpOutcome) -> Box<OpOutcome> {
        match self.outcome_pool.pop() {
            Some(mut b) => {
                *b = outcome;
                b
            }
            None => Box::new(outcome),
        }
    }

    /// Moves the message out of its box and returns the box to the
    /// recycling pool.
    fn recycle(&mut self, mut msg: Box<Msg>) -> Msg {
        let taken = std::mem::replace(
            &mut *msg,
            Msg {
                src: NodeId::new(0),
                dst: NodeId::new(0),
                line: dsm_sim::LineAddr::new(0),
                addr: dsm_sim::Addr::new(0),
                proc: ProcId::new(0),
                chain: 0,
                kind: dsm_protocol::MsgKind::GetS,
            },
        );
        self.msg_pool.push(msg);
        taken
    }

    /// Dispatches one event. `key` is the event's queue key (needed to
    /// derive the delivery key of a wire arrival). Returns `true` when
    /// the event may have released a barrier: a processor arrived at
    /// one or terminated.
    fn dispatch(&mut self, key: u128, event: Event) -> Result<bool, RunError> {
        self.dispatched[event.kind()] += 1;
        match event {
            Event::ProcStep(p) => return self.proc_step(p),
            Event::OpDone(p, outcome) => {
                let o = *outcome;
                self.outcome_pool.push(outcome);
                self.op_done(p, o)?;
            }
            Event::Wire(msg, flits) => self.wire(key, msg, flits),
            Event::Deliver(msg) => self.deliver(msg),
            Event::Process(msg, span) => self.process(msg, span)?,
        }
        Ok(false)
    }

    /// Routes freshly emitted messages into the network, draining the
    /// outbox in place so its allocation is reusable. Phase 1 of the
    /// split-phase network: the message is serialized through its
    /// source's entry port and queued for its wire arrival; the
    /// destination's exit port is [`Core::wire`]'s business.
    fn route(&mut self, out: &mut Outbox) {
        for msg in out.msgs.drain(..) {
            let flits = msg.flits(&self.cfg.params);
            let extra = match &mut self.injector {
                Some(inj) => inj.jitter(self.now.as_u64()),
                None => 0,
            };
            let (wire_at, seq) = self.ports.launch(
                &self.cfg.params,
                &self.mesh,
                self.now,
                msg.src,
                msg.dst,
                flits,
                extra,
            );
            self.stats.msgs.count(msg.kind.class());
            let n = &mut self.stats.nodes[msg.src.index()];
            n.msgs_sent += 1;
            n.flits_sent += flits;
            n.transit_cycles += (wire_at - self.now).as_u64();
            if let Some(tracer) = &mut self.tracer {
                if tracer.wants(Category::Msg) {
                    // Wire arrival, not final delivery: the exit port is
                    // the destination's business and unknown at launch.
                    tracer.msg_send(
                        self.now,
                        msg.src,
                        msg.dst,
                        msg.line,
                        msg.kind.label(),
                        flits,
                        self.cfg.hops(msg.src, msg.dst),
                        wire_at,
                    );
                }
            }
            let key = key_wire(msg.dst, msg.src, seq);
            let boxed = self.box_msg(msg);
            self.events
                .push_keyed(wire_at, key, Event::Wire(boxed, flits));
        }
    }

    /// Phase 2 of the split-phase network: the destination serializes
    /// the arrived message through its exit port. When the exit port is
    /// free the message is delivered inline (no extra queue transit).
    fn wire(&mut self, key: u128, msg: Box<Msg>, flits: u64) {
        let delivered = self
            .ports
            .eject(&self.cfg.params, self.now, msg.src, msg.dst, flits);
        if delivered == self.now {
            self.deliver(msg);
        } else {
            self.events
                .push_keyed(delivered, key | (1u128 << RANK_SHIFT), Event::Deliver(msg));
        }
    }

    /// A message reached its destination: queue it for the appropriate
    /// server (memory module or cache controller).
    fn deliver(&mut self, msg: Box<Msg>) {
        let node = msg.dst.index();
        // The `Process` pushed below takes the node's next local key;
        // a parked spinner's earlier iterations took theirs first.
        if self.procs[node].park.is_some() {
            self.advance_park(node, self.now);
        }
        let (busy, service) = if msg.kind.home_bound() {
            (
                &mut self.mem_busy[node],
                self.cfg.params.dir_access + self.cfg.params.mem_access,
            )
        } else {
            (&mut self.cache_busy[node], self.cfg.params.cache_ctrl)
        };
        let start = self.now.max(*busy);
        let finish = start + service;
        *busy = finish;
        let mut span = 0;
        if let Some(tracer) = &mut self.tracer {
            if tracer.wants(Category::Msg) {
                span = tracer.msg_service(
                    start,
                    finish,
                    msg.src,
                    msg.dst,
                    msg.kind.label(),
                    msg.kind.home_bound(),
                    msg.kind.service_phase(),
                );
            }
        }
        let dst = msg.dst.as_u32();
        self.push_local(finish, dst, Event::Process(msg, span));
    }

    fn proc_step(&mut self, p: ProcId) -> Result<bool, RunError> {
        let i = p.index();
        let state = &mut self.procs[i];
        if state.done || state.blocked || state.waiting_barrier.is_some() {
            return Ok(false);
        }
        if let Some(spin) = state.spin {
            // The spin loop's own steps: issue the load, or look at its
            // result and either pause for another iteration or hand the
            // result to the program.
            match state.last.take() {
                None => {
                    self.issue_op(p, MemOp::Load { addr: spin.addr })?;
                    return Ok(false);
                }
                Some(r) if r.value() == Some(spin.value) => {
                    state.last_chain = None;
                    self.push_local(self.now + spin.pause, p.as_u32(), Event::ProcStep(p));
                    return Ok(false);
                }
                Some(r) => {
                    state.spin = None;
                    state.last = Some(r);
                }
            }
        }
        let action = {
            let mut ctx = ProcCtx {
                proc: p,
                now: self.now,
                last: state.last.take(),
                last_chain: state.last_chain.take(),
                rng: &mut state.rng,
            };
            state.program.step(&mut ctx)
        };
        match action {
            Action::Compute(cycles) => {
                self.push_local(self.now + cycles, p.as_u32(), Event::ProcStep(p));
                Ok(false)
            }
            Action::SpinWhile { addr, value, pause } => {
                self.procs[i].spin = Some(Spin { addr, value, pause });
                self.push_local(self.now + pause, p.as_u32(), Event::ProcStep(p));
                Ok(false)
            }
            Action::Barrier(id) => {
                self.procs[i].waiting_barrier = Some(id);
                Ok(true)
            }
            Action::Done => {
                self.procs[i].done = true;
                self.active -= 1;
                Ok(true)
            }
            Action::Op(op) => {
                self.issue_op(p, op)?;
                Ok(false)
            }
        }
    }

    fn issue_op(&mut self, p: ProcId, op: MemOp) -> Result<(), RunError> {
        // One map lookup answers both "sync line?" and "which policy?".
        let sync_cfg = self.map.sync_config_for(op.addr());
        let is_sync = sync_cfg.is_some();
        let i = p.index();
        if is_sync {
            self.stats.contention.begin(op.addr().as_u64());
        }
        self.procs[i].current = Some((op, self.now, is_sync));
        if let Some(tracer) = &mut self.tracer {
            let span = tracer.span_begin(
                self.now,
                p,
                op.label(),
                op.addr().line(self.cfg.params.line_size),
            );
            self.procs[i].span = span;
        }
        let mut out = std::mem::replace(&mut self.outbox, Outbox::new());
        let completed = self.caches[i]
            .start_op_with(op, sync_cfg.unwrap_or_default(), &mut out)
            .map_err(|error| RunError::Protocol {
                at: self.now,
                error,
            })?;
        self.route(&mut out);
        self.outbox = out;
        // Back to "no span": anything sent later (fault repair,
        // unrelated servicing) is not this operation's doing.
        if let Some(tracer) = &mut self.tracer {
            tracer.set_span_ctx(0);
        }
        self.procs[i].blocked = true;
        if let Some(outcome) = completed {
            if !is_sync && self.may_park(i, &outcome) {
                self.park(i, outcome);
            } else {
                let latency = self.cfg.params.cache_hit;
                let boxed = self.box_outcome(outcome);
                self.push_local(self.now + latency, p.as_u32(), Event::OpDone(p, boxed));
            }
        }
        Ok(())
    }

    /// `true` if processor `i`'s just-completed local load is a spin
    /// iteration that would go on spinning, and this run parks spins
    /// with its pause (see [`Park`]).
    fn may_park(&self, i: usize, outcome: &OpOutcome) -> bool {
        match (self.park_bound, self.procs[i].spin) {
            (Some(bound), Some(spin)) => {
                spin.pause <= bound && outcome.local && outcome.result.value() == Some(spin.value)
            }
            _ => false,
        }
    }

    /// Parks processor `i` instead of queueing the `OpDone` of its
    /// load, which issued now and hit. The `OpDone` keeps the key the
    /// literal run would give it.
    fn park(&mut self, i: usize, outcome: OpOutcome) {
        let seq = self.local_seq[i];
        self.local_seq[i] += 1;
        self.procs[i].park = Some(Park {
            t0: self.now,
            fired: 0,
            seq,
            outcome,
        });
        self.parked += 1;
    }

    /// The cycle of a parked processor's elided event `e` (see [`Park`]).
    fn elided_time(&self, park: &Park, spin: &Spin, e: u64) -> Cycle {
        let (hit, issue) = (self.cfg.params.cache_hit, self.cfg.params.issue);
        let period = hit + issue + spin.pause;
        let offset = [hit, hit + issue, period][(e % 3) as usize];
        park.t0 + (e / 3) * period + offset
    }

    /// Applies the effects of every elided event of parked processor `i`
    /// that fires before `upto`, exactly as dispatching them would have:
    /// the event count, the node's local key sequence, the loads' cache
    /// touches and operation statistics, the retirement time and the
    /// processor's own state.
    ///
    /// Exactness rests on the spinner's events being the last of their
    /// node in their cycle (see [`Machine::park_bound`]): anything else
    /// that happens at the node at cycle `t` happens after every elided
    /// event before `t` and before any at `t`.
    fn advance_park(&mut self, i: usize, upto: Cycle) {
        let (Some(mut park), Some(spin)) = (self.procs[i].park, self.procs[i].spin) else {
            return;
        };
        let (hit, issue) = (self.cfg.params.cache_hit, self.cfg.params.issue);
        let period = hit + issue + spin.pause;
        let span = upto.as_u64().saturating_sub(park.t0.as_u64());
        let total: u64 = [hit, hit + issue, period]
            .iter()
            .map(|&off| span.saturating_sub(off).div_ceil(period))
            .sum();
        let new = total - park.fired;
        if new == 0 {
            return;
        }
        // Elided events in [fired, total) of each kind (`e % 3 == r`).
        let kind = |r: u64| (total + 2 - r) / 3 - (park.fired + 2 - r) / 3;
        let (done, issued) = (kind(0), kind(2));
        // Each elided event pushed its successor; the last push is the
        // pending event.
        park.seq = self.local_seq[i] + new - 1;
        self.local_seq[i] += new;
        park.fired = total;
        self.events_processed += new;
        self.elided += new;
        if done > 0 {
            let s = &mut self.stats;
            s.ops += done;
            s.local_ops += done;
            s.op_latency_hist.record_n(hit, done);
            s.nodes[i].ops += done;
            let last_done = self.elided_time(&park, &spin, (total - 1) / 3 * 3);
            self.last_retire = self.last_retire.max(last_done);
        }
        if issued > 0 {
            let line = spin.addr.line(self.cfg.params.line_size);
            let hit_line = self.caches[i].touch_hits(line, issued);
            debug_assert!(hit_line, "a parked spin line stays resident");
        }
        let s = &mut self.procs[i];
        (s.current, s.blocked, s.last, s.last_chain) = match total % 3 {
            // Last applied: a load issue. Its `OpDone` is pending.
            0 => {
                let issued_at = park.t0 + total / 3 * period;
                let op = MemOp::Load { addr: spin.addr };
                (Some((op, issued_at, false)), true, None, None)
            }
            // Last applied: an `OpDone`. The check step is pending.
            1 => (
                None,
                false,
                Some(park.outcome.result),
                Some(park.outcome.chain),
            ),
            // Last applied: a check. The next load issue is pending.
            _ => (None, false, None, None),
        };
        s.park = Some(park);
    }

    /// Wakes parked processor `i` at `at`: applies its elided events
    /// before `at` and queues its pending event under the literal key.
    /// From there it runs literally until it parks again. Returns the
    /// cycle of the last elided event, if any fired.
    fn unpark(&mut self, i: usize, at: Cycle) -> Option<Cycle> {
        self.advance_park(i, at);
        let (Some(park), Some(spin)) = (self.procs[i].park.take(), self.procs[i].spin) else {
            return None;
        };
        self.parked -= 1;
        let node = i as u32;
        let p = ProcId::new(node);
        let due = self.elided_time(&park, &spin, park.fired);
        let event = if park.fired % 3 == 0 {
            Event::OpDone(p, self.box_outcome(park.outcome))
        } else {
            Event::ProcStep(p)
        };
        self.events
            .push_keyed(due, key_local(node, park.seq), event);
        (park.fired > 0).then(|| self.elided_time(&park, &spin, park.fired - 1))
    }

    /// Wakes every parked processor at `at`; returns the latest cycle
    /// at which one of their elided events fired (`Cycle::ZERO` if none).
    fn unpark_all(&mut self, at: Cycle) -> Cycle {
        (0..self.procs.len())
            .filter_map(|i| self.unpark(i, at))
            .max()
            .unwrap_or(Cycle::ZERO)
    }

    fn op_done(&mut self, p: ProcId, outcome: OpOutcome) -> Result<(), RunError> {
        let i = p.index();
        let Some((op, issued, is_sync)) = self.procs[i].current.take() else {
            return Err(RunError::Protocol {
                at: self.now,
                error: ProtocolError::new(
                    ProtocolErrorKind::MissingRequest,
                    format!("operation completion at {p} with no operation outstanding"),
                ),
            });
        };
        self.last_retire = self.now;
        // A failed atomic attempt means the processor's loop will come
        // around again: the raw material of the paper's retry-storm
        // analysis.
        let failure = match outcome.result {
            OpResult::CasDone { success: false, .. } => Some("cas-fail"),
            OpResult::ScDone { success: false } => Some("sc-fail"),
            OpResult::Loaded {
                reserved: false, ..
            } if matches!(op, MemOp::LoadLinked { .. }) => Some("ll-unreserved"),
            _ => None,
        };
        {
            let s = &mut self.stats;
            s.ops += 1;
            s.op_latency_hist.record((self.now - issued).as_u64());
            if outcome.local {
                s.local_ops += 1;
            }
            if is_sync {
                let addr = op.addr().as_u64();
                s.sync_ops += 1;
                s.msgs.record_chain(outcome.chain);
                s.contention.end(addr);
                let write = op.is_write() && outcome.result.succeeded();
                s.write_runs.access(addr, p.as_u32(), write);
            }
            let n = &mut s.nodes[i];
            n.ops += 1;
            if failure.is_some() {
                n.retries += 1;
            }
        }
        let span = std::mem::take(&mut self.procs[i].span);
        if let Some(tracer) = &mut self.tracer {
            tracer.span_end(self.now, p, span, failure.unwrap_or("ok"));
            if tracer.wants(Category::Op) {
                tracer.op(
                    p,
                    issued,
                    self.now,
                    op.label(),
                    outcome.local,
                    outcome.chain,
                );
            }
            if let Some(label) = failure.filter(|_| tracer.wants(Category::Retry)) {
                tracer.retry(self.now, p, label);
            }
            if tracer.wants(Category::Resv) {
                if let (MemOp::LoadLinked { .. }, OpResult::Loaded { reserved, .. }) =
                    (op, outcome.result)
                {
                    let home = op
                        .addr()
                        .line(self.cfg.params.line_size)
                        .home(self.cfg.nodes);
                    let label = if reserved {
                        "ll-reserved"
                    } else {
                        "ll-unreserved"
                    };
                    tracer.reservation(self.now, home, label);
                }
            }
        }
        let state = &mut self.procs[i];
        state.blocked = false;
        state.last = Some(outcome.result);
        state.last_chain = Some(outcome.chain);
        self.push_local(
            self.now + self.cfg.params.issue,
            p.as_u32(),
            Event::ProcStep(p),
        );
        Ok(())
    }

    fn process(&mut self, msg: Box<Msg>, span: u64) -> Result<(), RunError> {
        let node = msg.dst.index();
        let dst = msg.dst;
        let line = msg.line;
        let msg = self.recycle(msg);
        // Everything the handlers send below — forwards, invalidation
        // fan-out, replies — is on behalf of the operation that caused
        // this message, so those flows inherit its span.
        if let Some(tracer) = &mut self.tracer {
            tracer.set_span_ctx(span);
        }
        // Coherence-state probes bracket the handler call; the flags are
        // false when tracing is off, so the probes cost nothing then.
        let tracer = self.tracer.as_deref();
        let want_state = tracer.is_some_and(|t| t.wants(Category::State));
        let want_queue = tracer.is_some_and(|t| t.wants(Category::Queue));
        let mut out = std::mem::replace(&mut self.outbox, Outbox::new());
        if msg.kind.home_bound() {
            self.stats.nodes[node].served_home += 1;
            let before = want_state.then(|| dir_label(self.homes[node].dir_state(line)));
            self.homes[node]
                .handle(msg, &self.map, &mut out)
                .map_err(|error| RunError::Protocol {
                    at: self.now,
                    error,
                })?;
            if let Some(before) = before {
                let after = dir_label(self.homes[node].dir_state(line));
                if after != before {
                    if let Some(tracer) = &mut self.tracer {
                        tracer.dir_transition(self.now, dst, line, before, after);
                    }
                }
            }
            if want_queue {
                let depth =
                    (self.homes[node].queued_requests() + self.homes[node].busy_lines()) as u64;
                if let Some(tracer) = &mut self.tracer {
                    tracer.queue_depth(self.now, dst, depth);
                }
            }
            self.route(&mut out);
        } else {
            // A message for this cache may change what a parked spin
            // reads: wake the spinner before handling it.
            if self.procs[node].park.is_some() {
                self.unpark(node, self.now);
            }
            self.stats.nodes[node].served_cache += 1;
            let proc = ProcId::new(msg.dst.as_u32());
            let before = want_state.then(|| cache_label(self.caches[node].cache_state(line)));
            let completed =
                self.caches[node]
                    .handle(msg, &mut out)
                    .map_err(|error| RunError::Protocol {
                        at: self.now,
                        error,
                    })?;
            if let Some(before) = before {
                let after = cache_label(self.caches[node].cache_state(line));
                if after != before {
                    if let Some(tracer) = &mut self.tracer {
                        tracer.cache_transition(self.now, dst, line, before, after);
                    }
                }
            }
            self.route(&mut out);
            if let Some(outcome) = completed {
                let boxed = self.box_outcome(outcome);
                self.push_local(self.now, proc.as_u32(), Event::OpDone(proc, boxed));
            }
        }
        self.outbox = out;
        if let Some(tracer) = &mut self.tracer {
            tracer.set_span_ctx(0);
        }
        if self.paranoid {
            if let Some(violation) = check_line(&self.caches, &self.homes, &self.map, line)
                .into_iter()
                .next()
            {
                return Err(RunError::Invariant {
                    at: self.now,
                    violation,
                });
            }
        }
        Ok(())
    }

    /// Ends a run that reached `limit`, or ran out of queued events,
    /// with processors parked. Their spins keep the literal queue busy
    /// up to the limit, so the literal run ends with
    /// [`RunError::CycleLimit`] after dispatching them and popping the
    /// earliest event beyond the limit. Reproduce exactly that: put the
    /// popped event back, wake every spinner at the limit, drop the
    /// earliest event.
    fn parked_limit(&mut self, limit: Cycle, popped: Option<(Cycle, u128, Event)>) -> RunError {
        if let Some((at, key, event)) = popped {
            self.events.push_keyed(at, key, event);
        }
        let latest = self.unpark_all(Cycle::new(limit.as_u64().saturating_add(1)));
        self.now = self.now.max(latest);
        self.events.pop_keyed();
        RunError::CycleLimit {
            limit,
            active: self.active,
        }
    }

    /// Releases the barrier if every non-terminated processor has
    /// arrived at it.
    fn try_release_barrier(&mut self) {
        let mut waiting = 0;
        let mut id: Option<u32> = None;
        for s in &self.procs {
            if s.done {
                continue;
            }
            match s.waiting_barrier {
                Some(b) => {
                    if let Some(prev) = id {
                        assert_eq!(prev, b, "processors waiting at different barriers");
                    }
                    id = Some(b);
                    waiting += 1;
                }
                None => return, // someone is still running
            }
        }
        if waiting == 0 {
            return;
        }
        self.apply_barrier_release(self.now);
    }

    /// Resumes every waiting processor at `at` (rank-3 keys, so the
    /// releases sort after all other same-cycle work of the node).
    fn apply_barrier_release(&mut self, at: Cycle) {
        for (i, s) in self.procs.iter_mut().enumerate() {
            if !s.done && s.waiting_barrier.is_some() {
                s.waiting_barrier = None;
                let node = i as u32;
                self.events
                    .push_keyed(at, key_barrier(node), Event::ProcStep(ProcId::new(node)));
            }
        }
    }

    /// `true` if any processor has an operation outstanding.
    fn any_outstanding(&self) -> bool {
        self.procs.iter().any(|s| s.current.is_some())
    }

    /// Snapshots every processor's blocked-on state.
    fn proc_dumps(&self) -> Vec<ProcDump> {
        self.procs
            .iter()
            .enumerate()
            .map(|(i, s)| ProcDump {
                proc: ProcId::new(i as u32),
                op: s.current.map(|(op, _, _)| op),
                addr: s.current.map(|(op, _, _)| op.addr()),
                issued: s.current.map(|(_, at, _)| at),
                barrier: s.waiting_barrier,
            })
            .collect()
    }
}

/// Builder for a [`Machine`].
///
/// # Example
///
/// ```
/// use dsm_machine::{Action, MachineBuilder, ProcCtx};
/// use dsm_protocol::MemOp;
/// use dsm_sim::{Addr, MachineConfig};
///
/// let mut b = MachineBuilder::new(MachineConfig::with_nodes(4));
/// for _ in 0..4 {
///     b.add_program(|ctx: &mut ProcCtx<'_>| {
///         if ctx.last.is_none() {
///             Action::Op(MemOp::Load { addr: Addr::new(64) })
///         } else {
///             Action::Done
///         }
///     });
/// }
/// let mut machine = b.build();
/// let report = machine.run(dsm_sim::Cycle::new(100_000)).unwrap();
/// assert!(report.cycles > dsm_sim::Cycle::ZERO);
/// ```
pub struct MachineBuilder {
    cfg: MachineConfig,
    map: AddressMap,
    programs: Vec<Box<dyn Program>>,
    init: Vec<(Addr, Value)>,
    llsc_pool: usize,
    trace: Option<TraceSpec>,
    /// The environment's protocol spec carried an `hna` clause: flip
    /// every registered INV-policy sync line to home-node atomics at
    /// build time.
    hna: bool,
}

impl MachineBuilder {
    /// Starts building a machine with the given configuration.
    ///
    /// When the configuration carries the default protocol settings
    /// (DASH variant, one cluster, no cluster penalty), the protocol
    /// spec of [`RunEnv::current`] is applied to it. Its `hna` clause
    /// is remembered and flips every INV-policy sync line registered
    /// with [`register_sync`](Self::register_sync) to home-node atomics
    /// when [`build`](Self::build) runs. Explicit non-default
    /// configuration always wins.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(mut cfg: MachineConfig) -> Self {
        let mut hna = false;
        let proto_is_default =
            cfg.proto == ProtoVariant::Dash && cfg.clusters == 1 && cfg.params.cluster_penalty == 0;
        if proto_is_default {
            let spec = RunEnv::current().proto;
            spec.apply(&mut cfg);
            hna = spec.home_atomics;
        }
        cfg.validate().expect("invalid machine configuration");
        let line_size = cfg.params.line_size;
        MachineBuilder {
            cfg,
            map: AddressMap::new(line_size),
            programs: Vec::new(),
            init: Vec::new(),
            llsc_pool: 256,
            trace: None,
            hna,
        }
    }

    /// Enables structured event tracing for the built machine (see
    /// [`TraceSpec`] for sink and category selection). An explicit spec
    /// set here takes precedence over the trace spec of
    /// [`RunEnv::current`].
    pub fn with_trace(&mut self, spec: TraceSpec) -> &mut Self {
        self.trace = Some(spec);
        self
    }

    /// Registers the line containing `addr` as a synchronization line.
    pub fn register_sync(&mut self, addr: Addr, config: SyncConfig) -> &mut Self {
        self.map.register(addr, config);
        self
    }

    /// Initializes a word of memory before the run.
    pub fn init_word(&mut self, addr: Addr, value: Value) -> &mut Self {
        self.init.push((addr, value));
        self
    }

    /// Sets the linked-list reservation free-pool size per home node.
    pub fn llsc_pool(&mut self, entries: usize) -> &mut Self {
        self.llsc_pool = entries;
        self
    }

    /// Adds the program for the next processor (programs are assigned in
    /// order: the first added runs on processor 0).
    pub fn add_program<P: Program + 'static>(&mut self, program: P) -> &mut Self {
        self.programs.push(Box::new(program));
        self
    }

    /// Builds the machine.
    ///
    /// When the configuration carries no fault settings, the faults
    /// (paranoid checking included) of [`RunEnv::current`] apply, so a
    /// whole test suite can run under fault injection or paranoid
    /// invariant checking without code changes. An explicit
    /// [`MachineConfig::faults`] always wins. Likewise, when no trace
    /// spec was set with [`with_trace`](MachineBuilder::with_trace),
    /// the environment's trace spec applies.
    ///
    /// # Panics
    ///
    /// Panics if the number of programs does not equal the number of
    /// nodes.
    pub fn build(mut self) -> Machine {
        assert_eq!(
            self.programs.len(),
            self.cfg.nodes as usize,
            "one program per processor is required ({} programs for {} nodes)",
            self.programs.len(),
            self.cfg.nodes
        );
        let env = RunEnv::current();
        if !self.cfg.faults.is_active() {
            self.cfg.faults = env.faults.clone();
        }
        // The machine keeps the *effective* fault settings, so the
        // reproducer layer can capture them into its artifacts
        // regardless of where they came from.
        let faults = self.cfg.faults.clone();
        let trace_spec = self.trace.or_else(|| env.trace.clone());
        let tracer = trace_spec.map(|spec| Box::new(Tracer::new(&spec, self.cfg.nodes)));
        let mesh = Mesh::new(&self.cfg);
        let mut seed_rng = SimRng::new(self.cfg.seed);
        let procs: Vec<ProcState> = self
            .programs
            .into_iter()
            .map(|program| ProcState {
                program,
                rng: seed_rng.fork(0xFACE),
                done: false,
                blocked: false,
                waiting_barrier: None,
                last: None,
                last_chain: None,
                current: None,
                span: 0,
                spin: None,
                park: None,
            })
            .collect();
        let injector = faults
            .any_faults()
            .then(|| FaultInjector::new(faults.clone(), seed_rng.fork(0xFA17)));
        let mut homes = Vec::with_capacity(self.cfg.nodes as usize);
        let mut caches = Vec::with_capacity(self.cfg.nodes as usize);
        if self.hna {
            self.map.enable_home_atomics();
        }
        let (mesh_width, _) = self.cfg.mesh_dims();
        for n in 0..self.cfg.nodes {
            let mut home = HomeNode::new(NodeId::new(n), self.cfg.params.line_size, self.llsc_pool);
            home.set_topology(
                self.cfg.proto,
                mesh_width,
                self.cfg.nodes,
                self.cfg.clusters,
            );
            homes.push(home);
            let mut cc = CacheNode::new(NodeId::new(n), self.cfg.params.line_size, self.cfg.cache);
            cc.set_nodes(self.cfg.nodes);
            caches.push(cc);
        }
        let nodes = self.cfg.nodes;
        let stats = MachineStats {
            nodes: vec![NodeCounters::default(); nodes as usize],
            ..MachineStats::default()
        };
        let core = Core {
            map: self.map,
            mesh,
            now: Cycle::ZERO,
            // Each node can have a handful of events in flight
            // (messages, processor steps, memory completions).
            events: EventQueue::with_capacity(nodes as usize * 8),
            ports: NetPorts::new(nodes),
            homes,
            caches,
            procs,
            mem_busy: vec![Cycle::ZERO; nodes as usize],
            cache_busy: vec![Cycle::ZERO; nodes as usize],
            stats,
            local_seq: vec![0; nodes as usize],
            active: nodes as usize,
            events_processed: 0,
            last_retire: Cycle::ZERO,
            outbox: Outbox::new(),
            msg_pool: Vec::new(),
            outcome_pool: Vec::new(),
            park_bound: None,
            parked: 0,
            elided: 0,
            dispatched: [0; EVENT_KINDS.len()],
            tracer,
            injector,
            paranoid: faults.paranoid,
            cfg: self.cfg,
        };
        let mut machine = Machine {
            core,
            trace_files: Vec::new(),
            watchdog: faults.watchdog,
            injected_evictions: 0,
            injected_wipes: 0,
            injected_corruptions: 0,
        };
        for (addr, value) in self.init {
            machine.poke_word(addr, value);
        }
        for p in 0..machine.core.cfg.nodes {
            machine
                .core
                .push_local(Cycle::ZERO, p, Event::ProcStep(ProcId::new(p)));
        }
        machine
    }
}

/// The simulated DSM multiprocessor.
///
/// Construct with [`MachineBuilder`], then [`run`](Machine::run).
pub struct Machine {
    /// The engine state and dispatcher.
    core: Core,
    /// Paths written by the last trace flush.
    trace_files: Vec<PathBuf>,
    /// Livelock watchdog window in cycles (0 = off).
    watchdog: u64,
    /// Evictions forced by the fault injector.
    injected_evictions: u64,
    /// Reservation wipes forced by the fault injector.
    injected_wipes: u64,
    /// Shared-to-exclusive corruptions forced by the fault injector.
    injected_corruptions: u64,
}

impl Machine {
    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.core.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.core.now
    }

    /// Accumulated statistics. The machine updates them in place as it
    /// dispatches events, so reading them does no work.
    pub fn stats(&self) -> &MachineStats {
        &self.core.stats
    }

    /// Network statistics.
    pub fn network_stats(&self) -> &dsm_mesh::NetworkStats {
        self.core.ports.stats()
    }

    /// `true` when a run must dispatch every event literally:
    /// instrumentation (tracer, fault injector, paranoid checking,
    /// watchdog) is active.
    fn instrumented(&self) -> bool {
        self.core.tracer.is_some()
            || self.core.injector.is_some()
            || self.core.paranoid
            || self.watchdog > 0
    }

    /// The longest spin pause a run may park, or `None` when the run
    /// must dispatch every spin iteration. Only an uninstrumented run
    /// parks, and only when spinner events are provably the last of
    /// their node in their cycle: every spinner event fires `d` cycles
    /// after it is queued (`d` one of the pause, `cache_hit`, `issue`),
    /// every server finishes a message at least `bound` cycles after it
    /// arrives, and with `flit_cycle >= 1` no message arrives in the
    /// cycle it is sent. So `d <= bound` leaves no later message
    /// processing in a spinner event's cycle.
    fn park_bound(&self) -> Option<u64> {
        let p = &self.core.cfg.params;
        let bound = p.cache_ctrl.min(p.dir_access + p.mem_access);
        let exact = p.flit_cycle >= 1 && p.cache_hit <= bound && p.issue <= bound;
        (exact && !self.instrumented()).then_some(bound)
    }

    /// Writes a word directly into its home memory (initialization /
    /// between quiescent phases only).
    pub fn poke_word(&mut self, addr: Addr, value: Value) {
        let home = addr
            .line(self.core.cfg.params.line_size)
            .home(self.core.cfg.nodes);
        self.core.homes[home.index()].poke_word(addr, value);
    }

    /// Reads the current logical value of a word: the owner's cached
    /// copy if the line is dirty, otherwise home memory. Only meaningful
    /// when the machine is quiescent.
    pub fn read_word(&self, addr: Addr) -> Value {
        let line = addr.line(self.core.cfg.params.line_size);
        let home = line.home(self.core.cfg.nodes);
        if let DirState::Dirty(owner) = self.core.homes[home.index()].dir_state(line) {
            if let Some(v) = self.core.caches[owner.index()].peek_word(addr) {
                return v;
            }
        }
        self.core.homes[home.index()].peek_word(addr)
    }

    /// Runs until every processor terminates or `limit` is reached.
    ///
    /// # Errors
    ///
    /// [`RunError::CycleLimit`] if the limit was reached first,
    /// [`RunError::Deadlock`] if the event queue drained with blocked
    /// processors (a protocol/program bug), [`RunError::Livelock`] if the
    /// watchdog window elapsed without an op retiring,
    /// [`RunError::Protocol`] if a protocol engine reached an illegal
    /// state, or [`RunError::Invariant`] if paranoid checking found a
    /// violated invariant.
    pub fn run(&mut self, limit: Cycle) -> Result<RunReport, RunError> {
        self.core.park_bound = self.park_bound();
        let result = self.run_inner(limit);
        // A failed run may leave spinners parked; put the machine back
        // in the literal state.
        self.core.unpark_all(self.core.now);
        // Traces are most valuable when a run fails (deadlock, protocol
        // error), so flush on the error path too. A trace I/O failure
        // must not masquerade as a simulation failure; report and move
        // on.
        if let Err(e) = self.flush_trace() {
            eprintln!("warning: failed to write trace output: {e}");
        }
        result
    }

    fn run_inner(&mut self, limit: Cycle) -> Result<RunReport, RunError> {
        self.core.last_retire = self.core.now;
        while self.core.active > 0 {
            let Some((at, key, event)) = self.core.events.pop_keyed() else {
                if self.core.parked > 0 {
                    return Err(self.core.parked_limit(limit, None));
                }
                return Err(RunError::Deadlock {
                    at: self.core.now,
                    active: self.core.active,
                    procs: self.core.proc_dumps(),
                });
            };
            debug_assert!(at >= self.core.now, "time ran backwards");
            if at > limit {
                if self.core.parked > 0 {
                    return Err(self.core.parked_limit(limit, Some((at, key, event))));
                }
                return Err(RunError::CycleLimit {
                    limit,
                    active: self.core.active,
                });
            }
            self.core.now = at;
            self.core.events_processed += 1;
            self.poll_faults();
            self.check_watchdog()?;
            if self.core.dispatch(key, event)? {
                self.core.try_release_barrier();
            }
        }
        let finished = self.core.now;
        // Drain in-flight traffic (e.g. final write-backs) so the
        // machine is quiescent: read_word and validate_coherence see the
        // committed state.
        while let Some((at, key, event)) = self.core.events.pop_keyed() {
            if at > limit {
                return Err(RunError::CycleLimit { limit, active: 0 });
            }
            self.core.now = at;
            self.core.events_processed += 1;
            self.core.dispatch(key, event)?;
        }
        if self.core.paranoid {
            self.validate_coherence()
                .map_err(|violation| RunError::Invariant {
                    at: finished,
                    violation,
                })?;
        }
        Ok(RunReport {
            cycles: finished,
            events: self.core.events_processed,
        })
    }

    /// Applies the window faults due at the current time, if any.
    fn poll_faults(&mut self) {
        let fired = match &mut self.core.injector {
            Some(inj) => inj.poll(self.core.now.as_u64(), self.core.cfg.nodes),
            None => return,
        };
        for fault in fired {
            match fault {
                FaultEvent::EvictLine { node } => {
                    let mut out = std::mem::replace(&mut self.core.outbox, Outbox::new());
                    if self.core.caches[node.index()]
                        .inject_evict(&mut out)
                        .is_some()
                    {
                        self.injected_evictions += 1;
                    }
                    self.core.route(&mut out);
                    self.core.outbox = out;
                }
                FaultEvent::WipeReservations { node } => {
                    self.core.homes[node.index()].wipe_reservations();
                    self.injected_wipes += 1;
                    if let Some(tracer) = &mut self.core.tracer {
                        if tracer.wants(Category::Resv) {
                            tracer.reservation(self.core.now, node, "wipe");
                        }
                    }
                }
                FaultEvent::CorruptLine { node } => {
                    // Promote the first shared resident line (stable
                    // iteration order, so replays corrupt the same
                    // line). A cache with no shared line leaves the
                    // fault without effect.
                    let victim = self.core.caches[node.index()]
                        .cached_lines()
                        .find(|(_, s)| *s == CacheState::Shared)
                        .map(|(l, _)| l);
                    if let Some(line) = victim {
                        if self.core.caches[node.index()].corrupt_promote_shared(line) {
                            self.injected_corruptions += 1;
                        }
                    }
                }
            }
        }
    }

    /// Fails the run if events keep firing but no operation has retired
    /// for a full watchdog window while at least one is outstanding.
    fn check_watchdog(&mut self) -> Result<(), RunError> {
        if self.watchdog == 0 {
            return Ok(());
        }
        if !self.core.any_outstanding() {
            // Nothing outstanding (compute/barrier phases): progress is
            // the program's business, not the protocol's.
            self.core.last_retire = self.core.now;
            return Ok(());
        }
        if (self.core.now - self.core.last_retire).as_u64() > self.watchdog {
            return Err(RunError::Livelock {
                at: self.core.now,
                window: self.watchdog,
                procs: self.core.proc_dumps(),
            });
        }
        Ok(())
    }

    /// How many faults the injector has applied so far, as
    /// `(forced evictions, reservation wipes, forced corruptions)`.
    pub fn injected_faults(&self) -> (u64, u64, u64) {
        (
            self.injected_evictions,
            self.injected_wipes,
            self.injected_corruptions,
        )
    }

    /// The fault schedule applied so far (`None` when faults are off) —
    /// the raw material of reproducer shrinking.
    pub fn fault_record(&self) -> Option<&FaultRecord> {
        self.core.injector.as_ref().map(FaultInjector::record)
    }

    /// The *effective* fault configuration this machine was built with:
    /// the explicit [`MachineConfig::faults`] or those of the
    /// [`RunEnv`] in force at build time. Reproducer artifacts capture
    /// this so a replay pins identical fault behaviour.
    pub fn fault_config(&self) -> &FaultConfig {
        &self.core.cfg.faults
    }

    /// Installs (or clears) a candidate-index allow list on the fault
    /// injector, restricting which drawn faults are *applied* without
    /// changing the RNG draw sequence. No-op when faults are off.
    /// Install before running — mid-run installation is sound (queries
    /// are monotone) but makes the run depend on when the call happened.
    pub fn set_fault_filter(&mut self, filter: Option<FaultFilter>) {
        if let Some(inj) = &mut self.core.injector {
            inj.set_filter(filter);
        }
    }

    /// Total events the simulated machine processed since construction
    /// — the model count reported in [`RunReport::events`]. It includes
    /// spin iterations that a parked processor skipped.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Events the host actually dispatched since construction: the
    /// model count minus the spin iterations parking skipped. This is
    /// the simulator's own work; it equals
    /// [`events_processed`](Self::events_processed) on every path that
    /// does not park.
    pub fn events_dispatched(&self) -> u64 {
        self.core.events_processed - self.core.elided
    }

    /// Dispatched events since construction, per event kind: `Wire`
    /// (a message reached its destination's exit port), `Deliver`,
    /// `Process` (a server handled a message), `ProcStep` and `OpDone`.
    /// The counts sum to [`events_dispatched`](Self::events_dispatched).
    pub fn dispatched_by_kind(&self) -> [(&'static str, u64); EVENT_KINDS.len()] {
        std::array::from_fn(|i| (EVENT_KINDS[i], self.core.dispatched[i]))
    }

    /// A digest of the machine's complete dynamic state: simulated
    /// time, the pending event queue, network ports, every cache, home
    /// directory and memory line, LL/SC reservations, per-processor
    /// progress and RNG streams, server availability, statistics, and
    /// fault-injector position.
    ///
    /// Two machines built from the same configuration that have
    /// dispatched the same event sequence produce equal digests; any
    /// divergence in simulated state changes the digest.
    /// Diagnostic-only state (tracers, recycling pools) is excluded —
    /// it cannot influence simulation results.
    pub fn state_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.core.now.as_u64());
        h.write_u64(self.core.events_processed);
        h.write_usize(self.core.active);
        self.core
            .events
            .digest_with(&mut h, |event, h| match event {
                Event::Deliver(m) => {
                    h.write_u8(0);
                    m.digest(h);
                }
                // The span word is deliberately not hashed: it is
                // tracer-produced diagnostic state, and digests must agree
                // between traced and untraced runs of the same simulation.
                Event::Process(m, _span) => {
                    h.write_u8(1);
                    m.digest(h);
                }
                Event::ProcStep(p) => {
                    h.write_u8(2);
                    h.write_u32(p.as_u32());
                }
                Event::OpDone(p, o) => {
                    h.write_u8(3);
                    h.write_u32(p.as_u32());
                    o.digest(h);
                }
                Event::Wire(m, _flits) => {
                    h.write_u8(4);
                    m.digest(h);
                }
            });
        self.core.ports.digest(&mut h);
        h.write_usize(self.core.homes.len());
        for home in &self.core.homes {
            home.digest(&mut h);
        }
        for cache in &self.core.caches {
            cache.digest(&mut h);
        }
        for proc in &self.core.procs {
            for w in proc.rng.state() {
                h.write_u64(w);
            }
            h.write_u8(proc.done as u8);
            h.write_u8(proc.blocked as u8);
            match proc.waiting_barrier {
                Some(b) => {
                    h.write_u8(1);
                    h.write_u32(b);
                }
                None => h.write_u8(0),
            }
            match &proc.last {
                Some(r) => {
                    h.write_u8(1);
                    r.digest(&mut h);
                }
                None => h.write_u8(0),
            }
            match proc.last_chain {
                Some(c) => {
                    h.write_u8(1);
                    h.write_u32(c);
                }
                None => h.write_u8(0),
            }
            match &proc.current {
                Some((op, at, sync)) => {
                    h.write_u8(1);
                    op.digest(&mut h);
                    h.write_u64(at.as_u64());
                    h.write_u8(*sync as u8);
                }
                None => h.write_u8(0),
            }
            match &proc.spin {
                Some(spin) => {
                    h.write_u8(1);
                    h.write_u64(spin.addr.as_u64());
                    h.write_u64(spin.value);
                    h.write_u64(spin.pause);
                }
                None => h.write_u8(0),
            }
        }
        for c in &self.core.mem_busy {
            h.write_u64(c.as_u64());
        }
        for c in &self.core.cache_busy {
            h.write_u64(c.as_u64());
        }
        self.stats().digest(&mut h);
        h.write_u64(self.core.last_retire.as_u64());
        h.write_u64(self.injected_evictions);
        h.write_u64(self.injected_wipes);
        h.write_u64(self.injected_corruptions);
        match &self.core.injector {
            Some(inj) => {
                h.write_u8(1);
                inj.digest(&mut h);
            }
            None => h.write_u8(0),
        }
        h.finish()
    }

    /// Every violation [`check_quiescent`] finds in the current state;
    /// [`validate_coherence`](Machine::validate_coherence) reports the
    /// first. Exists so tests can pin the full list.
    #[doc(hidden)]
    pub fn coherence_violations(&self) -> Vec<InvariantViolation> {
        check_quiescent(&self.core.caches, &self.core.homes, &self.core.map)
    }

    /// Test-only corruption hook: illegally promotes a Shared copy of
    /// `line` at `node` to Exclusive, bypassing the protocol. Returns
    /// whether the corruption was applied. Exists so tests can prove the
    /// paranoid checker reports corruption as a structured diagnostic.
    #[doc(hidden)]
    pub fn corrupt_promote_shared(&mut self, node: NodeId, line: LineAddr) -> bool {
        self.core.caches[node.index()].corrupt_promote_shared(line)
    }

    /// The structured event tracer, if tracing is enabled (via
    /// [`MachineBuilder::with_trace`] or [`RunEnv::trace`]).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.core.tracer.as_deref()
    }

    /// Attaches a tracer to an already-built machine, replacing any
    /// existing one. Useful when the machine was constructed by a
    /// workload builder that offers no [`MachineBuilder::with_trace`]
    /// hook; attach before [`run`](Machine::run) or the trace will miss
    /// everything already simulated.
    pub fn attach_tracer(&mut self, spec: &TraceSpec) {
        self.core.tracer = Some(Box::new(Tracer::new(spec, self.core.cfg.nodes)));
    }

    /// Writes the attached trace sinks to disk (no-op when tracing is
    /// off). [`run`](Machine::run) calls this automatically on both the
    /// success and error paths; calling it again is idempotent because
    /// file names are content-addressed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the trace files.
    pub fn flush_trace(&mut self) -> std::io::Result<Vec<PathBuf>> {
        let Some(tracer) = &self.core.tracer else {
            return Ok(Vec::new());
        };
        let paths = tracer.finish(self.core.cfg.seed)?;
        self.trace_files.clone_from(&paths);
        Ok(paths)
    }

    /// Paths written by the most recent trace flush (empty when tracing
    /// is off).
    pub fn trace_files(&self) -> &[PathBuf] {
        &self.trace_files
    }

    /// Checks every coherence invariant of the quiescent machine (after
    /// [`run`](Machine::run) returns successfully): the per-line rules
    /// the paranoid mode checks per transition plus exact
    /// directory/cache agreement, shared-copy values and message
    /// conservation (see [`dsm_protocol::invariant`]).
    ///
    /// # Errors
    ///
    /// Returns the first violation, ordered by line then invariant name.
    pub fn validate_coherence(&self) -> Result<(), InvariantViolation> {
        match self.coherence_violations().into_iter().next() {
            Some(violation) => Err(violation),
            None => Ok(()),
        }
    }
}
