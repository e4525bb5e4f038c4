//! The per-node cache controller: local execution of atomic primitives
//! (INV policy), miss handling, and responses to interventions.
//!
//! Each processor is blocking: it has at most one outstanding memory
//! operation, tracked by a single MSHR. The controller also answers
//! invalidations, updates and forwarded interventions at any time.

use crate::addrmap::AddressMap;
use crate::cache::{Cache, CacheLine, CacheState};
use crate::data::LineData;
use crate::error::{ProtocolError, ProtocolErrorKind};
use crate::home::Outbox;
use crate::msg::{MemAtomicOp, Msg, MsgKind};
use crate::reservation::CacheReservation;
use crate::types::{CasVariant, MemOp, OpResult, SyncConfig, SyncPolicy};
use dsm_sim::{Addr, CacheParams, LineAddr, NodeId, ProcId};

/// The completion record of one processor operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// The result to deliver to the processor.
    pub result: OpResult,
    /// Serialized network messages on the operation's critical path
    /// (0 when the operation completed in the cache).
    pub chain: u32,
    /// `true` if the operation completed without any network traffic.
    pub local: bool,
}

impl OpOutcome {
    /// Folds the outcome into a state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        self.result.digest(h);
        h.write_u32(self.chain);
        h.write_u8(self.local as u8);
    }
}

/// The single miss-status holding register of a (blocking) processor.
#[derive(Debug, Clone)]
struct Mshr {
    op: MemOp,
    line: LineAddr,
    reply_seen: bool,
    acks_needed: u32,
    acks_got: u32,
    chain: u32,
    /// Result staged by a reply that decides the outcome itself
    /// (CasGrant/CasFail/AtomicReply/ScInvReply).
    staged: Option<OpResult>,
    /// Interventions that arrived while acknowledgments were still
    /// outstanding; served right after completion.
    deferred: Vec<Msg>,
}

impl Mshr {
    /// Folds the in-flight miss record into a state digest.
    fn digest(&self, h: &mut dsm_sim::StableHasher) {
        self.op.digest(h);
        h.write_u64(self.line.number());
        h.write_u8(self.reply_seen as u8);
        h.write_u32(self.acks_needed);
        h.write_u32(self.acks_got);
        h.write_u32(self.chain);
        match &self.staged {
            Some(r) => {
                h.write_u8(1);
                r.digest(h);
            }
            None => h.write_u8(0),
        }
        h.write_usize(self.deferred.len());
        for m in &self.deferred {
            m.digest(h);
        }
    }
}

/// The cache-controller engine of one node.
///
/// # Example
///
/// ```
/// use dsm_protocol::{AddressMap, CacheNode, MemOp, Outbox};
/// use dsm_sim::{Addr, CacheParams, NodeId, ProcId};
///
/// let map = AddressMap::new(32);
/// let mut cc = CacheNode::new(NodeId::new(1), 32, CacheParams::default());
/// cc.set_nodes(4);
/// let mut out = Outbox::new();
/// // A load miss emits a GetS to the line's home node.
/// let done = cc
///     .start_op(MemOp::Load { addr: Addr::new(0x40) }, &map, &mut out)
///     .unwrap();
/// assert!(done.is_none());
/// assert_eq!(out.msgs.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CacheNode {
    node: NodeId,
    proc: ProcId,
    line_size: u64,
    nodes: u32,
    cache: Cache,
    resv: CacheReservation,
    mshr: Option<Mshr>,
}

impl CacheNode {
    /// Creates the cache controller of `node` (with the co-located
    /// processor of the same index).
    pub fn new(node: NodeId, line_size: u64, cache: CacheParams) -> Self {
        CacheNode {
            node,
            proc: ProcId::new(node.as_u32()),
            line_size,
            nodes: 0, // set via set_nodes before first use
            cache: Cache::new(cache),
            resv: CacheReservation::default(),
            mshr: None,
        }
    }

    /// Sets the machine size (used to compute home nodes). Must be
    /// called once before issuing operations; [`CacheNode::new`] leaves
    /// it unset so construction stays infallible.
    pub fn set_nodes(&mut self, nodes: u32) {
        self.nodes = nodes;
    }

    /// The cache state of `line` (for tests and invariant sweeps).
    pub fn cache_state(&self, line: LineAddr) -> Option<CacheState> {
        self.cache.state(line)
    }

    /// Reads a word from the local cache, if the line is resident.
    pub fn peek_word(&self, addr: Addr) -> Option<crate::types::Value> {
        self.cache
            .peek(addr.line(self.line_size))
            .map(|l| l.data.word(addr))
    }

    /// `true` if an operation is outstanding.
    pub fn busy(&self) -> bool {
        self.mshr.is_some()
    }

    /// Iterates over resident lines (for invariant sweeps).
    pub fn cached_lines(&self) -> impl Iterator<Item = (LineAddr, CacheState)> + '_ {
        self.cache.iter().map(|l| (l.line, l.state))
    }

    /// The line reserved by the local processor's last LL, if any (for
    /// invariant sweeps).
    pub fn reserved_line(&self) -> Option<LineAddr> {
        self.resv.line()
    }

    /// Applies the cache-state effect of `n` load hits on `line` at once
    /// (see [`Cache::touch_n`]). Returns `false` if `line` is not
    /// resident.
    pub fn touch_hits(&mut self, line: LineAddr, n: u64) -> bool {
        self.cache.touch_n(line, n)
    }

    /// The line the outstanding operation targets, if any.
    pub fn pending_line(&self) -> Option<LineAddr> {
        self.mshr.as_ref().map(|m| m.line)
    }

    /// MSHR progress of the outstanding operation, if any:
    /// `(reply_seen, acks_got, acks_needed)` (for invariant sweeps).
    pub fn mshr_progress(&self) -> Option<(bool, u32, u32)> {
        self.mshr
            .as_ref()
            .map(|m| (m.reply_seen, m.acks_got, m.acks_needed))
    }

    /// Fault-injection hook: displaces one resident line as if evicted
    /// by capacity pressure. Prefers an exclusive victim (exercising the
    /// write-back and intervention-NAK races) and never touches the line
    /// of the outstanding operation. Exclusive victims are written back;
    /// shared victims are dropped silently, exactly as
    /// [`Cache::insert`]-driven displacement would. Returns the evicted
    /// line, or `None` if no line was eligible.
    pub fn inject_evict(&mut self, out: &mut Outbox) -> Option<LineAddr> {
        let skip = self.mshr.as_ref().map(|m| m.line);
        let mut victim: Option<LineAddr> = None;
        for (line, state) in self.cached_lines() {
            if Some(line) == skip {
                continue;
            }
            if state == CacheState::Exclusive {
                victim = Some(line);
                break;
            }
            if victim.is_none() {
                victim = Some(line);
            }
        }
        let line = victim?;
        self.resv.invalidate_line(line);
        let l = self.cache.remove(line).expect("victim is resident");
        if l.state == CacheState::Exclusive {
            out.send(Msg {
                src: self.node,
                dst: self.home_of(line),
                line,
                addr: line.base(self.line_size),
                proc: self.proc,
                chain: 1,
                kind: MsgKind::WriteBack { data: l.data },
            });
        }
        Some(line)
    }

    /// Test-only corruption hook: illegally promotes a shared line to
    /// exclusive without telling the directory, manufacturing a
    /// single-writer violation for the paranoid invariant checker to
    /// catch. Returns `true` if the line was resident and shared.
    #[doc(hidden)]
    pub fn corrupt_promote_shared(&mut self, line: LineAddr) -> bool {
        match self.cache.get_mut(line) {
            Some(l) if l.state == CacheState::Shared => {
                l.state = CacheState::Exclusive;
                true
            }
            _ => false,
        }
    }

    /// Folds the controller's full state — identity, cache contents,
    /// LL reservation register, and outstanding MSHR — into a
    /// state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        h.write_u32(self.node.as_u32());
        h.write_u32(self.proc.as_u32());
        h.write_u64(self.line_size);
        h.write_u32(self.nodes);
        self.cache.digest(h);
        self.resv.digest(h);
        match &self.mshr {
            Some(m) => {
                h.write_u8(1);
                m.digest(h);
            }
            None => h.write_u8(0),
        }
    }

    fn err(&self, kind: ProtocolErrorKind, line: LineAddr, detail: String) -> ProtocolError {
        ProtocolError::new(kind, detail).on_line(line).at(self.node)
    }

    /// The resident line `line`, or a
    /// [`MissingLine`](ProtocolErrorKind::MissingLine) error carrying
    /// `detail`.
    fn resident(&mut self, line: LineAddr, detail: &str) -> Result<&mut CacheLine, ProtocolError> {
        let node = self.node;
        self.cache.get_mut(line).ok_or_else(|| {
            ProtocolError::new(ProtocolErrorKind::MissingLine, detail)
                .on_line(line)
                .at(node)
        })
    }

    fn home_of(&self, line: LineAddr) -> NodeId {
        debug_assert!(self.nodes > 0, "set_nodes() was not called");
        line.home(self.nodes)
    }

    fn request(&self, addr: Addr, kind: MsgKind) -> Msg {
        let line = addr.line(self.line_size);
        Msg {
            src: self.node,
            dst: self.home_of(line),
            line,
            addr,
            proc: self.proc,
            chain: 1,
            kind,
        }
    }

    fn local(result: OpResult) -> Option<OpOutcome> {
        Some(OpOutcome {
            result,
            chain: 0,
            local: true,
        })
    }

    /// Installs a line, emitting a write-back if a dirty line is
    /// displaced. Silent for displaced shared lines (the directory keeps
    /// a stale sharer; the eventual spurious invalidation is harmless).
    fn install(&mut self, line: LineAddr, state: CacheState, data: LineData, out: &mut Outbox) {
        if let Some(ev) = self.cache.insert(line, state, data) {
            self.resv.invalidate_line(ev.line);
            if ev.state == CacheState::Exclusive {
                out.send(Msg {
                    src: self.node,
                    dst: self.home_of(ev.line),
                    line: ev.line,
                    addr: ev.line.base(self.line_size),
                    proc: self.proc,
                    chain: 1,
                    kind: MsgKind::WriteBack { data: ev.data },
                });
            }
        }
    }

    fn alloc_mshr(&mut self, op: MemOp) {
        debug_assert!(
            self.mshr.is_none(),
            "processor issued a second outstanding op"
        );
        self.mshr = Some(Mshr {
            op,
            line: op.addr().line(self.line_size),
            reply_seen: false,
            acks_needed: 0,
            acks_got: 0,
            chain: 0,
            staged: None,
            deferred: Vec::new(),
        });
    }

    /// Begins a processor operation. Returns the outcome if it completed
    /// locally; otherwise a request was emitted and the processor blocks
    /// until [`handle`](Self::handle) reports completion.
    ///
    /// # Errors
    ///
    /// Fails with a [`ProtocolError`] if an operation is already
    /// outstanding or the controller reaches a state the protocol
    /// forbids.
    pub fn start_op(
        &mut self,
        op: MemOp,
        map: &AddressMap,
        out: &mut Outbox,
    ) -> Result<Option<OpOutcome>, ProtocolError> {
        self.start_op_with(op, map.config_for(op.addr()), out)
    }

    /// [`start_op`](Self::start_op) with the line's configuration
    /// already resolved, so a caller that had to consult the
    /// [`AddressMap`] anyway does not pay for a second lookup.
    ///
    /// # Errors
    ///
    /// As for [`start_op`](Self::start_op).
    pub fn start_op_with(
        &mut self,
        op: MemOp,
        cfg: SyncConfig,
        out: &mut Outbox,
    ) -> Result<Option<OpOutcome>, ProtocolError> {
        if self.mshr.is_some() {
            return Err(self.err(
                ProtocolErrorKind::DoubleIssue,
                op.addr().line(self.line_size),
                "processor issued a second outstanding op".to_string(),
            ));
        }
        Ok(match cfg.policy {
            SyncPolicy::Unc => self.start_unc(op, out),
            SyncPolicy::Upd => self.start_upd(op, out),
            SyncPolicy::Inv => self.start_inv(op, cfg, out)?,
        })
    }

    fn start_unc(&mut self, op: MemOp, out: &mut Outbox) -> Option<OpOutcome> {
        debug_assert!(
            self.cache.state(op.addr().line(self.line_size)).is_none(),
            "UNC lines must never be cached"
        );
        let mem_op = match op {
            MemOp::DropCopy { .. } => return Self::local(OpResult::Stored),
            MemOp::Load { .. } | MemOp::LoadExclusive { .. } => MemAtomicOp::Load,
            MemOp::Store { value, .. } => MemAtomicOp::Store { value },
            MemOp::FetchPhi { op, .. } => MemAtomicOp::Phi { op },
            MemOp::Cas { expected, new, .. } => MemAtomicOp::Cas { expected, new },
            MemOp::LoadLinked { .. } => MemAtomicOp::Ll,
            MemOp::StoreConditional { value, serial, .. } => MemAtomicOp::Sc { value, serial },
        };
        let msg = self.request(op.addr(), MsgKind::AtomicMem { op: mem_op });
        out.send(msg);
        self.alloc_mshr(op);
        None
    }

    fn start_upd(&mut self, op: MemOp, out: &mut Outbox) -> Option<OpOutcome> {
        let addr = op.addr();
        let line = addr.line(self.line_size);
        match op {
            // `load_exclusive` has no meaning under write-update; it
            // behaves as an ordinary load.
            MemOp::Load { .. } | MemOp::LoadExclusive { .. } => {
                if let Some(l) = self.cache.get_mut(line) {
                    let value = l.data.word(addr);
                    return Self::local(OpResult::Loaded {
                        value,
                        serial: None,
                        reserved: false,
                    });
                }
                let msg = self.request(addr, MsgKind::GetS);
                out.send(msg);
                self.alloc_mshr(op);
                None
            }
            MemOp::DropCopy { .. } => {
                if self.cache.remove(line).is_some() {
                    let msg = self.request(addr, MsgKind::DropShared);
                    out.send(msg);
                }
                Self::local(OpResult::Stored)
            }
            MemOp::Store { value, .. } => {
                let msg = self.request(
                    addr,
                    MsgKind::AtomicMem {
                        op: MemAtomicOp::Store { value },
                    },
                );
                out.send(msg);
                self.alloc_mshr(op);
                None
            }
            MemOp::FetchPhi { op: phi, .. } => {
                let msg = self.request(
                    addr,
                    MsgKind::AtomicMem {
                        op: MemAtomicOp::Phi { op: phi },
                    },
                );
                out.send(msg);
                self.alloc_mshr(op);
                None
            }
            MemOp::Cas { expected, new, .. } => {
                let msg = self.request(
                    addr,
                    MsgKind::AtomicMem {
                        op: MemAtomicOp::Cas { expected, new },
                    },
                );
                out.send(msg);
                self.alloc_mshr(op);
                None
            }
            // "Load_linked requests have to go to memory even if the
            // datum is cached, in order to set the reservation" (§3).
            MemOp::LoadLinked { .. } => {
                let msg = self.request(
                    addr,
                    MsgKind::AtomicMem {
                        op: MemAtomicOp::Ll,
                    },
                );
                out.send(msg);
                self.alloc_mshr(op);
                None
            }
            MemOp::StoreConditional { value, serial, .. } => {
                let msg = self.request(
                    addr,
                    MsgKind::AtomicMem {
                        op: MemAtomicOp::Sc { value, serial },
                    },
                );
                out.send(msg);
                self.alloc_mshr(op);
                None
            }
        }
    }

    fn start_inv(
        &mut self,
        op: MemOp,
        cfg: SyncConfig,
        out: &mut Outbox,
    ) -> Result<Option<OpOutcome>, ProtocolError> {
        let cas = cfg.cas_variant;
        let addr = op.addr();
        let line = addr.line(self.line_size);
        // Home-node atomics: Φ/CAS execute at the home memory without
        // migrating the line. Any local copy is given up first: an
        // exclusive copy carries the current data home via write-back
        // (same-channel FIFO keeps it ahead of the request); a shared
        // copy is dropped silently — the home prunes our sharer bit
        // while serving the operation. Loads, stores and LL/SC below
        // keep their normal INV handling.
        if cfg.home_atomics && matches!(op, MemOp::FetchPhi { .. } | MemOp::Cas { .. }) {
            let mem_op = match op {
                MemOp::FetchPhi { op: phi, .. } => MemAtomicOp::Phi { op: phi },
                MemOp::Cas { expected, new, .. } => MemAtomicOp::Cas { expected, new },
                _ => unreachable!("gated on FetchPhi | Cas"),
            };
            self.resv.invalidate_line(line);
            if let Some(l) = self.cache.remove(line) {
                if l.state == CacheState::Exclusive {
                    let msg = self.request(addr, MsgKind::WriteBack { data: l.data });
                    out.send(msg);
                }
            }
            let msg = self.request(addr, MsgKind::AtomicMem { op: mem_op });
            out.send(msg);
            self.alloc_mshr(op);
            return Ok(None);
        }
        // Loads hit in any state, so one LRU-updating probe suffices —
        // this is the simulator's single most common path. Write-type
        // ops below still pre-check the state: a shared-state hit takes
        // the upgrade-miss path and must leave LRU untouched.
        match op {
            MemOp::Load { .. } => {
                return Ok(if let Some(l) = self.cache.get_mut(line) {
                    let value = l.data.word(addr);
                    Self::local(OpResult::Loaded {
                        value,
                        serial: None,
                        reserved: false,
                    })
                } else {
                    let msg = self.request(addr, MsgKind::GetS);
                    out.send(msg);
                    self.alloc_mshr(op);
                    None
                });
            }
            MemOp::LoadLinked { .. } => {
                return Ok(if let Some(l) = self.cache.get_mut(line) {
                    let value = l.data.word(addr);
                    self.resv.set(line);
                    Self::local(OpResult::Loaded {
                        value,
                        serial: None,
                        reserved: true,
                    })
                } else {
                    let msg = self.request(addr, MsgKind::GetS);
                    out.send(msg);
                    self.alloc_mshr(op);
                    None
                });
            }
            _ => {}
        }
        let state = self.cache.state(line);
        Ok(match op {
            MemOp::Store { value, .. } => match state {
                Some(CacheState::Exclusive) => {
                    self.resident(line, "store hit on an absent line")?
                        .data
                        .set_word(addr, value);
                    Self::local(OpResult::Stored)
                }
                held => self.miss_for_exclusive(op, held.is_some(), out),
            },
            MemOp::LoadExclusive { .. } => match state {
                Some(CacheState::Exclusive) => {
                    let value = self
                        .resident(line, "load_exclusive hit on an absent line")?
                        .data
                        .word(addr);
                    Self::local(OpResult::Loaded {
                        value,
                        serial: None,
                        reserved: false,
                    })
                }
                held => self.miss_for_exclusive(op, held.is_some(), out),
            },
            MemOp::FetchPhi { op: phi, .. } => match state {
                Some(CacheState::Exclusive) => {
                    let l = self.resident(line, "fetch_phi hit on an absent line")?;
                    let old = l.data.word(addr);
                    l.data.set_word(addr, phi.apply(old));
                    Self::local(OpResult::Fetched { old })
                }
                held => self.miss_for_exclusive(op, held.is_some(), out),
            },
            MemOp::Cas { expected, new, .. } => match state {
                Some(CacheState::Exclusive) => {
                    let l = self.resident(line, "CAS hit on an absent line")?;
                    let observed = l.data.word(addr);
                    let success = observed == expected;
                    if success {
                        l.data.set_word(addr, new);
                    }
                    Self::local(OpResult::CasDone { success, observed })
                }
                held => match cas {
                    CasVariant::Plain => self.miss_for_exclusive(op, held.is_some(), out),
                    CasVariant::Deny | CasVariant::Share => {
                        let msg = self.request(
                            addr,
                            MsgKind::CasHome {
                                expected,
                                new,
                                variant: cas,
                            },
                        );
                        out.send(msg);
                        self.alloc_mshr(op);
                        None
                    }
                },
            },
            MemOp::StoreConditional { value, .. } => {
                if !self.resv.valid_for(line) {
                    // Fails locally without any network traffic.
                    return Ok(Self::local(OpResult::ScDone { success: false }));
                }
                self.resv.clear();
                match state {
                    Some(CacheState::Exclusive) => {
                        self.resident(line, "SC hit on an absent line")?
                            .data
                            .set_word(addr, value);
                        Self::local(OpResult::ScDone { success: true })
                    }
                    Some(CacheState::Shared) => {
                        let msg = self.request(addr, MsgKind::ScInv);
                        out.send(msg);
                        self.alloc_mshr(op);
                        None
                    }
                    None => {
                        // A valid reservation implies a resident line
                        // (losing the line clears the reservation).
                        return Err(self.err(
                            ProtocolErrorKind::MissingLine,
                            line,
                            "valid reservation without a resident line".to_string(),
                        ));
                    }
                }
            }
            MemOp::DropCopy { .. } => {
                self.resv.invalidate_line(line);
                if let Some(l) = self.cache.remove(line) {
                    let kind = match l.state {
                        CacheState::Exclusive => MsgKind::WriteBack { data: l.data },
                        CacheState::Shared => MsgKind::DropShared,
                    };
                    let msg = self.request(addr, kind);
                    out.send(msg);
                }
                Self::local(OpResult::Stored)
            }
            MemOp::Load { .. } | MemOp::LoadLinked { .. } => {
                unreachable!("handled by the single-probe fast path above")
            }
        })
    }

    fn miss_for_exclusive(
        &mut self,
        op: MemOp,
        from_shared: bool,
        out: &mut Outbox,
    ) -> Option<OpOutcome> {
        let msg = self.request(op.addr(), MsgKind::GetX { from_shared });
        out.send(msg);
        self.alloc_mshr(op);
        None
    }

    /// Handles an incoming network message. Returns the outcome if it
    /// completed the outstanding processor operation.
    ///
    /// # Errors
    ///
    /// Fails with a [`ProtocolError`] on any message the protocol state
    /// machine cannot legally receive in its current state.
    pub fn handle(
        &mut self,
        msg: Msg,
        out: &mut Outbox,
    ) -> Result<Option<OpOutcome>, ProtocolError> {
        match &msg.kind {
            MsgKind::Inv { .. } | MsgKind::Update { .. } => {
                self.handle_sharer_msg(msg, out)?;
                Ok(None)
            }
            MsgKind::FwdShare { .. } => {
                self.handle_fwd_share(msg, out)?;
                Ok(None)
            }
            MsgKind::FwdGetS | MsgKind::FwdGetX | MsgKind::FwdCas { .. } => {
                // Defer the intervention if we are mid-transaction on
                // this line with the exclusive grant already received but
                // acknowledgments still outstanding.
                if let Some(m) = &mut self.mshr {
                    if m.line == msg.line && m.reply_seen {
                        m.deferred.push(msg);
                        return Ok(None);
                    }
                }
                self.handle_intervention(msg, out)?;
                Ok(None)
            }
            _ => self.handle_reply(msg, out),
        }
    }

    fn handle_sharer_msg(&mut self, msg: Msg, out: &mut Outbox) -> Result<(), ProtocolError> {
        let (requester, ack_kind) = match msg.kind {
            MsgKind::Inv { requester } => {
                self.resv.invalidate_line(msg.line);
                self.cache.remove(msg.line);
                (requester, MsgKind::InvAck)
            }
            MsgKind::Update { data, requester } => {
                if let Some(l) = self.cache.get_mut(msg.line) {
                    debug_assert_eq!(l.state, CacheState::Shared, "UPD lines are never exclusive");
                    l.data = data;
                }
                (requester, MsgKind::UpdAck)
            }
            ref other => {
                return Err(self.err(
                    ProtocolErrorKind::UnexpectedMessage,
                    msg.line,
                    format!("{other:?} is not a sharer message"),
                ))
            }
        };
        out.send(Msg {
            src: self.node,
            dst: requester,
            line: msg.line,
            addr: msg.addr,
            proc: msg.proc,
            chain: msg.chain + 1,
            kind: ack_kind,
        });
        Ok(())
    }

    /// A MESI(F)/hierarchical forward: supply our clean shared copy
    /// directly to the requester (confirming to the home off the
    /// critical path), or NAK if the line was silently evicted.
    fn handle_fwd_share(&mut self, msg: Msg, out: &mut Outbox) -> Result<(), ProtocolError> {
        let MsgKind::FwdShare { requester } = msg.kind else {
            return Err(self.err(
                ProtocolErrorKind::UnexpectedMessage,
                msg.line,
                format!("handle_fwd_share got {:?}", msg.kind),
            ));
        };
        match self.cache.state(msg.line) {
            None => {
                // Shared copies evict silently, so the directory can
                // hold a stale sharer: decline and let memory serve.
                out.send(Msg {
                    src: self.node,
                    dst: msg.src,
                    line: msg.line,
                    addr: msg.addr,
                    proc: msg.proc,
                    chain: msg.chain + 1,
                    kind: MsgKind::FwdNak,
                });
                Ok(())
            }
            Some(CacheState::Shared) => {
                let data = self
                    .cache
                    .peek(msg.line)
                    .expect("state() checked residency")
                    .data
                    .clone();
                // Data leg goes straight to the requester — this is the
                // third (and last) message on its critical path.
                out.send(Msg {
                    src: self.node,
                    dst: requester,
                    line: msg.line,
                    addr: msg.addr,
                    proc: msg.proc,
                    chain: msg.chain + 1,
                    kind: MsgKind::DataS { data },
                });
                // Confirmation back to the home releases the line.
                out.send(Msg {
                    src: self.node,
                    dst: msg.src,
                    line: msg.line,
                    addr: msg.addr,
                    proc: msg.proc,
                    chain: msg.chain + 1,
                    kind: MsgKind::FwdShareAck,
                });
                Ok(())
            }
            Some(state) => Err(self.err(
                ProtocolErrorKind::DirectoryMismatch,
                msg.line,
                format!("FwdShare at a cache holding the line {state:?}"),
            )),
        }
    }

    fn handle_intervention(&mut self, msg: Msg, out: &mut Outbox) -> Result<(), ProtocolError> {
        let node = self.node;
        let reply = |kind: MsgKind| Msg {
            src: node,
            dst: msg.src,
            line: msg.line,
            addr: msg.addr,
            proc: msg.proc,
            chain: msg.chain + 1,
            kind,
        };
        let Some(state) = self.cache.state(msg.line) else {
            // The line left this cache (write-back in flight): NAK.
            out.send(reply(MsgKind::FwdNak));
            return Ok(());
        };
        if state != CacheState::Exclusive {
            return Err(self.err(
                ProtocolErrorKind::DirectoryMismatch,
                msg.line,
                format!(
                    "intervention {:?} at a non-owner (state {state:?})",
                    msg.kind
                ),
            ));
        }
        match msg.kind {
            MsgKind::FwdGetS => {
                let l = self.resident(msg.line, "FwdGetS at an owner without the line")?;
                l.state = CacheState::Shared;
                let data = l.data.clone();
                out.send(reply(MsgKind::SwbData { data }));
            }
            MsgKind::FwdGetX => {
                self.resv.invalidate_line(msg.line);
                let l = self
                    .cache
                    .remove(msg.line)
                    .expect("state() checked residency");
                out.send(reply(MsgKind::XferData { data: l.data }));
            }
            MsgKind::FwdCas {
                expected,
                addr,
                variant,
                ..
            } => {
                let observed = self
                    .cache
                    .peek(msg.line)
                    .expect("state() checked residency")
                    .data
                    .word(addr);
                if observed == expected {
                    self.resv.invalidate_line(msg.line);
                    let l = self
                        .cache
                        .remove(msg.line)
                        .expect("state() checked residency");
                    out.send(reply(MsgKind::XferData { data: l.data }));
                } else {
                    let kept_exclusive = variant == CasVariant::Deny;
                    let l = self.resident(msg.line, "FwdCas at an owner without the line")?;
                    if !kept_exclusive {
                        l.state = CacheState::Shared;
                    }
                    let data = l.data.clone();
                    out.send(reply(MsgKind::OwnerCasFail {
                        observed,
                        data,
                        kept_exclusive,
                    }));
                }
            }
            other => {
                return Err(self.err(
                    ProtocolErrorKind::UnexpectedMessage,
                    msg.line,
                    format!("{other:?} is not an intervention"),
                ))
            }
        }
        Ok(())
    }

    fn handle_reply(
        &mut self,
        msg: Msg,
        out: &mut Outbox,
    ) -> Result<Option<OpOutcome>, ProtocolError> {
        {
            let Some(m) = self.mshr.as_mut() else {
                return Err(self.err(
                    ProtocolErrorKind::MissingRequest,
                    msg.line,
                    format!("reply {:?} without an outstanding op", msg.kind),
                ));
            };
            debug_assert_eq!(m.line, msg.line, "reply for the wrong line");
            m.chain = m.chain.max(msg.chain);
        }
        match msg.kind {
            MsgKind::InvAck | MsgKind::UpdAck => {
                let m = self.mshr.as_mut().expect("checked at entry");
                m.acks_got += 1;
            }
            MsgKind::DataS { data } => {
                self.install(msg.line, CacheState::Shared, data, out);
                let m = self.mshr.as_mut().expect("checked at entry");
                m.reply_seen = true;
            }
            MsgKind::DataX { data, acks } => {
                self.install(msg.line, CacheState::Exclusive, data, out);
                let m = self.mshr.as_mut().expect("checked at entry");
                m.reply_seen = true;
                m.acks_needed += acks;
            }
            MsgKind::UpgradeAck { acks } => {
                let l = self.resident(msg.line, "upgrade of an absent line")?;
                l.state = CacheState::Exclusive;
                let m = self.mshr.as_mut().expect("checked at entry");
                m.reply_seen = true;
                m.acks_needed += acks;
            }
            MsgKind::CasGrant {
                data,
                acks,
                observed,
            } => {
                match data {
                    Some(d) => self.install(msg.line, CacheState::Exclusive, d, out),
                    None => {
                        let l = self.resident(msg.line, "CAS grant without data or copy")?;
                        l.state = CacheState::Exclusive;
                    }
                }
                let m = self.mshr.as_mut().expect("checked at entry");
                m.reply_seen = true;
                m.acks_needed += acks;
                m.staged = Some(OpResult::CasDone {
                    success: true,
                    observed,
                });
            }
            MsgKind::CasFail {
                observed,
                share_data,
            } => {
                if let Some(d) = share_data {
                    self.install(msg.line, CacheState::Shared, d, out);
                }
                let m = self.mshr.as_mut().expect("checked at entry");
                m.reply_seen = true;
                m.staged = Some(OpResult::CasDone {
                    success: false,
                    observed,
                });
            }
            MsgKind::AtomicReply { result, acks, data } => {
                if let Some(d) = data {
                    self.install(msg.line, CacheState::Shared, d, out);
                }
                let m = self.mshr.as_mut().expect("checked at entry");
                m.reply_seen = true;
                m.acks_needed += acks;
                m.staged = Some(result);
            }
            MsgKind::ScInvReply { success, acks } => {
                if success {
                    let l = self.resident(msg.line, "SC upgrade of an absent line")?;
                    l.state = CacheState::Exclusive;
                }
                let m = self.mshr.as_mut().expect("checked at entry");
                m.reply_seen = true;
                m.acks_needed += acks;
                m.staged = Some(OpResult::ScDone { success });
            }
            other => {
                return Err(self.err(
                    ProtocolErrorKind::UnexpectedMessage,
                    msg.line,
                    format!("cache controller received unexpected reply {other:?}"),
                ))
            }
        }
        self.try_complete(out)
    }

    fn try_complete(&mut self, out: &mut Outbox) -> Result<Option<OpOutcome>, ProtocolError> {
        {
            let Some(m) = self.mshr.as_ref() else {
                return Ok(None);
            };
            if !m.reply_seen || m.acks_got < m.acks_needed {
                return Ok(None);
            }
        }
        let m = self.mshr.take().expect("checked above");
        let addr = m.op.addr();
        let result = match m.staged {
            Some(staged) => {
                // Apply the final local write for staged outcomes that
                // carry one.
                match (staged, m.op) {
                    (OpResult::CasDone { success: true, .. }, MemOp::Cas { new, .. }) => {
                        // CasGrant (INVd/INVs) leaves us holding the line
                        // exclusively and the swap is applied here. For
                        // memory-side CAS (UNC/UPD AtomicReply) the swap
                        // already happened at the home and the line is
                        // absent or shared — nothing to do.
                        if let Some(l) = self.cache.get_mut(m.line) {
                            if l.state == CacheState::Exclusive {
                                l.data.set_word(addr, new);
                            }
                        }
                    }
                    (OpResult::ScDone { success: true }, MemOp::StoreConditional { value, .. }) => {
                        // INV-policy SC that went to the home: our shared
                        // copy was upgraded; store locally. (Memory-side
                        // SC under UNC/UPD stages Stored-like results and
                        // takes the AtomicReply arm instead.)
                        if let Some(l) = self.cache.get_mut(m.line) {
                            if l.state == CacheState::Exclusive {
                                l.data.set_word(addr, value);
                            }
                        }
                    }
                    _ => {}
                }
                staged
            }
            None => {
                // Plain data/upgrade reply: perform the operation now
                // that the line is resident with sufficient permission.
                match m.op {
                    MemOp::Load { .. } | MemOp::LoadExclusive { .. } => {
                        let value = self
                            .resident(m.line, "completing load of an absent line")?
                            .data
                            .word(addr);
                        OpResult::Loaded {
                            value,
                            serial: None,
                            reserved: false,
                        }
                    }
                    MemOp::LoadLinked { .. } => {
                        let value = self
                            .resident(m.line, "completing LL of an absent line")?
                            .data
                            .word(addr);
                        self.resv.set(m.line);
                        OpResult::Loaded {
                            value,
                            serial: None,
                            reserved: true,
                        }
                    }
                    MemOp::Store { value, .. } => {
                        let l = self.resident(m.line, "completing store of an absent line")?;
                        debug_assert_eq!(l.state, CacheState::Exclusive);
                        l.data.set_word(addr, value);
                        OpResult::Stored
                    }
                    MemOp::FetchPhi { op: phi, .. } => {
                        let l = self.resident(m.line, "completing fetch_phi of an absent line")?;
                        debug_assert_eq!(l.state, CacheState::Exclusive);
                        let old = l.data.word(addr);
                        l.data.set_word(addr, phi.apply(old));
                        OpResult::Fetched { old }
                    }
                    MemOp::Cas { expected, new, .. } => {
                        let l = self.resident(m.line, "completing CAS of an absent line")?;
                        debug_assert_eq!(l.state, CacheState::Exclusive);
                        let observed = l.data.word(addr);
                        let success = observed == expected;
                        if success {
                            l.data.set_word(addr, new);
                        }
                        OpResult::CasDone { success, observed }
                    }
                    MemOp::StoreConditional { .. } | MemOp::DropCopy { .. } => {
                        return Err(self.err(
                            ProtocolErrorKind::UnexpectedMessage,
                            m.line,
                            format!("{:?} never takes the plain-reply path", m.op),
                        ))
                    }
                }
            }
        };
        // Serve interventions that arrived during the ack wait.
        for deferred in m.deferred {
            self.handle_intervention(deferred, out)?;
        }
        Ok(Some(OpOutcome {
            result,
            chain: m.chain,
            local: false,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PhiOp, SyncConfig};

    const NODES: u32 = 4;
    const ME: NodeId = NodeId::new(1);
    const A: Addr = Addr::new(0x40); // line 2, home = node 2
    const LINE: LineAddr = LineAddr::new(2);

    fn cc() -> CacheNode {
        let mut c = CacheNode::new(ME, 32, CacheParams::default());
        c.set_nodes(NODES);
        c
    }

    fn map() -> AddressMap {
        AddressMap::new(32)
    }

    fn data(v: u64) -> LineData {
        let mut d = LineData::zeroed(32);
        d.set_word(A, v);
        d
    }

    fn reply(kind: MsgKind, chain: u32) -> Msg {
        Msg {
            src: LINE.home(NODES),
            dst: ME,
            line: LINE,
            addr: A,
            proc: ProcId::new(1),
            chain,
            kind,
        }
    }

    fn hna_cfg() -> SyncConfig {
        SyncConfig {
            policy: SyncPolicy::Inv,
            home_atomics: true,
            ..Default::default()
        }
    }

    #[test]
    fn home_atomic_drops_a_shared_copy_silently() {
        let mut c = cc();
        let mut out = Outbox::new();
        // Acquire a shared copy via a load (loads keep INV handling).
        c.start_op_with(MemOp::Load { addr: A }, hna_cfg(), &mut out)
            .unwrap();
        out.drain();
        c.handle(reply(MsgKind::DataS { data: data(5) }, 2), &mut out)
            .unwrap();
        assert_eq!(c.cache_state(LINE), Some(CacheState::Shared));

        // Φ routes to the home; the shared copy is given up.
        let done = c
            .start_op_with(
                MemOp::FetchPhi {
                    addr: A,
                    op: PhiOp::Add(1),
                },
                hna_cfg(),
                &mut out,
            )
            .unwrap();
        assert!(done.is_none());
        let sent = out.drain();
        assert_eq!(sent.len(), 1);
        assert!(matches!(
            sent[0].kind,
            MsgKind::AtomicMem {
                op: MemAtomicOp::Phi { .. }
            }
        ));
        assert!(c.cache_state(LINE).is_none());

        let done = c
            .handle(
                reply(
                    MsgKind::AtomicReply {
                        result: OpResult::Fetched { old: 5 },
                        acks: 0,
                        data: None,
                    },
                    2,
                ),
                &mut out,
            )
            .unwrap()
            .unwrap();
        assert_eq!(done.result, OpResult::Fetched { old: 5 });
        assert_eq!(done.chain, 2);
        assert!(c.cache_state(LINE).is_none(), "no copy migrates back");
    }

    #[test]
    fn home_atomic_writes_back_an_exclusive_copy_first() {
        let mut c = cc();
        let mut out = Outbox::new();
        // Acquire the line exclusively via a plain store.
        c.start_op_with(MemOp::Store { addr: A, value: 3 }, hna_cfg(), &mut out)
            .unwrap();
        out.drain();
        c.handle(
            reply(
                MsgKind::DataX {
                    data: data(0),
                    acks: 0,
                },
                2,
            ),
            &mut out,
        )
        .unwrap();
        assert_eq!(c.cache_state(LINE), Some(CacheState::Exclusive));

        // CAS: the dirty copy travels home ahead of the request on the
        // same channel, so the home executes against current data.
        c.start_op_with(
            MemOp::Cas {
                addr: A,
                expected: 3,
                new: 9,
            },
            hna_cfg(),
            &mut out,
        )
        .unwrap();
        let sent = out.drain();
        assert_eq!(sent.len(), 2);
        match &sent[0].kind {
            MsgKind::WriteBack { data } => assert_eq!(data.word(A), 3),
            other => panic!("expected WriteBack first, got {other:?}"),
        }
        assert!(matches!(
            sent[1].kind,
            MsgKind::AtomicMem {
                op: MemAtomicOp::Cas { .. }
            }
        ));
        assert_eq!(sent[0].dst, sent[1].dst, "same src→home FIFO channel");
        assert!(c.cache_state(LINE).is_none());
    }

    #[test]
    fn fwd_share_supplies_requester_and_acks_home() {
        let mut c = cc();
        let mut out = Outbox::new();
        // Hold a shared copy.
        c.start_op_with(MemOp::Load { addr: A }, SyncConfig::default(), &mut out)
            .unwrap();
        out.drain();
        c.handle(reply(MsgKind::DataS { data: data(7) }, 2), &mut out)
            .unwrap();

        let requester = NodeId::new(3);
        let mut fwd = reply(MsgKind::FwdShare { requester }, 2);
        fwd.proc = ProcId::new(3);
        assert!(c.handle(fwd, &mut out).unwrap().is_none());
        let sent = out.drain();
        assert_eq!(sent.len(), 2);
        let data_leg = sent
            .iter()
            .find(|m| matches!(m.kind, MsgKind::DataS { .. }))
            .unwrap();
        assert_eq!(data_leg.dst, requester);
        assert_eq!(data_leg.chain, 3, "read from a sharer = 3 messages");
        let ack_leg = sent
            .iter()
            .find(|m| matches!(m.kind, MsgKind::FwdShareAck))
            .unwrap();
        assert_eq!(ack_leg.dst, LINE.home(NODES));
        // The forwarder keeps its copy.
        assert_eq!(c.cache_state(LINE), Some(CacheState::Shared));
    }

    #[test]
    fn fwd_share_on_an_absent_line_naks() {
        let mut c = cc();
        let mut out = Outbox::new();
        let fwd = reply(
            MsgKind::FwdShare {
                requester: NodeId::new(3),
            },
            2,
        );
        assert!(c.handle(fwd, &mut out).unwrap().is_none());
        let sent = out.drain();
        assert_eq!(sent.len(), 1);
        assert!(matches!(sent[0].kind, MsgKind::FwdNak));
        assert_eq!(sent[0].dst, LINE.home(NODES));
    }

    #[test]
    fn load_miss_then_hit() {
        let mut c = cc();
        let mut out = Outbox::new();
        assert!(c
            .start_op(MemOp::Load { addr: A }, &map(), &mut out)
            .unwrap()
            .is_none());
        let sent = out.drain();
        assert_eq!(sent.len(), 1);
        assert!(matches!(sent[0].kind, MsgKind::GetS));
        assert_eq!(sent[0].dst, NodeId::new(2));

        let done = c
            .handle(reply(MsgKind::DataS { data: data(7) }, 2), &mut out)
            .unwrap()
            .unwrap();
        assert_eq!(
            done.result,
            OpResult::Loaded {
                value: 7,
                serial: None,
                reserved: false
            }
        );
        assert_eq!(done.chain, 2);
        assert!(!done.local);

        // Second load hits.
        let done = c
            .start_op(MemOp::Load { addr: A }, &map(), &mut out)
            .unwrap()
            .unwrap();
        assert!(done.local);
        assert_eq!(done.result.value(), Some(7));
    }

    #[test]
    fn store_hit_exclusive_is_local() {
        let mut c = cc();
        let mut out = Outbox::new();
        c.start_op(MemOp::Store { addr: A, value: 3 }, &map(), &mut out)
            .unwrap();
        out.drain();
        c.handle(
            reply(
                MsgKind::DataX {
                    data: data(0),
                    acks: 0,
                },
                2,
            ),
            &mut out,
        )
        .unwrap();
        // Now exclusive: next store is a pure cache hit.
        let done = c
            .start_op(MemOp::Store { addr: A, value: 4 }, &map(), &mut out)
            .unwrap()
            .unwrap();
        assert!(done.local);
        assert_eq!(c.peek_word(A), Some(4));
        assert!(out.drain().is_empty());
    }

    #[test]
    fn upgrade_waits_for_acks() {
        let mut c = cc();
        let mut out = Outbox::new();
        // Acquire shared first.
        c.start_op(MemOp::Load { addr: A }, &map(), &mut out)
            .unwrap();
        c.handle(reply(MsgKind::DataS { data: data(0) }, 2), &mut out)
            .unwrap();
        out.drain();

        // Store from shared: GetX{from_shared}.
        assert!(c
            .start_op(MemOp::Store { addr: A, value: 9 }, &map(), &mut out)
            .unwrap()
            .is_none());
        let sent = out.drain();
        assert!(matches!(sent[0].kind, MsgKind::GetX { from_shared: true }));

        // UpgradeAck with 2 acks pending: not complete yet.
        assert!(c
            .handle(reply(MsgKind::UpgradeAck { acks: 2 }, 2), &mut out)
            .unwrap()
            .is_none());
        let mut ack = reply(MsgKind::InvAck, 3);
        ack.src = NodeId::new(3);
        assert!(c.handle(ack.clone(), &mut out).unwrap().is_none());
        let done = c.handle(ack, &mut out).unwrap().unwrap();
        assert_eq!(done.result, OpResult::Stored);
        assert_eq!(
            done.chain, 3,
            "Table 1: store to remote shared = 3 serialized messages"
        );
        assert_eq!(c.peek_word(A), Some(9));
        assert_eq!(c.cache_state(LINE), Some(CacheState::Exclusive));
    }

    #[test]
    fn fetch_phi_applies_on_arrival() {
        let mut c = cc();
        let mut out = Outbox::new();
        c.start_op(
            MemOp::FetchPhi {
                addr: A,
                op: PhiOp::Add(5),
            },
            &map(),
            &mut out,
        )
        .unwrap();
        out.drain();
        let done = c
            .handle(
                reply(
                    MsgKind::DataX {
                        data: data(10),
                        acks: 0,
                    },
                    2,
                ),
                &mut out,
            )
            .unwrap()
            .unwrap();
        assert_eq!(done.result, OpResult::Fetched { old: 10 });
        assert_eq!(c.peek_word(A), Some(15));
    }

    #[test]
    fn local_cas_on_exclusive_line() {
        let mut c = cc();
        let mut out = Outbox::new();
        c.start_op(MemOp::Store { addr: A, value: 1 }, &map(), &mut out)
            .unwrap();
        out.drain();
        c.handle(
            reply(
                MsgKind::DataX {
                    data: data(0),
                    acks: 0,
                },
                2,
            ),
            &mut out,
        )
        .unwrap();

        let done = c
            .start_op(
                MemOp::Cas {
                    addr: A,
                    expected: 1,
                    new: 2,
                },
                &map(),
                &mut out,
            )
            .unwrap()
            .unwrap();
        assert!(done.local);
        assert_eq!(
            done.result,
            OpResult::CasDone {
                success: true,
                observed: 1
            }
        );
        assert_eq!(c.peek_word(A), Some(2));

        let done = c
            .start_op(
                MemOp::Cas {
                    addr: A,
                    expected: 1,
                    new: 3,
                },
                &map(),
                &mut out,
            )
            .unwrap()
            .unwrap();
        assert_eq!(
            done.result,
            OpResult::CasDone {
                success: false,
                observed: 2
            }
        );
        assert_eq!(c.peek_word(A), Some(2), "failed CAS must not write");
    }

    #[test]
    fn inv_llsc_local_success() {
        let mut c = cc();
        let mut out = Outbox::new();
        // Get exclusive, then LL/SC locally.
        c.start_op(MemOp::LoadExclusive { addr: A }, &map(), &mut out)
            .unwrap();
        out.drain();
        c.handle(
            reply(
                MsgKind::DataX {
                    data: data(5),
                    acks: 0,
                },
                2,
            ),
            &mut out,
        )
        .unwrap();

        let done = c
            .start_op(MemOp::LoadLinked { addr: A }, &map(), &mut out)
            .unwrap()
            .unwrap();
        assert!(done.local);
        assert_eq!(done.result.value(), Some(5));
        let done = c
            .start_op(
                MemOp::StoreConditional {
                    addr: A,
                    value: 6,
                    serial: None,
                },
                &map(),
                &mut out,
            )
            .unwrap()
            .unwrap();
        assert!(
            done.local,
            "SC on an exclusive reserved line succeeds locally"
        );
        assert_eq!(done.result, OpResult::ScDone { success: true });
        assert_eq!(c.peek_word(A), Some(6));
    }

    #[test]
    fn sc_without_reservation_fails_locally() {
        let mut c = cc();
        let mut out = Outbox::new();
        let done = c
            .start_op(
                MemOp::StoreConditional {
                    addr: A,
                    value: 6,
                    serial: None,
                },
                &map(),
                &mut out,
            )
            .unwrap()
            .unwrap();
        assert!(done.local);
        assert_eq!(done.result, OpResult::ScDone { success: false });
        assert!(out.drain().is_empty(), "failed SC must cause no traffic");
    }

    #[test]
    fn invalidation_clears_reservation_and_fails_sc() {
        let mut c = cc();
        let mut out = Outbox::new();
        c.start_op(MemOp::LoadLinked { addr: A }, &map(), &mut out)
            .unwrap();
        out.drain();
        c.handle(reply(MsgKind::DataS { data: data(5) }, 2), &mut out)
            .unwrap();

        // Another node writes: we get an invalidation.
        let mut inv = reply(
            MsgKind::Inv {
                requester: NodeId::new(3),
            },
            2,
        );
        inv.proc = ProcId::new(3);
        c.handle(inv, &mut out).unwrap();
        let acks = out.drain();
        assert_eq!(acks.len(), 1);
        assert!(matches!(acks[0].kind, MsgKind::InvAck));
        assert_eq!(acks[0].dst, NodeId::new(3));
        assert_eq!(acks[0].chain, 3);
        assert_eq!(c.cache_state(LINE), None);

        let done = c
            .start_op(
                MemOp::StoreConditional {
                    addr: A,
                    value: 6,
                    serial: None,
                },
                &map(),
                &mut out,
            )
            .unwrap()
            .unwrap();
        assert_eq!(done.result, OpResult::ScDone { success: false });
    }

    #[test]
    fn sc_from_shared_goes_to_home() {
        let mut c = cc();
        let mut out = Outbox::new();
        c.start_op(MemOp::LoadLinked { addr: A }, &map(), &mut out)
            .unwrap();
        out.drain();
        c.handle(reply(MsgKind::DataS { data: data(5) }, 2), &mut out)
            .unwrap();

        assert!(c
            .start_op(
                MemOp::StoreConditional {
                    addr: A,
                    value: 6,
                    serial: None
                },
                &map(),
                &mut out
            )
            .unwrap()
            .is_none());
        let sent = out.drain();
        assert!(matches!(sent[0].kind, MsgKind::ScInv));

        let done = c
            .handle(
                reply(
                    MsgKind::ScInvReply {
                        success: true,
                        acks: 0,
                    },
                    2,
                ),
                &mut out,
            )
            .unwrap();
        let done = done.unwrap();
        assert_eq!(done.result, OpResult::ScDone { success: true });
        assert_eq!(c.cache_state(LINE), Some(CacheState::Exclusive));
        assert_eq!(c.peek_word(A), Some(6));
    }

    #[test]
    fn fwd_getx_hands_over_the_line() {
        let mut c = cc();
        let mut out = Outbox::new();
        c.start_op(MemOp::Store { addr: A, value: 8 }, &map(), &mut out)
            .unwrap();
        out.drain();
        c.handle(
            reply(
                MsgKind::DataX {
                    data: data(0),
                    acks: 0,
                },
                2,
            ),
            &mut out,
        )
        .unwrap();

        let mut fwd = reply(MsgKind::FwdGetX, 2);
        fwd.proc = ProcId::new(3);
        c.handle(fwd, &mut out).unwrap();
        let sent = out.drain();
        assert_eq!(sent.len(), 1);
        match &sent[0].kind {
            MsgKind::XferData { data } => assert_eq!(data.word(A), 8),
            other => panic!("expected XferData, got {other:?}"),
        }
        assert_eq!(sent[0].chain, 3);
        assert_eq!(c.cache_state(LINE), None);
    }

    #[test]
    fn fwd_to_absent_line_naks() {
        let mut c = cc();
        let mut out = Outbox::new();
        c.handle(reply(MsgKind::FwdGetS, 2), &mut out).unwrap();
        let sent = out.drain();
        assert!(matches!(sent[0].kind, MsgKind::FwdNak));
    }

    #[test]
    fn fwd_cas_failure_deny_keeps_line() {
        let mut c = cc();
        let mut out = Outbox::new();
        c.start_op(MemOp::Store { addr: A, value: 8 }, &map(), &mut out)
            .unwrap();
        out.drain();
        c.handle(
            reply(
                MsgKind::DataX {
                    data: data(0),
                    acks: 0,
                },
                2,
            ),
            &mut out,
        )
        .unwrap();

        let fwd = reply(
            MsgKind::FwdCas {
                expected: 99,
                new: 1,
                addr: A,
                variant: CasVariant::Deny,
            },
            2,
        );
        c.handle(fwd, &mut out).unwrap();
        let sent = out.drain();
        match &sent[0].kind {
            MsgKind::OwnerCasFail {
                observed,
                kept_exclusive,
                ..
            } => {
                assert_eq!(*observed, 8);
                assert!(kept_exclusive);
            }
            other => panic!("expected OwnerCasFail, got {other:?}"),
        }
        assert_eq!(c.cache_state(LINE), Some(CacheState::Exclusive));
    }

    #[test]
    fn deferred_intervention_served_after_completion() {
        let mut c = cc();
        let mut out = Outbox::new();
        // Upgrade in progress with one ack pending.
        c.start_op(MemOp::Load { addr: A }, &map(), &mut out)
            .unwrap();
        c.handle(reply(MsgKind::DataS { data: data(0) }, 2), &mut out)
            .unwrap();
        c.start_op(MemOp::Store { addr: A, value: 9 }, &map(), &mut out)
            .unwrap();
        c.handle(reply(MsgKind::UpgradeAck { acks: 1 }, 2), &mut out)
            .unwrap();
        out.drain();

        // A forward arrives before the ack: it must wait.
        c.handle(reply(MsgKind::FwdGetX, 2), &mut out).unwrap();
        assert!(out.drain().is_empty(), "intervention must be deferred");

        // The ack arrives: the store completes AND the deferred forward
        // is served with the *new* data.
        let mut ack = reply(MsgKind::InvAck, 3);
        ack.src = NodeId::new(3);
        let done = c.handle(ack, &mut out).unwrap().unwrap();
        assert_eq!(done.result, OpResult::Stored);
        let sent = out.drain();
        assert_eq!(sent.len(), 1);
        match &sent[0].kind {
            MsgKind::XferData { data } => assert_eq!(data.word(A), 9),
            other => panic!("expected XferData, got {other:?}"),
        }
        assert_eq!(c.cache_state(LINE), None);
    }

    #[test]
    fn unc_ops_bypass_the_cache() {
        let mut c = cc();
        let mut m = map();
        m.register(
            A,
            SyncConfig {
                policy: SyncPolicy::Unc,
                ..Default::default()
            },
        );
        let mut out = Outbox::new();
        assert!(c
            .start_op(
                MemOp::FetchPhi {
                    addr: A,
                    op: PhiOp::Add(1)
                },
                &m,
                &mut out
            )
            .unwrap()
            .is_none());
        let sent = out.drain();
        assert!(matches!(
            sent[0].kind,
            MsgKind::AtomicMem {
                op: MemAtomicOp::Phi { .. }
            }
        ));

        let done = c
            .handle(
                reply(
                    MsgKind::AtomicReply {
                        result: OpResult::Fetched { old: 4 },
                        acks: 0,
                        data: None,
                    },
                    2,
                ),
                &mut out,
            )
            .unwrap()
            .unwrap();
        assert_eq!(done.result, OpResult::Fetched { old: 4 });
        assert_eq!(done.chain, 2);
        assert_eq!(c.cache_state(LINE), None, "UNC lines are never cached");
    }

    #[test]
    fn upd_load_allocates_and_updates_apply() {
        let mut c = cc();
        let mut m = map();
        m.register(
            A,
            SyncConfig {
                policy: SyncPolicy::Upd,
                ..Default::default()
            },
        );
        let mut out = Outbox::new();
        c.start_op(MemOp::Load { addr: A }, &m, &mut out).unwrap();
        out.drain();
        c.handle(reply(MsgKind::DataS { data: data(1) }, 2), &mut out)
            .unwrap();
        assert_eq!(c.peek_word(A), Some(1));

        // An update from another node's write arrives.
        c.handle(
            reply(
                MsgKind::Update {
                    data: data(2),
                    requester: NodeId::new(3),
                },
                2,
            ),
            &mut out,
        )
        .unwrap();
        let acks = out.drain();
        assert!(matches!(acks[0].kind, MsgKind::UpdAck));
        assert_eq!(c.peek_word(A), Some(2));

        // Subsequent read hits with the updated value.
        let done = c
            .start_op(MemOp::Load { addr: A }, &m, &mut out)
            .unwrap()
            .unwrap();
        assert_eq!(done.result.value(), Some(2));
        assert!(done.local);
    }

    #[test]
    fn upd_store_goes_to_memory_and_waits_for_acks() {
        let mut c = cc();
        let mut m = map();
        m.register(
            A,
            SyncConfig {
                policy: SyncPolicy::Upd,
                ..Default::default()
            },
        );
        let mut out = Outbox::new();
        assert!(c
            .start_op(MemOp::Store { addr: A, value: 5 }, &m, &mut out)
            .unwrap()
            .is_none());
        let sent = out.drain();
        assert!(matches!(
            sent[0].kind,
            MsgKind::AtomicMem {
                op: MemAtomicOp::Store { .. }
            }
        ));

        // Reply says one sharer must ack; completion waits.
        assert!(c
            .handle(
                reply(
                    MsgKind::AtomicReply {
                        result: OpResult::Stored,
                        acks: 1,
                        data: None
                    },
                    2
                ),
                &mut out
            )
            .unwrap()
            .is_none());
        let mut ack = reply(MsgKind::UpdAck, 3);
        ack.src = NodeId::new(3);
        let done = c.handle(ack, &mut out).unwrap().unwrap();
        assert_eq!(done.result, OpResult::Stored);
        assert_eq!(
            done.chain, 3,
            "Table 1: UPD store to cached = 3 serialized messages"
        );
    }

    #[test]
    fn drop_copy_writes_back_exclusive_lines() {
        let mut c = cc();
        let mut out = Outbox::new();
        c.start_op(MemOp::Store { addr: A, value: 8 }, &map(), &mut out)
            .unwrap();
        out.drain();
        c.handle(
            reply(
                MsgKind::DataX {
                    data: data(0),
                    acks: 0,
                },
                2,
            ),
            &mut out,
        )
        .unwrap();

        let done = c
            .start_op(MemOp::DropCopy { addr: A }, &map(), &mut out)
            .unwrap()
            .unwrap();
        assert!(done.local);
        let sent = out.drain();
        assert_eq!(sent.len(), 1);
        match &sent[0].kind {
            MsgKind::WriteBack { data } => assert_eq!(data.word(A), 8),
            other => panic!("expected WriteBack, got {other:?}"),
        }
        assert_eq!(c.cache_state(LINE), None);
    }

    #[test]
    fn drop_copy_notifies_for_shared_lines() {
        let mut c = cc();
        let mut out = Outbox::new();
        c.start_op(MemOp::Load { addr: A }, &map(), &mut out)
            .unwrap();
        out.drain();
        c.handle(reply(MsgKind::DataS { data: data(0) }, 2), &mut out)
            .unwrap();

        c.start_op(MemOp::DropCopy { addr: A }, &map(), &mut out)
            .unwrap();
        let sent = out.drain();
        assert!(matches!(sent[0].kind, MsgKind::DropShared));
        assert_eq!(c.cache_state(LINE), None);
    }

    #[test]
    fn drop_copy_of_absent_line_is_silent() {
        let mut c = cc();
        let mut out = Outbox::new();
        let done = c
            .start_op(MemOp::DropCopy { addr: A }, &map(), &mut out)
            .unwrap()
            .unwrap();
        assert!(done.local);
        assert!(out.drain().is_empty());
    }

    #[test]
    fn cas_deny_share_variants_route_to_home() {
        for variant in [CasVariant::Deny, CasVariant::Share] {
            let mut c = cc();
            let mut m = map();
            m.register(
                A,
                SyncConfig {
                    cas_variant: variant,
                    ..Default::default()
                },
            );
            let mut out = Outbox::new();
            assert!(c
                .start_op(
                    MemOp::Cas {
                        addr: A,
                        expected: 0,
                        new: 1
                    },
                    &m,
                    &mut out
                )
                .unwrap()
                .is_none());
            let sent = out.drain();
            match &sent[0].kind {
                MsgKind::CasHome { variant: v, .. } => assert_eq!(*v, variant),
                other => panic!("expected CasHome, got {other:?}"),
            }
        }
    }

    #[test]
    fn cas_fail_share_installs_read_only_copy() {
        let mut c = cc();
        let mut m = map();
        m.register(
            A,
            SyncConfig {
                cas_variant: CasVariant::Share,
                ..Default::default()
            },
        );
        let mut out = Outbox::new();
        c.start_op(
            MemOp::Cas {
                addr: A,
                expected: 0,
                new: 1,
            },
            &m,
            &mut out,
        )
        .unwrap();
        out.drain();
        let done = c
            .handle(
                reply(
                    MsgKind::CasFail {
                        observed: 9,
                        share_data: Some(data(9)),
                    },
                    2,
                ),
                &mut out,
            )
            .unwrap()
            .unwrap();
        assert_eq!(
            done.result,
            OpResult::CasDone {
                success: false,
                observed: 9
            }
        );
        assert_eq!(c.cache_state(LINE), Some(CacheState::Shared));
        assert_eq!(c.peek_word(A), Some(9));
    }

    #[test]
    fn cas_grant_applies_swap() {
        let mut c = cc();
        let mut m = map();
        m.register(
            A,
            SyncConfig {
                cas_variant: CasVariant::Deny,
                ..Default::default()
            },
        );
        let mut out = Outbox::new();
        c.start_op(
            MemOp::Cas {
                addr: A,
                expected: 4,
                new: 5,
            },
            &m,
            &mut out,
        )
        .unwrap();
        out.drain();
        let done = c
            .handle(
                reply(
                    MsgKind::CasGrant {
                        data: Some(data(4)),
                        acks: 0,
                        observed: 4,
                    },
                    2,
                ),
                &mut out,
            )
            .unwrap()
            .unwrap();
        assert_eq!(
            done.result,
            OpResult::CasDone {
                success: true,
                observed: 4
            }
        );
        assert_eq!(c.peek_word(A), Some(5));
        assert_eq!(c.cache_state(LINE), Some(CacheState::Exclusive));
    }

    /// The SM_D race: an invalidation arrives while an upgrade is
    /// outstanding (the home served a competing writer first). The
    /// local copy must be invalidated and acked; the home will answer
    /// our upgrade with full data (it knows we were invalidated).
    #[test]
    fn inv_during_outstanding_upgrade_is_applied() {
        let mut c = cc();
        let mut out = Outbox::new();
        // Acquire shared, then issue a store (upgrade).
        c.start_op(MemOp::Load { addr: A }, &map(), &mut out)
            .unwrap();
        c.handle(reply(MsgKind::DataS { data: data(1) }, 2), &mut out)
            .unwrap();
        assert!(c
            .start_op(MemOp::Store { addr: A, value: 2 }, &map(), &mut out)
            .unwrap()
            .is_none());
        out.drain();

        // Competing writer's invalidation lands before our reply.
        let mut inv = reply(
            MsgKind::Inv {
                requester: NodeId::new(3),
            },
            2,
        );
        inv.proc = ProcId::new(3);
        assert!(c.handle(inv, &mut out).unwrap().is_none());
        let acks = out.drain();
        assert!(matches!(acks[0].kind, MsgKind::InvAck));
        assert_eq!(c.cache_state(LINE), None, "shared copy must be gone");

        // The home replies with full data (not an UpgradeAck).
        let done = c
            .handle(
                reply(
                    MsgKind::DataX {
                        data: data(9),
                        acks: 0,
                    },
                    4,
                ),
                &mut out,
            )
            .unwrap()
            .unwrap();
        assert_eq!(done.result, OpResult::Stored);
        assert_eq!(c.peek_word(A), Some(2), "store applied over fresh data");
        assert_eq!(done.chain, 4);
    }

    /// A forwarded CAS that arrives while we are collecting upgrade
    /// acknowledgments must be deferred, then served with the
    /// post-completion value.
    #[test]
    fn deferred_fwd_cas_sees_completed_value() {
        let mut c = cc();
        let mut out = Outbox::new();
        c.start_op(MemOp::Load { addr: A }, &map(), &mut out)
            .unwrap();
        c.handle(reply(MsgKind::DataS { data: data(0) }, 2), &mut out)
            .unwrap();
        c.start_op(MemOp::Store { addr: A, value: 7 }, &map(), &mut out)
            .unwrap();
        c.handle(reply(MsgKind::UpgradeAck { acks: 1 }, 2), &mut out)
            .unwrap();
        out.drain();

        let fwd = reply(
            MsgKind::FwdCas {
                expected: 7,
                new: 8,
                addr: A,
                variant: CasVariant::Deny,
            },
            2,
        );
        c.handle(fwd, &mut out).unwrap();
        assert!(out.drain().is_empty(), "FwdCas must wait for the ack");

        let mut ack = reply(MsgKind::InvAck, 3);
        ack.src = NodeId::new(3);
        let done = c.handle(ack, &mut out).unwrap().unwrap();
        assert_eq!(done.result, OpResult::Stored);
        // The deferred compare now sees 7 and succeeds: line handed over.
        let sent = out.drain();
        match &sent[0].kind {
            MsgKind::XferData { data } => assert_eq!(data.word(A), 7),
            other => panic!("expected XferData, got {other:?}"),
        }
        assert_eq!(c.cache_state(LINE), None);
    }

    /// An invalidation for a line we already evicted must still be
    /// acknowledged (the directory had a stale sharer).
    #[test]
    fn spurious_inv_is_acked() {
        let mut c = cc();
        let mut out = Outbox::new();
        let mut inv = reply(
            MsgKind::Inv {
                requester: NodeId::new(3),
            },
            2,
        );
        inv.proc = ProcId::new(3);
        assert!(c.handle(inv, &mut out).unwrap().is_none());
        let sent = out.drain();
        assert_eq!(sent.len(), 1);
        assert!(matches!(sent[0].kind, MsgKind::InvAck));
        assert_eq!(sent[0].dst, NodeId::new(3));
    }

    /// An update for a line we silently evicted must be acknowledged
    /// without being applied anywhere.
    #[test]
    fn update_to_absent_line_is_acked() {
        let mut c = cc();
        let mut out = Outbox::new();
        let upd = reply(
            MsgKind::Update {
                data: data(5),
                requester: NodeId::new(2),
            },
            2,
        );
        c.handle(upd, &mut out).unwrap();
        let sent = out.drain();
        assert!(matches!(sent[0].kind, MsgKind::UpdAck));
        assert_eq!(c.cache_state(LINE), None);
    }

    /// Acks may arrive before the primary reply; completion must wait
    /// for both.
    #[test]
    fn early_acks_do_not_complete_before_data() {
        let mut c = cc();
        let mut out = Outbox::new();
        c.start_op(MemOp::Store { addr: A, value: 1 }, &map(), &mut out)
            .unwrap();
        out.drain();
        // Two acks arrive first (sharers answered quickly).
        for n in [3u32, 0] {
            let mut ack = reply(MsgKind::InvAck, 3);
            ack.src = NodeId::new(n);
            assert!(
                c.handle(ack, &mut out).unwrap().is_none(),
                "must wait for DataX"
            );
        }
        let done = c
            .handle(
                reply(
                    MsgKind::DataX {
                        data: data(0),
                        acks: 2,
                    },
                    2,
                ),
                &mut out,
            )
            .unwrap()
            .unwrap();
        assert_eq!(done.result, OpResult::Stored);
        assert_eq!(done.chain, 3, "ack chain dominates");
    }

    /// Eviction of a reserved line clears the reservation, so a
    /// subsequent SC fails locally instead of succeeding wrongly.
    #[test]
    fn eviction_clears_reservation() {
        let mut c = CacheNode::new(ME, 32, CacheParams { sets: 1, ways: 1 });
        c.set_nodes(NODES);
        let mut out = Outbox::new();
        c.start_op(MemOp::LoadLinked { addr: A }, &map(), &mut out)
            .unwrap();
        c.handle(reply(MsgKind::DataS { data: data(5) }, 2), &mut out)
            .unwrap();
        out.drain();

        // A miss to a conflicting line evicts the reserved line.
        let other = Addr::new(0x40 + 32); // next line, same (only) set
        c.start_op(MemOp::Load { addr: other }, &map(), &mut out)
            .unwrap();
        let mut d2 = reply(
            MsgKind::DataS {
                data: LineData::zeroed(32),
            },
            2,
        );
        d2.line = other.line(32);
        d2.addr = other;
        c.handle(d2, &mut out).unwrap();
        out.drain();

        let done = c
            .start_op(
                MemOp::StoreConditional {
                    addr: A,
                    value: 9,
                    serial: None,
                },
                &map(),
                &mut out,
            )
            .unwrap()
            .unwrap();
        assert_eq!(done.result, OpResult::ScDone { success: false });
        assert!(done.local);
    }
}
