//! The home-node protocol engine: directory, memory, and the
//! memory-side execution of atomic primitives.
//!
//! Every line has a home node (round-robin interleaving). The home
//! serializes transactions per line: while an intervention is
//! outstanding the directory entry is *busy* and later requests queue
//! behind it ("queued memory"). Intervention replies route through the
//! home, which yields the serialized-message counts of Table 1 (e.g. 4
//! messages for a store to a remote-exclusive line: requester → home →
//! owner → home → requester).

use crate::addrmap::AddressMap;
use crate::data::LineData;
use crate::directory::{Busy, BusyKind, DirEntry, DirState};
use crate::error::{ProtocolError, ProtocolErrorKind};
use crate::msg::{Msg, MsgKind};
use crate::nodeset::NodeSet;
use crate::reservation::ReservationStore;
use crate::types::{CasVariant, MemOp, OpResult, SyncPolicy, Value};
use dsm_sim::{LineAddr, NodeId, ProtoVariant, StableHashMap};

/// Messages emitted by a protocol engine during one handling step.
///
/// The caller (the machine simulator) assigns network timing and
/// delivers them.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Messages to send, in emission order.
    pub msgs: Vec<Msg>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a message.
    pub fn send(&mut self, msg: Msg) {
        self.msgs.push(msg);
    }

    /// Takes all queued messages.
    pub fn drain(&mut self) -> Vec<Msg> {
        std::mem::take(&mut self.msgs)
    }
}

/// The directory + memory-module controller of one node.
///
/// # Example
///
/// ```
/// use dsm_protocol::{AddressMap, HomeNode, Msg, MsgKind, Outbox};
/// use dsm_sim::{Addr, LineAddr, NodeId, ProcId};
///
/// let mut home = HomeNode::new(NodeId::new(0), 32, 256);
/// let map = AddressMap::new(32);
/// let mut out = Outbox::new();
/// home.handle(
///     Msg {
///         src: NodeId::new(1),
///         dst: NodeId::new(0),
///         line: LineAddr::new(0),
///         addr: Addr::new(0),
///         proc: ProcId::new(1),
///         chain: 1,
///         kind: MsgKind::GetS,
///     },
///     &map,
///     &mut out,
/// )
/// .unwrap();
/// // An uncached line yields an immediate shared-data reply.
/// assert!(matches!(out.msgs[0].kind, MsgKind::DataS { .. }));
/// assert_eq!(out.msgs[0].chain, 2);
/// ```
#[derive(Debug, Clone)]
pub struct HomeNode {
    node: NodeId,
    line_size: u64,
    dir: StableHashMap<LineAddr, DirEntry>,
    mem: StableHashMap<LineAddr, LineData>,
    resv: ReservationStore,
    /// Protocol variant (forwarding behaviour); [`ProtoVariant::Dash`]
    /// — the paper's base protocol — by default.
    proto: ProtoVariant,
    /// Mesh width, for nearest-sharer selection under MESI(F). Zero
    /// until [`set_topology`](Self::set_topology) is called.
    mesh_width: u32,
    /// Nodes per NUMA cluster (whole machine when flat).
    cluster_size: u32,
}

impl HomeNode {
    /// Creates the home controller for `node`.
    ///
    /// `llsc_pool` is the linked-list reservation free-pool capacity
    /// (§3.1); it only matters for lines configured with
    /// [`LlscScheme::LinkedList`](crate::types::LlscScheme::LinkedList).
    pub fn new(node: NodeId, line_size: u64, llsc_pool: usize) -> Self {
        HomeNode {
            node,
            line_size,
            dir: StableHashMap::default(),
            mem: StableHashMap::default(),
            resv: ReservationStore::new(llsc_pool),
            proto: ProtoVariant::Dash,
            mesh_width: 0,
            cluster_size: 0,
        }
    }

    /// Installs the protocol variant and the machine geometry the
    /// directory needs for forwarder selection: mesh width (nearest
    /// sharer under MESI(F)) and the node-count/cluster-count pair
    /// (cluster-local sharers under the hierarchical variant). Under the
    /// default [`ProtoVariant::Dash`] the geometry is unused and the
    /// home behaves exactly as the paper's base protocol.
    pub fn set_topology(
        &mut self,
        proto: ProtoVariant,
        mesh_width: u32,
        nodes: u32,
        clusters: u32,
    ) {
        self.proto = proto;
        self.mesh_width = mesh_width;
        self.cluster_size = (nodes / clusters.max(1)).max(1);
    }

    /// Manhattan distance on the mesh this home was configured with.
    fn mesh_hops(&self, a: NodeId, b: NodeId) -> u32 {
        let w = self.mesh_width.max(1);
        let (ax, ay) = (a.as_u32() % w, a.as_u32() / w);
        let (bx, by) = (b.as_u32() % w, b.as_u32() / w);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    fn same_cluster(&self, a: NodeId, b: NodeId) -> bool {
        let cs = self.cluster_size.max(1);
        a.as_u32() / cs == b.as_u32() / cs
    }

    /// Picks the sharer that should supply a read miss directly, or
    /// `None` to serve from memory (always `None` under DASH).
    fn select_forwarder(&self, sharers: &NodeSet, requester: NodeId) -> Option<NodeId> {
        match self.proto {
            ProtoVariant::Dash => None,
            // MESI(F)-style: the sharer closest to the requester
            // supplies the line (ties broken by lowest node id).
            ProtoVariant::MesiF => sharers
                .iter()
                .filter(|&n| n != requester)
                .min_by_key(|&n| (self.mesh_hops(n, requester), n.as_u32())),
            // Hierarchical: only a sharer inside the requester's NUMA
            // cluster is worth asking; otherwise memory is no farther.
            ProtoVariant::Hier => sharers
                .iter()
                .filter(|&n| n != requester && self.same_cluster(n, requester))
                .min_by_key(|&n| (self.mesh_hops(n, requester), n.as_u32())),
        }
    }

    /// Reads a word directly from backing memory (for tests and the
    /// consistency oracle). Note that for a dirty line the current value
    /// lives in the owner's cache, not here.
    pub fn peek_word(&self, addr: dsm_sim::Addr) -> Value {
        let line = addr.line(self.line_size);
        self.mem.get(&line).map_or(0, |d| d.word(addr))
    }

    /// Writes a word directly into backing memory (initialization).
    pub fn poke_word(&mut self, addr: dsm_sim::Addr, value: Value) {
        let line = addr.line(self.line_size);
        self.mem_line(line).set_word(addr, value);
    }

    /// The directory state of `line` (for tests and invariant checks).
    /// Returns a reference — a `Shared` state owns a sharer bitmask, so
    /// cloning it on every read-only inspection would allocate.
    pub fn dir_state(&self, line: LineAddr) -> &DirState {
        static UNCACHED: DirState = DirState::Uncached;
        self.dir.get(&line).map_or(&UNCACHED, |e| &e.state)
    }

    /// `true` if `line` has an intervention outstanding.
    pub fn is_busy(&self, line: LineAddr) -> bool {
        self.dir.get(&line).is_some_and(DirEntry::is_busy)
    }

    /// The node whose request the intervention outstanding on `line`
    /// serves, if the line is busy.
    pub fn busy_requester(&self, line: LineAddr) -> Option<NodeId> {
        self.dir.get(&line)?.busy.as_ref().map(|b| b.request.src)
    }

    /// Number of requests queued behind busy lines (for tests/metrics).
    pub fn queued_requests(&self) -> usize {
        self.dir.values().map(|e| e.waiters.len()).sum()
    }

    /// Access to the reservation store (for tests).
    pub fn reservations(&self) -> &ReservationStore {
        &self.resv
    }

    /// Number of lines with an intervention outstanding (for the
    /// quiescence conservation check: all must resolve by run end).
    pub fn busy_lines(&self) -> usize {
        self.dir.values().filter(|e| e.is_busy()).count()
    }

    /// Iterates over all directory entries (for invariant sweeps).
    pub fn dir_lines(&self) -> impl Iterator<Item = (LineAddr, &DirEntry)> {
        self.dir.iter().map(|(l, e)| (*l, e))
    }

    /// Forcibly invalidates every memory-side LL/SC reservation held
    /// here — the fault injector's reservation-storm hook.
    pub fn wipe_reservations(&mut self) {
        self.resv.invalidate_all();
    }

    /// Folds the home's full state — directory, backing memory, and
    /// memory-side reservations — into a state digest. Both tables
    /// are hashed in sorted line order, so equal states digest equally
    /// regardless of insertion history.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        h.write_u32(self.node.as_u32());
        h.write_u64(self.line_size);
        let mut dir: Vec<(&LineAddr, &DirEntry)> = self.dir.iter().collect();
        dir.sort_unstable_by_key(|(l, _)| l.number());
        h.write_usize(dir.len());
        for (l, e) in dir {
            h.write_u64(l.number());
            e.digest(h);
        }
        let mut mem: Vec<(&LineAddr, &LineData)> = self.mem.iter().collect();
        mem.sort_unstable_by_key(|(l, _)| l.number());
        h.write_usize(mem.len());
        for (l, d) in mem {
            h.write_u64(l.number());
            d.digest(h);
        }
        self.resv.digest(h);
    }

    fn mem_line(&mut self, line: LineAddr) -> &mut LineData {
        let size = self.line_size;
        self.mem
            .entry(line)
            .or_insert_with(|| LineData::zeroed(size))
    }

    fn mem_clone(&mut self, line: LineAddr) -> LineData {
        self.mem_line(line).clone()
    }

    fn reply_to(&self, req: &Msg, kind: MsgKind) -> Msg {
        Msg {
            src: self.node,
            dst: req.src,
            line: req.line,
            addr: req.addr,
            proc: req.proc,
            chain: req.chain + 1,
            kind,
        }
    }

    fn set_state(&mut self, line: LineAddr, state: DirState) {
        self.dir.entry(line).or_default().state = state;
    }

    /// Moves `line`'s directory state out for in-place modification
    /// (leaving `Uncached` behind); the caller installs the successor
    /// state with [`set_state`](Self::set_state). Avoids cloning the
    /// sharer set on every transition.
    fn take_state(&mut self, line: LineAddr) -> DirState {
        std::mem::replace(
            &mut self.dir.entry(line).or_default().state,
            DirState::Uncached,
        )
    }

    fn send_invs(&self, msg: &Msg, others: &[NodeId], out: &mut Outbox) {
        for dest in others {
            out.send(Msg {
                src: self.node,
                dst: *dest,
                line: msg.line,
                addr: msg.addr,
                proc: msg.proc,
                chain: msg.chain + 1,
                kind: MsgKind::Inv { requester: msg.src },
            });
        }
    }

    /// A protocol error detected at this home, tagged with its location.
    fn err(&self, kind: ProtocolErrorKind, line: LineAddr, detail: String) -> ProtocolError {
        ProtocolError::new(kind, detail).on_line(line).at(self.node)
    }

    /// Handles one incoming message, emitting any responses into `out`.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtocolError`] on protocol violations (e.g. a
    /// write-back from a node the directory does not consider the owner,
    /// or a response with no outstanding intervention), which indicate
    /// simulator bugs or injected corruption rather than recoverable
    /// conditions; the machine aborts the run with a diagnostic.
    pub fn handle(
        &mut self,
        msg: Msg,
        map: &AddressMap,
        out: &mut Outbox,
    ) -> Result<(), ProtocolError> {
        debug_assert_eq!(msg.dst, self.node, "message routed to the wrong home");
        match &msg.kind {
            MsgKind::GetS
            | MsgKind::GetX { .. }
            | MsgKind::AtomicMem { .. }
            | MsgKind::CasHome { .. }
            | MsgKind::ScInv => {
                if self.is_busy(msg.line) {
                    let line = msg.line;
                    let node = self.node;
                    self.dir
                        .get_mut(&line)
                        .ok_or_else(|| {
                            ProtocolError::new(
                                ProtocolErrorKind::MissingRequest,
                                "busy line has no directory entry",
                            )
                            .on_line(line)
                            .at(node)
                        })?
                        .waiters
                        .push_back(msg);
                    return Ok(());
                }
                self.handle_request(msg, map, out)
            }
            MsgKind::WriteBack { .. } => self.handle_writeback(msg, map, out),
            MsgKind::DropShared => {
                self.handle_drop_shared(&msg);
                Ok(())
            }
            MsgKind::FwdNak => self.handle_fwd_nak(msg, map, out),
            MsgKind::FwdShareAck => self.handle_share_ack(msg, map, out),
            MsgKind::XferData { .. } | MsgKind::SwbData { .. } | MsgKind::OwnerCasFail { .. } => {
                self.handle_owner_response(msg, map, out)
            }
            other => Err(self.err(
                ProtocolErrorKind::UnexpectedMessage,
                msg.line,
                format!("home node received unexpected message kind {other:?}"),
            )),
        }
    }

    fn handle_request(
        &mut self,
        msg: Msg,
        map: &AddressMap,
        out: &mut Outbox,
    ) -> Result<(), ProtocolError> {
        // Request payloads are all-`Copy` — bind them straight off the
        // message without cloning the enum.
        match msg.kind {
            MsgKind::GetS => self.handle_gets(msg, out),
            MsgKind::GetX { from_shared } => self.handle_getx(msg, from_shared, out),
            MsgKind::AtomicMem { op } => return self.handle_atomic_mem(msg, op, map, out),
            MsgKind::CasHome {
                expected,
                new,
                variant,
            } => self.handle_cas_home(msg, expected, new, variant, out),
            MsgKind::ScInv => self.handle_sc_inv(msg, out),
            _ => {
                return Err(self.err(
                    ProtocolErrorKind::UnexpectedMessage,
                    msg.line,
                    format!("queued message is not a request: {:?}", msg.kind),
                ))
            }
        }
        Ok(())
    }

    fn begin_intervention(
        &mut self,
        msg: Msg,
        kind: BusyKind,
        fwd_kind: MsgKind,
        owner: NodeId,
        out: &mut Outbox,
    ) {
        debug_assert_ne!(owner, msg.src, "owner re-requesting its own line");
        out.send(Msg {
            src: self.node,
            dst: owner,
            line: msg.line,
            addr: msg.addr,
            proc: msg.proc,
            chain: msg.chain + 1,
            kind: fwd_kind,
        });
        let line = msg.line;
        self.dir.entry(line).or_default().busy = Some(Busy {
            kind,
            request: msg,
            got_writeback: false,
            got_nak: false,
        });
    }

    fn handle_gets(&mut self, msg: Msg, out: &mut Outbox) {
        match *self.dir_state(msg.line) {
            DirState::Uncached | DirState::Shared(_) => {
                // MESI(F)/hierarchical variants: a clean sharer may
                // supply the line cache-to-cache instead of memory.
                let forwarder = match self.dir_state(msg.line) {
                    DirState::Shared(sharers) => self.select_forwarder(sharers, msg.src),
                    _ => None,
                };
                if let Some(f) = forwarder {
                    let fwd = MsgKind::FwdShare { requester: msg.src };
                    self.begin_intervention(msg, BusyKind::Share { forwarder: f }, fwd, f, out);
                    return;
                }
                let mut sharers = match self.take_state(msg.line) {
                    DirState::Shared(s) => s,
                    _ => NodeSet::new(),
                };
                sharers.insert(msg.src);
                self.set_state(msg.line, DirState::Shared(sharers));
                let data = self.mem_clone(msg.line);
                let reply = self.reply_to(&msg, MsgKind::DataS { data });
                out.send(reply);
            }
            DirState::Dirty(owner) => {
                self.begin_intervention(msg, BusyKind::GetS, MsgKind::FwdGetS, owner, out);
            }
        }
    }

    fn handle_getx(&mut self, msg: Msg, from_shared: bool, out: &mut Outbox) {
        match *self.dir_state(msg.line) {
            DirState::Uncached => {
                self.set_state(msg.line, DirState::Dirty(msg.src));
                let data = self.mem_clone(msg.line);
                let reply = self.reply_to(&msg, MsgKind::DataX { data, acks: 0 });
                out.send(reply);
            }
            DirState::Shared(_) => {
                let DirState::Shared(sharers) = self.take_state(msg.line) else {
                    unreachable!("state changed between inspection and take");
                };
                let requester_held_copy = sharers.contains(msg.src);
                let others: Vec<NodeId> = sharers.iter().filter(|&n| n != msg.src).collect();
                self.set_state(msg.line, DirState::Dirty(msg.src));
                self.send_invs(&msg, &others, out);
                let acks = others.len() as u32;
                let reply = if from_shared && requester_held_copy {
                    self.reply_to(&msg, MsgKind::UpgradeAck { acks })
                } else {
                    let data = self.mem_clone(msg.line);
                    self.reply_to(&msg, MsgKind::DataX { data, acks })
                };
                out.send(reply);
            }
            DirState::Dirty(owner) => {
                self.begin_intervention(msg, BusyKind::GetX, MsgKind::FwdGetX, owner, out);
            }
        }
    }

    fn handle_cas_home(
        &mut self,
        msg: Msg,
        expected: Value,
        new: Value,
        variant: CasVariant,
        out: &mut Outbox,
    ) {
        debug_assert_ne!(
            variant,
            CasVariant::Plain,
            "plain CAS executes in the cache"
        );
        match *self.dir_state(msg.line) {
            DirState::Dirty(owner) => {
                let fwd = MsgKind::FwdCas {
                    expected,
                    new,
                    addr: msg.addr,
                    variant,
                };
                self.begin_intervention(msg, BusyKind::Cas { variant }, fwd, owner, out);
            }
            _ => {
                // Memory has the most up-to-date copy: compare here.
                let observed = self.mem_line(msg.line).word(msg.addr);
                if observed == expected {
                    // Success: behave like INV — the requester acquires
                    // an exclusive copy and performs the swap locally.
                    let (requester_held_copy, others) = match self.take_state(msg.line) {
                        DirState::Shared(sharers) => (
                            sharers.contains(msg.src),
                            sharers.iter().filter(|&n| n != msg.src).collect(),
                        ),
                        _ => (false, Vec::new()),
                    };
                    self.set_state(msg.line, DirState::Dirty(msg.src));
                    self.send_invs(&msg, &others, out);
                    let data = if requester_held_copy {
                        None
                    } else {
                        Some(self.mem_clone(msg.line))
                    };
                    let reply = self.reply_to(
                        &msg,
                        MsgKind::CasGrant {
                            data,
                            acks: others.len() as u32,
                            observed,
                        },
                    );
                    out.send(reply);
                } else {
                    // Failure: deny a copy (INVd) or grant a shared copy
                    // (INVs) without disturbing other caches.
                    let share_data = match variant {
                        CasVariant::Share => {
                            let mut sharers = match self.take_state(msg.line) {
                                DirState::Shared(s) => s,
                                _ => NodeSet::new(),
                            };
                            sharers.insert(msg.src);
                            self.set_state(msg.line, DirState::Shared(sharers));
                            Some(self.mem_clone(msg.line))
                        }
                        _ => None,
                    };
                    let reply = self.reply_to(
                        &msg,
                        MsgKind::CasFail {
                            observed,
                            share_data,
                        },
                    );
                    out.send(reply);
                }
            }
        }
    }

    fn handle_sc_inv(&mut self, msg: Msg, out: &mut Outbox) {
        let succeeds =
            matches!(self.dir_state(msg.line), DirState::Shared(s) if s.contains(msg.src));
        match succeeds {
            true => {
                let DirState::Shared(sharers) = self.take_state(msg.line) else {
                    unreachable!("state changed between inspection and take");
                };
                let others: Vec<NodeId> = sharers.iter().filter(|&n| n != msg.src).collect();
                self.set_state(msg.line, DirState::Dirty(msg.src));
                self.send_invs(&msg, &others, out);
                let reply = self.reply_to(
                    &msg,
                    MsgKind::ScInvReply {
                        success: true,
                        acks: others.len() as u32,
                    },
                );
                out.send(reply);
            }
            false => {
                // Directory says exclusive elsewhere, uncached, or the
                // requester is no longer a sharer: the SC fails (§3).
                let reply = self.reply_to(
                    &msg,
                    MsgKind::ScInvReply {
                        success: false,
                        acks: 0,
                    },
                );
                out.send(reply);
            }
        }
    }

    fn handle_atomic_mem(
        &mut self,
        msg: Msg,
        op: MemOp,
        map: &AddressMap,
        out: &mut Outbox,
    ) -> Result<(), ProtocolError> {
        let cfg = map.config_for_line(msg.line);
        let line = msg.line;
        let addr = msg.addr;
        if cfg.policy == SyncPolicy::Inv {
            // Home-node atomics (the modern fourth implementation
            // point): the cache controller only routes Φ/CAS here when
            // `home_atomics` is set; everything else keeps INV handling.
            debug_assert!(
                cfg.home_atomics,
                "INV lines execute atomics in caches unless home_atomics is set"
            );
            debug_assert!(
                matches!(op, MemOp::FetchPhi { .. } | MemOp::Cas { .. }),
                "home-node atomics are Φ/CAS only"
            );
            // A dirty copy holds the current data: recall it first so
            // the operation executes against up-to-date memory. The
            // recall and transfer legs count on the critical path
            // (request is re-handled with chain+2 once the owner
            // responds), giving the same 4-message cost as a remote
            // exclusive access in Table 1.
            if let DirState::Dirty(owner) = *self.dir_state(line) {
                self.begin_intervention(msg, BusyKind::Atomic, MsgKind::FwdGetX, owner, out);
                return Ok(());
            }
        }
        let word = self.mem_line(line).word(addr);
        let (result, wrote) = match op {
            MemOp::LoadLinked { .. } => {
                let grant = self
                    .resv
                    .load_linked(line, msg.proc, cfg.llsc)
                    .map_err(|e| e.at(self.node))?;
                (
                    OpResult::Loaded {
                        value: word,
                        serial: grant.serial,
                        reserved: grant.reserved,
                    },
                    false,
                )
            }
            MemOp::StoreConditional { value, serial, .. } => {
                let ok = self
                    .resv
                    .check_sc(line, msg.proc, serial, cfg.llsc)
                    .map_err(|e| e.at(self.node))?;
                if ok {
                    self.mem_line(line).set_word(addr, value);
                }
                (OpResult::ScDone { success: ok }, ok)
            }
            _ => {
                let (result, write) = op.apply(word);
                if let Some(value) = write {
                    self.mem_line(line).set_word(addr, value);
                    self.resv.on_write(line, cfg.llsc);
                }
                (result, write.is_some())
            }
        };

        match cfg.policy {
            SyncPolicy::Upd => {
                // UPD lines are never exclusive.
                debug_assert!(!matches!(self.dir_state(line), DirState::Dirty(_)));
                let mut sharers = match self.take_state(line) {
                    DirState::Shared(s) => s,
                    _ => NodeSet::new(),
                };
                // LL allocates a shared copy (the data comes back anyway).
                if matches!(op, MemOp::LoadLinked { .. }) {
                    sharers.insert(msg.src);
                }
                let requester_cached = sharers.contains(msg.src);
                let mut acks = 0;
                if wrote {
                    let data = self.mem_clone(line);
                    for dest in sharers.iter().filter(|&n| n != msg.src) {
                        acks += 1;
                        out.send(Msg {
                            src: self.node,
                            dst: dest,
                            line,
                            addr,
                            proc: msg.proc,
                            chain: msg.chain + 1,
                            kind: MsgKind::Update {
                                data: data.clone(),
                                requester: msg.src,
                            },
                        });
                    }
                }
                let data = if requester_cached {
                    Some(self.mem_clone(line))
                } else {
                    None
                };
                let state = if sharers.is_empty() {
                    DirState::Uncached
                } else {
                    DirState::Shared(sharers)
                };
                self.set_state(line, state);
                let reply = self.reply_to(&msg, MsgKind::AtomicReply { result, acks, data });
                out.send(reply);
            }
            SyncPolicy::Inv => {
                // Home-node atomics. The operation already executed
                // against memory above; stale shared copies (read-only
                // loads cache normally on HNA lines) must be
                // invalidated when the operation wrote. The requester
                // holds no copy — it dropped any shared copy when it
                // issued — so it collects the acks and the line ends
                // uncached, ready for the next in-memory operation.
                let others: Vec<NodeId> = match self.take_state(line) {
                    DirState::Shared(s) => s.iter().filter(|&n| n != msg.src).collect(),
                    _ => Vec::new(),
                };
                let acks = if wrote {
                    self.send_invs(&msg, &others, out);
                    others.len() as u32
                } else if !others.is_empty() {
                    // Nothing written: existing copies stay valid.
                    let sharers = others.iter().copied().collect::<NodeSet>();
                    self.set_state(line, DirState::Shared(sharers));
                    0
                } else {
                    0
                };
                let reply = self.reply_to(
                    &msg,
                    MsgKind::AtomicReply {
                        result,
                        acks,
                        data: None,
                    },
                );
                out.send(reply);
            }
            SyncPolicy::Unc => {
                // UNC: caching disabled, plain request/reply.
                let reply = self.reply_to(
                    &msg,
                    MsgKind::AtomicReply {
                        result,
                        acks: 0,
                        data: None,
                    },
                );
                out.send(reply);
            }
        }
        Ok(())
    }

    fn handle_writeback(
        &mut self,
        msg: Msg,
        map: &AddressMap,
        out: &mut Outbox,
    ) -> Result<(), ProtocolError> {
        let data = match msg.kind {
            MsgKind::WriteBack { data } => data,
            ref other => {
                return Err(self.err(
                    ProtocolErrorKind::UnexpectedMessage,
                    msg.line,
                    format!("handle_writeback got {other:?}"),
                ))
            }
        };
        *self.mem_line(msg.line) = data;
        if self.is_busy(msg.line) {
            // Crossed with an intervention to the (former) owner.
            let node = self.node;
            let busy = self
                .dir
                .get_mut(&msg.line)
                .and_then(|e| e.busy.as_mut())
                .ok_or_else(|| {
                    ProtocolError::new(
                        ProtocolErrorKind::MissingRequest,
                        "busy line lost its intervention record",
                    )
                    .on_line(msg.line)
                    .at(node)
                })?;
            busy.got_writeback = true;
            if busy.got_nak {
                self.resolve_after_owner_gone(msg.line, map, out)?;
            }
            return Ok(());
        }
        if *self.dir_state(msg.line) != DirState::Dirty(msg.src) {
            return Err(self.err(
                ProtocolErrorKind::DirectoryMismatch,
                msg.line,
                format!(
                    "write-back from non-owner {} (state {:?})",
                    msg.src,
                    self.dir_state(msg.line)
                ),
            ));
        }
        self.set_state(msg.line, DirState::Uncached);
        Ok(())
    }

    fn handle_drop_shared(&mut self, msg: &Msg) {
        if let Some(entry) = self.dir.get_mut(&msg.line) {
            if let DirState::Shared(s) = &mut entry.state {
                s.remove(msg.src);
                if s.is_empty() {
                    entry.state = DirState::Uncached;
                }
            }
        }
    }

    fn handle_fwd_nak(
        &mut self,
        msg: Msg,
        map: &AddressMap,
        out: &mut Outbox,
    ) -> Result<(), ProtocolError> {
        let node = self.node;
        let busy = self
            .dir
            .get_mut(&msg.line)
            .and_then(|e| e.busy.as_mut())
            .ok_or_else(|| {
                ProtocolError::new(
                    ProtocolErrorKind::MissingRequest,
                    format!("NAK from {} without an outstanding intervention", msg.src),
                )
                .on_line(msg.line)
                .at(node)
            })?;
        if let BusyKind::Share { forwarder } = &busy.kind {
            let forwarder = *forwarder;
            // The clean sharer silently evicted its copy; unlike an
            // exclusive owner there is no write-back to wait for.
            // Forget the stale sharer and re-serve the read from
            // memory; the wasted forward + NAK legs stay on the
            // request's critical path.
            let busy = self
                .dir
                .get_mut(&msg.line)
                .and_then(|e| e.busy.take())
                .expect("checked busy above");
            if let Some(entry) = self.dir.get_mut(&msg.line) {
                if let DirState::Shared(s) = &mut entry.state {
                    s.remove(forwarder);
                    if s.is_empty() {
                        entry.state = DirState::Uncached;
                    }
                }
            }
            let mut request = busy.request;
            request.chain += 2;
            self.handle_request(request, map, out)?;
            return self.drain_waiters(msg.line, map, out);
        }
        busy.got_nak = true;
        if busy.got_writeback {
            self.resolve_after_owner_gone(msg.line, map, out)?;
        }
        // Otherwise wait: the owner's write-back is in flight and must
        // arrive (E lines always write back when dropped or evicted).
        Ok(())
    }

    /// A [`MsgKind::FwdShare`] forwarder confirms it supplied the data:
    /// record the requester as a sharer and release the line.
    fn handle_share_ack(
        &mut self,
        msg: Msg,
        map: &AddressMap,
        out: &mut Outbox,
    ) -> Result<(), ProtocolError> {
        let busy = self
            .dir
            .get_mut(&msg.line)
            .and_then(|e| e.busy.take())
            .ok_or_else(|| {
                self.err(
                    ProtocolErrorKind::MissingRequest,
                    msg.line,
                    format!("FwdShareAck from {} without an intervention", msg.src),
                )
            })?;
        let BusyKind::Share { forwarder } = &busy.kind else {
            return Err(self.err(
                ProtocolErrorKind::DirectoryMismatch,
                msg.line,
                format!("FwdShareAck does not match intervention {:?}", busy.kind),
            ));
        };
        let forwarder = *forwarder;
        if forwarder != msg.src {
            return Err(self.err(
                ProtocolErrorKind::DirectoryMismatch,
                msg.line,
                format!("FwdShareAck from {} but {forwarder} was asked", msg.src),
            ));
        }
        let mut sharers = match self.take_state(msg.line) {
            DirState::Shared(s) => s,
            _ => NodeSet::new(),
        };
        sharers.insert(busy.request.src);
        self.set_state(msg.line, DirState::Shared(sharers));
        self.drain_waiters(msg.line, map, out)
    }

    /// The forwarded-to owner turned out to have written the line back:
    /// serve the original request from (now current) memory. The two
    /// extra legs (forward + NAK) count on the request's critical path.
    fn resolve_after_owner_gone(
        &mut self,
        line: LineAddr,
        map: &AddressMap,
        out: &mut Outbox,
    ) -> Result<(), ProtocolError> {
        let busy = self
            .dir
            .get_mut(&line)
            .and_then(|e| {
                let busy = e.busy.take()?;
                e.state = DirState::Uncached;
                Some(busy)
            })
            .ok_or_else(|| {
                self.err(
                    ProtocolErrorKind::MissingRequest,
                    line,
                    "resolving a non-busy line".into(),
                )
            })?;
        let mut request = busy.request;
        request.chain += 2;
        self.handle_request(request, map, out)?;
        self.drain_waiters(line, map, out)
    }

    fn handle_owner_response(
        &mut self,
        msg: Msg,
        map: &AddressMap,
        out: &mut Outbox,
    ) -> Result<(), ProtocolError> {
        let busy = self
            .dir
            .get_mut(&msg.line)
            .and_then(|e| e.busy.take())
            .ok_or_else(|| {
                self.err(
                    ProtocolErrorKind::MissingRequest,
                    msg.line,
                    format!(
                        "owner response {:?} from {} without an intervention",
                        msg.kind, msg.src
                    ),
                )
            })?;
        let req = busy.request;
        // The response payload is moved out of `msg.kind` exactly once:
        // one (inline, allocation-free) copy refreshes memory, the
        // original moves on into the reply.
        match (&busy.kind, msg.kind) {
            (BusyKind::GetS, MsgKind::SwbData { data }) => {
                // Owner downgraded to shared.
                let mut sharers = NodeSet::singleton(msg.src);
                sharers.insert(req.src);
                self.set_state(msg.line, DirState::Shared(sharers));
                *self.mem_line(msg.line) = data.clone();
                out.send(Msg {
                    src: self.node,
                    dst: req.src,
                    line: req.line,
                    addr: req.addr,
                    proc: req.proc,
                    chain: msg.chain + 1,
                    kind: MsgKind::DataS { data },
                });
            }
            (BusyKind::GetX, MsgKind::XferData { data }) => {
                self.set_state(msg.line, DirState::Dirty(req.src));
                *self.mem_line(msg.line) = data.clone();
                out.send(Msg {
                    src: self.node,
                    dst: req.src,
                    line: req.line,
                    addr: req.addr,
                    proc: req.proc,
                    chain: msg.chain + 1,
                    kind: MsgKind::DataX { data, acks: 0 },
                });
            }
            (BusyKind::Cas { .. }, MsgKind::XferData { data }) => {
                // Compare succeeded at the owner; requester acquires an
                // exclusive copy and applies the swap locally.
                let MsgKind::CasHome { expected, .. } = req.kind else {
                    return Err(self.err(
                        ProtocolErrorKind::DirectoryMismatch,
                        msg.line,
                        format!("CAS busy state holds a non-CAS request {:?}", req.kind),
                    ));
                };
                self.set_state(msg.line, DirState::Dirty(req.src));
                *self.mem_line(msg.line) = data.clone();
                out.send(Msg {
                    src: self.node,
                    dst: req.src,
                    line: req.line,
                    addr: req.addr,
                    proc: req.proc,
                    chain: msg.chain + 1,
                    kind: MsgKind::CasGrant {
                        data: Some(data),
                        acks: 0,
                        observed: expected,
                    },
                });
            }
            (
                BusyKind::Cas { .. },
                MsgKind::OwnerCasFail {
                    observed,
                    data,
                    kept_exclusive,
                },
            ) => {
                *self.mem_line(msg.line) = data.clone();
                let share_data = if kept_exclusive {
                    // INVd: owner kept its exclusive copy; requester gets
                    // nothing.
                    self.set_state(msg.line, DirState::Dirty(msg.src));
                    None
                } else {
                    // INVs: owner downgraded; requester gets a read-only
                    // copy.
                    let mut sharers = NodeSet::singleton(msg.src);
                    sharers.insert(req.src);
                    self.set_state(msg.line, DirState::Shared(sharers));
                    Some(data)
                };
                out.send(Msg {
                    src: self.node,
                    dst: req.src,
                    line: req.line,
                    addr: req.addr,
                    proc: req.proc,
                    chain: msg.chain + 1,
                    kind: MsgKind::CasFail {
                        observed,
                        share_data,
                    },
                });
            }
            (BusyKind::Atomic, MsgKind::XferData { data }) => {
                // Home-node atomic recalled a dirty copy: memory is now
                // current, so re-run the operation here. The recall and
                // transfer legs ride on the request's critical path.
                *self.mem_line(msg.line) = data;
                self.set_state(msg.line, DirState::Uncached);
                let mut request = req;
                request.chain += 2;
                self.handle_request(request, map, out)?;
            }
            (kind, resp) => {
                return Err(self.err(
                    ProtocolErrorKind::DirectoryMismatch,
                    msg.line,
                    format!("owner response {resp:?} does not match intervention {kind:?}"),
                ))
            }
        }
        self.drain_waiters(msg.line, map, out)
    }

    /// Serves queued requests after a transaction completes; stops if a
    /// served request makes the line busy again.
    fn drain_waiters(
        &mut self,
        line: LineAddr,
        map: &AddressMap,
        out: &mut Outbox,
    ) -> Result<(), ProtocolError> {
        loop {
            let entry = self.dir.entry(line).or_default();
            if entry.is_busy() {
                return Ok(());
            }
            let Some(next) = entry.waiters.pop_front() else {
                return Ok(());
            };
            self.handle_request(next, map, out)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_sim::{Addr, ProcId};

    const HOME: NodeId = NodeId::new(0);
    const R1: NodeId = NodeId::new(1);
    const R2: NodeId = NodeId::new(2);
    const LINE: LineAddr = LineAddr::new(0);
    const A: Addr = Addr::new(0);

    fn home() -> HomeNode {
        HomeNode::new(HOME, 32, 64)
    }

    fn map() -> AddressMap {
        AddressMap::new(32)
    }

    fn req(src: NodeId, kind: MsgKind) -> Msg {
        Msg {
            src,
            dst: HOME,
            line: LINE,
            addr: A,
            proc: ProcId::new(src.as_u32()),
            chain: 1,
            kind,
        }
    }

    fn handle(h: &mut HomeNode, m: Msg) -> Vec<Msg> {
        let mut out = Outbox::new();
        h.handle(m, &map(), &mut out).unwrap();
        out.drain()
    }

    #[test]
    fn gets_on_uncached_replies_data_s() {
        let mut h = home();
        h.poke_word(A, 42);
        let out = handle(&mut h, req(R1, MsgKind::GetS));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, R1);
        assert_eq!(out[0].chain, 2);
        match &out[0].kind {
            MsgKind::DataS { data } => assert_eq!(data.word(A), 42),
            other => panic!("expected DataS, got {other:?}"),
        }
        assert!(matches!(h.dir_state(LINE), DirState::Shared(_)));
    }

    #[test]
    fn getx_on_shared_invalidates_others() {
        let mut h = home();
        for r in [R1, R2] {
            handle(&mut h, req(r, MsgKind::GetS));
        }
        let out = handle(&mut h, req(R1, MsgKind::GetX { from_shared: true }));
        // One Inv to R2, one UpgradeAck to R1.
        assert_eq!(out.len(), 2);
        let inv = out
            .iter()
            .find(|m| matches!(m.kind, MsgKind::Inv { .. }))
            .unwrap();
        assert_eq!(inv.dst, R2);
        assert_eq!(inv.chain, 2);
        let ack = out
            .iter()
            .find(|m| matches!(m.kind, MsgKind::UpgradeAck { .. }))
            .unwrap();
        assert_eq!(ack.dst, R1);
        match ack.kind {
            MsgKind::UpgradeAck { acks } => assert_eq!(acks, 1),
            _ => unreachable!(),
        }
        assert_eq!(h.dir_state(LINE), &DirState::Dirty(R1));
    }

    #[test]
    fn getx_on_dirty_forwards_and_routes_through_home() {
        let mut h = home();
        handle(&mut h, req(R1, MsgKind::GetX { from_shared: false }));
        assert_eq!(h.dir_state(LINE), &DirState::Dirty(R1));

        // R2 wants it: home forwards to R1.
        let out = handle(&mut h, req(R2, MsgKind::GetX { from_shared: false }));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, R1);
        assert!(matches!(out[0].kind, MsgKind::FwdGetX));
        assert_eq!(out[0].chain, 2);
        assert!(h.is_busy(LINE));

        // Owner responds with the line; home replies to R2 with chain 4.
        let mut xfer = req(
            R1,
            MsgKind::XferData {
                data: LineData::zeroed(32),
            },
        );
        xfer.chain = 3;
        let out = handle(&mut h, xfer);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, R2);
        assert_eq!(
            out[0].chain, 4,
            "Table 1: remote exclusive store = 4 serialized messages"
        );
        assert!(matches!(out[0].kind, MsgKind::DataX { .. }));
        assert_eq!(h.dir_state(LINE), &DirState::Dirty(R2));
        assert!(!h.is_busy(LINE));
    }

    #[test]
    fn requests_queue_behind_busy_lines() {
        let mut h = home();
        handle(&mut h, req(R1, MsgKind::GetX { from_shared: false }));
        handle(&mut h, req(R2, MsgKind::GetX { from_shared: false })); // busy now
        let out = handle(&mut h, req(NodeId::new(3), MsgKind::GetS));
        assert!(out.is_empty(), "request while busy must queue, not reply");
        assert_eq!(h.queued_requests(), 1);

        // Owner response releases the queue: reply to R2 AND service of
        // node 3's GetS (a new forward to the new owner R2).
        let mut xfer = req(
            R1,
            MsgKind::XferData {
                data: LineData::zeroed(32),
            },
        );
        xfer.chain = 3;
        let out = handle(&mut h, xfer);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].kind, MsgKind::DataX { .. }));
        assert!(matches!(out[1].kind, MsgKind::FwdGetS));
        assert_eq!(out[1].dst, R2);
        assert_eq!(h.queued_requests(), 0);
    }

    #[test]
    fn writeback_nak_race_resolves_from_memory() {
        let mut h = home();
        handle(&mut h, req(R1, MsgKind::GetX { from_shared: false }));
        // R2 requests; home forwards to R1 and goes busy.
        handle(&mut h, req(R2, MsgKind::GetS));
        assert!(h.is_busy(LINE));

        // R1's write-back (sent before it saw the forward) arrives.
        let mut wb_data = LineData::zeroed(32);
        wb_data.set_word(A, 77);
        handle(&mut h, req(R1, MsgKind::WriteBack { data: wb_data }));
        assert!(h.is_busy(LINE), "still waiting for the NAK");

        // R1 NAKs the forward; home serves R2 from memory.
        let out = handle(&mut h, req(R1, MsgKind::FwdNak));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, R2);
        match &out[0].kind {
            MsgKind::DataS { data } => assert_eq!(data.word(A), 77),
            other => panic!("expected DataS, got {other:?}"),
        }
        // Forward + NAK legs count on the critical path: 1+2 extra, +1.
        assert_eq!(out[0].chain, 4);
        assert!(!h.is_busy(LINE));
    }

    #[test]
    fn nak_before_writeback_also_resolves() {
        let mut h = home();
        handle(&mut h, req(R1, MsgKind::GetX { from_shared: false }));
        handle(&mut h, req(R2, MsgKind::GetS));
        let out = handle(&mut h, req(R1, MsgKind::FwdNak));
        assert!(out.is_empty(), "must wait for the write-back");
        let out = handle(
            &mut h,
            req(
                R1,
                MsgKind::WriteBack {
                    data: LineData::zeroed(32),
                },
            ),
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].kind, MsgKind::DataS { .. }));
    }

    #[test]
    fn plain_writeback_returns_line_to_memory() {
        let mut h = home();
        handle(&mut h, req(R1, MsgKind::GetX { from_shared: false }));
        let mut data = LineData::zeroed(32);
        data.set_word(A, 5);
        handle(&mut h, req(R1, MsgKind::WriteBack { data }));
        assert_eq!(h.dir_state(LINE), &DirState::Uncached);
        assert_eq!(h.peek_word(A), 5);
    }

    #[test]
    fn drop_shared_removes_sharer() {
        let mut h = home();
        handle(&mut h, req(R1, MsgKind::GetS));
        handle(&mut h, req(R2, MsgKind::GetS));
        handle(&mut h, req(R1, MsgKind::DropShared));
        match h.dir_state(LINE) {
            DirState::Shared(s) => {
                assert!(!s.contains(R1));
                assert!(s.contains(R2));
            }
            other => panic!("expected Shared, got {other:?}"),
        }
        handle(&mut h, req(R2, MsgKind::DropShared));
        assert_eq!(h.dir_state(LINE), &DirState::Uncached);
    }

    #[test]
    fn cas_home_success_grants_exclusive() {
        let mut h = home();
        h.poke_word(A, 10);
        let out = handle(
            &mut h,
            req(
                R1,
                MsgKind::CasHome {
                    expected: 10,
                    new: 11,
                    variant: CasVariant::Deny,
                },
            ),
        );
        assert_eq!(out.len(), 1);
        match &out[0].kind {
            MsgKind::CasGrant {
                data,
                acks,
                observed,
            } => {
                assert!(data.is_some());
                assert_eq!(*acks, 0);
                assert_eq!(*observed, 10);
            }
            other => panic!("expected CasGrant, got {other:?}"),
        }
        assert_eq!(h.dir_state(LINE), &DirState::Dirty(R1));
    }

    #[test]
    fn cas_home_failure_deny_gives_no_copy() {
        let mut h = home();
        h.poke_word(A, 10);
        let out = handle(
            &mut h,
            req(
                R1,
                MsgKind::CasHome {
                    expected: 99,
                    new: 11,
                    variant: CasVariant::Deny,
                },
            ),
        );
        match &out[0].kind {
            MsgKind::CasFail {
                observed,
                share_data,
            } => {
                assert_eq!(*observed, 10);
                assert!(share_data.is_none());
            }
            other => panic!("expected CasFail, got {other:?}"),
        }
        assert_eq!(
            h.dir_state(LINE),
            &DirState::Uncached,
            "INVd: no copy handed out"
        );
    }

    #[test]
    fn cas_home_failure_share_gives_read_only_copy() {
        let mut h = home();
        h.poke_word(A, 10);
        let out = handle(
            &mut h,
            req(
                R1,
                MsgKind::CasHome {
                    expected: 99,
                    new: 11,
                    variant: CasVariant::Share,
                },
            ),
        );
        match &out[0].kind {
            MsgKind::CasFail { share_data, .. } => assert!(share_data.is_some()),
            other => panic!("expected CasFail, got {other:?}"),
        }
        match h.dir_state(LINE) {
            DirState::Shared(s) => assert!(s.contains(R1)),
            other => panic!("expected Shared, got {other:?}"),
        }
    }

    #[test]
    fn cas_home_forwards_to_dirty_owner() {
        let mut h = home();
        handle(&mut h, req(R1, MsgKind::GetX { from_shared: false }));
        let out = handle(
            &mut h,
            req(
                R2,
                MsgKind::CasHome {
                    expected: 0,
                    new: 1,
                    variant: CasVariant::Share,
                },
            ),
        );
        assert!(matches!(out[0].kind, MsgKind::FwdCas { .. }));
        assert_eq!(out[0].dst, R1);

        // Owner reports failure, keeping nothing (INVs): shared copies.
        let mut fail = req(
            R1,
            MsgKind::OwnerCasFail {
                observed: 9,
                data: LineData::zeroed(32),
                kept_exclusive: false,
            },
        );
        fail.chain = 3;
        let out = handle(&mut h, fail);
        assert_eq!(out[0].dst, R2);
        assert_eq!(out[0].chain, 4);
        match &out[0].kind {
            MsgKind::CasFail {
                observed,
                share_data,
            } => {
                assert_eq!(*observed, 9);
                assert!(share_data.is_some());
            }
            other => panic!("expected CasFail, got {other:?}"),
        }
        match h.dir_state(LINE) {
            DirState::Shared(s) => {
                assert!(s.contains(R1) && s.contains(R2));
            }
            other => panic!("expected Shared, got {other:?}"),
        }
    }

    #[test]
    fn sc_inv_succeeds_only_for_sharers() {
        let mut h = home();
        handle(&mut h, req(R1, MsgKind::GetS));
        handle(&mut h, req(R2, MsgKind::GetS));
        let out = handle(&mut h, req(R1, MsgKind::ScInv));
        let reply = out
            .iter()
            .find(|m| matches!(m.kind, MsgKind::ScInvReply { .. }))
            .unwrap();
        match reply.kind {
            MsgKind::ScInvReply { success, acks } => {
                assert!(success);
                assert_eq!(acks, 1);
            }
            _ => unreachable!(),
        }
        assert_eq!(h.dir_state(LINE), &DirState::Dirty(R1));

        // Non-sharer SC fails (line now exclusive).
        let out = handle(&mut h, req(R2, MsgKind::ScInv));
        match out[0].kind {
            MsgKind::ScInvReply { success, .. } => assert!(!success),
            _ => unreachable!(),
        }
    }

    #[test]
    fn unc_atomic_fetch_and_add() {
        let mut h = home();
        let mut m = map();
        m.register(
            A,
            crate::types::SyncConfig {
                policy: SyncPolicy::Unc,
                ..Default::default()
            },
        );
        let mut out = Outbox::new();
        h.handle(
            req(
                R1,
                MsgKind::AtomicMem {
                    op: MemOp::FetchPhi {
                        addr: A,
                        op: crate::types::PhiOp::Add(5),
                    },
                },
            ),
            &m,
            &mut out,
        )
        .unwrap();
        let msgs = out.drain();
        assert_eq!(msgs.len(), 1);
        assert_eq!(
            msgs[0].chain, 2,
            "Table 1: uncached store = 2 serialized messages"
        );
        match msgs[0].kind {
            MsgKind::AtomicReply {
                result: OpResult::Fetched { old },
                acks,
                ..
            } => {
                assert_eq!(old, 0);
                assert_eq!(acks, 0);
            }
            ref other => panic!("expected AtomicReply, got {other:?}"),
        }
        assert_eq!(h.peek_word(A), 5);
    }

    #[test]
    fn upd_write_updates_sharers() {
        let mut h = home();
        let mut m = map();
        m.register(
            A,
            crate::types::SyncConfig {
                policy: SyncPolicy::Upd,
                ..Default::default()
            },
        );
        // R1 and R2 read (allocating shared copies) via GetS.
        let mut out = Outbox::new();
        h.handle(req(R1, MsgKind::GetS), &m, &mut out).unwrap();
        h.handle(req(R2, MsgKind::GetS), &m, &mut out).unwrap();
        out.drain();

        // R1 stores: R2 gets an Update, R1 gets the reply with new data.
        let mut out = Outbox::new();
        h.handle(
            req(
                R1,
                MsgKind::AtomicMem {
                    op: MemOp::Store { addr: A, value: 8 },
                },
            ),
            &m,
            &mut out,
        )
        .unwrap();
        let msgs = out.drain();
        assert_eq!(msgs.len(), 2);
        let upd = msgs
            .iter()
            .find(|x| matches!(x.kind, MsgKind::Update { .. }))
            .unwrap();
        assert_eq!(upd.dst, R2);
        let reply = msgs
            .iter()
            .find(|x| matches!(x.kind, MsgKind::AtomicReply { .. }))
            .unwrap();
        match &reply.kind {
            MsgKind::AtomicReply { acks, data, .. } => {
                assert_eq!(*acks, 1);
                assert_eq!(data.as_ref().unwrap().word(A), 8);
            }
            _ => unreachable!(),
        }
        assert_eq!(h.peek_word(A), 8);
    }

    #[test]
    fn upd_failed_cas_sends_no_updates() {
        let mut h = home();
        let mut m = map();
        m.register(
            A,
            crate::types::SyncConfig {
                policy: SyncPolicy::Upd,
                ..Default::default()
            },
        );
        let mut out = Outbox::new();
        h.handle(req(R2, MsgKind::GetS), &m, &mut out).unwrap();
        out.drain();
        let mut out = Outbox::new();
        h.handle(
            req(
                R1,
                MsgKind::AtomicMem {
                    op: MemOp::Cas {
                        addr: A,
                        expected: 9,
                        new: 1,
                    },
                },
            ),
            &m,
            &mut out,
        )
        .unwrap();
        let msgs = out.drain();
        assert_eq!(msgs.len(), 1, "failed CAS must not generate updates");
        match msgs[0].kind {
            MsgKind::AtomicReply {
                result: OpResult::CasDone { success, observed },
                ..
            } => {
                assert!(!success);
                assert_eq!(observed, 0);
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mesif_forwards_read_to_sharer_and_acks() {
        let mut h = home();
        h.set_topology(ProtoVariant::MesiF, 8, 64, 1);
        h.poke_word(A, 9);
        handle(&mut h, req(R1, MsgKind::GetS));

        // Second reader: the existing sharer supplies the line.
        let out = handle(&mut h, req(R2, MsgKind::GetS));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, R1);
        assert_eq!(out[0].chain, 2);
        match out[0].kind {
            MsgKind::FwdShare { requester } => assert_eq!(requester, R2),
            ref other => panic!("expected FwdShare, got {other:?}"),
        }
        assert!(h.is_busy(LINE));

        // Forwarder confirms; requester becomes a sharer, line released.
        let mut ack = req(R1, MsgKind::FwdShareAck);
        ack.chain = 3;
        let out = handle(&mut h, ack);
        assert!(out.is_empty(), "the data leg went straight to R2");
        assert!(!h.is_busy(LINE));
        match h.dir_state(LINE) {
            DirState::Shared(s) => assert!(s.contains(R1) && s.contains(R2)),
            other => panic!("expected Shared, got {other:?}"),
        }
    }

    #[test]
    fn mesif_stale_sharer_nak_falls_back_to_memory() {
        let mut h = home();
        h.set_topology(ProtoVariant::MesiF, 8, 64, 1);
        h.poke_word(A, 13);
        handle(&mut h, req(R1, MsgKind::GetS));
        handle(&mut h, req(R2, MsgKind::GetS)); // FwdShare to R1, busy

        // R1 silently evicted: NAK. Home serves memory with the wasted
        // forward + NAK legs on the critical path.
        let mut nak = req(R1, MsgKind::FwdNak);
        nak.chain = 3;
        let out = handle(&mut h, nak);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, R2);
        assert_eq!(out[0].chain, 4);
        match &out[0].kind {
            MsgKind::DataS { data } => assert_eq!(data.word(A), 13),
            other => panic!("expected DataS, got {other:?}"),
        }
        assert!(!h.is_busy(LINE));
        match h.dir_state(LINE) {
            DirState::Shared(s) => {
                assert!(!s.contains(R1), "stale sharer pruned");
                assert!(s.contains(R2));
            }
            other => panic!("expected Shared, got {other:?}"),
        }
    }

    #[test]
    fn hier_forwards_only_within_the_cluster() {
        let mut h = home();
        // 64 nodes, 4 clusters of 16: node 1 and node 2 share cluster
        // 0; node 20 lives in cluster 1.
        h.set_topology(ProtoVariant::Hier, 8, 64, 4);
        handle(&mut h, req(R1, MsgKind::GetS));

        // Remote-cluster reader: no eligible forwarder, memory serves.
        let out = handle(&mut h, req(NodeId::new(20), MsgKind::GetS));
        assert!(matches!(out[0].kind, MsgKind::DataS { .. }));

        // Same-cluster reader: the cluster-local sharer forwards.
        let out = handle(&mut h, req(R2, MsgKind::GetS));
        assert!(matches!(out[0].kind, MsgKind::FwdShare { .. }));
        assert_eq!(out[0].dst, R1);
    }

    fn hna_map() -> AddressMap {
        let mut m = AddressMap::new(32);
        m.register(
            A,
            crate::types::SyncConfig {
                policy: SyncPolicy::Inv,
                home_atomics: true,
                ..Default::default()
            },
        );
        m
    }

    fn handle_hna(h: &mut HomeNode, m: Msg) -> Vec<Msg> {
        let mut out = Outbox::new();
        h.handle(m, &hna_map(), &mut out).unwrap();
        out.drain()
    }

    #[test]
    fn home_atomic_on_uncached_line_is_two_messages() {
        let mut h = home();
        h.poke_word(A, 40);
        let out = handle_hna(
            &mut h,
            req(
                R1,
                MsgKind::AtomicMem {
                    op: MemOp::FetchPhi {
                        addr: A,
                        op: crate::types::PhiOp::Add(2),
                    },
                },
            ),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].chain, 2, "uncached home-node atomic = 2 messages");
        match out[0].kind {
            MsgKind::AtomicReply {
                result: OpResult::Fetched { old },
                acks,
                ref data,
            } => {
                assert_eq!(old, 40);
                assert_eq!(acks, 0);
                assert!(data.is_none());
            }
            ref other => panic!("expected AtomicReply, got {other:?}"),
        }
        assert_eq!(h.peek_word(A), 42);
        assert_eq!(h.dir_state(LINE), &DirState::Uncached);
    }

    #[test]
    fn home_atomic_invalidates_stale_sharers() {
        let mut h = home();
        // R2 holds a read-only copy (loads cache normally on HNA lines).
        handle_hna(&mut h, req(R2, MsgKind::GetS));
        let out = handle_hna(
            &mut h,
            req(
                R1,
                MsgKind::AtomicMem {
                    op: MemOp::FetchPhi {
                        addr: A,
                        op: crate::types::PhiOp::Add(1),
                    },
                },
            ),
        );
        assert_eq!(out.len(), 2);
        let inv = out
            .iter()
            .find(|m| matches!(m.kind, MsgKind::Inv { .. }))
            .unwrap();
        assert_eq!(inv.dst, R2);
        match inv.kind {
            MsgKind::Inv { requester } => assert_eq!(requester, R1),
            _ => unreachable!(),
        }
        let reply = out
            .iter()
            .find(|m| matches!(m.kind, MsgKind::AtomicReply { .. }))
            .unwrap();
        match reply.kind {
            MsgKind::AtomicReply { acks, .. } => assert_eq!(acks, 1),
            _ => unreachable!(),
        }
        assert_eq!(h.dir_state(LINE), &DirState::Uncached);
    }

    #[test]
    fn failed_home_cas_leaves_sharers_alone() {
        let mut h = home();
        handle_hna(&mut h, req(R2, MsgKind::GetS));
        let out = handle_hna(
            &mut h,
            req(
                R1,
                MsgKind::AtomicMem {
                    op: MemOp::Cas {
                        addr: A,
                        expected: 99,
                        new: 1,
                    },
                },
            ),
        );
        assert_eq!(out.len(), 1, "nothing written: no invalidations");
        match out[0].kind {
            MsgKind::AtomicReply {
                result: OpResult::CasDone { success, .. },
                acks,
                ..
            } => {
                assert!(!success);
                assert_eq!(acks, 0);
            }
            ref other => panic!("expected AtomicReply, got {other:?}"),
        }
        match h.dir_state(LINE) {
            DirState::Shared(s) => assert!(s.contains(R2), "copy still valid"),
            other => panic!("expected Shared, got {other:?}"),
        }
    }

    #[test]
    fn home_atomic_recalls_dirty_line_then_executes() {
        let mut h = home();
        // R2 owns the line exclusively (e.g. via a plain store).
        handle_hna(&mut h, req(R2, MsgKind::GetX { from_shared: false }));
        let out = handle_hna(
            &mut h,
            req(
                R1,
                MsgKind::AtomicMem {
                    op: MemOp::FetchPhi {
                        addr: A,
                        op: crate::types::PhiOp::Add(1),
                    },
                },
            ),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, R2);
        assert!(matches!(out[0].kind, MsgKind::FwdGetX));
        assert!(h.is_busy(LINE));

        // Owner transfers its (dirty) copy; the operation then runs
        // against current memory: 4 serialized messages, as for a
        // remote-exclusive access in Table 1.
        let mut data = LineData::zeroed(32);
        data.set_word(A, 70);
        let mut xfer = req(R2, MsgKind::XferData { data });
        xfer.chain = 3;
        let out = handle_hna(&mut h, xfer);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, R1);
        assert_eq!(out[0].chain, 4);
        match out[0].kind {
            MsgKind::AtomicReply {
                result: OpResult::Fetched { old },
                ..
            } => assert_eq!(old, 70),
            ref other => panic!("expected AtomicReply, got {other:?}"),
        }
        assert_eq!(h.peek_word(A), 71);
        assert_eq!(h.dir_state(LINE), &DirState::Uncached);
        assert!(!h.is_busy(LINE));
    }

    #[test]
    fn unc_ll_sc_round_trip() {
        let mut h = home();
        let mut m = map();
        m.register(
            A,
            crate::types::SyncConfig {
                policy: SyncPolicy::Unc,
                ..Default::default()
            },
        );
        let mut out = Outbox::new();
        h.handle(
            req(
                R1,
                MsgKind::AtomicMem {
                    op: MemOp::LoadLinked { addr: A },
                },
            ),
            &m,
            &mut out,
        )
        .unwrap();
        match out.drain()[0].kind {
            MsgKind::AtomicReply {
                result: OpResult::Loaded { reserved, .. },
                ..
            } => {
                assert!(reserved)
            }
            ref other => panic!("unexpected {other:?}"),
        }
        let mut out = Outbox::new();
        h.handle(
            req(
                R1,
                MsgKind::AtomicMem {
                    op: MemOp::StoreConditional {
                        addr: A,
                        value: 3,
                        serial: None,
                    },
                },
            ),
            &m,
            &mut out,
        )
        .unwrap();
        match out.drain()[0].kind {
            MsgKind::AtomicReply {
                result: OpResult::ScDone { success },
                ..
            } => assert!(success),
            ref other => panic!("unexpected {other:?}"),
        }
        assert_eq!(h.peek_word(A), 3);

        // A second SC without a fresh LL fails.
        let mut out = Outbox::new();
        h.handle(
            req(
                R1,
                MsgKind::AtomicMem {
                    op: MemOp::StoreConditional {
                        addr: A,
                        value: 4,
                        serial: None,
                    },
                },
            ),
            &m,
            &mut out,
        )
        .unwrap();
        match out.drain()[0].kind {
            MsgKind::AtomicReply {
                result: OpResult::ScDone { success },
                ..
            } => assert!(!success),
            ref other => panic!("unexpected {other:?}"),
        }
        assert_eq!(h.peek_word(A), 3);
    }
}
