//! Coherence protocol messages.
//!
//! All coherence traffic flows between cache controllers and home nodes
//! (plus home-directed interventions to owners and sharers). There are
//! no cache-to-cache data transfers: intervention replies route through
//! the home node, which is what gives the "4 serialized messages for a
//! store to a remote exclusive line" of Table 1.

use crate::data::LineData;
use crate::types::{CasVariant, OpResult, PhiOp, Value};
use dsm_sim::{Addr, LineAddr, NodeId, ProcId};
use dsm_stats::MsgClass;

/// An operation executed at the memory module (UNC and UPD policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemAtomicOp {
    /// Read a word (UNC loads).
    Load,
    /// Write a word.
    Store {
        /// Value to store.
        value: Value,
    },
    /// Fetch-and-Φ.
    Phi {
        /// The Φ function.
        op: PhiOp,
    },
    /// Compare-and-swap.
    Cas {
        /// Expected value.
        expected: Value,
        /// Replacement value.
        new: Value,
    },
    /// Load-linked: read and set a reservation.
    Ll,
    /// Store-conditional: check the reservation, then write.
    Sc {
        /// Value to store on success.
        value: Value,
        /// Expected serial number (serial-number scheme only).
        serial: Option<u64>,
    },
}

impl MemAtomicOp {
    /// Whether a *successful* execution writes memory.
    pub fn writes(self) -> bool {
        matches!(
            self,
            MemAtomicOp::Store { .. }
                | MemAtomicOp::Phi { .. }
                | MemAtomicOp::Cas { .. }
                | MemAtomicOp::Sc { .. }
        )
    }

    /// Folds the operation into a state digest.
    pub fn digest(self, h: &mut dsm_sim::StableHasher) {
        match self {
            MemAtomicOp::Load => h.write_u8(0),
            MemAtomicOp::Store { value } => {
                h.write_u8(1);
                h.write_u64(value);
            }
            MemAtomicOp::Phi { op } => {
                h.write_u8(2);
                op.digest(h);
            }
            MemAtomicOp::Cas { expected, new } => {
                h.write_u8(3);
                h.write_u64(expected);
                h.write_u64(new);
            }
            MemAtomicOp::Ll => h.write_u8(4),
            MemAtomicOp::Sc { value, serial } => {
                h.write_u8(5);
                h.write_u64(value);
                match serial {
                    Some(s) => {
                        h.write_u8(1);
                        h.write_u64(s);
                    }
                    None => h.write_u8(0),
                }
            }
        }
    }
}

/// The kind (and payload) of a coherence message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsgKind {
    // ---- cache -> home requests ----
    /// Request a shared copy.
    GetS,
    /// Request an exclusive copy. `from_shared` is set when the
    /// requester holds (or held) a shared copy and hopes for a data-less
    /// upgrade.
    GetX {
        /// Requester currently holds a shared copy.
        from_shared: bool,
    },
    /// Execute an operation at the memory module (UNC/UPD policies).
    AtomicMem {
        /// The operation to execute.
        op: MemAtomicOp,
    },
    /// INVd/INVs compare-and-swap: compare at home (or owner).
    CasHome {
        /// Expected value.
        expected: Value,
        /// Replacement value.
        new: Value,
        /// Deny or Share behaviour on failure.
        variant: CasVariant,
    },
    /// INV-policy store-conditional issued from a shared copy.
    ScInv,
    /// Write back a dirty line (eviction or `drop_copy`).
    WriteBack {
        /// The line contents.
        data: LineData,
    },
    /// Notify the home that a shared copy was dropped (`drop_copy`).
    DropShared,

    // ---- home -> requester replies ----
    /// Shared data reply.
    DataS {
        /// The line contents.
        data: LineData,
    },
    /// Exclusive data reply; the requester must additionally collect
    /// `acks` invalidation acknowledgments.
    DataX {
        /// The line contents.
        data: LineData,
        /// Invalidation acks the requester must collect.
        acks: u32,
    },
    /// Exclusive granted without data (requester's shared copy is
    /// current); collect `acks` acknowledgments.
    UpgradeAck {
        /// Invalidation acks the requester must collect.
        acks: u32,
    },
    /// INVd/INVs compare succeeded: exclusive granted; apply the swap
    /// locally.
    CasGrant {
        /// Line contents (`None` when the requester's shared copy is
        /// current).
        data: Option<LineData>,
        /// Invalidation acks the requester must collect.
        acks: u32,
        /// The observed (matching) value.
        observed: Value,
    },
    /// INVd/INVs compare failed.
    CasFail {
        /// The value actually observed.
        observed: Value,
        /// INVs: a read-only copy; INVd: `None`.
        share_data: Option<LineData>,
    },
    /// Reply to an [`MsgKind::AtomicMem`] request.
    AtomicReply {
        /// Result to deliver to the processor.
        result: OpResult,
        /// Update acks the requester must collect (UPD policy).
        acks: u32,
        /// New line contents for the requester's cached copy (UPD).
        data: Option<LineData>,
    },
    /// Reply to an [`MsgKind::ScInv`] request.
    ScInvReply {
        /// Whether the store-conditional succeeded.
        success: bool,
        /// Invalidation acks the requester must collect on success.
        acks: u32,
    },

    // ---- home -> third party ----
    /// Invalidate your copy; ack to `requester`.
    Inv {
        /// Node to acknowledge.
        requester: NodeId,
    },
    /// Write-update: replace your copy with `data`; ack to `requester`.
    Update {
        /// New line contents.
        data: LineData,
        /// Node to acknowledge.
        requester: NodeId,
    },
    /// Intervention: downgrade your exclusive copy to shared and send
    /// the data back to the home.
    FwdGetS,
    /// Intervention: invalidate your exclusive copy and send the data
    /// back to the home.
    FwdGetX,
    /// Intervention: compare locally (INVd/INVs CAS against a dirty
    /// owner).
    FwdCas {
        /// Expected value.
        expected: Value,
        /// Replacement value.
        new: Value,
        /// Word being compared.
        addr: Addr,
        /// Deny or Share behaviour on failure.
        variant: CasVariant,
    },
    /// MESI(F)/hierarchical read forwarding: a clean sharer is asked to
    /// send its copy directly to `requester` (and confirm to the home
    /// with [`MsgKind::FwdShareAck`]). Unlike [`MsgKind::FwdGetS`] the
    /// target keeps its copy; if it silently evicted the line it
    /// answers [`MsgKind::FwdNak`] and the home serves memory instead.
    FwdShare {
        /// Node the data should be sent to.
        requester: NodeId,
    },

    // ---- owner -> home intervention responses ----
    /// Owner invalidated itself; here is the line.
    XferData {
        /// The line contents.
        data: LineData,
    },
    /// Owner downgraded to shared; here is the line (sharing
    /// write-back).
    SwbData {
        /// The line contents.
        data: LineData,
    },
    /// Owner's local compare failed.
    OwnerCasFail {
        /// The value actually observed.
        observed: Value,
        /// The line contents (needed by INVs to give the requester a
        /// copy; also refreshes memory).
        data: LineData,
        /// INVd: owner kept its exclusive copy.
        kept_exclusive: bool,
    },
    /// Owner no longer has the line (it is being written back).
    FwdNak,
    /// Forwarder confirms a [`MsgKind::FwdShare`]: it sent its copy to
    /// the requester, which the directory should now record as a
    /// sharer.
    FwdShareAck,

    // ---- third party -> requester ----
    /// Invalidation acknowledgment.
    InvAck,
    /// Update acknowledgment.
    UpdAck,
}

impl MsgKind {
    /// Payload bytes carried (over and above the header/command flits).
    pub fn payload_bytes(&self, line_size: u64) -> u64 {
        match self {
            MsgKind::GetS
            | MsgKind::GetX { .. }
            | MsgKind::ScInv
            | MsgKind::DropShared
            | MsgKind::UpgradeAck { .. }
            | MsgKind::ScInvReply { .. }
            | MsgKind::Inv { .. }
            | MsgKind::FwdGetS
            | MsgKind::FwdGetX
            | MsgKind::FwdShare { .. }
            | MsgKind::FwdNak
            | MsgKind::FwdShareAck
            | MsgKind::InvAck
            | MsgKind::UpdAck => 0,
            MsgKind::CasHome { .. } | MsgKind::FwdCas { .. } => 16,
            MsgKind::AtomicMem { op } => match op {
                MemAtomicOp::Load | MemAtomicOp::Ll => 0,
                MemAtomicOp::Store { .. } | MemAtomicOp::Phi { .. } => 8,
                MemAtomicOp::Cas { .. } => 16,
                MemAtomicOp::Sc { serial, .. } => {
                    // The serial-number scheme widens the message (§3.1).
                    if serial.is_some() {
                        16
                    } else {
                        8
                    }
                }
            },
            MsgKind::WriteBack { .. }
            | MsgKind::DataS { .. }
            | MsgKind::DataX { .. }
            | MsgKind::XferData { .. }
            | MsgKind::SwbData { .. }
            | MsgKind::Update { .. } => line_size,
            MsgKind::CasGrant { data, .. } => 8 + data.as_ref().map_or(0, |_| line_size),
            MsgKind::CasFail { share_data, .. } => 8 + share_data.as_ref().map_or(0, |_| line_size),
            MsgKind::OwnerCasFail { .. } => 8 + line_size,
            MsgKind::AtomicReply { data, result, .. } => {
                let serial_extra = match result {
                    OpResult::Loaded {
                        serial: Some(_), ..
                    } => 8,
                    _ => 0,
                };
                8 + serial_extra + data.as_ref().map_or(0, |_| line_size)
            }
        }
    }

    /// Whether the destination processes this message at its memory
    /// module / directory (home-bound) rather than its cache controller.
    pub fn home_bound(&self) -> bool {
        matches!(
            self,
            MsgKind::GetS
                | MsgKind::GetX { .. }
                | MsgKind::AtomicMem { .. }
                | MsgKind::CasHome { .. }
                | MsgKind::ScInv
                | MsgKind::WriteBack { .. }
                | MsgKind::DropShared
                | MsgKind::XferData { .. }
                | MsgKind::SwbData { .. }
                | MsgKind::OwnerCasFail { .. }
                | MsgKind::FwdNak
                | MsgKind::FwdShareAck
        )
    }

    /// A short static name for this message kind, used as the slice
    /// label in trace output (payload-free, unlike `Debug`).
    pub fn label(&self) -> &'static str {
        match self {
            MsgKind::GetS => "GetS",
            MsgKind::GetX { .. } => "GetX",
            MsgKind::AtomicMem { .. } => "AtomicMem",
            MsgKind::CasHome { .. } => "CasHome",
            MsgKind::ScInv => "ScInv",
            MsgKind::WriteBack { .. } => "WriteBack",
            MsgKind::DropShared => "DropShared",
            MsgKind::DataS { .. } => "DataS",
            MsgKind::DataX { .. } => "DataX",
            MsgKind::UpgradeAck { .. } => "UpgradeAck",
            MsgKind::CasGrant { .. } => "CasGrant",
            MsgKind::CasFail { .. } => "CasFail",
            MsgKind::AtomicReply { .. } => "AtomicReply",
            MsgKind::ScInvReply { .. } => "ScInvReply",
            MsgKind::Inv { .. } => "Inv",
            MsgKind::Update { .. } => "Update",
            MsgKind::FwdGetS => "FwdGetS",
            MsgKind::FwdGetX => "FwdGetX",
            MsgKind::FwdCas { .. } => "FwdCas",
            MsgKind::FwdShare { .. } => "FwdShare",
            MsgKind::FwdShareAck => "FwdShareAck",
            MsgKind::XferData { .. } => "XferData",
            MsgKind::SwbData { .. } => "SwbData",
            MsgKind::OwnerCasFail { .. } => "OwnerCasFail",
            MsgKind::FwdNak => "FwdNak",
            MsgKind::InvAck => "InvAck",
            MsgKind::UpdAck => "UpdAck",
        }
    }

    /// Folds the message kind and its payload into a state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        fn opt_data(h: &mut dsm_sim::StableHasher, d: &Option<LineData>) {
            match d {
                Some(d) => {
                    h.write_u8(1);
                    d.digest(h);
                }
                None => h.write_u8(0),
            }
        }
        match self {
            MsgKind::GetS => h.write_u8(0),
            MsgKind::GetX { from_shared } => {
                h.write_u8(1);
                h.write_u8(*from_shared as u8);
            }
            MsgKind::AtomicMem { op } => {
                h.write_u8(2);
                op.digest(h);
            }
            MsgKind::CasHome {
                expected,
                new,
                variant,
            } => {
                h.write_u8(3);
                h.write_u64(*expected);
                h.write_u64(*new);
                variant.digest(h);
            }
            MsgKind::ScInv => h.write_u8(4),
            MsgKind::WriteBack { data } => {
                h.write_u8(5);
                data.digest(h);
            }
            MsgKind::DropShared => h.write_u8(6),
            MsgKind::DataS { data } => {
                h.write_u8(7);
                data.digest(h);
            }
            MsgKind::DataX { data, acks } => {
                h.write_u8(8);
                data.digest(h);
                h.write_u32(*acks);
            }
            MsgKind::UpgradeAck { acks } => {
                h.write_u8(9);
                h.write_u32(*acks);
            }
            MsgKind::CasGrant {
                data,
                acks,
                observed,
            } => {
                h.write_u8(10);
                opt_data(h, data);
                h.write_u32(*acks);
                h.write_u64(*observed);
            }
            MsgKind::CasFail {
                observed,
                share_data,
            } => {
                h.write_u8(11);
                h.write_u64(*observed);
                opt_data(h, share_data);
            }
            MsgKind::AtomicReply { result, acks, data } => {
                h.write_u8(12);
                result.digest(h);
                h.write_u32(*acks);
                opt_data(h, data);
            }
            MsgKind::ScInvReply { success, acks } => {
                h.write_u8(13);
                h.write_u8(*success as u8);
                h.write_u32(*acks);
            }
            MsgKind::Inv { requester } => {
                h.write_u8(14);
                h.write_u32(requester.as_u32());
            }
            MsgKind::Update { data, requester } => {
                h.write_u8(15);
                data.digest(h);
                h.write_u32(requester.as_u32());
            }
            MsgKind::FwdGetS => h.write_u8(16),
            MsgKind::FwdGetX => h.write_u8(17),
            MsgKind::FwdCas {
                expected,
                new,
                addr,
                variant,
            } => {
                h.write_u8(18);
                h.write_u64(*expected);
                h.write_u64(*new);
                h.write_u64(addr.as_u64());
                variant.digest(h);
            }
            MsgKind::XferData { data } => {
                h.write_u8(19);
                data.digest(h);
            }
            MsgKind::SwbData { data } => {
                h.write_u8(20);
                data.digest(h);
            }
            MsgKind::OwnerCasFail {
                observed,
                data,
                kept_exclusive,
            } => {
                h.write_u8(21);
                h.write_u64(*observed);
                data.digest(h);
                h.write_u8(*kept_exclusive as u8);
            }
            MsgKind::FwdNak => h.write_u8(22),
            MsgKind::InvAck => h.write_u8(23),
            MsgKind::UpdAck => h.write_u8(24),
            MsgKind::FwdShare { requester } => {
                h.write_u8(25);
                h.write_u32(requester.as_u32());
            }
            MsgKind::FwdShareAck => h.write_u8(26),
        }
    }

    /// The reporting class of this message.
    pub fn class(&self) -> MsgClass {
        match self {
            MsgKind::GetS
            | MsgKind::GetX { .. }
            | MsgKind::AtomicMem { .. }
            | MsgKind::CasHome { .. }
            | MsgKind::ScInv => MsgClass::Request,
            MsgKind::DataS { .. }
            | MsgKind::DataX { .. }
            | MsgKind::UpgradeAck { .. }
            | MsgKind::CasGrant { .. }
            | MsgKind::CasFail { .. }
            | MsgKind::AtomicReply { .. }
            | MsgKind::ScInvReply { .. } => MsgClass::Reply,
            MsgKind::FwdGetS
            | MsgKind::FwdGetX
            | MsgKind::FwdCas { .. }
            | MsgKind::FwdShare { .. } => MsgClass::Forward,
            MsgKind::Inv { .. } => MsgClass::Invalidate,
            MsgKind::Update { .. } => MsgClass::Update,
            MsgKind::InvAck | MsgKind::UpdAck => MsgClass::Ack,
            MsgKind::WriteBack { .. }
            | MsgKind::DropShared
            | MsgKind::XferData { .. }
            | MsgKind::SwbData { .. }
            | MsgKind::OwnerCasFail { .. }
            | MsgKind::FwdShareAck => MsgClass::WriteBack,
            MsgKind::FwdNak => MsgClass::Nak,
        }
    }

    /// The span-phase label for the service interval this message
    /// causes at its destination, used by the latency decomposition:
    /// home-bound messages occupy the directory (`"dir"`), and
    /// cache-bound ones are split by what they do to the cache —
    /// invalidation/update fan-out (`"inval"`), data replies
    /// (`"reply"`), forwarded requests (`"fwd"`), or other controller
    /// work (`"cachesvc"`).
    pub fn service_phase(&self) -> &'static str {
        if self.home_bound() {
            return "dir";
        }
        match self.class() {
            MsgClass::Invalidate | MsgClass::Update => "inval",
            MsgClass::Reply => "reply",
            MsgClass::Forward => "fwd",
            _ => "cachesvc",
        }
    }
}

/// A coherence message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// The cache line concerned.
    pub line: LineAddr,
    /// The word address the original operation targets.
    pub addr: Addr,
    /// The processor whose operation this message serves.
    pub proc: ProcId,
    /// Serialized messages on the critical path, including this one.
    pub chain: u32,
    /// Kind and payload.
    pub kind: MsgKind,
}

impl Msg {
    /// Total flits of this message under `params`.
    pub fn flits(&self, params: &dsm_sim::SimParams) -> u64 {
        params.flits_for_payload(self.kind.payload_bytes(params.line_size))
    }

    /// Folds the full message (routing header and payload) into a
    /// state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        h.write_u32(self.src.as_u32());
        h.write_u32(self.dst.as_u32());
        h.write_u64(self.line.number());
        h.write_u64(self.addr.as_u64());
        h.write_u32(self.proc.as_u32());
        h.write_u32(self.chain);
        self.kind.digest(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> LineData {
        LineData::zeroed(32)
    }

    #[test]
    fn control_messages_have_no_payload() {
        assert_eq!(MsgKind::GetS.payload_bytes(32), 0);
        assert_eq!(MsgKind::InvAck.payload_bytes(32), 0);
        assert_eq!(MsgKind::FwdNak.payload_bytes(32), 0);
    }

    #[test]
    fn data_messages_carry_the_line() {
        assert_eq!(MsgKind::DataS { data: line() }.payload_bytes(32), 32);
        assert_eq!(MsgKind::WriteBack { data: line() }.payload_bytes(32), 32);
        assert_eq!(
            MsgKind::CasFail {
                observed: 0,
                share_data: Some(line())
            }
            .payload_bytes(32),
            40
        );
        assert_eq!(
            MsgKind::CasFail {
                observed: 0,
                share_data: None
            }
            .payload_bytes(32),
            8
        );
    }

    #[test]
    fn serial_number_scheme_widens_sc_messages() {
        let plain = MsgKind::AtomicMem {
            op: MemAtomicOp::Sc {
                value: 1,
                serial: None,
            },
        };
        let serial = MsgKind::AtomicMem {
            op: MemAtomicOp::Sc {
                value: 1,
                serial: Some(7),
            },
        };
        assert!(serial.payload_bytes(32) > plain.payload_bytes(32));

        let reply_plain = MsgKind::AtomicReply {
            result: OpResult::Loaded {
                value: 0,
                serial: None,
                reserved: true,
            },
            acks: 0,
            data: None,
        };
        let reply_serial = MsgKind::AtomicReply {
            result: OpResult::Loaded {
                value: 0,
                serial: Some(3),
                reserved: true,
            },
            acks: 0,
            data: None,
        };
        assert!(reply_serial.payload_bytes(32) > reply_plain.payload_bytes(32));
    }

    #[test]
    fn home_bound_classification() {
        assert!(MsgKind::GetS.home_bound());
        assert!(MsgKind::WriteBack { data: line() }.home_bound());
        assert!(MsgKind::FwdNak.home_bound());
        assert!(!MsgKind::DataS { data: line() }.home_bound());
        assert!(!MsgKind::Inv {
            requester: NodeId::new(0)
        }
        .home_bound());
        assert!(!MsgKind::InvAck.home_bound());
    }

    #[test]
    fn classes_cover_request_reply_forward() {
        assert_eq!(MsgKind::GetS.class(), MsgClass::Request);
        assert_eq!(MsgKind::UpgradeAck { acks: 0 }.class(), MsgClass::Reply);
        assert_eq!(MsgKind::FwdGetX.class(), MsgClass::Forward);
        assert_eq!(
            MsgKind::Inv {
                requester: NodeId::new(1)
            }
            .class(),
            MsgClass::Invalidate
        );
        assert_eq!(MsgKind::UpdAck.class(), MsgClass::Ack);
    }

    #[test]
    fn flit_count_uses_params() {
        let p = dsm_sim::SimParams::default();
        let m = Msg {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            line: LineAddr::new(0),
            addr: Addr::new(0),
            proc: ProcId::new(0),
            chain: 1,
            kind: MsgKind::DataS { data: line() },
        };
        assert_eq!(m.flits(&p), p.flits_for_payload(32));
    }

    #[test]
    fn mem_atomic_write_classification() {
        assert!(MemAtomicOp::Store { value: 1 }.writes());
        assert!(MemAtomicOp::Sc {
            value: 1,
            serial: None
        }
        .writes());
        assert!(!MemAtomicOp::Load.writes());
        assert!(!MemAtomicOp::Ll.writes());
    }
}
