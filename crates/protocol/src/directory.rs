//! Directory entries kept at each home node.

use crate::msg::Msg;
use crate::nodeset::NodeSet;
use dsm_sim::NodeId;
use std::collections::VecDeque;

/// The stable directory state of one line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DirState {
    /// No cached copies; memory is current.
    #[default]
    Uncached,
    /// Read-only copies at the member nodes; memory is current.
    Shared(NodeSet),
    /// One (possibly dirty) exclusive copy at the owner.
    Dirty(NodeId),
}

impl DirState {
    /// The owner, if the line is dirty.
    pub fn owner(&self) -> Option<NodeId> {
        match self {
            DirState::Dirty(n) => Some(*n),
            _ => None,
        }
    }

    /// The sharer set, if the line is shared.
    pub fn sharers(&self) -> Option<&NodeSet> {
        match self {
            DirState::Shared(s) => Some(s),
            _ => None,
        }
    }

    /// Folds the state into a state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        match self {
            DirState::Uncached => h.write_u8(0),
            DirState::Shared(s) => {
                h.write_u8(1);
                s.digest(h);
            }
            DirState::Dirty(n) => {
                h.write_u8(2);
                h.write_u32(n.as_u32());
            }
        }
    }
}

/// Why the directory is busy (an intervention is outstanding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusyKind {
    /// A read miss was forwarded to the owner.
    GetS,
    /// A write/exclusive miss was forwarded to the owner.
    GetX,
    /// An INVd/INVs compare-and-swap was forwarded to the owner.
    Cas {
        /// Deny or Share variant.
        variant: crate::types::CasVariant,
    },
    /// A read miss was forwarded to a clean sharer (MESI(F) /
    /// hierarchical variants); the home is waiting for its
    /// [`crate::MsgKind::FwdShareAck`] (or a NAK).
    Share {
        /// The sharer asked to supply the data.
        forwarder: NodeId,
    },
    /// A home-node atomic hit a dirty line; the owner's copy was
    /// recalled ([`crate::MsgKind::FwdGetX`]) so the operation can
    /// execute against current memory.
    Atomic,
}

/// In-flight intervention bookkeeping for a busy line.
#[derive(Debug, Clone)]
pub struct Busy {
    /// What kind of request is being served.
    pub kind: BusyKind,
    /// The message that triggered the intervention (kept whole so the
    /// reply can be built from it when the owner responds).
    pub request: Msg,
    /// A crossing write-back from the old owner has arrived.
    pub got_writeback: bool,
    /// The owner NAKed the intervention (it had already written back).
    pub got_nak: bool,
}

/// One line's directory entry: stable state plus the busy/waiter
/// machinery that serializes transactions per line ("queued memory").
#[derive(Debug, Clone, Default)]
pub struct DirEntry {
    /// Stable state.
    pub state: DirState,
    /// Outstanding intervention, if any.
    pub busy: Option<Busy>,
    /// Requests queued behind the busy transaction, FIFO.
    pub waiters: VecDeque<Msg>,
}

impl BusyKind {
    /// Folds the kind into a state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        match self {
            BusyKind::GetS => h.write_u8(0),
            BusyKind::GetX => h.write_u8(1),
            BusyKind::Cas { variant } => {
                h.write_u8(2);
                variant.digest(h);
            }
            BusyKind::Share { forwarder } => {
                h.write_u8(3);
                h.write_u32(forwarder.as_u32());
            }
            BusyKind::Atomic => h.write_u8(4),
        }
    }
}

impl Busy {
    /// Folds the in-flight intervention record into a state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        self.kind.digest(h);
        self.request.digest(h);
        h.write_u8(self.got_writeback as u8);
        h.write_u8(self.got_nak as u8);
    }
}

impl DirEntry {
    /// `true` if a transaction is in flight for this line.
    pub fn is_busy(&self) -> bool {
        self.busy.is_some()
    }

    /// Folds the entry (stable state, busy record, queued waiters in
    /// FIFO order) into a state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        self.state.digest(h);
        match &self.busy {
            Some(b) => {
                h.write_u8(1);
                b.digest(h);
            }
            None => h.write_u8(0),
        }
        h.write_usize(self.waiters.len());
        for w in &self.waiters {
            w.digest(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_uncached_and_idle() {
        let e = DirEntry::default();
        assert_eq!(e.state, DirState::Uncached);
        assert!(!e.is_busy());
        assert!(e.waiters.is_empty());
    }

    #[test]
    fn accessors() {
        let d = DirState::Dirty(NodeId::new(3));
        assert_eq!(d.owner(), Some(NodeId::new(3)));
        assert!(d.sharers().is_none());

        let s = DirState::Shared(NodeSet::singleton(NodeId::new(1)));
        assert!(s.owner().is_none());
        assert_eq!(s.sharers().unwrap().len(), 1);

        assert!(DirState::Uncached.owner().is_none());
        assert!(DirState::Uncached.sharers().is_none());
    }
}
