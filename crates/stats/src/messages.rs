//! Network-message accounting: counts per class and serialized-chain
//! lengths (Table 1 of the paper).

use crate::{Histogram, OnlineMean};

/// Broad classes of coherence traffic, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Read / read-exclusive / atomic requests from a cache to a home.
    Request,
    /// Data or completion replies.
    Reply,
    /// Interventions forwarded from a home to an owner.
    Forward,
    /// Invalidations sent to sharers.
    Invalidate,
    /// Updates pushed to sharers (write-update policy).
    Update,
    /// Acknowledgments of invalidations or updates.
    Ack,
    /// Write-backs and ownership-transfer data.
    WriteBack,
    /// Negative acknowledgments (retry).
    Nak,
}

impl MsgClass {
    /// All classes, in reporting order.
    pub const ALL: [MsgClass; 8] = [
        MsgClass::Request,
        MsgClass::Reply,
        MsgClass::Forward,
        MsgClass::Invalidate,
        MsgClass::Update,
        MsgClass::Ack,
        MsgClass::WriteBack,
        MsgClass::Nak,
    ];

    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Request => "req",
            MsgClass::Reply => "reply",
            MsgClass::Forward => "fwd",
            MsgClass::Invalidate => "inv",
            MsgClass::Update => "upd",
            MsgClass::Ack => "ack",
            MsgClass::WriteBack => "wb",
            MsgClass::Nak => "nak",
        }
    }

    fn index(self) -> usize {
        match self {
            MsgClass::Request => 0,
            MsgClass::Reply => 1,
            MsgClass::Forward => 2,
            MsgClass::Invalidate => 3,
            MsgClass::Update => 4,
            MsgClass::Ack => 5,
            MsgClass::WriteBack => 6,
            MsgClass::Nak => 7,
        }
    }
}

/// Counts messages by class and records the *serialized* message chain
/// of each completed memory transaction.
///
/// Table 1 of the paper counts "serialized network messages for stores":
/// the length of the longest dependency chain of messages on the
/// operation's critical path (parallel invalidations count once). The
/// protocol engine reports that chain length per transaction via
/// [`record_chain`](ChainStats::record_chain).
///
/// # Example
///
/// ```
/// use dsm_stats::{ChainStats, MsgClass};
///
/// let mut s = ChainStats::new();
/// s.count(MsgClass::Request);
/// s.count(MsgClass::Reply);
/// s.record_chain(2); // uncached store: request + reply
/// assert_eq!(s.messages(MsgClass::Request), 1);
/// assert_eq!(s.chains().mean(), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChainStats {
    counts: [u64; 8],
    chains: OnlineMean,
    chain_histogram: Histogram,
}

impl ChainStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one message of the given class.
    pub fn count(&mut self, class: MsgClass) {
        self.counts[class.index()] += 1;
    }

    /// Number of messages counted in `class`.
    pub fn messages(&self, class: MsgClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total messages across all classes.
    pub fn total_messages(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Records the serialized-chain length of one completed transaction.
    pub fn record_chain(&mut self, serialized_messages: u32) {
        self.chains.add(serialized_messages as f64);
        self.chain_histogram.record(serialized_messages as usize);
    }

    /// Statistics over recorded chain lengths.
    pub fn chains(&self) -> &OnlineMean {
        &self.chains
    }

    /// Distribution of recorded chain lengths.
    pub fn chain_histogram(&self) -> &Histogram {
        &self.chain_histogram
    }

    /// Folds the per-class counts and chain statistics into a state
    /// digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        for &c in &self.counts {
            h.write_u64(c);
        }
        self.chains.digest(h);
        self.chain_histogram.digest(h);
    }

    /// Merges another instance into this one.
    pub fn merge(&mut self, other: &ChainStats) {
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i];
        }
        self.chains.merge(&other.chains);
        self.chain_histogram.merge(&other.chain_histogram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_by_class() {
        let mut s = ChainStats::new();
        s.count(MsgClass::Request);
        s.count(MsgClass::Request);
        s.count(MsgClass::Nak);
        assert_eq!(s.messages(MsgClass::Request), 2);
        assert_eq!(s.messages(MsgClass::Nak), 1);
        assert_eq!(s.messages(MsgClass::Ack), 0);
        assert_eq!(s.total_messages(), 3);
    }

    #[test]
    fn chain_statistics() {
        let mut s = ChainStats::new();
        s.record_chain(2);
        s.record_chain(4);
        assert_eq!(s.chains().mean(), 3.0);
        assert_eq!(s.chain_histogram().count(2), 1);
        assert_eq!(s.chain_histogram().count(4), 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ChainStats::new();
        a.count(MsgClass::Reply);
        a.record_chain(3);
        let mut b = ChainStats::new();
        b.count(MsgClass::Reply);
        b.record_chain(1);
        a.merge(&b);
        assert_eq!(a.messages(MsgClass::Reply), 2);
        assert_eq!(a.chains().count(), 2);
        assert_eq!(a.chains().mean(), 2.0);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            MsgClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), MsgClass::ALL.len());
    }
}
