//! Machine-level instrumentation.

use dsm_stats::{
    ChainStats, ContentionTracker, Histogram, LatencyHist, OnlineMean, WriteRunTracker,
};

/// Everything the machine measures during a run.
///
/// * `msgs` — per-class message counts plus the serialized-chain length
///   of every completed synchronization operation (Table 1);
/// * `contention` — contention level sampled at the beginning of each
///   atomic access (Figure 2);
/// * `write_runs` — write-run-length tracking of sync locations (§4.2);
/// * `sync_latency` — end-to-end cycles of sync operations;
/// * counters for completed operations.
#[derive(Debug, Default)]
pub struct MachineStats {
    /// Message counts and serialized-chain statistics.
    pub msgs: ChainStats,
    /// Contention histogram over synchronization variables.
    pub contention: ContentionTracker,
    /// Write-run tracking over synchronization variables.
    pub write_runs: WriteRunTracker,
    /// Latency (cycles) of completed synchronization operations.
    pub sync_latency: OnlineMean,
    /// Latency (cycles) of all completed operations.
    pub op_latency: OnlineMean,
    /// Total operations completed.
    pub ops: u64,
    /// Synchronization operations completed.
    pub sync_ops: u64,
    /// Operations satisfied entirely in the local cache.
    pub local_ops: u64,
    /// Histogram of sync-op latencies (bucketed by 10 cycles).
    pub sync_latency_hist: Histogram,
    /// Cycle-exact log-bucketed latency histogram over *all* completed
    /// operations: the percentile source (p50/p99/...) for the latency
    /// tables and `figures analyze`.
    pub op_latency_hist: LatencyHist,
}

impl MachineStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of operations that completed locally, in `[0, 1]`.
    pub fn local_fraction(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.local_ops as f64 / self.ops as f64
        }
    }

    /// Folds every measurement into a state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        self.msgs.digest(h);
        self.contention.digest(h);
        self.write_runs.digest(h);
        self.sync_latency.digest(h);
        self.op_latency.digest(h);
        h.write_u64(self.ops);
        h.write_u64(self.sync_ops);
        h.write_u64(self.local_ops);
        self.sync_latency_hist.digest(h);
        self.op_latency_hist.digest(h);
    }
}

/// Per-node statistics accumulator.
///
/// The machine accumulates every sample into the stats of the node that
/// produced it, in that node's own event order. Global
/// [`MachineStats`] are produced on demand by merging node accumulators
/// in node order ([`merge_node_stats`]), so floating-point sums (the
/// `OnlineMean`s) see a fixed addition order, the one the committed
/// artifacts were generated under.
#[derive(Debug, Default, Clone)]
pub(crate) struct NodeStats {
    pub msgs: ChainStats,
    pub sync_latency: OnlineMean,
    pub op_latency: OnlineMean,
    pub ops: u64,
    pub sync_ops: u64,
    pub local_ops: u64,
    pub sync_latency_hist: Histogram,
    pub op_latency_hist: LatencyHist,
}

/// One entry of the canonical synchronization-access log.
///
/// Contention and write-run tracking are inherently *global* — the
/// contention level of a line is the number of processors attempting it
/// across the whole machine — so they cannot be accumulated per node.
/// Instead every begin/end is logged with its canonical coordinates
/// `(cycle, proc, per-proc sequence)`, and the trackers replay the log
/// in sorted coordinate order when statistics are read
/// ([`merge_node_stats`]). The committed artifacts' contention and
/// write-run histograms come from this replay order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SyncRec {
    pub at: u64,
    pub proc: u32,
    pub seq: u64,
    pub addr: u64,
    pub kind: SyncRecKind,
}

/// What a [`SyncRec`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SyncRecKind {
    /// An atomic access began (samples the contention level).
    Begin,
    /// The access completed; `write` is true for a successful mutating
    /// access (extends the location's write run).
    End { write: bool },
}

/// Merges per-node accumulators (in node order) and replays the
/// synchronization log (in canonical coordinate order) into global
/// [`MachineStats`].
pub(crate) fn merge_node_stats(nodes: &[NodeStats], log: &[SyncRec]) -> MachineStats {
    let mut s = MachineStats::new();
    for ns in nodes {
        s.msgs.merge(&ns.msgs);
        s.sync_latency.merge(&ns.sync_latency);
        s.op_latency.merge(&ns.op_latency);
        s.ops += ns.ops;
        s.sync_ops += ns.sync_ops;
        s.local_ops += ns.local_ops;
        s.sync_latency_hist.merge(&ns.sync_latency_hist);
        s.op_latency_hist.merge(&ns.op_latency_hist);
    }
    let mut order: Vec<usize> = (0..log.len()).collect();
    order.sort_by_key(|&i| (log[i].at, log[i].proc, log[i].seq));
    for i in order {
        let r = &log[i];
        match r.kind {
            SyncRecKind::Begin => s.contention.begin(r.addr, r.proc),
            SyncRecKind::End { write } => {
                s.contention.end(r.addr, r.proc);
                s.write_runs.access(r.addr, r.proc, write);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_stats_replay_sync_log_in_canonical_order() {
        let mut nodes = vec![NodeStats::default(), NodeStats::default()];
        nodes[0].ops = 2;
        nodes[0].op_latency.add(10.0);
        nodes[1].ops = 1;
        nodes[1].op_latency.add(30.0);
        // Log appended out of coordinate order (as a multi-worker run
        // would): replay must sort by (cycle, proc, seq).
        let log = vec![
            SyncRec {
                at: 5,
                proc: 1,
                seq: 0,
                addr: 64,
                kind: SyncRecKind::Begin,
            },
            SyncRec {
                at: 3,
                proc: 0,
                seq: 0,
                addr: 64,
                kind: SyncRecKind::Begin,
            },
            SyncRec {
                at: 9,
                proc: 0,
                seq: 1,
                addr: 64,
                kind: SyncRecKind::End { write: true },
            },
            SyncRec {
                at: 9,
                proc: 1,
                seq: 1,
                addr: 64,
                kind: SyncRecKind::End { write: true },
            },
        ];
        let s = merge_node_stats(&nodes, &log);
        assert_eq!(s.ops, 3);
        assert_eq!(s.op_latency.count(), 2);
        // proc0 begins alone (level 1), proc1 joins (level 2).
        assert_eq!(s.contention.histogram().count(1), 1);
        assert_eq!(s.contention.histogram().count(2), 1);
    }

    #[test]
    fn local_fraction_handles_zero() {
        let s = MachineStats::new();
        assert_eq!(s.local_fraction(), 0.0);
    }

    #[test]
    fn local_fraction_computes() {
        let mut s = MachineStats::new();
        s.ops = 4;
        s.local_ops = 3;
        assert_eq!(s.local_fraction(), 0.75);
    }
}
