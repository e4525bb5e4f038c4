//! Machine-level instrumentation.

use dsm_stats::{ChainStats, ContentionTracker, LatencyHist, WriteRunTracker};

/// Everything the machine measures during a run.
///
/// * `msgs` — per-class message counts plus the serialized-chain length
///   of every completed synchronization operation (Table 1);
/// * `contention` — contention level sampled at the beginning of each
///   atomic access (Figure 2);
/// * `write_runs` — write-run-length tracking of sync locations (§4.2);
/// * `op_latency_hist` — the cycle-exact latency of every completed
///   operation;
/// * `nodes` — each node's traffic and work ([`NodeCounters`]);
/// * counters for completed operations.
#[derive(Debug, Default)]
pub struct MachineStats {
    /// Message counts and serialized-chain statistics.
    pub msgs: ChainStats,
    /// Contention histogram over synchronization variables.
    pub contention: ContentionTracker,
    /// Write-run tracking over synchronization variables.
    pub write_runs: WriteRunTracker,
    /// Total operations completed.
    pub ops: u64,
    /// Synchronization operations completed.
    pub sync_ops: u64,
    /// Operations satisfied entirely in the local cache.
    pub local_ops: u64,
    /// Cycle-exact log-bucketed latency histogram over *all* completed
    /// operations: the percentile source (p50/p99/...) for the latency
    /// tables and `figures analyze`.
    pub op_latency_hist: LatencyHist,
    /// Per-node counters, indexed by node id.
    pub nodes: Vec<NodeCounters>,
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
        h.write_u64(self.ops);
        h.write_u64(self.sync_ops);
        h.write_u64(self.local_ops);
        self.op_latency_hist.digest(h);
        h.write_usize(self.nodes.len());
        for n in &self.nodes {
            n.digest(h);
        }
    }
}

/// One node's share of a run, as integers: what it sent into the
/// network, what its home memory and cache controller served, and what
/// its processor retired.
///
/// Every counter is an O(1) increment the machine always makes, so the
/// counters exist whether or not a tracer is attached and do not depend
/// on trace categories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Messages this node injected into the network.
    pub msgs_sent: u64,
    /// Flits this node injected into the network.
    pub flits_sent: u64,
    /// Cycles from launch to wire arrival, summed over the messages
    /// this node sent.
    pub transit_cycles: u64,
    /// Messages processed by this node's home memory module.
    pub served_home: u64,
    /// Messages processed by this node's cache controller.
    pub served_cache: u64,
    /// Memory operations retired by this node's processor.
    pub ops: u64,
    /// Failed atomic attempts by this node's processor: CAS and SC
    /// failures and LLs that got no reservation.
    pub retries: u64,
}

impl NodeCounters {
    /// Mean transit cycles per message sent (0 when none was sent).
    pub fn transit_avg(&self) -> f64 {
        if self.msgs_sent == 0 {
            0.0
        } else {
            self.transit_cycles as f64 / self.msgs_sent as f64
        }
    }

    /// Adds another node's counters into these (for machine totals).
    pub fn merge(&mut self, other: &NodeCounters) {
        self.msgs_sent += other.msgs_sent;
        self.flits_sent += other.flits_sent;
        self.transit_cycles += other.transit_cycles;
        self.served_home += other.served_home;
        self.served_cache += other.served_cache;
        self.ops += other.ops;
        self.retries += other.retries;
    }

    fn digest(&self, h: &mut dsm_sim::StableHasher) {
        for v in [
            self.msgs_sent,
            self.flits_sent,
            self.transit_cycles,
            self.served_home,
            self.served_cache,
            self.ops,
            self.retries,
        ] {
            h.write_u64(v);
        }
    }
}

/// Per-node statistics accumulator.
///
/// The machine accumulates every sample into the stats of the node that
/// produced it, in that node's own event order. Global
/// [`MachineStats`] are produced on demand by merging node accumulators
/// in node order ([`merge_node_stats`]), so the one floating-point sum,
/// the serialized-chain mean in `msgs.chains`, sees a fixed addition
/// order, the one the committed artifacts were generated under.
#[derive(Debug, Default, Clone)]
pub(crate) struct NodeStats {
    pub msgs: ChainStats,
    pub ops: u64,
    pub sync_ops: u64,
    pub local_ops: u64,
    pub op_latency_hist: LatencyHist,
    pub flits_sent: u64,
    pub transit_cycles: u64,
    pub served_home: u64,
    pub served_cache: u64,
    pub retries: u64,
}

impl NodeStats {
    /// The node's counters; messages and operations are the counts
    /// already kept for the machine totals.
    fn counters(&self) -> NodeCounters {
        NodeCounters {
            msgs_sent: self.msgs.total_messages(),
            flits_sent: self.flits_sent,
            transit_cycles: self.transit_cycles,
            served_home: self.served_home,
            served_cache: self.served_cache,
            ops: self.ops,
            retries: self.retries,
        }
    }
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
        s.ops += ns.ops;
        s.sync_ops += ns.sync_ops;
        s.local_ops += ns.local_ops;
        s.op_latency_hist.merge(&ns.op_latency_hist);
        s.nodes.push(ns.counters());
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
        nodes[0].op_latency_hist.record(10);
        nodes[1].ops = 1;
        nodes[1].op_latency_hist.record(30);
        nodes[1].retries = 4;
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
        assert_eq!(s.op_latency_hist.total(), 2);
        assert_eq!(s.nodes.len(), 2);
        assert_eq!((s.nodes[0].ops, s.nodes[1].ops), (2, 1));
        assert_eq!(s.nodes[1].retries, 4);
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
