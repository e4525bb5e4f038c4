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
///
/// The machine keeps one instance and updates it in place, at the
/// event that produces each value, so reading it costs nothing. The
/// contention and write-run trackers therefore see synchronization
/// accesses in dispatch order. Within a cycle the dispatcher visits
/// nodes in ascending order, and a processor's accesses come only from
/// its own node's events, so that order is `(cycle, processor)` order.
/// (A barrier arrival can schedule lower nodes' releases into its own
/// cycle, but it records no access, and no access is outstanding when a
/// barrier releases.)
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
/// Every counter is an O(1) increment the machine always makes at the
/// event that produces it, so the counters exist whether or not a
/// tracer is attached and do not depend on trace categories.
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

#[cfg(test)]
mod tests {
    use super::*;

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
