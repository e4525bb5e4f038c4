//! The paper-faithful network model: wormhole wire latency plus
//! entry/exit queue contention.
//!
//! The paper states that its simulator models "contention at the entry
//! and exit of the network (though not at internal nodes)". We reproduce
//! exactly that: each node has one injection (entry) port and one
//! ejection (exit) port, each of which can carry one flit per
//! [`flit_cycle`](dsm_sim::SimParams::flit_cycle); the wires and routers
//! between them are contention-free and add pipelined wormhole latency
//! `hops * hop_delay + flits * flit_cycle`.
//!
//! Delivery between the same (source, destination) pair is FIFO —
//! wormhole routing with deterministic XY paths cannot reorder messages
//! on the same path — and the model enforces this explicitly.

use crate::topology::Mesh;
use dsm_sim::{Cycle, NodeId, SimParams};

/// Aggregate counters maintained by [`LatencyNetwork`] / [`NetPorts`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Total messages sent.
    pub messages: u64,
    /// Total flits sent.
    pub flits: u64,
    /// Total cycles messages spent waiting for a busy entry port.
    pub entry_wait: u64,
    /// Total cycles messages spent waiting for a busy exit port.
    pub exit_wait: u64,
    /// Total end-to-end latency summed over all messages.
    pub total_latency: u64,
    /// Total extra delay cycles added by fault injection
    /// ([`send_jittered`](LatencyNetwork::send_jittered)); 0 unless a
    /// fault injector is active.
    pub injected_delay: u64,
}

impl NetworkStats {
    /// Mean end-to-end message latency in cycles, or 0 if no messages.
    pub fn mean_latency(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.messages as f64
        }
    }

    /// Folds all counters into a state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        h.write_u64(self.messages);
        h.write_u64(self.flits);
        h.write_u64(self.entry_wait);
        h.write_u64(self.exit_wait);
        h.write_u64(self.total_latency);
        h.write_u64(self.injected_delay);
    }
}

/// Split-phase network port state for every node.
///
/// A message send is two phases, each touching only one node's ports:
///
/// 1. [`launch`](NetPorts::launch) at the **source** — contends for the
///    source's entry port and computes the *wire arrival* time at the
///    destination (pipelined wormhole latency; the wires themselves are
///    contention-free, per the paper).
/// 2. [`eject`](NetPorts::eject) at the **destination**, executed when
///    simulated time reaches the wire arrival — contends for the
///    destination's exit port and yields the delivery time.
///
/// The machine simulator queues a message between the two phases (its
/// `Wire` event), so the exit port sees arrivals in simulated-time
/// order. Per-pair FIFO needs no explicit watermark for remote traffic
/// — entry-port occupancy makes successive wire arrivals on a pair
/// strictly increasing, and exit-port occupancy preserves that order
/// through ejection. Local (`src == dst`) messages bypass both ports;
/// their wire time is clamped against a per-node watermark because
/// fault-injected jitter can otherwise reorder them. With
/// `flit_cycle >= 1` no message, local or remote, arrives in the cycle
/// it was sent; the machine's spin-wait elision relies on that.
#[derive(Debug, Clone)]
pub struct NetPorts {
    /// Time at which each node's injection port becomes free.
    entry_free: Vec<Cycle>,
    /// Time at which each node's ejection port becomes free.
    exit_free: Vec<Cycle>,
    /// Wire-time watermark for each node's *local* (self) pair.
    last_wire: Vec<Cycle>,
    /// Per-source launch counter; stamps each message with a sequence
    /// number that is unique per source and follows the source node's
    /// event order.
    launch_seq: Vec<u64>,
    stats: NetworkStats,
}

impl NetPorts {
    /// Creates quiescent port state covering all `count` nodes.
    pub fn new(count: u32) -> Self {
        let n = count as usize;
        NetPorts {
            entry_free: vec![Cycle::ZERO; n],
            exit_free: vec![Cycle::ZERO; n],
            last_wire: vec![Cycle::ZERO; n],
            launch_seq: vec![0; n],
            stats: NetworkStats::default(),
        }
    }

    /// Returns the accumulated statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Resets the statistics (port state is kept).
    pub fn reset_stats(&mut self) {
        self.stats = NetworkStats::default();
    }

    /// Phase 1: injects a `flits`-flit message at `src` at time `now`,
    /// optionally held `extra` cycles by fault injection, and returns
    /// `(wire_arrival, launch_seq)`.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn launch(
        &mut self,
        params: &SimParams,
        mesh: &Mesh,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        flits: u64,
        extra: u64,
    ) -> (Cycle, u64) {
        assert!(flits > 0, "a message must carry at least one flit");
        let si = src.index();
        let seq = self.launch_seq[si];
        self.launch_seq[si] += 1;
        self.stats.messages += 1;
        self.stats.flits += flits;
        self.stats.injected_delay += extra;
        let now = now + extra;

        if src == dst {
            // Local messages bypass the ports, but not FIFO: a jittered
            // send can push a local wire time past a later undelayed
            // one, and reordering a home's grant against its own
            // intervention to the co-located cache is not
            // protocol-legal. Clamp strict inversions only — without
            // jitter this never fires and fault-free runs are
            // untouched.
            let t = now + params.flit_cycle;
            let slot = &mut self.last_wire[si];
            let t = if t < *slot { *slot + 1 } else { t };
            *slot = t;
            self.stats.total_latency += (t - now).as_u64();
            return (t, seq);
        }

        let occupancy = flits * params.flit_cycle;

        // Entry port: serialize injections from this node.
        let entry = &mut self.entry_free[si];
        let depart = now.max(*entry);
        self.stats.entry_wait += (depart - now).as_u64();
        *entry = depart + occupancy;

        // Wire: pipelined wormhole — head flit takes hop_delay per hop,
        // the tail follows `flits` flit-times behind. Crossing a NUMA
        // cluster boundary adds the configured penalty (0 on the
        // paper's flat machine).
        let hops = mesh.hops(src, dst) as u64;
        let numa = if mesh.same_cluster(src, dst) {
            0
        } else {
            params.cluster_penalty
        };
        let wire_arrival = depart + hops * params.hop_delay + occupancy + numa;
        self.stats.total_latency += (wire_arrival - now).as_u64();
        (wire_arrival, seq)
    }

    /// Phase 2: ejects a message whose head reached `dst` at
    /// `wire_arrival` and returns its delivery time. Local messages
    /// bypass the exit port.
    pub fn eject(
        &mut self,
        params: &SimParams,
        wire_arrival: Cycle,
        src: NodeId,
        dst: NodeId,
        flits: u64,
    ) -> Cycle {
        if src == dst {
            return wire_arrival;
        }
        let di = dst.index();
        let occupancy = flits * params.flit_cycle;
        let exit = &mut self.exit_free[di];
        let delivered = wire_arrival.max(*exit);
        self.stats.exit_wait += (delivered - wire_arrival).as_u64();
        *exit = delivered + occupancy;
        self.stats.total_latency += (delivered - wire_arrival).as_u64();
        delivered
    }

    /// Folds the dynamic port state and statistics into a state
    /// digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        h.write_usize(self.entry_free.len());
        for c in &self.entry_free {
            h.write_u64(c.as_u64());
        }
        for c in &self.exit_free {
            h.write_u64(c.as_u64());
        }
        for c in &self.last_wire {
            h.write_u64(c.as_u64());
        }
        for s in &self.launch_seq {
            h.write_u64(*s);
        }
        self.stats.digest(h);
    }
}

/// The uncontended latency of a `flits`-flit message between two nodes
/// — the lower bound an idle network approaches.
pub fn base_latency(
    params: &SimParams,
    mesh: &Mesh,
    src: NodeId,
    dst: NodeId,
    flits: u64,
) -> Cycle {
    if src == dst {
        return Cycle::new(params.flit_cycle);
    }
    let hops = mesh.hops(src, dst) as u64;
    let numa = if mesh.same_cluster(src, dst) {
        0
    } else {
        params.cluster_penalty
    };
    Cycle::new(hops * params.hop_delay + flits * params.flit_cycle + numa)
}

/// The entry/exit-contention network model used for all paper results.
///
/// [`send`](LatencyNetwork::send) computes the delivery time of a message
/// immediately; the caller schedules the delivery event itself. Because
/// the caller processes events in time order, every call observes all
/// earlier traffic, and the computed times are deterministic. This is a
/// convenience facade over [`NetPorts`] that fuses the launch and eject
/// phases — the machine simulator itself drives `NetPorts` directly and
/// queues each message between the two phases.
///
/// # Example
///
/// ```
/// use dsm_mesh::{LatencyNetwork, Mesh};
/// use dsm_sim::{Cycle, MachineConfig, NodeId, SimParams};
///
/// let cfg = MachineConfig::with_nodes(4);
/// let mut net = LatencyNetwork::new(Mesh::new(&cfg), cfg.params.clone());
/// let a = net.send(Cycle::ZERO, NodeId::new(0), NodeId::new(3), 2);
/// let b = net.send(Cycle::ZERO, NodeId::new(0), NodeId::new(3), 2);
/// assert!(b > a, "the second message queues behind the first at the entry port");
/// ```
#[derive(Debug, Clone)]
pub struct LatencyNetwork {
    mesh: Mesh,
    params: SimParams,
    ports: NetPorts,
}

impl LatencyNetwork {
    /// Creates a quiescent network.
    pub fn new(mesh: Mesh, params: SimParams) -> Self {
        let n = mesh.nodes();
        LatencyNetwork {
            mesh,
            params,
            ports: NetPorts::new(n),
        }
    }

    /// Returns the mesh this network runs on.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Returns the accumulated statistics.
    pub fn stats(&self) -> &NetworkStats {
        self.ports.stats()
    }

    /// Resets the statistics (the port state is kept).
    pub fn reset_stats(&mut self) {
        self.ports.reset_stats();
    }

    /// Sends a `flits`-flit message from `src` to `dst` at time `now` and
    /// returns its delivery time at `dst`.
    ///
    /// Local messages (`src == dst`) bypass the network and are delivered
    /// after one flit time.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero or a node is out of range.
    pub fn send(&mut self, now: Cycle, src: NodeId, dst: NodeId, flits: u64) -> Cycle {
        let (wa, _) = self
            .ports
            .launch(&self.params, &self.mesh, now, src, dst, flits, 0);
        self.ports.eject(&self.params, wa, src, dst, flits)
    }

    /// Like [`send`](Self::send), but holds the message at the source for
    /// `extra` additional cycles before it contends for the entry port —
    /// the fault injector's network-delay hook. All contention, FIFO and
    /// statistics rules still apply at the delayed departure time, so the
    /// perturbation is protocol-legal. With `extra == 0` this is exactly
    /// `send`, which keeps faults-off runs byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero or a node is out of range.
    pub fn send_jittered(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        flits: u64,
        extra: u64,
    ) -> Cycle {
        let (wa, _) = self
            .ports
            .launch(&self.params, &self.mesh, now, src, dst, flits, extra);
        self.ports.eject(&self.params, wa, src, dst, flits)
    }

    /// Folds the network's dynamic state — port busy times, per-node
    /// local watermarks and launch counters, and statistics — into a
    /// state digest. The mesh topology and timing parameters are
    /// static configuration and are excluded: they are fixed by the job
    /// being replayed.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        self.ports.digest(h);
    }

    /// The uncontended latency of a `flits`-flit message between two
    /// nodes — the lower bound [`send`](Self::send) approaches on an idle
    /// network.
    pub fn base_latency(&self, src: NodeId, dst: NodeId, flits: u64) -> Cycle {
        base_latency(&self.params, &self.mesh, src, dst, flits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_sim::MachineConfig;

    fn net() -> LatencyNetwork {
        let cfg = MachineConfig::with_nodes(16);
        LatencyNetwork::new(Mesh::new(&cfg), cfg.params.clone())
    }

    #[test]
    fn idle_latency_matches_base() {
        let mut n = net();
        let (s, d) = (NodeId::new(0), NodeId::new(15));
        let t = n.send(Cycle::ZERO, s, d, 6);
        assert_eq!(t, n.base_latency(s, d, 6));
        // 6 hops * 2 + 6 flits * 1 = 18
        assert_eq!(t, Cycle::new(18));
    }

    #[test]
    fn entry_port_serializes_injections() {
        let mut n = net();
        let s = NodeId::new(0);
        let t1 = n.send(Cycle::ZERO, s, NodeId::new(3), 4);
        let t2 = n.send(Cycle::ZERO, s, NodeId::new(12), 4);
        // Second message departs 4 flit-cycles later.
        assert_eq!(t2, t1 + 4);
        assert_eq!(n.stats().entry_wait, 4);
    }

    #[test]
    fn exit_port_serializes_ejections() {
        let mut n = net();
        let d = NodeId::new(5);
        // Two sources equidistant from d inject simultaneously.
        let t1 = n.send(Cycle::ZERO, NodeId::new(4), d, 4);
        let t2 = n.send(Cycle::ZERO, NodeId::new(6), d, 4);
        assert_eq!(t2, t1 + 4);
        assert!(n.stats().exit_wait >= 4);
    }

    #[test]
    fn same_pair_delivery_is_fifo() {
        let mut n = net();
        let (s, d) = (NodeId::new(0), NodeId::new(15));
        // A long message followed immediately by a short one: the short
        // one must not overtake.
        let t1 = n.send(Cycle::ZERO, s, d, 16);
        let t2 = n.send(Cycle::new(1), s, d, 1);
        assert!(t2 > t1, "FIFO violated: {t2} <= {t1}");
    }

    #[test]
    fn local_delivery_is_fast() {
        let mut n = net();
        let t = n.send(Cycle::new(100), NodeId::new(7), NodeId::new(7), 6);
        assert_eq!(t, Cycle::new(101));
    }

    #[test]
    fn monotone_in_time() {
        let mut n = net();
        let mut last = Cycle::ZERO;
        for i in 0..50u64 {
            let t = n.send(Cycle::new(i * 3), NodeId::new(0), NodeId::new(15), 2);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut n = net();
        n.send(Cycle::ZERO, NodeId::new(0), NodeId::new(1), 2);
        n.send(Cycle::ZERO, NodeId::new(0), NodeId::new(2), 2);
        let s = n.stats().clone();
        assert_eq!(s.messages, 2);
        assert_eq!(s.flits, 4);
        assert!(s.mean_latency() > 0.0);
        n.reset_stats();
        assert_eq!(n.stats().messages, 0);
        assert_eq!(n.stats().mean_latency(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flit_message_rejected() {
        net().send(Cycle::ZERO, NodeId::new(0), NodeId::new(1), 0);
    }

    #[test]
    fn zero_jitter_is_bit_identical_to_send() {
        let mut a = net();
        let mut b = net();
        for i in 0..20u64 {
            let src = NodeId::new((i % 16) as u32);
            let dst = NodeId::new(((i * 7) % 16) as u32);
            let ta = a.send(Cycle::new(i * 2), src, dst, 3);
            let tb = b.send_jittered(Cycle::new(i * 2), src, dst, 3, 0);
            assert_eq!(ta, tb);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(b.stats().injected_delay, 0);
    }

    /// Spin-wait elision in the machine assumes that with
    /// `flit_cycle >= 1` no message reaches its destination in the
    /// cycle it is sent. Check every kind of launch: local, remote,
    /// jittered and across a cluster boundary, under a saturating mix
    /// of message sizes so the entry ports queue.
    #[test]
    fn no_send_arrives_in_its_send_cycle() {
        let mut cfg = MachineConfig::with_nodes(16);
        cfg.clusters = 4;
        cfg.params.cluster_penalty = 25;
        assert!(cfg.params.flit_cycle >= 1);
        let mesh = Mesh::new(&cfg);
        let mut ports = NetPorts::new(16);
        let mut kinds = [0u32; 4];
        for i in 0..400u64 {
            let src = NodeId::new((i % 16) as u32);
            let dst = NodeId::new(((i * 5 + i / 16) % 16) as u32);
            let extra = if i % 3 == 0 { i % 11 } else { 0 };
            let now = Cycle::new(i / 2);
            let (wire_at, _) = ports.launch(&cfg.params, &mesh, now, src, dst, 1 + i % 7, extra);
            assert!(
                wire_at > now,
                "message {i} ({src}->{dst}, jitter {extra}) sent at {now} arrives at {wire_at}"
            );
            let kind = if src == dst {
                0
            } else if !mesh.same_cluster(src, dst) {
                1
            } else if extra > 0 {
                2
            } else {
                3
            };
            kinds[kind] += 1;
        }
        assert!(
            kinds.iter().all(|&n| n > 0),
            "local, cluster-crossing, jittered and plain remote sends all covered: {kinds:?}"
        );
    }

    #[test]
    fn split_phase_matches_fused_send() {
        let cfg = MachineConfig::with_nodes(16);
        let mesh = Mesh::new(&cfg);
        let p = cfg.params.clone();
        let mut fused = LatencyNetwork::new(mesh.clone(), p.clone());
        let mut ports = NetPorts::new(16);
        // Drive identical traffic through the fused facade and through
        // explicit launch/eject phases; delivery times, stats and
        // digests must agree.
        for i in 0..200u64 {
            let src = NodeId::new((i % 16) as u32);
            let dst = NodeId::new(((i * 11 + 3) % 16) as u32);
            let flits = 1 + i % 6;
            let now = Cycle::new(i * 2);
            let a = fused.send(now, src, dst, flits);
            let (wa, _) = ports.launch(&p, &mesh, now, src, dst, flits, 0);
            let b = ports.eject(&p, wa, src, dst, flits);
            assert_eq!(a, b, "divergence at message {i}");
        }
        assert_eq!(fused.stats(), ports.stats());
        let mut ha = dsm_sim::StableHasher::new();
        let mut hb = dsm_sim::StableHasher::new();
        fused.digest(&mut ha);
        ports.digest(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn launch_seq_is_per_source_monotone() {
        let cfg = MachineConfig::with_nodes(4);
        let mesh = Mesh::new(&cfg);
        let p = cfg.params.clone();
        let mut ports = NetPorts::new(4);
        let (_, s0) = ports.launch(&p, &mesh, Cycle::ZERO, NodeId::new(0), NodeId::new(1), 2, 0);
        let (_, s1) = ports.launch(&p, &mesh, Cycle::ZERO, NodeId::new(0), NodeId::new(2), 2, 0);
        let (_, s2) = ports.launch(&p, &mesh, Cycle::ZERO, NodeId::new(3), NodeId::new(0), 2, 0);
        assert_eq!((s0, s1, s2), (0, 1, 0));
    }

    #[test]
    fn cluster_penalty_charges_only_boundary_crossings() {
        let mut cfg = MachineConfig::with_nodes(16);
        cfg.clusters = 4;
        cfg.params.cluster_penalty = 25;
        let mut n = LatencyNetwork::new(Mesh::new(&cfg), cfg.params.clone());
        // Nodes 0..4 form cluster 0; node 4 starts cluster 1.
        let intra = n.send(Cycle::ZERO, NodeId::new(0), NodeId::new(1), 2);
        let inter = n.send(Cycle::new(1000), NodeId::new(0), NodeId::new(4), 2);
        // Same hop count (0->1 is 1 hop; 0->4 is 1 hop on a 4x4 mesh),
        // so the whole difference is the penalty.
        assert_eq!(inter - Cycle::new(1000), intra + 25);
        assert_eq!(
            n.base_latency(NodeId::new(0), NodeId::new(4), 2).as_u64(),
            intra.as_u64() + 25
        );
        // A flat machine with a configured penalty charges nothing.
        let flat = MachineConfig::with_nodes(16);
        let mut m = LatencyNetwork::new(Mesh::new(&flat), cfg.params.clone());
        assert_eq!(
            m.send(Cycle::ZERO, NodeId::new(0), NodeId::new(4), 2),
            intra
        );
    }

    #[test]
    fn jitter_delays_delivery_and_is_counted() {
        let mut n = net();
        let (s, d) = (NodeId::new(0), NodeId::new(15));
        let base = n.base_latency(s, d, 2);
        let t = n.send_jittered(Cycle::ZERO, s, d, 2, 10);
        assert_eq!(t, Cycle::new(10) + base.as_u64());
        assert_eq!(n.stats().injected_delay, 10);
    }
}
