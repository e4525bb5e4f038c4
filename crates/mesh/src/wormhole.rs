//! Cycle-accurate flit-level wormhole router (ablation model).
//!
//! The paper's simulator models contention only at the network entry and
//! exit ports. To quantify what that simplification leaves out, this
//! module implements a full flit-level 2-D mesh with dimension-ordered
//! routing, input-buffered routers and wormhole switching: a packet's
//! head flit allocates each output port along the path; body flits
//! follow; the tail flit releases the port. A blocked head leaves the
//! worm occupying buffers along its path, exactly the behaviour wormhole
//! networks are known for.
//!
//! The model is trace-driven: inject packets with [`FlitNetwork::inject`]
//! and then advance the simulation with [`FlitNetwork::run_until_drained`],
//! which reports delivery times. The mesh-model table of `figures
//! ablations` replays synthetic traffic traces through both this model and
//! [`LatencyNetwork`](crate::LatencyNetwork) to compare latency
//! distributions.

use crate::topology::{Direction, Mesh};
use dsm_sim::{Cycle, NodeId};
use std::collections::VecDeque;

/// Identifies a packet injected into a [`FlitNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(u64);

impl PacketId {
    /// Returns the raw injection sequence number.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// Tuning parameters for the flit-level router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitNetworkParams {
    /// Input buffer depth per router port, in flits.
    pub buffer_depth: usize,
    /// Cycles for a flit to traverse one router + link stage.
    pub hop_cycles: u64,
}

impl Default for FlitNetworkParams {
    fn default() -> Self {
        FlitNetworkParams {
            buffer_depth: 4,
            hop_cycles: 2,
        }
    }
}

/// A completed delivery reported by [`FlitNetwork::run_until_drained`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The packet that was delivered.
    pub packet: PacketId,
    /// Cycle at which the tail flit left the network at the destination.
    pub delivered_at: Cycle,
}

/// The error returned when the network fails to drain.
///
/// XY routing on a mesh is deadlock-free, so a stall indicates either a
/// model bug or an unreasonably small `max_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalledError {
    /// Number of packets still in flight when the limit was reached.
    pub in_flight: usize,
    /// The cycle limit that was exhausted.
    pub limit: Cycle,
}

impl std::fmt::Display for StalledError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "network failed to drain {} packets within {}",
            self.in_flight, self.limit
        )
    }
}

impl std::error::Error for StalledError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlitKind {
    Head,
    Body,
    Tail,
    /// A single-flit packet: both head and tail.
    HeadTail,
}

impl FlitKind {
    fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }
    fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

#[derive(Debug, Clone, Copy)]
struct Flit {
    packet: PacketId,
    dst: NodeId,
    kind: FlitKind,
    /// The flit is invisible to the downstream router before this cycle
    /// (models router/link pipeline latency).
    ready_at: u64,
}

const PORTS: usize = 5; // E, W, N, S, Local

fn port_index(d: Direction) -> usize {
    match d {
        Direction::East => 0,
        Direction::West => 1,
        Direction::North => 2,
        Direction::South => 3,
        Direction::Local => 4,
    }
}

#[derive(Debug, Clone, Default)]
struct Router {
    /// One FIFO of flits per input port.
    inputs: [VecDeque<Flit>; PORTS],
    /// For each output port: the input port of the worm that currently
    /// owns it, if any.
    out_owner: [Option<usize>; PORTS],
    /// Rotating arbitration pointer per output port.
    rr: [usize; PORTS],
}

/// A trace-driven flit-level wormhole mesh.
///
/// # Example
///
/// ```
/// use dsm_mesh::{FlitNetwork, FlitNetworkParams, Mesh};
/// use dsm_sim::{Cycle, NodeId};
///
/// let mut net = FlitNetwork::new(Mesh::with_dims(4, 4), FlitNetworkParams::default());
/// let p = net.inject(Cycle::ZERO, NodeId::new(0), NodeId::new(15), 6);
/// let deliveries = net.run_until_drained(Cycle::new(10_000))?;
/// assert_eq!(deliveries.len(), 1);
/// assert_eq!(deliveries[0].packet, p);
/// # Ok::<(), dsm_mesh::wormhole::StalledError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlitNetwork {
    mesh: Mesh,
    params: FlitNetworkParams,
    routers: Vec<Router>,
    /// Per-node FIFO of packets waiting to be injected: (time, flits).
    /// A packet is injected contiguously; the next packet at the same
    /// node cannot start until the previous one has fully entered the
    /// local input buffer, so worms never interleave on the local port.
    pending: Vec<VecDeque<(u64, Vec<Flit>)>>,
    next_id: u64,
    in_flight: usize,
    /// Flits remaining per in-flight packet id (dense, indexed by id).
    deliveries: Vec<Delivery>,
}

impl FlitNetwork {
    /// Creates an empty network.
    pub fn new(mesh: Mesh, params: FlitNetworkParams) -> Self {
        assert!(
            params.buffer_depth >= 1,
            "buffers must hold at least one flit"
        );
        assert!(
            params.hop_cycles >= 1,
            "hop latency must be at least one cycle"
        );
        let routers = (0..mesh.nodes()).map(|_| Router::default()).collect();
        let pending = (0..mesh.nodes()).map(|_| VecDeque::new()).collect();
        FlitNetwork {
            mesh,
            params,
            routers,
            pending,
            next_id: 0,
            in_flight: 0,
            deliveries: Vec::new(),
        }
    }

    /// Queues a packet of `flits` flits for injection at time `at`.
    ///
    /// Injections at the same source node must be made in nondecreasing
    /// time order (they model a single network interface).
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero, or (in debug builds) if `at` precedes
    /// an injection already queued at `src`.
    pub fn inject(&mut self, at: Cycle, src: NodeId, dst: NodeId, flits: u64) -> PacketId {
        assert!(flits > 0, "a packet must carry at least one flit");
        let id = PacketId(self.next_id);
        self.next_id += 1;
        let flit_vec: Vec<Flit> = (0..flits)
            .map(|i| Flit {
                packet: id,
                dst,
                kind: if flits == 1 {
                    FlitKind::HeadTail
                } else if i == 0 {
                    FlitKind::Head
                } else if i == flits - 1 {
                    FlitKind::Tail
                } else {
                    FlitKind::Body
                },
                ready_at: 0,
            })
            .collect();
        debug_assert!(
            self.pending[src.index()]
                .back()
                .is_none_or(|(t, _)| *t <= at.as_u64()),
            "injections at a node must be in time order"
        );
        self.pending[src.index()].push_back((at.as_u64(), flit_vec));
        self.in_flight += 1;
        id
    }

    /// Runs the network until every injected packet is delivered, or
    /// until `max_cycles` is reached.
    ///
    /// Returns the deliveries accumulated so far, sorted by delivery
    /// time.
    ///
    /// # Errors
    ///
    /// Returns [`StalledError`] if packets remain in flight at the cycle
    /// limit.
    pub fn run_until_drained(&mut self, max_cycles: Cycle) -> Result<Vec<Delivery>, StalledError> {
        let mut now = 0u64;
        while self.in_flight > 0 {
            if now > max_cycles.as_u64() {
                return Err(StalledError {
                    in_flight: self.in_flight,
                    limit: max_cycles,
                });
            }
            self.step(now);
            now += 1;
        }
        let mut out = std::mem::take(&mut self.deliveries);
        out.sort_by_key(|d| (d.delivered_at, d.packet));
        Ok(out)
    }

    /// Advances the network by one cycle.
    fn step(&mut self, now: u64) {
        // Phase 0: inject packets whose time has come, head-of-queue per
        // node, at most buffer_depth flits per cycle; a partially
        // injected packet keeps its place at the front so its worm stays
        // contiguous on the local input port.
        for node in 0..self.pending.len() {
            while let Some((t, flits)) = self.pending[node].front_mut() {
                if *t > now {
                    break;
                }
                let local = &mut self.routers[node].inputs[port_index(Direction::Local)];
                while !flits.is_empty() && local.len() < self.params.buffer_depth {
                    let mut f = flits.remove(0);
                    f.ready_at = now;
                    local.push_back(f);
                }
                if flits.is_empty() {
                    self.pending[node].pop_front();
                } else {
                    break; // buffer full: continue this packet next cycle
                }
            }
        }

        // Phase 1: plan at most one flit movement per output port, in a
        // fixed router order with rotating per-port arbitration. Moves
        // are applied immediately but moved flits get ready_at = now +
        // hop_cycles, so they cannot move again this cycle (or before the
        // pipeline latency elapses).
        for r in 0..self.routers.len() {
            let here = NodeId::new(r as u32);
            for out in 0..PORTS {
                // Which input may use this output this cycle?
                let owner = self.routers[r].out_owner[out];
                let chosen_in = match owner {
                    Some(inp) => {
                        // The worm continues only if its next flit is ready.
                        let head = self.routers[r].inputs[inp].front().copied();
                        match head {
                            Some(f)
                                if f.ready_at <= now
                                    && port_index(self.mesh.next_direction(here, f.dst)) == out =>
                            {
                                Some(inp)
                            }
                            _ => None,
                        }
                    }
                    None => {
                        // Arbitrate among inputs whose ready head flit is
                        // a Head wanting this output.
                        let start = self.routers[r].rr[out];
                        (0..PORTS).map(|k| (start + k) % PORTS).find(|&inp| {
                            matches!(
                                self.routers[r].inputs[inp].front(),
                                Some(f) if f.ready_at <= now
                                    && f.kind.is_head()
                                    && port_index(self.mesh.next_direction(here, f.dst)) == out
                            )
                        })
                    }
                };
                let Some(inp) = chosen_in else { continue };

                // Check downstream capacity.
                if out == port_index(Direction::Local) {
                    // Ejection always drains one flit per cycle.
                } else {
                    let next = self.neighbor(here, out);
                    let din = self.downstream_input_port(out);
                    if self.routers[next.index()].inputs[din].len() >= self.params.buffer_depth {
                        continue; // no credit
                    }
                }

                // Move the flit.
                let mut flit = self.routers[r].inputs[inp]
                    .pop_front()
                    .expect("chosen input has a flit");
                let is_tail = flit.kind.is_tail();
                let is_head = flit.kind.is_head();
                if is_head {
                    self.routers[r].out_owner[out] = Some(inp);
                    self.routers[r].rr[out] = (inp + 1) % PORTS;
                }
                if is_tail {
                    self.routers[r].out_owner[out] = None;
                    self.routers[r].rr[out] = (inp + 1) % PORTS;
                }
                if out == port_index(Direction::Local) {
                    if is_tail {
                        self.in_flight -= 1;
                        self.deliveries.push(Delivery {
                            packet: flit.packet,
                            delivered_at: Cycle::new(now + self.params.hop_cycles),
                        });
                    }
                } else {
                    let next = self.neighbor(here, out);
                    let din = self.downstream_input_port(out);
                    flit.ready_at = now + self.params.hop_cycles;
                    self.routers[next.index()].inputs[din].push_back(flit);
                }
            }
        }
    }

    fn neighbor(&self, here: NodeId, out: usize) -> NodeId {
        let (x, y) = self.mesh.coords(here);
        match out {
            0 => self.mesh.node_at(x + 1, y),
            1 => self.mesh.node_at(x - 1, y),
            2 => self.mesh.node_at(x, y + 1),
            3 => self.mesh.node_at(x, y - 1),
            _ => unreachable!("local port has no neighbor"),
        }
    }

    /// A flit leaving through output port `out` arrives at the
    /// neighbor's opposite input port.
    fn downstream_input_port(&self, out: usize) -> usize {
        match out {
            0 => 1, // east -> arrives on west input
            1 => 0,
            2 => 3, // north -> arrives on south input
            3 => 2,
            _ => unreachable!("local port has no downstream"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net4x4() -> FlitNetwork {
        FlitNetwork::new(Mesh::with_dims(4, 4), FlitNetworkParams::default())
    }

    #[test]
    fn single_packet_delivery_time_scales_with_distance() {
        let mut near = net4x4();
        near.inject(Cycle::ZERO, NodeId::new(0), NodeId::new(1), 4);
        let t_near = near.run_until_drained(Cycle::new(1000)).unwrap()[0].delivered_at;

        let mut far = net4x4();
        far.inject(Cycle::ZERO, NodeId::new(0), NodeId::new(15), 4);
        let t_far = far.run_until_drained(Cycle::new(1000)).unwrap()[0].delivered_at;

        assert!(
            t_far > t_near,
            "6 hops ({t_far}) must take longer than 1 hop ({t_near})"
        );
    }

    #[test]
    fn single_flit_packet_works() {
        let mut n = net4x4();
        let p = n.inject(Cycle::ZERO, NodeId::new(0), NodeId::new(3), 1);
        let d = n.run_until_drained(Cycle::new(1000)).unwrap();
        assert_eq!(
            d,
            vec![Delivery {
                packet: p,
                delivered_at: d[0].delivered_at
            }]
        );
    }

    #[test]
    fn local_packet_is_delivered() {
        let mut n = net4x4();
        n.inject(Cycle::ZERO, NodeId::new(5), NodeId::new(5), 3);
        let d = n.run_until_drained(Cycle::new(1000)).unwrap();
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn all_to_one_drains_and_serializes() {
        let mut n = net4x4();
        let dst = NodeId::new(5);
        for s in 0..16u32 {
            if s != 5 {
                n.inject(Cycle::ZERO, NodeId::new(s), dst, 4);
            }
        }
        let d = n.run_until_drained(Cycle::new(100_000)).unwrap();
        assert_eq!(d.len(), 15);
        // The ejection port takes 4 flits per packet at 1 flit/cycle, so
        // total drain time is at least 15 * 4 cycles.
        assert!(d.last().unwrap().delivered_at >= Cycle::new(60));
    }

    #[test]
    fn uniform_random_traffic_drains() {
        let mut n = net4x4();
        let mut rng = dsm_sim::SimRng::new(42);
        for i in 0..200u64 {
            let s = NodeId::new(rng.range(16) as u32);
            let d = NodeId::new(rng.range(16) as u32);
            n.inject(Cycle::new(i / 2), s, d, 1 + rng.range(6));
        }
        let d = n.run_until_drained(Cycle::new(1_000_000)).unwrap();
        assert_eq!(d.len(), 200);
    }

    #[test]
    fn fifo_between_same_pair() {
        let mut n = net4x4();
        let p1 = n.inject(Cycle::ZERO, NodeId::new(0), NodeId::new(15), 8);
        let p2 = n.inject(Cycle::new(1), NodeId::new(0), NodeId::new(15), 1);
        let d = n.run_until_drained(Cycle::new(10_000)).unwrap();
        let t1 = d.iter().find(|x| x.packet == p1).unwrap().delivered_at;
        let t2 = d.iter().find(|x| x.packet == p2).unwrap().delivered_at;
        assert!(t2 > t1, "wormhole same-path FIFO violated");
    }

    #[test]
    fn stall_error_reports_in_flight() {
        let mut n = net4x4();
        n.inject(Cycle::ZERO, NodeId::new(0), NodeId::new(15), 64);
        let err = n.run_until_drained(Cycle::new(3)).unwrap_err();
        assert_eq!(err.in_flight, 1);
        assert!(err.to_string().contains("failed to drain"));
    }

    #[test]
    fn contention_increases_latency_vs_idle() {
        // One packet alone.
        let mut idle = net4x4();
        let p = idle.inject(Cycle::ZERO, NodeId::new(0), NodeId::new(3), 4);
        let t_idle = idle
            .run_until_drained(Cycle::new(10_000))
            .unwrap()
            .iter()
            .find(|d| d.packet == p)
            .unwrap()
            .delivered_at;

        // Same packet with cross traffic hammering the same row.
        let mut busy = net4x4();
        for _ in 0..8 {
            busy.inject(Cycle::ZERO, NodeId::new(1), NodeId::new(3), 8);
        }
        let p = busy.inject(Cycle::ZERO, NodeId::new(0), NodeId::new(3), 4);
        let t_busy = busy
            .run_until_drained(Cycle::new(100_000))
            .unwrap()
            .iter()
            .find(|d| d.packet == p)
            .unwrap()
            .delivered_at;
        assert!(
            t_busy > t_idle,
            "internal contention should delay the packet"
        );
    }
}
