//! Shared helpers for the benchmark harness.
//!
//! The Criterion benches (one per paper table/figure, plus ablations)
//! and the `figures` CLI both build on these functions. Each bench
//! prints the regenerated table/series once, then measures the runtime
//! of a representative slice of the experiment.

#![warn(missing_docs)]

use atomic_dsm::experiments::{BarSpec, Scale};
use atomic_dsm::machine::{Action, MachineBuilder, ProcCtx};
use atomic_dsm::protocol::{LlscScheme, MemOp, OpResult, SyncConfig, SyncPolicy};
use atomic_dsm::sim::{Addr, Cycle, MachineConfig};
use atomic_dsm::Primitive;

/// Picks the experiment scale: `Scale::paper()` when `paper` is true,
/// else a CI-friendly quick scale.
pub fn scale(paper: bool) -> Scale {
    if paper {
        Scale::paper()
    } else {
        Scale::quick()
    }
}

/// Runs an LL/SC lock-free counter under UNC with the given reservation
/// scheme and returns (elapsed cycles, total messages).
///
/// Used by the reservation-scheme ablation.
///
/// # Panics
///
/// Panics if the run fails or the counter ends up wrong.
pub fn llsc_counter_with_scheme(procs: u32, iters: u64, scheme: LlscScheme) -> (u64, u64) {
    let counter = Addr::new(0x40);
    let mut b = MachineBuilder::new(MachineConfig::with_nodes(procs));
    b.register_sync(
        counter,
        SyncConfig {
            policy: SyncPolicy::Unc,
            llsc: scheme,
            ..Default::default()
        },
    );
    b.llsc_pool(procs as usize / 2);
    for _ in 0..procs {
        let mut left = iters;
        b.add_program(move |ctx: &mut ProcCtx<'_>| match ctx.last {
            None => Action::Op(MemOp::LoadLinked { addr: counter }),
            Some(OpResult::Loaded {
                value,
                serial,
                reserved,
            }) => {
                if !reserved {
                    return Action::Op(MemOp::LoadLinked { addr: counter });
                }
                Action::Op(MemOp::StoreConditional {
                    addr: counter,
                    value: value + 1,
                    serial,
                })
            }
            Some(OpResult::ScDone { success }) => {
                if success {
                    left -= 1;
                    if left == 0 {
                        return Action::Done;
                    }
                }
                Action::Op(MemOp::LoadLinked { addr: counter })
            }
            other => panic!("unexpected {other:?}"),
        });
    }
    let mut m = b.build();
    let report = m
        .run(Cycle::new(100_000_000_000))
        .expect("ablation run completes");
    assert_eq!(m.read_word(counter), procs as u64 * iters);
    (report.cycles.as_u64(), m.stats().msgs.total_messages())
}

/// The drop-copy ablation: INV fetch_and_add at one `(c, a)` point,
/// with and without `drop_copy`. Returns (without, with) avg cycles.
pub fn dropcopy_pair(contention: u32, write_run: f64, s: &Scale) -> (f64, f64) {
    use atomic_dsm::experiments::counters::measure_bar;
    use atomic_dsm::experiments::CounterKind;
    let without = BarSpec::new(SyncPolicy::Inv, Primitive::FetchPhi);
    let with = BarSpec {
        drop_copy: true,
        ..without
    };
    let a = measure_bar(CounterKind::LockFree, &without, contention, write_run, s);
    let b = measure_bar(CounterKind::LockFree, &with, contention, write_run, s);
    (a.avg_cycles, b.avg_cycles)
}

/// Synthetic traffic patterns for the mesh ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Uniform random source/destination pairs.
    Uniform,
    /// Everyone sends to node 0 (a hot home node).
    Hotspot,
    /// Each node sends to its +1 neighbor.
    Neighbor,
}

/// Generates a deterministic trace of (time, src, dst, flits).
pub fn traffic_trace(
    pattern: TrafficPattern,
    nodes: u32,
    messages: u64,
    seed: u64,
) -> Vec<(u64, u32, u32, u64)> {
    let mut rng = atomic_dsm::sim::SimRng::new(seed);
    (0..messages)
        .map(|i| {
            let t = i / (nodes as u64 / 2).max(1);
            let src = rng.range(nodes as u64) as u32;
            let (src, dst) = match pattern {
                TrafficPattern::Uniform => {
                    let d = rng.range(nodes as u64) as u32;
                    (src, d)
                }
                TrafficPattern::Hotspot => (src.max(1), 0),
                TrafficPattern::Neighbor => (src, (src + 1) % nodes),
            };
            let flits = 2 + rng.range(5);
            (t, src, dst, flits)
        })
        .collect()
}

/// Replays a trace through the paper's latency model, returning mean
/// latency.
pub fn replay_latency_model(trace: &[(u64, u32, u32, u64)], nodes: u32) -> f64 {
    use atomic_dsm::mesh::{LatencyNetwork, Mesh};
    let cfg = MachineConfig::with_nodes(nodes);
    let mut net = LatencyNetwork::new(Mesh::new(&cfg), cfg.params.clone());
    let mut total = 0u64;
    for &(t, s, d, f) in trace {
        let arrive = net.send(
            Cycle::new(t),
            atomic_dsm::sim::NodeId::new(s),
            atomic_dsm::sim::NodeId::new(d),
            f,
        );
        total += (arrive - Cycle::new(t)).as_u64();
    }
    total as f64 / trace.len() as f64
}

/// Replays a trace through the flit-level wormhole router, returning
/// mean latency.
///
/// # Panics
///
/// Panics if the network fails to drain (a model bug).
pub fn replay_flit_model(trace: &[(u64, u32, u32, u64)], nodes: u32) -> f64 {
    use atomic_dsm::mesh::{FlitNetwork, FlitNetworkParams, Mesh};
    let cfg = MachineConfig::with_nodes(nodes);
    let mut net = FlitNetwork::new(Mesh::new(&cfg), FlitNetworkParams::default());
    // Injections at a node must be time-ordered; sort by (src, time).
    let mut sorted: Vec<_> = trace.to_vec();
    sorted.sort_by_key(|&(t, s, _, _)| (s, t));
    let mut inject_times = std::collections::HashMap::new();
    for &(t, s, d, f) in &sorted {
        let id = net.inject(
            Cycle::new(t),
            atomic_dsm::sim::NodeId::new(s),
            atomic_dsm::sim::NodeId::new(d),
            f,
        );
        inject_times.insert(id, t);
    }
    let deliveries = net
        .run_until_drained(Cycle::new(100_000_000))
        .expect("drains");
    let total: u64 = deliveries
        .iter()
        .map(|d| d.delivered_at.as_u64() - inject_times[&d.packet])
        .sum();
    total as f64 / deliveries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_selection() {
        assert_eq!(scale(true).procs, 64);
        assert_eq!(scale(false).procs, 16);
    }

    #[test]
    fn llsc_scheme_helper_is_exact() {
        let (cycles, msgs) = llsc_counter_with_scheme(4, 10, LlscScheme::SerialNumber);
        assert!(cycles > 0);
        assert!(msgs > 0);
    }

    #[test]
    fn traces_are_deterministic() {
        let a = traffic_trace(TrafficPattern::Uniform, 16, 100, 1);
        let b = traffic_trace(TrafficPattern::Uniform, 16, 100, 1);
        assert_eq!(a, b);
        for &(_, s, d, f) in &a {
            assert!(s < 16 && d < 16);
            assert!(f >= 2);
        }
    }

    #[test]
    fn both_mesh_models_replay_traces() {
        let trace = traffic_trace(TrafficPattern::Uniform, 16, 200, 7);
        let lat = replay_latency_model(&trace, 16);
        let flit = replay_flit_model(&trace, 16);
        assert!(lat > 0.0);
        assert!(flit > 0.0);
    }

    #[test]
    fn hotspot_is_slower_than_neighbor_in_both_models() {
        let hot = traffic_trace(TrafficPattern::Hotspot, 16, 300, 9);
        let nb = traffic_trace(TrafficPattern::Neighbor, 16, 300, 9);
        assert!(replay_latency_model(&hot, 16) > replay_latency_model(&nb, 16));
        assert!(replay_flit_model(&hot, 16) > replay_flit_model(&nb, 16));
    }

    #[test]
    fn dropcopy_pair_runs() {
        let s = Scale {
            procs: 8,
            rounds: 8,
            tc_size: 8,
            wires: 8,
            tasks: 8,
        };
        let (without, with) = dropcopy_pair(1, 1.0, &s);
        assert!(without > 0.0 && with > 0.0);
    }
}
