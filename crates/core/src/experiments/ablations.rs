//! `figures ablations`: five checks of the paper's modelling choices.
//!
//! | Table | What it checks |
//! |---|---|
//! | mesh model | the paper's network counts contention at entry and exit, not at internal nodes: its latency model against a flit-level wormhole router on synthetic traffic |
//! | reservation schemes | the four §3.1 memory-side LL/SC reservation schemes under a contended UNC lock-free counter |
//! | drop_copy | §4.3.2: `drop_copy` for INV `fetch_and_add` helps at write-run 1 without contention and hurts under contention and long runs |
//! | latency crossover | the write-run length at which INV `fetch_and_add` overtakes UNC, across memory access times and router hop delays the paper does not publish |
//! | trace-driven | §4.1's execution-driven simulation: solo traces of a CAS counter replayed concurrently lose updates, because failed retries are absent from the streams |
//!
//! Each table has a fixed configuration, independent of the figure
//! scale. The drop_copy and crossover points are counter jobs, run as
//! one [`runner`] batch (cached, in parallel, byte-identical at any
//! worker count); the other three are direct computations. Like
//! `modern`, the artifact is not part of `figures all`.
//!
//! [`runner`]: crate::experiments::runner

use crate::experiments::runner::{self, Job, JobOutput};
use crate::experiments::{BarSpec, CounterKind};
use dsm_machine::{
    new_trace, Action, MachineBuilder, ProcCtx, Program, TraceRecorder, TraceReplay,
};
use dsm_mesh::{FlitNetwork, FlitNetworkParams, LatencyNetwork, Mesh};
use dsm_protocol::{LlscScheme, MemOp, OpResult, SyncConfig, SyncPolicy};
use dsm_sim::{Addr, Cycle, MachineConfig, NodeId, SimRng};
use dsm_sync::Primitive;
use std::sync::Arc;

/// One ablation table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AblationTable {
    /// CSV file stem, e.g. `ablation_mesh`.
    pub name: &'static str,
    /// Heading printed above the table.
    pub title: &'static str,
    /// The cells, header row first.
    pub rows: Vec<Vec<String>>,
}

/// Builds all five tables: mesh model, reservation schemes, drop_copy,
/// latency crossover, trace-driven.
pub fn run() -> Vec<AblationTable> {
    let (dropcopy, crossover) = counter_tables();
    vec![
        mesh_table(),
        reservation_table(),
        dropcopy,
        crossover,
        trace_driven_table(),
    ]
}

/// Renders every table under its heading.
pub fn render(tables: &[AblationTable]) -> String {
    tables
        .iter()
        .map(|t| format!("### {}\n\n{}\n", t.title, dsm_stats::render_table(&t.rows)))
        .collect()
}

fn header(cells: &[&str]) -> Vec<String> {
    cells.iter().map(|c| c.to_string()).collect()
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
    let mut rng = SimRng::new(seed);
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
fn replay_latency_model(trace: &[(u64, u32, u32, u64)], nodes: u32) -> f64 {
    let cfg = MachineConfig::with_nodes(nodes);
    let mut net = LatencyNetwork::new(Mesh::new(&cfg), cfg.params.clone());
    let mut total = 0u64;
    for &(t, s, d, f) in trace {
        let arrive = net.send(Cycle::new(t), NodeId::new(s), NodeId::new(d), f);
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
fn replay_flit_model(trace: &[(u64, u32, u32, u64)], nodes: u32) -> f64 {
    let cfg = MachineConfig::with_nodes(nodes);
    let mut net = FlitNetwork::new(Mesh::new(&cfg), FlitNetworkParams::default());
    // Injections at a node must be time-ordered; sort by (src, time).
    let mut sorted: Vec<_> = trace.to_vec();
    sorted.sort_by_key(|&(t, s, _, _)| (s, t));
    let mut inject_times = std::collections::HashMap::new();
    for &(t, s, d, f) in &sorted {
        let id = net.inject(Cycle::new(t), NodeId::new(s), NodeId::new(d), f);
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

/// Mean latency of 2000 messages per pattern on 64 nodes, in both
/// network models.
fn mesh_table() -> AblationTable {
    let mut rows = vec![header(&["pattern", "latency model", "flit-level"])];
    for (name, p) in [
        ("uniform", TrafficPattern::Uniform),
        ("hotspot", TrafficPattern::Hotspot),
        ("neighbor", TrafficPattern::Neighbor),
    ] {
        let trace = traffic_trace(p, 64, 2000, 42);
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", replay_latency_model(&trace, 64)),
            format!("{:.1}", replay_flit_model(&trace, 64)),
        ]);
    }
    AblationTable {
        name: "ablation_mesh",
        title: "Mesh model — latency model vs flit-level router (mean latency, cycles)",
        rows,
    }
}

/// Runs an LL/SC lock-free counter under UNC with the given reservation
/// scheme and a linked-list pool of `procs / 2` entries per home, and
/// returns (elapsed cycles, total messages).
///
/// # Panics
///
/// Panics if the run fails or the counter ends up wrong.
fn llsc_counter_with_scheme(procs: u32, iters: u64, scheme: LlscScheme) -> (u64, u64) {
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

/// 16 processors × 50 increments under each reservation scheme.
fn reservation_table() -> AblationTable {
    let mut rows = vec![header(&["scheme", "cycles", "messages"])];
    for (name, scheme) in [
        ("bit-vector", LlscScheme::BitVector),
        ("linked-list(pool=8)", LlscScheme::LinkedList),
        ("limited-2", LlscScheme::Limited(2)),
        ("limited-4", LlscScheme::Limited(4)),
        ("serial-number", LlscScheme::SerialNumber),
    ] {
        let (cycles, msgs) = llsc_counter_with_scheme(16, 50, scheme);
        rows.push(vec![name.to_string(), cycles.to_string(), msgs.to_string()]);
    }
    AblationTable {
        name: "ablation_reservations",
        title: "LL/SC reservation schemes (16 procs × 50 increments, UNC)",
        rows,
    }
}

/// The drop_copy points: (label, contention, write-run), measured on
/// 16 processors × 24 rounds.
const DROP_COPY: [(&str, u32, f64); 4] = [
    ("c=1 a=1", 1, 1.0),
    ("c=1 a=10", 1, 10.0),
    ("c=4", 4, 1.0),
    ("c=16", 16, 1.0),
];

/// The crossover sweep's memory access times, router hop delays and
/// write-run lengths (16 processors × 16 rounds, c=1).
const MEM_ACCESS: [u64; 3] = [10, 20, 40];
const HOP_DELAY: [u64; 3] = [1, 2, 4];
const CROSSOVER_RUNS: [f64; 7] = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0];

/// The drop_copy and latency-crossover tables, from one runner batch.
fn counter_tables() -> (AblationTable, AblationTable) {
    let unc = BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi);
    let inv = BarSpec::new(SyncPolicy::Inv, Primitive::FetchPhi);
    let inv_drop = BarSpec {
        drop_copy: true,
        ..inv
    };
    let counter = |mcfg: &MachineConfig, bar, c, a, rounds| {
        Job::counter(mcfg.clone(), CounterKind::LockFree, bar, c, a, rounds)
    };
    let base = MachineConfig::with_nodes(16);
    let mut jobs = Vec::new();
    for (_, c, a) in DROP_COPY {
        jobs.push(counter(&base, inv, c, a, 24));
        jobs.push(counter(&base, inv_drop, c, a, 24));
    }
    for mem in MEM_ACCESS {
        for hop in HOP_DELAY {
            let mut mcfg = base.clone();
            mcfg.params.mem_access = mem;
            mcfg.params.hop_delay = hop;
            for a in CROSSOVER_RUNS {
                jobs.push(counter(&mcfg, unc, 1, a, 16));
                jobs.push(counter(&mcfg, inv, 1, a, 16));
            }
        }
    }
    let mut avg = runner::run_all(&jobs)
        .into_iter()
        .map(|out| JobOutput::into_counter(out).avg_cycles);
    let mut pair = move || {
        let first = avg.next().expect("one result per job");
        (first, avg.next().expect("one result per job"))
    };

    let mut rows = vec![header(&["scenario", "without", "with drop_copy"])];
    for (name, _, _) in DROP_COPY {
        let (without, with) = pair();
        rows.push(vec![
            name.to_string(),
            format!("{without:.0}"),
            format!("{with:.0}"),
        ]);
    }
    let dropcopy = AblationTable {
        name: "ablation_dropcopy",
        title: "drop_copy for INV fetch_and_add (avg cycles/update, 16 procs)",
        rows,
    };

    let mut rows = vec![header(&["mem_access", "hop_delay", "INV wins from a >="])];
    for mem in MEM_ACCESS {
        for hop in HOP_DELAY {
            // Every pair is consumed, so the next row reads its own.
            let mut from = None;
            for a in CROSSOVER_RUNS {
                let (unc, inv) = pair();
                if from.is_none() && inv < unc {
                    from = Some(a);
                }
            }
            rows.push(vec![
                mem.to_string(),
                hop.to_string(),
                from.map_or("never (a<=10)".into(), |a| a.to_string()),
            ]);
        }
    }
    let crossover = AblationTable {
        name: "ablation_latency",
        title: "Write-run length where INV overtakes UNC (fetch_and_add, c=1, 16 procs)",
        rows,
    };
    (dropcopy, crossover)
}

/// The counter word of the trace-driven ablation.
const X: Addr = Addr::new(0x40);

/// A CAS counter: load, then compare-and-swap until `iters` succeed.
fn cas_counter(iters: u64) -> impl Program {
    let mut left = iters;
    let mut loaded = false;
    move |ctx: &mut ProcCtx<'_>| match (loaded, ctx.last) {
        (false, _) => {
            loaded = true;
            Action::Op(MemOp::Load { addr: X })
        }
        (true, Some(OpResult::Loaded { value, .. })) => Action::Op(MemOp::Cas {
            addr: X,
            expected: value,
            new: value + 1,
        }),
        (true, Some(OpResult::CasDone { success, observed })) => {
            if success {
                left -= 1;
                if left == 0 {
                    return Action::Done;
                }
                Action::Op(MemOp::Load { addr: X })
            } else {
                Action::Op(MemOp::Cas {
                    addr: X,
                    expected: observed,
                    new: observed + 1,
                })
            }
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// A `procs`-node machine builder with `X` under INV.
fn inv_machine(procs: u32) -> MachineBuilder {
    let mut b = MachineBuilder::new(MachineConfig::with_nodes(procs));
    b.register_sync(
        X,
        SyncConfig {
            policy: SyncPolicy::Inv,
            ..Default::default()
        },
    );
    b
}

/// Records one processor's CAS-counter reference stream, run alone.
fn record_solo(iters: u64) -> Vec<Action> {
    let trace = new_trace();
    let mut b = inv_machine(2);
    b.add_program(TraceRecorder::new(cas_counter(iters), Arc::clone(&trace)));
    b.add_program(|_: &mut ProcCtx<'_>| Action::Done);
    b.build()
        .run(Cycle::new(100_000_000))
        .expect("solo run completes");
    let recorded = trace.lock().expect("trace lock").clone();
    recorded
}

/// Replays the solo stream on `procs` processors at once, then runs the
/// real counter. Returns (replayed final count, exact count, replay
/// cycles, execution-driven cycles).
///
/// # Panics
///
/// Panics if a run fails or the execution-driven counter is wrong.
fn trace_vs_exec(procs: u32, iters: u64) -> (u64, u64, u64, u64) {
    let trace = record_solo(iters);
    let mut b = inv_machine(procs);
    for _ in 0..procs {
        b.add_program(TraceReplay::new(trace.clone()));
    }
    let mut m = b.build();
    let replay = m.run(Cycle::new(1_000_000_000)).expect("replay completes");
    let replayed = m.read_word(X);

    let mut b = inv_machine(procs);
    for _ in 0..procs {
        b.add_program(cas_counter(iters));
    }
    let mut m = b.build();
    let exec = m.run(Cycle::new(1_000_000_000)).expect("run completes");
    let exact = procs as u64 * iters;
    assert_eq!(m.read_word(X), exact);
    (
        replayed,
        exact,
        replay.cycles.as_u64(),
        exec.cycles.as_u64(),
    )
}

/// 25 increments per processor, trace-driven and execution-driven.
fn trace_driven_table() -> AblationTable {
    let mut rows = vec![header(&[
        "procs",
        "exact count",
        "trace-driven count",
        "trace cycles",
        "exec cycles",
    ])];
    for procs in [2u32, 4, 8, 16] {
        let (replayed, exact, tc, ec) = trace_vs_exec(procs, 25);
        rows.push(
            [procs as u64, exact, replayed, tc, ec]
                .map(|v| v.to_string())
                .to_vec(),
        );
    }
    AblationTable {
        name: "ablation_tracedriven",
        title: "Trace-driven vs execution-driven simulation (25 increments per processor)",
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell of every table. A change to any ablation result fails
    /// here; if the change is intended, update the cells and the
    /// "Ablations" section of EXPERIMENTS.md together.
    #[test]
    fn ablation_tables_match_golden_cells() {
        let golden: [(&str, &[&[&str]]); 5] = [
            (
                "ablation_mesh",
                &[
                    &["pattern", "latency model", "flit-level"],
                    &["uniform", "68.7", "194.8"],
                    &["hotspot", "4030.6", "3992.6"],
                    &["neighbor", "44.5", "43.8"],
                ],
            ),
            (
                "ablation_reservations",
                &[
                    &["scheme", "cycles", "messages"],
                    &["bit-vector", "298021", "24592"],
                    &["linked-list(pool=8)", "322850", "26900"],
                    &["limited-2", "323543", "26958"],
                    &["limited-4", "246097", "20332"],
                    &["serial-number", "298221", "24592"],
                ],
            ),
            (
                "ablation_dropcopy",
                &[
                    &["scenario", "without", "with drop_copy"],
                    &["c=1 a=1", "87", "81"],
                    &["c=1 a=10", "11", "74"],
                    &["c=4", "76", "96"],
                    &["c=16", "73", "97"],
                ],
            ),
            (
                "ablation_latency",
                &[
                    &["mem_access", "hop_delay", "INV wins from a >="],
                    &["10", "1", "3"],
                    &["10", "2", "3"],
                    &["10", "4", "3"],
                    &["20", "1", "3"],
                    &["20", "2", "3"],
                    &["20", "4", "3"],
                    &["40", "1", "3"],
                    &["40", "2", "3"],
                    &["40", "4", "2"],
                ],
            ),
            (
                "ablation_tracedriven",
                &[
                    &[
                        "procs",
                        "exact count",
                        "trace-driven count",
                        "trace cycles",
                        "exec cycles",
                    ],
                    &["2", "50", "25", "675", "649"],
                    &["4", "100", "25", "3348", "3743"],
                    &["8", "200", "25", "7838", "8041"],
                    &["16", "400", "25", "15312", "16968"],
                ],
            ),
        ];
        let tables = run();
        assert_eq!(tables.len(), golden.len());
        for (table, (name, rows)) in tables.iter().zip(golden) {
            assert_eq!(table.name, name);
            let want: Vec<Vec<String>> = rows
                .iter()
                .map(|r| r.iter().map(|c| c.to_string()).collect())
                .collect();
            assert_eq!(table.rows, want, "{name} changed");
        }
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
        assert!(replay_latency_model(&trace, 16) > 0.0);
        assert!(replay_flit_model(&trace, 16) > 0.0);
    }

    #[test]
    fn hotspot_is_slower_than_neighbor_in_both_models() {
        let hot = traffic_trace(TrafficPattern::Hotspot, 16, 300, 9);
        let nb = traffic_trace(TrafficPattern::Neighbor, 16, 300, 9);
        assert!(replay_latency_model(&hot, 16) > replay_latency_model(&nb, 16));
        assert!(replay_flit_model(&hot, 16) > replay_flit_model(&nb, 16));
    }
}
