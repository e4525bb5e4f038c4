//! The modern-architecture ablation: "Table 1 on a 2020s machine".
//!
//! The paper's conclusions were measured on a 1995-style flat DASH
//! machine. This module re-runs the paper's measurement apparatus on a
//! matrix of modern machine variants — MESI(F)-style read forwarding,
//! NUMA clustering with an inter-cluster penalty, a two-level
//! hierarchical directory, and wide (128-byte) cache lines — and adds
//! the fourth modern implementation point the paper could not have:
//! in-memory *home-node atomics* (ARM-LSE-style remote atomics, where
//! `fetch_and_Φ`/`compare_and_swap` execute at the home memory without
//! migrating the line).
//!
//! Three artifact families come out, all deterministic:
//!
//! * per-variant **serialized message chains** (Table-1-style rows) for
//!   loads and `fetch_and_add` against each interesting directory
//!   state, across the cached / uncached / home-atomic implementations;
//! * per-variant **counter sweeps** (Figure 3–5-style tables) for the
//!   four implementation points across write-run and contention levels;
//! * a **false-sharing table**: two independent counters packed into
//!   one line vs. split across lines — cache-coherent atomics pay a
//!   migration ping-pong for packing, home-node atomics do not.
//!
//! `figures modern` renders all of it; RESULTS.md is the write-up.
//! The variant matrix is deliberately *excluded* from `figures all` so
//! the committed paper goldens stay byte-identical.

use crate::experiments::counters::CounterGraph;
use crate::experiments::runner::{self, Job, JobOutput};
use crate::experiments::{BarSpec, CounterKind, Scale};
use dsm_machine::{Action, MachineBuilder, ProcCtx};
use dsm_protocol::{MemOp, PhiOp, SyncConfig, SyncPolicy};
use dsm_sim::{Addr, Cycle, MachineConfig, ProtoSpec};
use dsm_sync::Primitive;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// One machine variant of the ablation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// Short key, usable as a CSV/artifact tag.
    pub key: &'static str,
    /// Human-readable title for table headings.
    pub title: &'static str,
    /// The [`ProtoSpec`] grammar string applied to the baseline
    /// machine (empty = the paper's flat DASH machine).
    pub spec: &'static str,
}

/// The variant matrix, in presentation order. The DASH row is the
/// paper's machine and doubles as a sanity anchor: its numbers must
/// match the committed paper artifacts.
pub const VARIANTS: [Variant; 5] = [
    Variant {
        key: "dash",
        title: "DASH baseline (the paper's machine)",
        spec: "",
    },
    Variant {
        key: "mesif",
        title: "MESI(F)-style read forwarding",
        spec: "mesif",
    },
    Variant {
        key: "numa",
        title: "NUMA: 4 clusters, 32-cycle penalty",
        spec: "clusters=4,penalty=32",
    },
    Variant {
        key: "hier",
        title: "Hierarchical 2-level directory (4 clusters, 32-cycle penalty)",
        spec: "hier,clusters=4,penalty=32",
    },
    Variant {
        key: "wide",
        title: "Wide 128-byte cache lines",
        spec: "line=128",
    },
];

impl Variant {
    /// The variant's machine configuration at `nodes` processors.
    ///
    /// # Panics
    ///
    /// Panics if the static spec string is malformed (a bug in the
    /// [`VARIANTS`] table).
    pub fn machine(&self, nodes: u32) -> MachineConfig {
        let mut m = MachineConfig::with_nodes(nodes);
        if !self.spec.is_empty() {
            ProtoSpec::from_spec(self.spec)
                .expect("static variant spec parses")
                .apply(&mut m);
        }
        m
    }
}

/// The four implementation points of the modern sweep: the paper's
/// CC-cached, CC-uncached and software LL/SC, plus home-node atomics.
pub fn modern_bars() -> Vec<BarSpec> {
    vec![
        BarSpec::new(SyncPolicy::Inv, Primitive::FetchPhi),
        BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi),
        BarSpec::new(SyncPolicy::Inv, Primitive::Llsc),
        BarSpec {
            home_atomics: true,
            ..BarSpec::new(SyncPolicy::Inv, Primitive::FetchPhi)
        },
    ]
}

/// One row of a variant's serialized-message-chain table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainRow {
    /// Scenario name (operation + directory state it runs against).
    pub scenario: &'static str,
    /// Chain under the INV (cache-coherent, cached) implementation.
    pub cached: u32,
    /// Chain under the UNC (uncached) implementation.
    pub uncached: u32,
    /// Chain under INV with home-node atomics.
    pub home: u32,
}

/// One variant's full report.
#[derive(Debug, Clone)]
pub struct VariantReport {
    /// The machine variant measured.
    pub variant: Variant,
    /// The Table-1-style chain rows.
    pub chains: Vec<ChainRow>,
    /// Figure 3–5-style counter sweeps, one per counter kind.
    pub sweeps: Vec<(CounterKind, Vec<CounterGraph>)>,
}

/// One row of the false-sharing table: average cycles per update for
/// the two-counter workload, with both counters packed into one line
/// vs. split across two lines.
#[derive(Debug, Clone)]
pub struct FalseSharingRow {
    /// Implementation label.
    pub implementation: String,
    /// Average op latency in cycles, both counters in one line.
    pub same_line: f64,
    /// Average op latency in cycles, counters on separate lines.
    pub split_line: f64,
}

/// The complete modern-architecture ablation artifact.
#[derive(Debug, Clone)]
pub struct ModernReport {
    /// Per-variant chain tables and counter sweeps.
    pub variants: Vec<VariantReport>,
    /// The false-sharing table (measured on the baseline machine).
    pub false_sharing: Vec<FalseSharingRow>,
    /// Processors used for the false-sharing workload.
    pub fs_procs: u32,
}

/// The sync line every chain micro-machine measures against.
const LINE: Addr = Addr::new(0x40);

/// Chain micro-machines run on this many nodes. Eight nodes with
/// `clusters=4` gives two nodes per cluster, so node 0 shares node 1's
/// cluster and node 2 does not — which is exactly what the
/// hierarchical-directory rows need to demonstrate.
const CHAIN_NODES: u32 = 8;

/// Builds a `CHAIN_NODES`-node machine on the variant's configuration,
/// lets `prime.0` issue `prime.1`, then processor 1 issue
/// `prime_local`, then measures the serialized chain of `op` issued by
/// processor 1. Priming stages are separated by global barriers.
fn measure_chain(
    mcfg: MachineConfig,
    sync: SyncConfig,
    prime: Option<(u32, MemOp)>,
    prime_local: Option<MemOp>,
    op: MemOp,
) -> u32 {
    let chain: Arc<AtomicU32> = Arc::new(AtomicU32::new(u32::MAX));
    let mut b = MachineBuilder::new(mcfg);
    b.register_sync(LINE, sync);
    for p in 0..CHAIN_NODES {
        let chain = Arc::clone(&chain);
        let mut stage = 0u32;
        b.add_program(move |ctx: &mut ProcCtx<'_>| {
            stage += 1;
            match stage {
                1 => {
                    if let Some((by, prime_op)) = prime {
                        if p == by {
                            return Action::Op(prime_op);
                        }
                    }
                    Action::Compute(1)
                }
                2 => Action::Barrier(0),
                3 => {
                    if p == 1 {
                        if let Some(prime_op) = prime_local {
                            return Action::Op(prime_op);
                        }
                    }
                    Action::Compute(1)
                }
                4 => Action::Barrier(1),
                5 => {
                    if p == 1 {
                        Action::Op(op)
                    } else {
                        Action::Compute(1)
                    }
                }
                6 => {
                    if p == 1 {
                        chain.store(
                            ctx.last_chain.expect("measured op completed"),
                            Ordering::Relaxed,
                        );
                    }
                    Action::Done
                }
                _ => unreachable!(),
            }
        });
    }
    let mut m = b.build();
    m.run(Cycle::new(1_000_000))
        .expect("chain micro-run completes");
    let c = chain.load(Ordering::Relaxed);
    assert_ne!(c, u32::MAX, "measured op never ran");
    c
}

/// Measures one variant's chain table.
pub fn chain_table(variant: &Variant) -> Vec<ChainRow> {
    let load = MemOp::Load { addr: LINE };
    let store = MemOp::Store {
        addr: LINE,
        value: 1,
    };
    let faa = MemOp::FetchPhi {
        addr: LINE,
        op: PhiOp::Add(1),
    };
    // (scenario, remote prime (proc, op), local prime, measured op).
    // Node 0 shares node 1's NUMA cluster at `clusters=4`; node 2 does
    // not — the two "shared" load rows differ only in which one primes.
    type Scenario = (&'static str, Option<(u32, MemOp)>, Option<MemOp>, MemOp);
    let scenarios: Vec<Scenario> = vec![
        ("load, shared in cluster", Some((0, load)), None, load),
        ("load, shared out of cluster", Some((2, load)), None, load),
        ("load, remote dirty", Some((0, store)), None, load),
        ("fetch&add, uncached", None, None, faa),
        ("fetch&add, remote shared", Some((0, load)), None, faa),
        ("fetch&add, remote dirty", Some((0, store)), None, faa),
        ("fetch&add, cached local", None, Some(store), faa),
    ];
    let configs = [
        SyncConfig {
            policy: SyncPolicy::Inv,
            ..Default::default()
        },
        SyncConfig {
            policy: SyncPolicy::Unc,
            ..Default::default()
        },
        SyncConfig {
            policy: SyncPolicy::Inv,
            home_atomics: true,
            ..Default::default()
        },
    ];
    scenarios
        .into_iter()
        .map(|(scenario, prime, prime_local, op)| {
            let m =
                |sync| measure_chain(variant.machine(CHAIN_NODES), sync, prime, prime_local, op);
            ChainRow {
                scenario,
                cached: m(configs[0]),
                uncached: m(configs[1]),
                home: m(configs[2]),
            }
        })
        .collect()
}

/// The `(contention, write_run)` columns of the modern counter sweeps:
/// one write-run point (where cached implementations amortize, and
/// home-node atomics give that amortization up) and a contention ramp.
fn sweep_points(procs: u32) -> Vec<(u32, f64)> {
    let mut pts = vec![(1, 4.0)];
    let mut seen = std::collections::HashSet::new();
    for c in [2u32, 4, 16] {
        let c = c.min(procs);
        if seen.insert(c) {
            pts.push((c, 1.0));
        }
    }
    pts
}

/// Runs one variant's counter sweep for one counter kind, fanned out
/// across the experiment [`runner`].
pub fn counter_sweep(variant: &Variant, kind: CounterKind, scale: &Scale) -> Vec<CounterGraph> {
    let bars = modern_bars();
    let points = sweep_points(scale.procs);
    let jobs: Vec<Job> = points
        .iter()
        .flat_map(|&(c, a)| {
            bars.iter().map(move |b| {
                Job::counter(variant.machine(scale.procs), kind, *b, c, a, scale.rounds)
            })
        })
        .collect();
    let mut results = runner::run_all(&jobs)
        .into_iter()
        .map(JobOutput::into_counter);
    points
        .into_iter()
        .map(|(contention, write_run)| CounterGraph {
            contention,
            write_run,
            points: bars
                .iter()
                .map(|_| results.next().expect("one result per job"))
                .collect(),
        })
        .collect()
}

/// Second counter of the false-sharing pair, packed into [`LINE`]'s
/// line (8 bytes past the first counter — shares the line at every
/// supported line size).
const FS_SAME: Addr = Addr::new(0x48);
/// Second counter on its own line (512 bytes away — a different line
/// at every supported line size up to 512 bytes).
const FS_SPLIT: Addr = Addr::new(0x240);

/// Local work between consecutive counter updates in the
/// false-sharing workload. Back-to-back hammering would let the line's
/// current owner amortize each steal over a burst of local hits; the
/// classic false-sharing regime is *spaced* updates to logically
/// private data, where the rival's recall lands during the think time
/// and every packed-line access misses.
const FS_THINK: u64 = 32;

/// Runs the two-counter workload on a `procs`-node machine: processor
/// 0 privately owns the counter at [`LINE`], processor 1 privately
/// owns the counter at `other`; each performs `rounds` fetch&adds with
/// [`FS_THINK`] cycles of local work in between, no barriers. There is
/// **no true sharing** — each counter has exactly one writer — so with
/// the counters on separate lines a cache-coherent implementation
/// turns every op into a local hit, and with both packed into one line
/// it pays a full remote-recall ping-pong per op. Returns the average
/// operation latency in cycles (elapsed time per round, net of the
/// think time).
fn fs_measure(sync: SyncConfig, other: Addr, procs: u32, rounds: u64) -> f64 {
    let mut b = MachineBuilder::new(MachineConfig::with_nodes(procs));
    b.register_sync(LINE, sync);
    b.register_sync(other, sync);
    for p in 0..procs {
        let target = if p == 0 { LINE } else { other };
        let mut done_ops = 0u64;
        let mut thinking = true;
        b.add_program(move |_ctx: &mut ProcCtx<'_>| {
            if p > 1 || done_ops >= rounds {
                return Action::Done;
            }
            thinking = !thinking;
            if thinking {
                return Action::Compute(FS_THINK);
            }
            done_ops += 1;
            Action::Op(MemOp::FetchPhi {
                addr: target,
                op: PhiOp::Add(1),
            })
        });
    }
    let mut m = b.build();
    let report = m
        .run(Cycle::new(1_000_000_000))
        .expect("false-sharing micro-run completes");
    assert_eq!(m.read_word(LINE), rounds, "counter A lost updates");
    assert_eq!(m.read_word(other), rounds, "counter B lost updates");
    report.cycles.as_u64() as f64 / rounds as f64 - FS_THINK as f64
}

/// Measures the false-sharing table on the baseline machine: cached
/// INV fetch&add, uncached fetch&add, and home-node fetch&add, each
/// with the privately-owned counter pair packed into one line and
/// split across lines (see `fs_measure` for the workload).
pub fn false_sharing(procs: u32, rounds: u64) -> Vec<FalseSharingRow> {
    let configs = [
        (
            "INV FAP",
            SyncConfig {
                policy: SyncPolicy::Inv,
                ..Default::default()
            },
        ),
        (
            "UNC FAP",
            SyncConfig {
                policy: SyncPolicy::Unc,
                ..Default::default()
            },
        ),
        (
            "INV FAP @home",
            SyncConfig {
                policy: SyncPolicy::Inv,
                home_atomics: true,
                ..Default::default()
            },
        ),
    ];
    configs
        .into_iter()
        .map(|(label, sync)| FalseSharingRow {
            implementation: label.to_string(),
            same_line: fs_measure(sync, FS_SAME, procs, rounds),
            split_line: fs_measure(sync, FS_SPLIT, procs, rounds),
        })
        .collect()
}

/// Runs the full modern-architecture ablation at the given scale.
///
/// Chain tables and the false-sharing workload run as directed
/// micro-machines (microseconds each); counter sweeps fan out across
/// the experiment [`runner`]. The whole artifact is byte-identical
/// across `--jobs` settings.
pub fn run(scale: &Scale) -> ModernReport {
    let variants = VARIANTS
        .iter()
        .map(|v| VariantReport {
            variant: *v,
            chains: chain_table(v),
            sweeps: [
                CounterKind::LockFree,
                CounterKind::TtsLock,
                CounterKind::McsLock,
            ]
            .into_iter()
            .map(|kind| (kind, counter_sweep(v, kind, scale)))
            .collect(),
        })
        .collect();
    let fs_procs = scale.procs.min(8);
    ModernReport {
        variants,
        false_sharing: false_sharing(fs_procs, scale.rounds),
        fs_procs,
    }
}

/// Renders the whole report as the `figures modern` text artifact.
pub fn render(report: &ModernReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for vr in &report.variants {
        let _ = writeln!(
            out,
            "### {} — spec `{}`\n",
            vr.variant.title,
            if vr.variant.spec.is_empty() {
                "dash"
            } else {
                vr.variant.spec
            }
        );
        let mut rows = vec![vec![
            "serialized messages".to_string(),
            "INV cached".to_string(),
            "UNC".to_string(),
            "INV @home".to_string(),
        ]];
        for r in &vr.chains {
            rows.push(vec![
                r.scenario.to_string(),
                r.cached.to_string(),
                r.uncached.to_string(),
                r.home.to_string(),
            ]);
        }
        let _ = writeln!(out, "{}", dsm_stats::render_table(&rows));
        for (kind, graphs) in &vr.sweeps {
            let _ = writeln!(
                out,
                "{}",
                crate::experiments::counters::render(*kind, graphs)
            );
        }
    }
    let _ = writeln!(
        out,
        "### False sharing — two privately-owned counters, packed vs split lines (p={}, avg op cycles)\n",
        report.fs_procs
    );
    let mut rows = vec![vec![
        "implementation".to_string(),
        "same line".to_string(),
        "split lines".to_string(),
        "packed/split".to_string(),
    ]];
    for r in &report.false_sharing {
        rows.push(vec![
            r.implementation.clone(),
            format!("{:.0}", r.same_line),
            format!("{:.0}", r.split_line),
            format!("{:.2}", r.same_line / r.split_line),
        ]);
    }
    let _ = writeln!(out, "{}", dsm_stats::render_table(&rows));
    out
}

/// The flat CSV form of the report: `variant, table, row, column,
/// value`, in rendering order.
pub fn csv_rows(report: &ModernReport) -> Vec<Vec<String>> {
    let mut rows = vec![vec![
        "variant".to_string(),
        "table".to_string(),
        "row".to_string(),
        "column".to_string(),
        "value".to_string(),
    ]];
    for vr in &report.variants {
        let v = vr.variant.key;
        for r in &vr.chains {
            for (col, val) in [
                ("inv_cached", r.cached),
                ("unc", r.uncached),
                ("inv_home", r.home),
            ] {
                rows.push(vec![
                    v.to_string(),
                    "chains".to_string(),
                    r.scenario.to_string(),
                    col.to_string(),
                    val.to_string(),
                ]);
            }
        }
        for (kind, graphs) in &vr.sweeps {
            for g in graphs {
                let col = if g.contention == 1 {
                    format!("c=1 a={}", g.write_run)
                } else {
                    format!("c={}", g.contention)
                };
                for p in &g.points {
                    rows.push(vec![
                        v.to_string(),
                        format!("{}_counter", kind.label()),
                        p.bar.label(),
                        col.clone(),
                        format!("{:.2}", p.avg_cycles),
                    ]);
                }
            }
        }
    }
    for r in &report.false_sharing {
        for (col, val) in [("same_line", r.same_line), ("split_lines", r.split_line)] {
            rows.push(vec![
                "dash".to_string(),
                "false_sharing".to_string(),
                r.implementation.clone(),
                col.to_string(),
                format!("{val:.2}"),
            ]);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            procs: 8,
            rounds: 8,
            tc_size: 8,
            wires: 16,
            tasks: 16,
        }
    }

    #[test]
    fn dash_chains_reproduce_the_paper_anchors() {
        let rows = chain_table(&VARIANTS[0]);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.scenario == name)
                .unwrap_or_else(|| panic!("row {name}"))
                .clone()
        };
        // The cached column reproduces Table 1's INV rows; UNC is the
        // constant 2-message column; home-node atomics never exceed
        // the cached chain and never beat UNC.
        let uncached = get("fetch&add, uncached");
        assert_eq!(
            (uncached.cached, uncached.uncached, uncached.home),
            (2, 2, 2)
        );
        let shared = get("fetch&add, remote shared");
        assert_eq!((shared.cached, shared.uncached, shared.home), (3, 2, 3));
        let dirty = get("fetch&add, remote dirty");
        assert_eq!((dirty.cached, dirty.uncached, dirty.home), (4, 2, 4));
        let local = get("fetch&add, cached local");
        assert_eq!(local.cached, 0, "local exclusive hit is free under CC");
        assert_eq!(local.uncached, 2);
        assert!(local.home >= 2, "home atomics always cross the network");
    }

    #[test]
    fn mesif_and_hier_forward_only_where_they_should() {
        let dash = chain_table(&VARIANTS[0]);
        let mesif = chain_table(&VARIANTS[1]);
        let hier = chain_table(&VARIANTS[3]);
        let find = |rows: &[ChainRow], name: &str| {
            rows.iter().find(|r| r.scenario == name).unwrap().cached
        };
        // DASH answers shared reads from memory: 2 messages. A
        // forwarding variant interposes the sharer: 3 serialized
        // messages (the modern trade: more messages, no memory access).
        assert_eq!(find(&dash, "load, shared in cluster"), 2);
        assert_eq!(find(&mesif, "load, shared in cluster"), 3);
        assert_eq!(find(&hier, "load, shared in cluster"), 3);
        // The hierarchical directory only forwards within the
        // requester's cluster; MESI(F) forwards from anywhere.
        assert_eq!(find(&dash, "load, shared out of cluster"), 2);
        assert_eq!(find(&mesif, "load, shared out of cluster"), 3);
        assert_eq!(find(&hier, "load, shared out of cluster"), 2);
    }

    #[test]
    fn false_sharing_diverges_under_cc_and_converges_under_home_atomics() {
        let rows = false_sharing(8, 16);
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.implementation == label)
                .unwrap_or_else(|| panic!("row {label}"))
                .clone()
        };
        let cc = get("INV FAP");
        let hna = get("INV FAP @home");
        // Packing two privately-owned counters into one line must hurt
        // a cache-coherent implementation: split lines are all local
        // hits, the packed line ping-pongs (each steal's cost amortizes
        // over the burst the owner completes while the rival's request
        // is in flight, so the ratio is well above 1 but not the raw
        // recall/hit latency ratio)...
        assert!(
            cc.same_line > cc.split_line * 1.8,
            "CC same-line ({:.0}) must clearly exceed split-line ({:.0})",
            cc.same_line,
            cc.split_line
        );
        // ...and must not hurt home-node atomics, which never migrate
        // the line.
        let ratio = hna.same_line / hna.split_line;
        assert!(
            ratio < 1.15,
            "home-atomic same-line ({:.0}) must stay near split-line ({:.0}), ratio {ratio:.2}",
            hna.same_line,
            hna.split_line
        );
    }

    #[test]
    fn counter_sweep_runs_all_four_implementation_points() {
        let graphs = counter_sweep(&VARIANTS[0], CounterKind::LockFree, &tiny());
        assert_eq!(graphs.len(), sweep_points(8).len());
        let labels: Vec<String> = graphs[0].points.iter().map(|p| p.bar.label()).collect();
        assert_eq!(labels, ["INV FAP", "UNC FAP", "INV LLSC", "INV FAP @home"]);
        for g in &graphs {
            for p in &g.points {
                assert!(p.avg_cycles > 0.0, "{}", p.bar.label());
            }
        }
    }

    #[test]
    fn report_renders_and_serializes_every_variant() {
        // One variant's worth through the full pipeline keeps this test
        // fast; the figures binary exercises the whole matrix.
        let scale = tiny();
        let report = ModernReport {
            variants: vec![VariantReport {
                variant: VARIANTS[1],
                chains: chain_table(&VARIANTS[1]),
                sweeps: vec![(
                    CounterKind::LockFree,
                    counter_sweep(&VARIANTS[1], CounterKind::LockFree, &scale),
                )],
            }],
            false_sharing: false_sharing(4, 4),
            fs_procs: 4,
        };
        let text = render(&report);
        assert!(text.contains("MESI(F)"));
        assert!(text.contains("load, shared in cluster"));
        assert!(text.contains("False sharing"));
        let csv = csv_rows(&report);
        assert!(csv.len() > 20);
        assert!(csv.iter().skip(1).all(|r| r.len() == 5));
    }
}
