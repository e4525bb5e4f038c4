//! Lock-free structure throughput tables (beyond the paper).
//!
//! Sweeps the three lock-free structures of [`dsm_sync::lockfree`] —
//! Michael–Scott queue, Harris list, fixed-bucket hash map — across
//! every link primitive (native LL/SC, the Blelloch–Wei LL/SC
//! emulation over pointer-width CAS, plain CAS) and every coherence
//! policy (INV, UPD, UNC), reporting average simulated cycles per
//! completed operation.
//!
//! Every point goes through the experiment [`runner`], so the tables
//! are byte-identical at any worker count, and every point re-checks
//! the structure invariants (value conservation, per-producer FIFO,
//! sortedness, key conservation — see
//! [`dsm_workloads::check_invariants`]) before it is reported. Full
//! linearizability checking lives in `tests/linearizability.rs`; this
//! module is the benchmark surface.

use crate::experiments::runner::{self, Job, JobOutput, PreparedRun};
use crate::experiments::Scale;
use dsm_protocol::{SyncConfig, SyncPolicy};
use dsm_sim::{Cycle, MachineConfig};
use dsm_sync::LinkPrim;
use dsm_workloads::{build_lockfree, check_invariants, LfConfig, LfStructure};

/// One measured cell: a structure under one primitive × policy.
#[derive(Debug, Clone)]
pub struct LockfreePoint {
    /// The structure exercised.
    pub structure: LfStructure,
    /// Link-word primitive discipline.
    pub prim: LinkPrim,
    /// Coherence policy on every structure line.
    pub policy: SyncPolicy,
    /// Completed operations (history length).
    pub ops: u64,
    /// Total elapsed cycles of the run.
    pub cycles: u64,
    /// Average cycles per completed operation.
    pub avg_cycles: f64,
    /// Cycle-exact latency histogram over every operation of the run.
    pub latency: dsm_stats::LatencyHist,
}

/// One structure's table: all primitive × policy points, primitive-major
/// in [`LinkPrim::ALL`] × [`SyncPolicy::ALL`] order.
#[derive(Debug, Clone)]
pub struct LockfreeTable {
    /// The structure the table measures.
    pub structure: LfStructure,
    /// The measured points.
    pub points: Vec<LockfreePoint>,
}

/// The workload parameters a [`Scale`] implies: operations per
/// processor, set key space, and map bucket count.
pub fn workload_params(scale: &Scale) -> (u32, u64, u32) {
    (scale.rounds.max(1) as u32, 16, 4)
}

/// Measures one point through the runner (cached per process).
///
/// # Panics
///
/// Panics if the run fails, coherence validation fails, or a structure
/// invariant is violated.
pub fn measure(
    mcfg: MachineConfig,
    structure: LfStructure,
    prim: LinkPrim,
    policy: SyncPolicy,
    ops_per_proc: u32,
    key_space: u64,
    buckets: u32,
) -> LockfreePoint {
    runner::run_one(&Job::lockfree(
        mcfg,
        structure,
        prim,
        policy,
        ops_per_proc,
        key_space,
        buckets,
    ))
    .into_lockfree()
}

/// Regenerates the full table set: one table per structure, all
/// primitive × policy cells, fanned out across the runner's pool.
pub fn run_tables(scale: &Scale) -> Vec<LockfreeTable> {
    let (ops_per_proc, key_space, buckets) = workload_params(scale);
    let jobs: Vec<Job> = LfStructure::ALL
        .into_iter()
        .flat_map(|structure| {
            LinkPrim::ALL.into_iter().flat_map(move |prim| {
                SyncPolicy::ALL.into_iter().map(move |policy| {
                    Job::lockfree(
                        MachineConfig::with_nodes(scale.procs),
                        structure,
                        prim,
                        policy,
                        ops_per_proc,
                        key_space,
                        buckets,
                    )
                })
            })
        })
        .collect();
    let mut results = runner::run_all(&jobs)
        .into_iter()
        .map(JobOutput::into_lockfree);
    LfStructure::ALL
        .into_iter()
        .map(|structure| LockfreeTable {
            structure,
            points: (0..LinkPrim::ALL.len() * SyncPolicy::ALL.len())
                .map(|_| results.next().expect("one result per job"))
                .collect(),
        })
        .collect()
}

/// The tables' CSV rows (header first): one row per point.
pub fn csv_rows(tables: &[LockfreeTable]) -> Vec<Vec<String>> {
    let mut rows = vec![vec![
        "structure".to_string(),
        "primitive".to_string(),
        "policy".to_string(),
        "ops".to_string(),
        "avg_cycles".to_string(),
    ]];
    for t in tables {
        for p in &t.points {
            rows.push(vec![
                t.structure.label().to_string(),
                p.prim.label().to_string(),
                p.policy.label().to_string(),
                p.ops.to_string(),
                format!("{:.2}", p.avg_cycles),
            ]);
        }
    }
    rows
}

/// Renders the tables as aligned text (rows = primitives, columns =
/// policies, cells = cycles per operation), one block per structure.
pub fn render(tables: &[LockfreeTable]) -> String {
    let mut out = String::new();
    for t in tables {
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut header = vec![format!("{} cyc/op", t.structure.label())];
        header.extend(SyncPolicy::ALL.iter().map(|p| p.label().to_string()));
        rows.push(header);
        for (i, prim) in LinkPrim::ALL.into_iter().enumerate() {
            let mut row = vec![prim.label().to_string()];
            for (j, _) in SyncPolicy::ALL.iter().enumerate() {
                let p = &t.points[i * SyncPolicy::ALL.len() + j];
                row.push(format!("{:.0}", p.avg_cycles));
            }
            rows.push(row);
        }
        out.push_str(&dsm_stats::render_table(&rows));
        out.push('\n');
    }
    out
}

/// Builds one point's machine without running it. Only the [`runner`]
/// calls this; everything else goes through [`measure`]/[`run_tables`]
/// so the cache and per-job seed derivation stay in effect.
///
/// The finish stage reports the run's failure diagnostic, a
/// coherence-validation failure, or a structure-invariant violation —
/// all deterministic conditions.
#[allow(clippy::too_many_arguments)]
pub(crate) fn prepare(
    mcfg: MachineConfig,
    structure: LfStructure,
    prim: LinkPrim,
    policy: SyncPolicy,
    ops_per_proc: u32,
    key_space: u64,
    buckets: u32,
) -> PreparedRun {
    let label = format!("{} {} {}", structure.label(), prim, policy.label());
    let cfg = LfConfig {
        structure,
        prim,
        sync: SyncConfig {
            policy,
            ..Default::default()
        },
        ops_per_proc,
        key_space,
        buckets,
    };
    let (machine, run) = build_lockfree(mcfg, &cfg);
    let err_label = label.clone();
    PreparedRun {
        label,
        machine,
        limit: Cycle::new(20_000_000_000),
        finish: Box::new(move |machine, report| {
            machine
                .validate_coherence()
                .map_err(|e| format!("{err_label}: coherence: {e}"))?;
            check_invariants(machine, &cfg, &run)
                .map_err(|e| format!("{err_label}: invariant: {e}"))?;
            let ops = run.history.lock().unwrap().len() as u64;
            Ok(JobOutput::Lockfree(LockfreePoint {
                structure,
                prim,
                policy,
                ops,
                cycles: report.cycles.as_u64(),
                avg_cycles: report.cycles.as_u64() as f64 / ops as f64,
                latency: machine.stats().op_latency_hist.clone(),
            }))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            procs: 4,
            rounds: 4,
            tc_size: 4,
            wires: 8,
            tasks: 8,
        }
    }

    #[test]
    fn measure_reports_positive_cost_and_full_op_count() {
        let p = measure(
            MachineConfig::with_nodes(4),
            LfStructure::Queue,
            LinkPrim::Llsc,
            SyncPolicy::Inv,
            4,
            16,
            4,
        );
        assert!(p.avg_cycles > 0.0);
        // 4 procs × (4 enqueues + 4 dequeues).
        assert_eq!(p.ops, 32);
    }

    #[test]
    fn run_tables_covers_every_cell() {
        let tables = run_tables(&tiny());
        assert_eq!(tables.len(), LfStructure::ALL.len());
        for t in &tables {
            assert_eq!(t.points.len(), LinkPrim::ALL.len() * SyncPolicy::ALL.len());
            for p in &t.points {
                assert!(
                    p.avg_cycles > 0.0,
                    "{} {} {:?}",
                    t.structure.label(),
                    p.prim,
                    p.policy
                );
            }
        }
        let text = render(&tables);
        assert!(text.contains("MS-queue cyc/op"));
        assert!(text.contains("Harris-list cyc/op"));
        assert!(text.contains("bucket-map cyc/op"));
        assert!(text.contains("EMUL"));
    }

    #[test]
    fn emulated_llsc_queue_measures_under_every_policy() {
        for policy in SyncPolicy::ALL {
            let p = measure(
                MachineConfig::with_nodes(4),
                LfStructure::Queue,
                LinkPrim::EmulLlsc,
                policy,
                4,
                16,
                4,
            );
            assert!(p.ops > 0 && p.cycles > 0, "{}", policy.label());
        }
    }
}
