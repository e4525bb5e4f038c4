//! Figures 3, 4 and 5: average time per counter update for the three
//! synthetic counter applications, across the full implementation bar
//! set, for the paper's contention and write-run sweeps.

use crate::experiments::runner::{self, Job, JobOutput, PreparedRun, SimFailure};
use crate::experiments::{BarSpec, Scale};
use dsm_sim::{Cycle, MachineConfig};
use dsm_workloads::{build_synthetic, CounterKind, SyntheticConfig};

/// The x-axis of the left-hand (no-contention) graphs: average
/// write-run lengths `a`.
pub const WRITE_RUNS: [f64; 5] = [1.0, 1.5, 2.0, 3.0, 10.0];

/// The x-axis of the right-hand (contention) graphs: contention levels
/// `c` (scaled down when the machine has fewer processors).
pub const CONTENTION: [u32; 5] = [2, 4, 8, 16, 64];

/// One measured bar.
#[derive(Debug, Clone)]
pub struct CounterPoint {
    /// The implementation measured.
    pub bar: BarSpec,
    /// Average simulated cycles per counter update.
    pub avg_cycles: f64,
    /// Total counter updates performed.
    pub updates: u64,
    /// Total elapsed cycles of the run.
    pub cycles: u64,
    /// Cycle-exact latency histogram over every operation of the run,
    /// mergeable across jobs for the `figures latency` percentile table.
    pub latency: dsm_stats::LatencyHist,
}

/// One graph of a figure: a fixed `(c, a)` point with all its bars.
#[derive(Debug, Clone)]
pub struct CounterGraph {
    /// Contention level `c`.
    pub contention: u32,
    /// Write-run length `a`.
    pub write_run: f64,
    /// The measured bars.
    pub points: Vec<CounterPoint>,
}

/// Measures one bar at one `(c, a)` point.
///
/// # Panics
///
/// Panics if the run fails to complete or the final counter value is
/// wrong (which would mean a primitive implementation lost an update).
pub fn measure_bar(
    kind: CounterKind,
    bar: &BarSpec,
    contention: u32,
    write_run: f64,
    scale: &Scale,
) -> CounterPoint {
    measure_bar_on(
        MachineConfig::with_nodes(scale.procs),
        kind,
        bar,
        contention,
        write_run,
        scale.rounds,
    )
}

/// Like [`measure_bar`], but on an explicit machine configuration —
/// used by the scaling sweep to vary the machine size.
///
/// Goes through the experiment [`runner`], so repeated measurements of
/// the same point are served from the result cache.
///
/// # Panics
///
/// Panics if the run fails or the final counter value is wrong.
pub fn measure_bar_on(
    mcfg: MachineConfig,
    kind: CounterKind,
    bar: &BarSpec,
    contention: u32,
    write_run: f64,
    rounds: u64,
) -> CounterPoint {
    runner::run_one(&Job::counter(
        mcfg, kind, *bar, contention, write_run, rounds,
    ))
    .into_counter()
}

/// Builds one counter point's machine without running it. Only the
/// [`runner`] calls this; everything else goes through
/// [`measure_bar`]/[`measure_bar_on`] so the cache and the per-job seed
/// derivation stay in effect.
///
/// The finish stage reports the run's failure diagnostic (deadlock,
/// livelock, protocol error, invariant violation, cycle limit) or a
/// lost-update report if the final counter value is wrong — all
/// deterministic conditions.
pub(crate) fn prepare(
    mcfg: MachineConfig,
    kind: CounterKind,
    bar: &BarSpec,
    contention: u32,
    write_run: f64,
    rounds: u64,
) -> PreparedRun {
    let procs = mcfg.nodes;
    let contention = contention.min(procs);
    let scfg = SyntheticConfig {
        kind,
        choice: bar.prim_choice(),
        sync: bar.sync_config(),
        contention,
        write_run,
        rounds,
    };
    let (machine, layout) = build_synthetic(mcfg, &scfg);
    let updates = scfg.total_updates(procs);
    let bar = *bar;
    PreparedRun {
        label: bar.label(),
        machine,
        limit: Cycle::new(20_000_000_000),
        finish: Box::new(move |machine, report| {
            let counted = machine.read_word(layout.counter);
            if counted != updates {
                return Err(SimFailure::deterministic(format!(
                    "{}: counter lost updates ({counted} of {updates})",
                    bar.label()
                )));
            }
            Ok(JobOutput::Counter(CounterPoint {
                bar,
                avg_cycles: report.cycles.as_u64() as f64 / updates as f64,
                updates,
                cycles: report.cycles.as_u64(),
                latency: machine.stats().op_latency_hist.clone(),
            }))
        }),
    }
}

/// The `(c, a)` points of one figure at a given scale: the five
/// write-run graphs, then the deduplicated clamped contention levels.
fn figure_points(scale: &Scale) -> Vec<(u32, f64)> {
    let mut pts: Vec<(u32, f64)> = WRITE_RUNS.iter().map(|&a| (1, a)).collect();
    let mut seen = std::collections::HashSet::new();
    for &c in &CONTENTION {
        let c = c.min(scale.procs);
        if seen.insert(c) {
            pts.push((c, 1.0)); // clamped duplicates dropped at small scales
        }
    }
    pts
}

/// Regenerates one full figure (3, 4 or 5): the five no-contention
/// graphs and the five contention graphs, with `bars` in each.
///
/// All `graphs × bars` simulation points are collected into one job
/// list and fanned out across the experiment [`runner`]'s worker pool;
/// the result is identical at any worker count.
pub fn run_figure(kind: CounterKind, bars: &[BarSpec], scale: &Scale) -> Vec<CounterGraph> {
    let points = figure_points(scale);
    let jobs: Vec<Job> = points
        .iter()
        .flat_map(|&(c, a)| {
            bars.iter().map(move |b| {
                Job::counter(
                    MachineConfig::with_nodes(scale.procs),
                    kind,
                    *b,
                    c,
                    a,
                    scale.rounds,
                )
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

/// Renders a figure as an aligned text table (rows = bars, columns =
/// graphs), as the benchmark harness prints it.
pub fn render(kind: CounterKind, graphs: &[CounterGraph]) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut header = vec![format!("{} counter", kind.label())];
    for g in graphs {
        if g.contention == 1 {
            header.push(format!("c=1 a={}", g.write_run));
        } else {
            header.push(format!("c={}", g.contention));
        }
    }
    rows.push(header);
    if let Some(first) = graphs.first() {
        for (i, p) in first.points.iter().enumerate() {
            let mut row = vec![p.bar.label()];
            for g in graphs {
                row.push(format!("{:.0}", g.points[i].avg_cycles));
            }
            rows.push(row);
        }
    }
    dsm_stats::render_table(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::basic_bars;
    use dsm_protocol::SyncPolicy;
    use dsm_sync::Primitive;

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
    fn measure_bar_reports_positive_cost() {
        let bar = BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi);
        let p = measure_bar(CounterKind::LockFree, &bar, 1, 1.0, &tiny());
        assert!(p.avg_cycles > 0.0);
        assert_eq!(p.updates, 8);
    }

    /// Paper §4.3.1: "as write-run length increases, INV increasingly
    /// outperforms UNC and UPD, because subsequent accesses in a run are
    /// all hits."
    #[test]
    fn long_write_runs_favor_inv_over_unc() {
        let inv = BarSpec::new(SyncPolicy::Inv, Primitive::FetchPhi);
        let unc = BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi);
        let scale = tiny();
        let inv10 = measure_bar(CounterKind::LockFree, &inv, 1, 10.0, &scale);
        let unc10 = measure_bar(CounterKind::LockFree, &unc, 1, 10.0, &scale);
        assert!(
            inv10.avg_cycles < unc10.avg_cycles,
            "a=10: INV ({:.0}) must beat UNC ({:.0})",
            inv10.avg_cycles,
            unc10.avg_cycles
        );
    }

    /// Paper §4.3.2: "UNC fetch_and_add yields superior performance over
    /// the other primitives and implementations, especially with
    /// contention."
    #[test]
    fn contended_lock_free_counter_favors_unc_fetch_add() {
        let unc_fap = BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi);
        let inv_fap = BarSpec::new(SyncPolicy::Inv, Primitive::FetchPhi);
        let scale = tiny();
        let unc = measure_bar(CounterKind::LockFree, &unc_fap, 8, 1.0, &scale);
        let inv = measure_bar(CounterKind::LockFree, &inv_fap, 8, 1.0, &scale);
        assert!(
            unc.avg_cycles < inv.avg_cycles,
            "c=8: UNC fetch_and_add ({:.0}) must beat INV ({:.0})",
            unc.avg_cycles,
            inv.avg_cycles
        );
    }

    #[test]
    fn run_figure_produces_all_graphs() {
        let bars = vec![BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi)];
        let graphs = run_figure(CounterKind::LockFree, &bars, &tiny());
        // 5 write-run graphs plus the deduplicated contention levels
        // {2, 4, 8} at 8 processors.
        assert_eq!(graphs.len(), WRITE_RUNS.len() + 3);
        let text = render(CounterKind::LockFree, &graphs);
        assert!(text.contains("c=1 a=1.5"));
        assert!(text.contains("UNC FAP"));
    }

    #[test]
    fn basic_bars_all_run_on_tts_counter() {
        for bar in basic_bars() {
            let p = measure_bar(CounterKind::TtsLock, &bar, 2, 1.0, &tiny());
            assert!(p.avg_cycles > 0.0, "{}", bar.label());
        }
    }

    #[test]
    fn basic_bars_all_run_on_mcs_counter() {
        for bar in basic_bars() {
            let p = measure_bar(CounterKind::McsLock, &bar, 2, 1.0, &tiny());
            assert!(p.avg_cycles > 0.0, "{}", bar.label());
        }
    }
}
