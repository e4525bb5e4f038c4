//! Figures 2 and 6: the application workloads.
//!
//! Figure 2 reports histograms of the contention level at the beginning
//! of each atomic access for LocusRoute, Cholesky and Transitive
//! Closure under each coherence policy. Figure 6 reports total elapsed
//! time for the same applications across the implementation bar set.

use crate::experiments::runner::{self, Job, JobOutput, PreparedRun};
use crate::experiments::{BarSpec, Scale};
use dsm_protocol::SyncPolicy;
use dsm_sim::{Cycle, MachineConfig};
use dsm_stats::Histogram;
use dsm_sync::Primitive;
use dsm_workloads::{
    build_cholesky, build_tclosure, build_wire_route, sequential_closure, CholeskyConfig, TcConfig,
    WireRouteConfig,
};

/// The three applications of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// The LocusRoute-analog router kernel.
    WireRoute,
    /// The Cholesky-analog factorization kernel.
    Cholesky,
    /// Transitive Closure (Figure 1).
    TransitiveClosure,
}

impl App {
    /// All applications in the paper's order.
    pub const ALL: [App; 3] = [App::WireRoute, App::Cholesky, App::TransitiveClosure];

    /// Display name (the paper's, for the two SPLASH analogs).
    pub fn label(self) -> &'static str {
        match self {
            App::WireRoute => "LocusRoute (analog)",
            App::Cholesky => "Cholesky (analog)",
            App::TransitiveClosure => "Transitive Closure",
        }
    }
}

/// The result of one application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Which application ran.
    pub app: App,
    /// The implementation used.
    pub bar: BarSpec,
    /// Total elapsed cycles of the parallel section.
    pub cycles: u64,
    /// Contention histogram over the synchronization variables.
    pub contention: Histogram,
    /// Average write-run length of the synchronization variables.
    pub write_run: f64,
    /// Cycle-exact latency histogram over every operation of the run.
    pub latency: dsm_stats::LatencyHist,
}

const RUN_LIMIT: Cycle = Cycle::new(50_000_000_000);

/// Post-run output check installed by each application builder. Reports
/// a wrong answer as a diagnostic instead of panicking, so a corrupted
/// run (e.g. under fault injection) stays a recoverable job failure.
type OutputCheck = Box<dyn FnOnce(&dsm_machine::Machine) -> Result<(), String>>;

/// Runs one application under one implementation, verifying its output.
///
/// Goes through the experiment [`runner`], so repeated runs of the same
/// `(app, bar, scale)` point are served from the result cache.
///
/// # Panics
///
/// Panics if the run fails or produces a wrong answer.
pub fn run_app(app: App, bar: &BarSpec, scale: &Scale) -> AppRun {
    runner::run_one(&Job::app(app, *bar, *scale)).into_app()
}

/// Builds one application run's machine without running it, seeded by
/// `seed` (the job-key fingerprint when called from the [`runner`]).
/// The finish stage validates coherence and the application's own
/// output before assembling the [`AppRun`].
pub(crate) fn prepare(app: App, bar: &BarSpec, scale: &Scale, seed: u64) -> PreparedRun {
    let mut mcfg = MachineConfig::with_nodes(scale.procs);
    mcfg.seed = seed;
    let (machine, check): (_, OutputCheck) = match app {
        App::WireRoute => {
            let cfg = WireRouteConfig {
                wires: scale.wires,
                regions: (scale.procs * 2).max(8),
                route_len: 3,
                cells_per_visit: 4,
                cells_per_region: 16,
                choice: bar.prim_choice(),
                sync: bar.sync_config(),
                seed: 1997,
                compute_per_wire: 40_000,
            };
            let (m, layout) = build_wire_route(mcfg, &cfg);
            (
                m,
                Box::new(move |m| {
                    let got = layout.total_cost(m, &cfg);
                    let want = cfg.expected_total();
                    if got == want {
                        Ok(())
                    } else {
                        Err(format!("wire-route lost updates ({got} of {want})"))
                    }
                }),
            )
        }
        App::Cholesky => {
            let cfg = CholeskyConfig {
                tasks: scale.tasks,
                columns: scale.procs.max(8),
                updates_per_task: 2,
                column_words: 16,
                cells_per_update: 4,
                choice: bar.prim_choice(),
                sync: bar.sync_config(),
                seed: 1995,
                compute_per_task: 120_000,
            };
            let (m, layout) = build_cholesky(mcfg, &cfg);
            (
                m,
                Box::new(move |m| {
                    let got = layout.total(m, &cfg);
                    let want = cfg.expected_total();
                    if got == want {
                        Ok(())
                    } else {
                        Err(format!("cholesky lost updates ({got} of {want})"))
                    }
                }),
            )
        }
        App::TransitiveClosure => {
            let cfg = TcConfig {
                size: scale.tc_size,
                choice: bar.prim_choice(),
                sync: bar.sync_config(),
                density: 0.15,
                seed: 1898,
            };
            let (m, layout, input) = build_tclosure(mcfg, &cfg);
            (
                m,
                Box::new(move |m| {
                    let got = dsm_workloads::tclosure::read_matrix(m, &layout, cfg.size);
                    if got == sequential_closure(&input) {
                        Ok(())
                    } else {
                        Err("closure mismatch".to_string())
                    }
                }),
            )
        }
    };
    let app_label = app.label();
    let bar = *bar;
    let label = format!("{} [{}]", app_label, bar.label());
    let err_label = label.clone();
    PreparedRun {
        label,
        machine,
        limit: RUN_LIMIT,
        finish: Box::new(move |machine, report| {
            machine
                .validate_coherence()
                .map_err(|e| format!("{err_label}: coherence: {e}"))?;
            check(machine).map_err(|e| format!("{err_label}: {e}"))?;
            let stats = machine.stats();
            Ok(JobOutput::App(AppRun {
                app,
                bar,
                cycles: report.cycles.as_u64(),
                contention: stats.contention.histogram().clone(),
                write_run: stats.write_runs.completed().mean(),
                latency: stats.op_latency_hist.clone(),
            }))
        }),
    }
}

/// Figure 2: contention histograms for every application under each
/// coherence policy (using the FAΦ primitive for the lock-free counter,
/// as the paper's lock implementations do for their lock words).
pub fn fig2(scale: &Scale) -> Vec<AppRun> {
    let jobs: Vec<Job> = App::ALL
        .into_iter()
        .flat_map(|app| {
            SyncPolicy::ALL
                .into_iter()
                .map(move |policy| Job::app(app, BarSpec::new(policy, Primitive::FetchPhi), *scale))
        })
        .collect();
    runner::run_all(&jobs)
        .into_iter()
        .map(JobOutput::into_app)
        .collect()
}

/// Figure 6: total elapsed time for every application across `bars`.
pub fn fig6(bars: &[BarSpec], scale: &Scale) -> Vec<AppRun> {
    let jobs: Vec<Job> = App::ALL
        .into_iter()
        .flat_map(|app| bars.iter().map(move |bar| Job::app(app, *bar, *scale)))
        .collect();
    runner::run_all(&jobs)
        .into_iter()
        .map(JobOutput::into_app)
        .collect()
}

/// Renders Figure 2-style output: one histogram block per run.
pub fn render_fig2(runs: &[AppRun]) -> String {
    let mut s = String::new();
    for r in runs {
        s.push_str(&format!(
            "{} [{}]  (avg write-run {:.2})\n",
            r.app.label(),
            r.bar.policy.label(),
            r.write_run
        ));
        s.push_str(&r.contention.render());
        s.push('\n');
    }
    s
}

/// Figure 2's CSV rows (header first): one row per contention level of
/// each run.
pub fn fig2_csv_rows(runs: &[AppRun]) -> Vec<Vec<String>> {
    let mut rows = vec![vec![
        "app".to_string(),
        "policy".to_string(),
        "level".to_string(),
        "percentage".to_string(),
    ]];
    for r in runs {
        for (level, _) in r.contention.iter() {
            rows.push(vec![
                r.app.label().to_string(),
                r.bar.policy.label().to_string(),
                level.to_string(),
                format!("{:.4}", r.contention.percentage(level)),
            ]);
        }
    }
    rows
}

/// Figure 6's CSV rows (header first): total cycles per run.
pub fn fig6_csv_rows(runs: &[AppRun]) -> Vec<Vec<String>> {
    let mut rows = vec![vec![
        "app".to_string(),
        "implementation".to_string(),
        "total_cycles".to_string(),
    ]];
    for r in runs {
        rows.push(vec![
            r.app.label().to_string(),
            r.bar.label(),
            r.cycles.to_string(),
        ]);
    }
    rows
}

/// Renders Figure 6-style output as a table of total cycles.
pub fn render_fig6(runs: &[AppRun]) -> String {
    let mut rows = vec![vec![
        "app".to_string(),
        "implementation".to_string(),
        "total cycles".to_string(),
    ]];
    for r in runs {
        rows.push(vec![
            r.app.label().into(),
            r.bar.label(),
            r.cycles.to_string(),
        ]);
    }
    dsm_stats::render_table(&rows)
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
    fn each_app_runs_and_verifies() {
        for app in App::ALL {
            let bar = BarSpec::new(SyncPolicy::Inv, Primitive::Cas);
            let run = run_app(app, &bar, &tiny());
            assert!(run.cycles > 0);
            assert!(
                run.contention.total() > 0,
                "{}: no atomic accesses seen",
                app.label()
            );
        }
    }

    /// Paper §4.2: LocusRoute and Cholesky are dominated by uncontended
    /// accesses; Transitive Closure shows high contention.
    #[test]
    fn contention_profiles_match_paper_shape() {
        let bar = BarSpec::new(SyncPolicy::Inv, Primitive::FetchPhi);
        let wr = run_app(App::WireRoute, &bar, &tiny());
        assert!(
            wr.contention.percentage(1) > 50.0,
            "router should be mostly uncontended, got {:.1}%",
            wr.contention.percentage(1)
        );
        let tc = run_app(App::TransitiveClosure, &bar, &tiny());
        let tc_high = 100.0 - tc.contention.cumulative_percentage(2);
        assert!(
            tc_high > 10.0,
            "transitive closure should show contention above 2, got {tc_high:.1}%"
        );
    }

    #[test]
    fn renderers_produce_output() {
        let bar = BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi);
        let run = run_app(App::Cholesky, &bar, &tiny());
        let f2 = render_fig2(std::slice::from_ref(&run));
        assert!(f2.contains("Cholesky"));
        let f6 = render_fig6(std::slice::from_ref(&run));
        assert!(f6.contains("total cycles"));
    }
}
