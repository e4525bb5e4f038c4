//! A scalability sweep the paper fixes at p=64: average cycles per
//! fully-contended counter update as the machine grows from 2 to 64
//! processors, for the headline implementations.

use crate::experiments::counters::CounterPoint;
use crate::experiments::runner::{self, Job, JobOutput};
use crate::experiments::{BarSpec, CounterKind};
use dsm_protocol::SyncPolicy;
use dsm_sim::MachineConfig;
use dsm_sync::Primitive;

/// Processor counts swept by the paper-scale artifact.
pub const PROCS: [u32; 6] = [2, 4, 8, 16, 32, 64];

/// Beyond-paper machine sizes (`figures scaling-xl`). These are kept
/// out of `all` so the committed paper artifacts stay byte-identical;
/// they show how the implementations scale past the paper's 64
/// processors.
pub const PROCS_XL: [u32; 2] = [256, 1024];

/// One sweep line: an implementation across machine sizes.
#[derive(Debug, Clone)]
pub struct ScalingLine {
    /// The implementation.
    pub bar: BarSpec,
    /// `(procs, point)` per machine size.
    pub points: Vec<(u32, CounterPoint)>,
}

/// The implementations worth watching scale: the paper's
/// recommendation (INV CAS + load_exclusive), its counter special-case
/// (UNC FAΦ), and the two universal alternatives.
pub fn scaling_bars() -> Vec<BarSpec> {
    vec![
        BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi),
        BarSpec {
            load_exclusive: true,
            ..BarSpec::new(SyncPolicy::Inv, Primitive::Cas)
        },
        BarSpec::new(SyncPolicy::Inv, Primitive::Cas),
        BarSpec::new(SyncPolicy::Inv, Primitive::Llsc),
        BarSpec::new(SyncPolicy::Unc, Primitive::Llsc),
    ]
}

/// Runs the sweep: every processor updates the counter every round
/// (full contention), `rounds` rounds per size.
///
/// All `bars × sizes` points are collected into one job list and fanned
/// out across the experiment [`runner`]'s worker pool.
pub fn run_scaling(kind: CounterKind, rounds: u64) -> Vec<ScalingLine> {
    run_scaling_on(kind, rounds, &PROCS)
}

/// [`run_scaling`] over an arbitrary list of machine sizes (the
/// `scaling-xl` artifact passes [`PROCS_XL`]).
pub fn run_scaling_on(kind: CounterKind, rounds: u64, procs: &[u32]) -> Vec<ScalingLine> {
    let bars = scaling_bars();
    let jobs: Vec<Job> = bars
        .iter()
        .flat_map(|bar| {
            procs.iter().map(move |&p| {
                Job::counter(MachineConfig::with_nodes(p), kind, *bar, p, 1.0, rounds)
            })
        })
        .collect();
    let mut results = runner::run_all(&jobs)
        .into_iter()
        .map(JobOutput::into_counter);
    bars.into_iter()
        .map(|bar| ScalingLine {
            bar,
            points: procs
                .iter()
                .map(|&p| (p, results.next().expect("one result per job")))
                .collect(),
        })
        .collect()
}

/// The sweep's CSV rows (header first): one row per implementation per
/// machine size.
pub fn csv_rows(lines: &[ScalingLine]) -> Vec<Vec<String>> {
    let mut rows = vec![vec![
        "implementation".to_string(),
        "procs".to_string(),
        "avg_cycles".to_string(),
    ]];
    for line in lines {
        for (p, pt) in &line.points {
            rows.push(vec![
                line.bar.label(),
                p.to_string(),
                format!("{:.2}", pt.avg_cycles),
            ]);
        }
    }
    rows
}

/// Renders the sweep as a table (rows = implementations, columns =
/// machine sizes).
pub fn render(lines: &[ScalingLine]) -> String {
    let mut rows = vec![{
        let mut h = vec!["implementation".to_string()];
        if let Some(first) = lines.first() {
            h.extend(first.points.iter().map(|(p, _)| format!("p={p}")));
        }
        h
    }];
    for line in lines {
        let mut row = vec![line.bar.label()];
        row.extend(
            line.points
                .iter()
                .map(|(_, pt)| format!("{:.0}", pt.avg_cycles)),
        );
        rows.push(row);
    }
    dsm_stats::render_table(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::counters::measure_bar_on;

    #[test]
    fn sweep_runs_and_renders() {
        // A miniature sweep (sizes 2 and 4 only) to keep tests fast.
        let bar = BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi);
        let line = ScalingLine {
            bar,
            points: [2u32, 4]
                .iter()
                .map(|&p| {
                    let mcfg = MachineConfig::with_nodes(p);
                    (
                        p,
                        measure_bar_on(mcfg, CounterKind::LockFree, &bar, p, 1.0, 8),
                    )
                })
                .collect(),
        };
        assert!(line.points.iter().all(|(_, pt)| pt.avg_cycles > 0.0));
        let text = render(std::slice::from_ref(&line));
        assert!(text.contains("UNC FAP"));
        assert!(text.contains("p=2"));
    }

    /// The LL/SC reservation-storm effect grows with machine size while
    /// UNC fetch_and_add stays flat — the scalability story behind the
    /// paper's recommendation.
    #[test]
    fn llsc_degrades_faster_than_unc_faa() {
        let cost = |bar: &BarSpec, p: u32| {
            measure_bar_on(
                MachineConfig::with_nodes(p),
                CounterKind::LockFree,
                bar,
                p,
                1.0,
                12,
            )
            .avg_cycles
        };
        let faa = BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi);
        let llsc = BarSpec::new(SyncPolicy::Unc, Primitive::Llsc);
        let faa_growth = cost(&faa, 16) / cost(&faa, 2);
        let llsc_growth = cost(&llsc, 16) / cost(&llsc, 2);
        assert!(
            llsc_growth > faa_growth,
            "LL/SC ({llsc_growth:.2}x) must degrade faster than FAA ({faa_growth:.2}x)"
        );
    }
}
