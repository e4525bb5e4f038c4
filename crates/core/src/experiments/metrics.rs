//! `figures metrics`: per-node mesh and protocol counters for the
//! applications.
//!
//! Runs each application once under the Figure 2 reference
//! implementation (FAΦ, INV) and prints the machine's per-node
//! [`NodeCounters`]: messages and flits injected, mean transit cycles
//! per message, messages served by the home memory and by the cache
//! controller, retired operations and retries. The counters are part
//! of the machine's always-on statistics, so the runs attach no tracer
//! and park spinning waiters like any uninstrumented run; `--paranoid`
//! runs them literally and must print the same table.
//!
//! Home-queue depth and coherence-state transitions are not counters:
//! sampling a queue walks the whole directory and a transition needs a
//! state probe around every handler. They are trace events
//! (`--trace=…,cat:queue+state`): a Perfetto counter track and instants,
//! and ring records.
//!
//! The runs are direct (not through the experiment runner's cache:
//! the cached job outputs do not carry per-node counters) with a fixed
//! seed, so the table is a pure function of the scale — byte-identical
//! across processes and at any `--jobs` setting, which
//! `tests/latency_analysis.rs` asserts.
//!
//! Like `lockfree` and `latency`, this artifact is *not* part of
//! `figures all`; request it by name.

use crate::experiments::apps::{self, App};
use crate::experiments::{BarSpec, Scale};
use dsm_machine::NodeCounters;
use dsm_protocol::SyncPolicy;
use dsm_stats::render_table;
use dsm_sync::Primitive;

/// One application's per-node counters.
#[derive(Debug, Clone)]
pub struct MetricsRun {
    /// The application measured.
    pub app: App,
    /// Per-node counters, indexed by node id.
    pub nodes: Vec<NodeCounters>,
}

/// Runs every application and collects its per-node counters.
///
/// # Panics
///
/// Panics if a run fails or produces a wrong answer — the same
/// output checks the runner applies are enforced here.
pub fn run(scale: &Scale) -> Vec<MetricsRun> {
    App::ALL
        .into_iter()
        .map(|app| {
            let bar = BarSpec::new(SyncPolicy::Inv, Primitive::FetchPhi);
            let mut prepared = apps::prepare(app, &bar, scale, 0);
            let report = prepared
                .machine
                .run(prepared.limit)
                .unwrap_or_else(|e| panic!("{}: {e}", prepared.label));
            let nodes = prepared.machine.stats().nodes.clone();
            // Run the job's own finish stage for its coherence and
            // output validation; the assembled output is discarded.
            (prepared.finish)(&mut prepared.machine, report)
                .unwrap_or_else(|e| panic!("metrics run failed validation: {e:?}"));
            MetricsRun { app, nodes }
        })
        .collect()
}

/// One row's cells, node name first, in header order.
fn cells(name: &str, n: &NodeCounters) -> Vec<String> {
    vec![
        name.to_string(),
        n.msgs_sent.to_string(),
        n.flits_sent.to_string(),
        n.served_home.to_string(),
        n.served_cache.to_string(),
        format!("{:.1}", n.transit_avg()),
        n.ops.to_string(),
        n.retries.to_string(),
    ]
}

/// The machine totals of one run.
fn total(nodes: &[NodeCounters]) -> NodeCounters {
    let mut t = NodeCounters::default();
    for n in nodes {
        t.merge(n);
    }
    t
}

/// The CSV rows (header first): one row per `(app, node)`, plus a
/// `total` row per app, with [`render`]'s columns.
pub fn csv_rows(runs: &[MetricsRun]) -> Vec<Vec<String>> {
    let header = [
        "app",
        "node",
        "msgs",
        "flits",
        "srv_home",
        "srv_cache",
        "transit_avg",
        "ops",
        "retries",
    ];
    let mut rows = vec![header.map(String::from).to_vec()];
    for r in runs {
        let named = r.nodes.iter().enumerate().map(|(i, n)| (i.to_string(), *n));
        for (name, n) in named.chain([("total".to_string(), total(&r.nodes))]) {
            let mut row = vec![r.app.label().to_string()];
            row.extend(cells(&name, &n));
            rows.push(row);
        }
    }
    rows
}

/// Renders a per-node table: one row per node with any activity, plus
/// a totals row.
fn render_nodes(nodes: &[NodeCounters]) -> String {
    let header = [
        "node",
        "msgs",
        "flits",
        "srv-home",
        "srv-cache",
        "transit-avg",
        "ops",
        "retries",
    ];
    let mut rows = vec![header.map(String::from).to_vec()];
    for (i, n) in nodes.iter().enumerate() {
        if *n != NodeCounters::default() {
            rows.push(cells(&i.to_string(), n));
        }
    }
    rows.push(cells("total", &total(nodes)));
    render_table(&rows)
}

/// Renders one aligned table per application.
pub fn render(runs: &[MetricsRun]) -> String {
    let mut out = String::new();
    for r in runs {
        out.push_str(r.app.label());
        out.push('\n');
        out.push_str(&render_nodes(&r.nodes));
        out.push('\n');
    }
    out
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
    fn every_app_reports_active_nodes() {
        let runs = run(&tiny());
        assert_eq!(runs.len(), App::ALL.len());
        for r in &runs {
            assert_eq!(r.nodes.len(), 4);
            let t = total(&r.nodes);
            assert!(t.msgs_sent > 0, "{}: no messages recorded", r.app.label());
            assert!(t.ops > 0, "{}: no ops recorded", r.app.label());
        }
        let text = render(&runs);
        assert!(text.contains("Transitive Closure"));
        assert!(text.contains("srv-home"));
        let rows = csv_rows(&runs);
        // Header + per app: 4 node rows + 1 total row.
        assert_eq!(rows.len(), 1 + App::ALL.len() * 5);
    }

    #[test]
    fn metrics_are_deterministic() {
        assert_eq!(csv_rows(&run(&tiny())), csv_rows(&run(&tiny())));
    }

    /// Pins every cell at the tiny scale, so a change in where or when a
    /// counter is incremented shows.
    #[test]
    fn counters_match_golden_cells() {
        let golden = [
            "app,node,msgs,flits,srv_home,srv_cache,transit_avg,ops,retries",
            "LocusRoute (analog),0,88,264,26,64,4.5,81,0",
            "LocusRoute (analog),1,150,448,77,68,4.7,84,0",
            "LocusRoute (analog),2,138,416,58,76,4.8,81,0",
            "LocusRoute (analog),3,112,336,37,82,4.4,81,0",
            "LocusRoute (analog),total,488,1464,198,290,4.6,327,0",
            "Cholesky (analog),0,106,312,27,84,4.5,86,0",
            "Cholesky (analog),1,134,408,67,59,4.6,59,0",
            "Cholesky (analog),2,128,384,56,71,4.5,59,0",
            "Cholesky (analog),3,52,156,20,36,5.4,32,0",
            "Cholesky (analog),total,420,1260,170,250,4.7,236,0",
            "Transitive Closure,0,114,384,27,109,4.8,273,0",
            "Transitive Closure,1,102,340,35,70,6.5,337,0",
            "Transitive Closure,2,118,384,53,48,5.7,359,0",
            "Transitive Closure,3,140,464,75,57,5.5,381,0",
            "Transitive Closure,total,474,1572,190,284,5.6,1350,0",
        ];
        let got: Vec<String> = csv_rows(&run(&tiny()))
            .iter()
            .map(|r| r.join(","))
            .collect();
        assert_eq!(got, golden);
    }

    #[test]
    fn render_skips_idle_nodes_but_totals_all() {
        let mut nodes = vec![NodeCounters::default(); 4];
        nodes[2].msgs_sent = 7;
        nodes[2].transit_cycles = 21;
        let table = render_nodes(&nodes);
        assert!(table.contains('2'));
        assert!(!table.contains("\n1 "));
        let total_line = table.lines().last().unwrap();
        assert!(total_line.starts_with("total"));
        assert!(total_line.contains('7'));
        assert!(total_line.contains("3.0"), "transit mean: {total_line}");
    }
}
