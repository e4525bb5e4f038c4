//! End-to-end tests for the latency-observability tentpole: a traced
//! run's ring dump feeds the `dsm-analyze` engine, which must
//! reconstruct operation spans, produce percentile tables, and emit an
//! additive critical-path decomposition — all byte-deterministically.
//! Also covers the `figures latency`/`metrics` artifacts' worker-count
//! independence and the zero-perturbation contract: tracing must not
//! change simulated results.

use atomic_dsm::experiments::runner;
use atomic_dsm::experiments::{latency, metrics, BarSpec, CounterKind, Scale};
use atomic_dsm::protocol::SyncPolicy;
use atomic_dsm::sim::{Cycle, MachineConfig};
use atomic_dsm::trace::{perfetto, TraceSpec};
use atomic_dsm::workloads::{build_synthetic, SyntheticConfig};
use atomic_dsm::{Machine, Primitive};
use dsm_analyze::Analysis;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// The runner cache and worker override are process-wide; tests that
/// touch them must not interleave.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const LIMIT: Cycle = Cycle::new(100_000_000);

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsm-latan-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A contended CAS counter: plenty of retries, invalidations and
/// network traffic for the analyzer to attribute.
fn contended_cas_machine(spec: Option<TraceSpec>) -> Machine {
    let bar = BarSpec::new(SyncPolicy::Inv, Primitive::Cas);
    let scfg = SyntheticConfig {
        kind: CounterKind::LockFree,
        choice: bar.prim_choice(),
        sync: bar.sync_config(),
        contention: 8,
        write_run: 1.0,
        rounds: 16,
    };
    let (mut machine, _layout) = build_synthetic(MachineConfig::with_nodes(8), &scfg);
    if let Some(spec) = &spec {
        machine.attach_tracer(spec);
    }
    machine
}

/// Ring-only spec with every category (span phases need `msg`).
fn ring_spec(dir: &std::path::Path) -> TraceSpec {
    TraceSpec::from_spec(&format!("ring:262144:{}", dir.display())).expect("valid spec")
}

#[test]
fn traced_run_analyzes_end_to_end_with_additive_decomposition() {
    let dir = scratch("e2e");
    let mut m = contended_cas_machine(Some(ring_spec(&dir)));
    m.run(LIMIT).expect("run");
    let files = m.trace_files().to_vec();
    assert_eq!(files.len(), 1, "ring file written");

    let a = Analysis::from_files(&files).expect("ring parses");
    assert!(!a.spans.is_empty(), "spans reconstructed from the ring");
    assert_eq!(a.files, 1);

    // Every span's decomposition must sum exactly to its latency — the
    // tentpole's headline invariant.
    let mut phase_bearing = 0usize;
    for s in &a.spans {
        let parts = s.decompose();
        assert_eq!(
            parts.values().sum::<u64>(),
            s.latency(),
            "decomposition not additive for span {} ({})",
            s.id,
            s.op
        );
        if s.phases.iter().any(|p| p.label == "net") {
            phase_bearing += 1;
        }
    }
    assert!(
        phase_bearing > 0,
        "network phases attributed to remote operations"
    );

    // The percentile table covers the workload's primitives.
    let by_op = a.latency_by_op();
    assert!(by_op.contains_key("Cas"), "ops: {:?}", by_op.keys());
    for (op, h) in &by_op {
        assert!(h.total() > 0, "{op}: empty histogram");
        assert!(h.percentile(50, 100) <= h.max(), "{op}: p50 beyond max");
    }

    // Aggregate decomposition exposes non-local components and the
    // report renders every section.
    let labels = a.component_labels();
    assert!(labels.iter().any(|l| l == "net"), "labels: {labels:?}");
    assert!(labels.iter().any(|l| l == "local"));
    let report = a.report();
    for section in [
        "operation latency",
        "critical path",
        "hottest lines",
        "retry chains",
        "p99",
        "Cas",
    ] {
        assert!(report.contains(section), "report lacks `{section}`");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn contended_cas_yields_retry_chains() {
    let dir = scratch("chains");
    let mut m = contended_cas_machine(Some(ring_spec(&dir)));
    m.run(LIMIT).expect("run");
    let a = Analysis::from_files(m.trace_files()).expect("ring parses");
    let chains = a.chains();
    assert!(!chains.is_empty());
    let retried: Vec<_> = chains.iter().filter(|c| c.spans.len() > 1).collect();
    assert!(
        !retried.is_empty(),
        "8-way contended CAS must produce failed-then-retried attempts"
    );
    for c in &retried {
        assert_eq!(
            c.retry_cycles() + c.backoff_cycles() + c.final_cycles(),
            c.duration(),
            "chain decomposition not additive (proc {}, line {:#x})",
            c.proc,
            c.line
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analysis_report_is_deterministic_across_runs() {
    let run = |name: &str| {
        let dir = scratch(name);
        let mut m = contended_cas_machine(Some(ring_spec(&dir)));
        m.run(LIMIT).expect("run");
        let report = Analysis::from_files(m.trace_files())
            .expect("ring parses")
            .report();
        std::fs::remove_dir_all(&dir).ok();
        report
    };
    assert_eq!(run("det-a"), run("det-b"), "analyzer output must be stable");
}

#[test]
fn tracing_does_not_perturb_simulated_results() {
    let dir = scratch("perturb");
    let mut traced = contended_cas_machine(Some(ring_spec(&dir)));
    let mut plain = contended_cas_machine(None);
    let rt = traced.run(LIMIT).expect("traced run");
    let rp = plain.run(LIMIT).expect("plain run");
    assert_eq!(
        (rt.cycles, rt.events),
        (rp.cycles, rp.events),
        "span tracking changed the simulation"
    );
    let digest = |m: &Machine| {
        let mut h = atomic_dsm::sim::StableHasher::new();
        m.stats().digest(&mut h);
        h.finish()
    };
    assert_eq!(
        digest(&traced),
        digest(&plain),
        "stats (including the latency histogram) must not depend on tracing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perfetto_gains_span_slices_that_validate() {
    let dir = scratch("perfetto-spans");
    let spec = TraceSpec {
        perfetto: true,
        out: Some(dir.clone()),
        ..TraceSpec::default()
    };
    let mut m = contended_cas_machine(Some(spec));
    m.run(LIMIT).expect("run");
    let json = m.tracer().unwrap().perfetto_json().unwrap();
    perfetto::validate(&json).expect("trace with span slices validates");
    assert!(json.contains("\"outcome\""), "op slices carry outcomes");
    assert!(json.contains("\"span\""), "phase slices carry span ids");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn latency_table_is_identical_across_worker_counts() {
    let _guard = exclusive();
    let tiny = Scale {
        procs: 4,
        rounds: 4,
        tc_size: 4,
        wires: 8,
        tasks: 8,
    };
    let run = |workers: usize| {
        runner::with_workers(workers, || {
            runner::clear_cache();
            latency::render(&latency::run(&tiny))
        })
    };
    assert_eq!(run(1), run(8), "worker count changed the latency table");
}

#[test]
fn metrics_table_is_identical_across_worker_counts() {
    let _guard = exclusive();
    let tiny = Scale {
        procs: 4,
        rounds: 4,
        tc_size: 4,
        wires: 8,
        tasks: 8,
    };
    let run = |workers: usize| {
        runner::with_workers(workers, || {
            runner::clear_cache();
            let runs = metrics::run(&tiny);
            (metrics::render(&runs), metrics::csv_rows(&runs))
        })
    };
    assert_eq!(run(1), run(8), "worker count changed the metrics table");
}
