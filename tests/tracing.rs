//! End-to-end tests for the observability layer: a traced machine run
//! must produce a valid, deterministic Perfetto trace with balanced
//! request→reply flows, the ring sink must round-trip, and a machine
//! built without tracing must carry no tracer at all.

use atomic_dsm::experiments::{BarSpec, CounterKind};
use atomic_dsm::machine::{Action, Machine, MachineBuilder, ProcCtx};
use atomic_dsm::protocol::{MemOp, PhiOp, SyncConfig, SyncPolicy};
use atomic_dsm::sim::{Addr, Cycle, MachineConfig};
use atomic_dsm::trace::{perfetto, Category, TraceSpec};
use atomic_dsm::workloads::{build_synthetic, SyntheticConfig};
use atomic_dsm::Primitive;
use std::path::PathBuf;

const LIMIT: Cycle = Cycle::new(10_000_000);

/// A fresh per-test scratch directory under the target dir, so trace
/// files never land in the repo checkout.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsm-tracing-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Four processors fetch_and_add an uncached counter 100 times each —
/// the crate-docs quickstart, small but exercising every message class.
fn quickstart_machine(spec: Option<TraceSpec>) -> Machine {
    let counter = Addr::new(0x40);
    let mut b = MachineBuilder::new(MachineConfig::with_nodes(4));
    b.register_sync(
        counter,
        SyncConfig {
            policy: SyncPolicy::Unc,
            ..Default::default()
        },
    );
    for _ in 0..4 {
        let mut left = 100u32;
        b.add_program(move |ctx: &mut ProcCtx<'_>| {
            if ctx.last.is_some() {
                left -= 1;
            }
            if left == 0 {
                Action::Done
            } else {
                Action::Op(MemOp::FetchPhi {
                    addr: counter,
                    op: PhiOp::Add(1),
                })
            }
        });
    }
    if let Some(spec) = spec {
        b.with_trace(spec);
    }
    b.build()
}

/// A contended CAS counter, to exercise retry events.
fn contended_cas_machine(spec: Option<TraceSpec>) -> Machine {
    let bar = BarSpec::new(SyncPolicy::Inv, Primitive::Cas);
    let scfg = SyntheticConfig {
        kind: CounterKind::LockFree,
        choice: bar.prim_choice(),
        sync: bar.sync_config(),
        contention: 8,
        write_run: 1.0,
        rounds: 32,
    };
    let (mut machine, _layout) = build_synthetic(MachineConfig::with_nodes(8), &scfg);
    if let Some(spec) = &spec {
        machine.attach_tracer(spec);
    }
    machine
}

#[test]
fn disabled_by_default() {
    let mut m = quickstart_machine(None);
    m.run(LIMIT).expect("run");
    assert!(m.tracer().is_none(), "no tracer unless requested");
    assert!(m.trace_files().is_empty(), "no files written");
}

#[test]
fn perfetto_trace_validates_and_flows_balance() {
    let dir = scratch("validate");
    let spec = TraceSpec {
        perfetto: true,
        out: Some(dir.clone()),
        ring: Some(4096),
        ..TraceSpec::default()
    };
    let mut m = quickstart_machine(Some(spec));
    m.run(LIMIT).expect("run");
    assert_eq!(m.read_word(Addr::new(0x40)), 400, "workload unperturbed");

    let json = m.tracer().unwrap().perfetto_json().unwrap();
    let summary = perfetto::validate(&json).expect("trace validates");
    assert_eq!(summary.pids, 4, "one track per node");
    assert!(summary.slices > 0, "message + op slices present");
    assert!(summary.flow_starts > 0, "request flows recorded");
    assert_eq!(
        summary.flow_starts, summary.flow_finishes,
        "every network request flow terminates at its service slice"
    );

    // run() already flushed; files are content-addressed into `dir`.
    let files = m.trace_files().to_vec();
    assert_eq!(files.len(), 2, "one perfetto file, one ring file");
    for f in &files {
        let meta = std::fs::metadata(f).expect("trace file exists");
        assert!(meta.len() > 0, "{} is non-empty", f.display());
    }
    let json_file = files
        .iter()
        .find(|f| f.extension().is_some_and(|e| e == "json"))
        .expect("perfetto output present");
    let on_disk = std::fs::read_to_string(json_file).expect("read trace");
    perfetto::validate(&on_disk).expect("on-disk trace validates");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn identical_runs_are_byte_identical() {
    let spec = || TraceSpec {
        perfetto: true,
        out: Some(scratch("determinism")),
        ..TraceSpec::default()
    };
    let render = || {
        let mut m = quickstart_machine(Some(spec()));
        m.run(LIMIT).expect("run");
        (
            m.tracer().unwrap().perfetto_json().unwrap(),
            m.trace_files().to_vec(),
        )
    };
    let (a, files_a) = render();
    let (b, files_b) = render();
    assert_eq!(a, b, "trace bytes are deterministic");
    assert_eq!(files_a, files_b, "content-addressed names are stable");
    std::fs::remove_dir_all(scratch("determinism")).ok();
}

#[test]
fn ring_sink_round_trips() {
    let dir = scratch("ring");
    let spec = TraceSpec {
        perfetto: false,
        ring: Some(1024),
        ring_out: Some(dir.clone()),
        ..TraceSpec::default()
    };
    let mut m = quickstart_machine(Some(spec));
    m.run(LIMIT).expect("run");

    let ring = m.tracer().unwrap().ring().expect("ring sink attached");
    let records = ring.records();
    assert!(!records.is_empty(), "ring captured events");
    // Records are emission-ordered; Op records are stamped with their
    // issue time, so only same-kind streams are cycle-monotone. Message
    // sends are recorded at send time and must be oldest-first.
    let sends: Vec<_> = records
        .iter()
        .filter(|r| r.kind == atomic_dsm::trace::RecordKind::MsgSend as u8)
        .collect();
    assert!(!sends.is_empty(), "ring captured message sends");
    assert!(
        sends.windows(2).all(|w| w[0].ts <= w[1].ts),
        "message-send records are oldest-first in cycle order"
    );
    assert!(!ring.labels().is_empty(), "label dictionary populated");

    let files = m.trace_files().to_vec();
    assert_eq!(files.len(), 1, "ring file only");
    let bytes = std::fs::read(&files[0]).expect("read ring file");
    assert_eq!(&bytes[..8], b"DSMTRING", "ring file magic");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn category_filter_drops_unwanted_events() {
    let dir = scratch("cats");
    let spec =
        TraceSpec::from_spec(&format!("perfetto:{},cat:msg", dir.display())).expect("valid spec");
    let mut m = quickstart_machine(Some(spec));
    assert!(m.tracer().unwrap().wants(Category::Msg));
    assert!(!m.tracer().unwrap().wants(Category::Op));
    m.run(LIMIT).expect("run");
    let json = m.tracer().unwrap().perfetto_json().unwrap();
    let summary = perfetto::validate(&json).expect("trace validates");
    assert!(summary.flow_starts > 0, "msg events kept");
    assert!(
        !json.contains("\"FetchPhi\""),
        "op slices filtered out by cat:msg"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn contended_cas_records_retries() {
    let dir = scratch("retries");
    let spec = TraceSpec {
        perfetto: true,
        out: Some(dir.clone()),
        ..TraceSpec::default()
    };
    let mut m = contended_cas_machine(Some(spec));
    m.run(Cycle::new(100_000_000)).expect("run");
    let json = m.tracer().unwrap().perfetto_json().unwrap();
    perfetto::validate(&json).expect("trace validates");
    assert!(
        json.contains("\"cas-fail\""),
        "contended CAS counter yields cas-fail retry instants"
    );
    std::fs::remove_dir_all(&dir).ok();

    // The per-node retry counters are the machine's own: they need no
    // tracer.
    let mut m = contended_cas_machine(None);
    m.run(Cycle::new(100_000_000)).expect("run");
    assert!(m.tracer().is_none());
    let retries: u64 = m.stats().nodes.iter().map(|n| n.retries).sum();
    assert!(retries > 0, "per-node retry counters accumulate");
}

#[test]
fn ring_only_spec_writes_no_perfetto_file() {
    let dir = scratch("ring-only");
    let spec = TraceSpec {
        ring: Some(16),
        ring_out: Some(dir.clone()),
        ..TraceSpec::default()
    };
    let mut m = quickstart_machine(Some(spec));
    m.run(LIMIT).expect("run");
    assert!(m.tracer().unwrap().perfetto_json().is_none());
    let files = m.trace_files().to_vec();
    assert_eq!(files.len(), 1, "exactly the ring file: {files:?}");
    assert!(files[0].extension().is_some_and(|e| e == "ring"));
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(written, files, "nothing but the ring file was written");
    std::fs::remove_dir_all(&dir).ok();
}
