//! The machine's per-node counters must add up to the totals that other
//! code keeps independently: the per-class message counts, the mesh's
//! own message and flit counts, the dispatched `Process` events and the
//! retired operations. Checked on a parked (spin-elided) MCS counter and
//! on a contended CAS counter, neither with a tracer attached.

use atomic_dsm::experiments::BarSpec;
use atomic_dsm::machine::{Machine, RunEnv};
use atomic_dsm::protocol::SyncPolicy;
use atomic_dsm::sim::{Cycle, FaultConfig, MachineConfig};
use atomic_dsm::sync::Primitive;
use atomic_dsm::workloads::{build_synthetic, CounterKind, SyntheticConfig};

const LIMIT: Cycle = Cycle::new(100_000_000);

/// Builds and runs an 8-node counter with no faults, paranoid checking
/// or tracer, whatever the test environment asks for, so the run takes
/// the plain engine.
fn run_counter(kind: CounterKind, prim: Primitive) -> Machine {
    let bar = BarSpec::new(SyncPolicy::Inv, prim);
    let scfg = SyntheticConfig {
        kind,
        choice: bar.prim_choice(),
        sync: bar.sync_config(),
        contention: 8,
        write_run: 1.0,
        rounds: 16,
    };
    let env = RunEnv {
        faults: FaultConfig::default(),
        trace: None,
        ..RunEnv::clone(&RunEnv::current())
    };
    let mut m = RunEnv::scope(env, || {
        build_synthetic(MachineConfig::with_nodes(8), &scfg).0
    });
    m.run(LIMIT).expect("run");
    assert!(m.tracer().is_none());
    m
}

/// Asserts every per-node sum against its independent total.
fn assert_counters_add_up(label: &str, m: &Machine) {
    let stats = m.stats();
    let nodes = &stats.nodes;
    assert_eq!(nodes.len(), 8, "{label}");
    let sum = |f: fn(&atomic_dsm::machine::NodeCounters) -> u64| nodes.iter().map(f).sum::<u64>();
    let net = m.network_stats();
    assert!(net.messages > 0, "{label}: traffic flowed");
    assert_eq!(sum(|n| n.msgs_sent), net.messages, "{label}: messages");
    assert_eq!(
        sum(|n| n.msgs_sent),
        stats.msgs.total_messages(),
        "{label}: per-class messages"
    );
    assert_eq!(sum(|n| n.flits_sent), net.flits, "{label}: flits");
    let processed = m
        .dispatched_by_kind()
        .into_iter()
        .find(|&(kind, _)| kind == "Process")
        .expect("a Process event kind")
        .1;
    assert_eq!(
        sum(|n| n.served_home + n.served_cache),
        processed,
        "{label}: served messages"
    );
    assert_eq!(sum(|n| n.ops), stats.ops, "{label}: operations");
}

#[test]
fn parked_mcs_counters_add_up() {
    let m = run_counter(CounterKind::McsLock, Primitive::FetchPhi);
    assert!(
        m.events_dispatched() < m.events_processed(),
        "MCS waiters park"
    );
    assert_counters_add_up("MCS", &m);
}

#[test]
fn contended_cas_counters_add_up() {
    let m = run_counter(CounterKind::LockFree, Primitive::Cas);
    assert_counters_add_up("CAS", &m);
    let retries: u64 = m.stats().nodes.iter().map(|n| n.retries).sum();
    assert!(retries > 0, "contended CAS fails and retries");
}
