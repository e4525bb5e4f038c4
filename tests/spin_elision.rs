//! Spin-wait elision must be invisible: a run on the plain serial
//! engine, which parks spinning processors, has to produce exactly what
//! the literal engine produces when a tracer forces it to dispatch every
//! spin iteration. The fingerprint is the simulated cycle count, the
//! model event count, the machine's full `state_digest` and the digest
//! of the merged statistics.

use atomic_dsm::experiments::paper_bars;
use atomic_dsm::machine::{Action, Machine, MachineBuilder, ProcCtx, RunEnv, RunError};
use atomic_dsm::protocol::{MemOp, SyncConfig, SyncPolicy};
use atomic_dsm::sim::{Addr, Cycle, FaultConfig, MachineConfig, ProtoSpec, StableHasher};
use atomic_dsm::sync::{LinkPrim, PrimChoice, Primitive};
use atomic_dsm::trace::TraceSpec;
use atomic_dsm::workloads::{
    build_cholesky, build_lockfree, build_synthetic, build_tclosure, build_wire_route,
    CholeskyConfig, CounterKind, LfConfig, LfStructure, SyntheticConfig, TcConfig, WireRouteConfig,
};

const LIMIT: Cycle = Cycle::new(500_000_000);

/// `(cycles, events, state digest, stats digest)` of a finished or
/// failed run.
type Fingerprint = (u64, u64, u64, u64);

fn fingerprint(m: &Machine, cycles: Cycle, events: u64) -> Fingerprint {
    let mut h = StableHasher::new();
    m.stats().digest(&mut h);
    (cycles.as_u64(), events, m.state_digest(), h.finish())
}

/// Builds a machine for the plain engine whatever faults the test
/// environment asks for (`DSM_PARANOID`, `DSM_FAULTS`), and, when
/// `literal`, attaches a tracer with no sinks: it writes nothing but
/// forces the literal engine.
fn machine(build: &dyn Fn() -> Machine, literal: bool) -> Machine {
    let env = RunEnv {
        faults: FaultConfig::default(),
        ..RunEnv::clone(&RunEnv::current())
    };
    let mut m = RunEnv::scope(env, build);
    if literal {
        m.attach_tracer(&TraceSpec {
            perfetto: false,
            ..TraceSpec::default()
        });
    }
    m
}

/// Runs `build()` plainly and literally; asserts identical fingerprints
/// and returns the plain run's `(events, events_dispatched)`.
fn assert_elision_exact(label: &str, build: &dyn Fn() -> Machine) -> (u64, u64) {
    let run = |literal: bool| {
        let mut m = machine(build, literal);
        let report = m
            .run(LIMIT)
            .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
        assert_eq!(report.events, m.events_processed(), "{label}");
        (
            fingerprint(&m, report.cycles, report.events),
            m.events_dispatched(),
        )
    };
    let (plain, dispatched) = run(false);
    let (traced, traced_dispatched) = run(true);
    assert_eq!(plain, traced, "{label}: parking changed the simulation");
    assert_eq!(
        traced_dispatched, traced.1,
        "{label}: the literal run elides nothing"
    );
    assert!(dispatched <= plain.1, "{label}");
    (plain.1, dispatched)
}

fn mcs_counter(mcfg: MachineConfig, sync: SyncConfig, choice: PrimChoice) -> Machine {
    let scfg = SyntheticConfig {
        kind: CounterKind::McsLock,
        choice,
        sync,
        contention: 8,
        write_run: 1.0,
        rounds: 4,
    };
    build_synthetic(mcfg, &scfg).0
}

#[test]
fn figure5_mcs_counters_are_exact_under_every_primitive() {
    for bar in paper_bars() {
        let label = format!("MCS {}", bar.label());
        let build = || {
            mcs_counter(
                MachineConfig::with_nodes(8),
                bar.sync_config(),
                bar.prim_choice(),
            )
        };
        let (events, dispatched) = assert_elision_exact(&label, &build);
        assert!(
            dispatched < events,
            "{label}: contended MCS waiters must park ({dispatched} of {events} dispatched)"
        );
    }
}

#[test]
fn applications_are_exact() {
    let bar = atomic_dsm::experiments::BarSpec::new(SyncPolicy::Inv, Primitive::FetchPhi);
    let (events, dispatched) = assert_elision_exact("transitive closure", &|| {
        let cfg = TcConfig {
            size: 8,
            choice: bar.prim_choice(),
            sync: bar.sync_config(),
            density: 0.15,
            seed: 1898,
        };
        build_tclosure(MachineConfig::with_nodes(8), &cfg).0
    });
    assert!(dispatched < events, "tree-barrier waiters must park");
    assert_elision_exact("cholesky", &|| {
        let cfg = CholeskyConfig {
            tasks: 12,
            columns: 8,
            updates_per_task: 2,
            column_words: 16,
            cells_per_update: 4,
            choice: bar.prim_choice(),
            sync: bar.sync_config(),
            seed: 1995,
            compute_per_task: 2_000,
        };
        build_cholesky(MachineConfig::with_nodes(8), &cfg).0
    });
    assert_elision_exact("wire route", &|| {
        let cfg = WireRouteConfig {
            wires: 12,
            regions: 16,
            route_len: 3,
            cells_per_visit: 4,
            cells_per_region: 16,
            choice: bar.prim_choice(),
            sync: bar.sync_config(),
            seed: 1997,
            compute_per_wire: 2_000,
        };
        build_wire_route(MachineConfig::with_nodes(8), &cfg).0
    });
}

#[test]
fn lockfree_queue_is_exact() {
    assert_elision_exact("lock-free queue", &|| {
        let cfg = LfConfig {
            structure: LfStructure::Queue,
            prim: LinkPrim::EmulLlsc,
            sync: SyncConfig::default(),
            ops_per_proc: 4,
            key_space: 8,
            buckets: 3,
        };
        build_lockfree(MachineConfig::with_nodes(4), &cfg).0
    });
}

#[test]
fn protocol_variants_are_exact() {
    for spec in ["mesif", "hier", "hna", "clusters=4,penalty=30"] {
        let proto = ProtoSpec::from_spec(spec).expect("valid spec");
        for prim in [Primitive::FetchPhi, Primitive::Cas] {
            let build = || {
                let mut mcfg = MachineConfig::with_nodes(8);
                proto.apply(&mut mcfg);
                let sync = SyncConfig {
                    policy: SyncPolicy::Inv,
                    home_atomics: proto.home_atomics,
                    ..Default::default()
                };
                mcs_counter(mcfg, sync, PrimChoice::plain(prim))
            };
            let label = format!("--proto={spec} MCS {}", prim.label());
            let (events, dispatched) = assert_elision_exact(&label, &build);
            assert!(dispatched < events, "{label}: waiters must park");
        }
    }
}

#[test]
fn timing_that_breaks_the_precondition_runs_literally() {
    // A cache controller faster than the spin pause: a message could be
    // processed in the same cycle as, and after, a spinner's event.
    let build = || {
        let mut mcfg = MachineConfig::with_nodes(8);
        mcfg.params.cache_ctrl = 2;
        mcs_counter(
            mcfg,
            SyncConfig::default(),
            PrimChoice::plain(Primitive::Cas),
        )
    };
    let (events, dispatched) = assert_elision_exact("cache_ctrl = 2", &build);
    assert_eq!(dispatched, events, "nothing may be elided");
}

const FLAG: Addr = Addr::new(0x1000);
const OTHER: Addr = Addr::new(0x2000);

/// Processor 0 reads `OTHER` (so its cache holds a second line), then
/// spins on `FLAG` with `pause` until it leaves 0 and checks what it
/// saw. Processor 1 computes `poke_at` cycles, stores to `OTHER` (a
/// message for the spinner's cache about an unrelated line), computes
/// `release_after` more and sets `FLAG`. Processors 2 and 3 idle.
/// With `sync_flag`, `FLAG` is a registered (INV) synchronization line.
fn spin_machine(pause: u64, sync_flag: bool, poke_at: u64, release_after: Option<u64>) -> Machine {
    let mut b = MachineBuilder::new(MachineConfig::with_nodes(4));
    if sync_flag {
        b.register_sync(FLAG, SyncConfig::default());
    }
    let mut stage = 0;
    b.add_program(move |ctx: &mut ProcCtx<'_>| {
        stage += 1;
        match stage {
            1 => Action::Op(MemOp::Load { addr: OTHER }),
            2 => Action::Op(MemOp::Load { addr: FLAG }),
            3 => Action::SpinWhile {
                addr: FLAG,
                value: ctx.result().value().expect("load value"),
                pause,
            },
            _ => {
                assert_eq!(ctx.result().value(), Some(7), "spin exits on the new value");
                Action::Done
            }
        }
    });
    let mut stage = 0;
    b.add_program(move |_: &mut ProcCtx<'_>| {
        stage += 1;
        match (stage, release_after) {
            (1, _) => Action::Compute(poke_at),
            (2, _) => Action::Op(MemOp::Store {
                addr: OTHER,
                value: 1,
            }),
            (3, Some(after)) => Action::Compute(after),
            (4, Some(_)) => Action::Op(MemOp::Store {
                addr: FLAG,
                value: 7,
            }),
            _ => Action::Done,
        }
    });
    b.add_program(|_: &mut ProcCtx<'_>| Action::Done);
    b.add_program(|_: &mut ProcCtx<'_>| Action::Done);
    b.build()
}

/// [`spin_machine`] with the MCS and barrier pause on a data line.
fn flag_machine(poke_at: u64, release_after: Option<u64>) -> Machine {
    spin_machine(4, false, poke_at, release_after)
}

#[test]
fn wakes_at_every_phase_of_the_iteration_are_exact() {
    // One spin iteration is cache_hit + issue + pause cycles (6 for the
    // MCS pause of 4); moving the release by one cycle at a time walks
    // the wake through every phase offset, twice. A zero pause puts two
    // of the three events of an iteration in one cycle.
    for pause in [0, 1, 4] {
        let period = 2 + pause;
        for release in 0..2 * period {
            let label = format!("pause {pause}, release after {release}");
            let (events, dispatched) =
                assert_elision_exact(&label, &|| spin_machine(pause, false, 1_000, Some(release)));
            assert!(dispatched < events, "{label}: the spinner must park");
        }
    }
}

#[test]
fn a_spin_on_a_sync_line_runs_literally() {
    // Sync-line operations are logged for the contention statistics;
    // such a spin is never parked.
    let (events, dispatched) = assert_elision_exact("sync-line spin", &|| {
        spin_machine(4, true, 1_000, Some(5_000))
    });
    assert_eq!(dispatched, events, "nothing may be elided");
}

#[test]
fn an_unrelated_message_wakes_the_spinner_and_it_parks_again() {
    let (events, dispatched) =
        assert_elision_exact("unrelated wake", &|| flag_machine(20_000, Some(20_000)));
    // Each 20,000-cycle half is ~3,300 literal iterations (10,000
    // events); parking again after the wake keeps dispatch tiny.
    assert!(events > 20_000, "{events} events");
    assert!(
        dispatched < 300,
        "{dispatched} of {events} events dispatched"
    );
}

#[test]
fn a_spin_never_released_ends_with_the_literal_cycle_limit() {
    // `None`: processor 1 finishes early, so the queue empties and only
    // the parked spinner is left. `Some`: processor 1 is still
    // computing when the limit falls, so the next queued event lies
    // beyond the limit. The sweep stops the run at every cycle of
    // processor 1's store, whose request is served by the spinner's
    // node (home of both lines) while the spinner is parked, so the
    // digest sees those events' keys in the queue.
    let cases = (950..1_150)
        .map(|limit| (None, limit))
        .chain([(None, 30_000u64), (Some(1_000_000), 30_001)]);
    for (release_after, limit) in cases {
        let run = |literal: bool| {
            let mut m = machine(&|| flag_machine(1_000, release_after), literal);
            let err = m.run(Cycle::new(limit)).expect_err("the spin never ends");
            assert!(matches!(err, RunError::CycleLimit { .. }), "{err}");
            (err, fingerprint(&m, m.now(), m.events_processed()))
        };
        let plain = run(false);
        assert_eq!(plain, run(true), "release {release_after:?}, limit {limit}");
    }
}
