//! Robustness tests for the fault-injection harness: randomized
//! protocol-legal fault schedules (delay jitter, forced evictions,
//! reservation wipes) must never break atomicity, coherence or
//! termination; paranoid invariant checking must be a pure observer;
//! injected runs must stay bit-for-bit deterministic; and failures must
//! surface as structured diagnostics, not panics.

use atomic_dsm::experiments::runner::{self, Job};
use atomic_dsm::experiments::{BarSpec, CounterKind};
use atomic_dsm::machine::{Action, Machine, MachineBuilder, ProcCtx, RunError};
use atomic_dsm::protocol::{MemOp, OpResult, PhiOp, SyncConfig, SyncPolicy};
use atomic_dsm::sim::{Addr, Cycle, FaultConfig, MachineConfig};
use atomic_dsm::sync::stack::{unpack_node, StackPop, StackPrim, StackPush};
use atomic_dsm::sync::{Primitive, ShmAlloc, SubMachine};
use atomic_dsm::workloads::step_action;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

const LIMIT: Cycle = Cycle::new(200_000_000);

/// A counter machine where processor `p` increments a shared counter
/// `iters` times using method `p % 3` (fetch_and_add, CAS loop, LL/SC
/// loop), under the given fault schedule.
fn counter_machine(
    nodes: u32,
    iters: u64,
    policy: SyncPolicy,
    faults: FaultConfig,
    seed: u64,
) -> (Machine, Addr) {
    let counter = Addr::new(0x2000);
    let mut mcfg = MachineConfig::with_nodes(nodes);
    mcfg.seed = seed;
    mcfg.faults = faults;
    let mut b = MachineBuilder::new(mcfg);
    b.register_sync(
        counter,
        SyncConfig {
            policy,
            ..Default::default()
        },
    );
    for p in 0..nodes {
        let method = p % 3;
        let mut done_count = 0u64;
        let mut phase = 0u8;
        b.add_program(move |ctx: &mut ProcCtx<'_>| loop {
            if done_count == iters {
                return Action::Done;
            }
            match method {
                0 => {
                    done_count += 1;
                    return Action::Op(MemOp::FetchPhi {
                        addr: counter,
                        op: PhiOp::Add(1),
                    });
                }
                1 => match (phase, ctx.last.take()) {
                    (0, _) => {
                        phase = 1;
                        return Action::Op(MemOp::Load { addr: counter });
                    }
                    (1, Some(OpResult::Loaded { value, .. })) => {
                        phase = 2;
                        return Action::Op(MemOp::Cas {
                            addr: counter,
                            expected: value,
                            new: value + 1,
                        });
                    }
                    (2, Some(OpResult::CasDone { success, observed })) => {
                        if success {
                            phase = 0;
                            done_count += 1;
                        } else {
                            return Action::Op(MemOp::Cas {
                                addr: counter,
                                expected: observed,
                                new: observed + 1,
                            });
                        }
                    }
                    other => panic!("unexpected CAS program state {other:?}"),
                },
                _ => match (phase, ctx.last.take()) {
                    (0, _) => {
                        phase = 1;
                        return Action::Op(MemOp::LoadLinked { addr: counter });
                    }
                    (1, Some(OpResult::Loaded { value, serial, .. })) => {
                        phase = 2;
                        return Action::Op(MemOp::StoreConditional {
                            addr: counter,
                            value: value + 1,
                            serial,
                        });
                    }
                    (2, Some(OpResult::ScDone { success })) => {
                        if success {
                            phase = 0;
                            done_count += 1;
                        } else {
                            phase = 1;
                            return Action::Op(MemOp::LoadLinked { addr: counter });
                        }
                    }
                    other => panic!("unexpected LL/SC program state {other:?}"),
                },
            }
        });
    }
    (b.build(), counter)
}

/// Runs a faulted counter mix to completion, checks exact atomicity,
/// coherence and invariants, and returns the run's observable fingerprint
/// (cycles, events, faults actually injected).
fn run_counter(
    nodes: u32,
    iters: u64,
    policy: SyncPolicy,
    faults: FaultConfig,
    seed: u64,
) -> (u64, u64, (u64, u64, u64)) {
    let (mut m, counter) = counter_machine(nodes, iters, policy, faults, seed);
    let report = m
        .run(LIMIT)
        .unwrap_or_else(|e| panic!("faulted {policy} run failed: {e}"));
    m.validate_coherence().expect("coherent after faulted run");
    assert_eq!(
        m.read_word(counter),
        u64::from(nodes) * iters,
        "{policy}: faulted run lost or duplicated updates"
    );
    (report.cycles.as_u64(), report.events, m.injected_faults())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any randomized schedule of protocol-legal faults — jitter, forced
    /// evictions, reservation wipes — preserves exact atomicity and final
    /// coherence on the mixed-primitive counter workload, with the
    /// paranoid checker validating every transition and the watchdog
    /// proving termination progress.
    #[test]
    fn random_fault_schedules_preserve_atomicity(
        seed in any::<u64>(),
        jitter in 0u32..3_000,
        jmax in 1u64..64,
        evict in 0u32..8_000,
        // Wipe rates are kept below the point where every LL/SC window
        // is destroyed: a wipe storm that outpaces the SC round-trip
        // starves the retry loop *legally* (each failed SC still
        // retires, so it is neither deadlock nor livelock — just no
        // forward progress for the wiped processor).
        wipe in 0u32..2_000,
        period in prop::sample::select(vec![1024u64, 4096]),
        policy in prop::sample::select(vec![SyncPolicy::Inv, SyncPolicy::Unc, SyncPolicy::Upd]),
    ) {
        let faults = FaultConfig {
            jitter_per_10k: jitter,
            jitter_max: jmax,
            evict_per_10k: evict,
            wipe_per_10k: wipe,
            corrupt_per_10k: 0,
            period,
            paranoid: true,
            watchdog: 10_000_000,
        };
        run_counter(4, 6, policy, faults, seed);
    }

    /// The same fault schedule and seed reproduce the same run exactly:
    /// cycle count, event count and injected-fault counts all match.
    #[test]
    fn fault_injected_runs_are_deterministic(seed in any::<u64>()) {
        let faults = FaultConfig {
            paranoid: true,
            watchdog: 10_000_000,
            ..FaultConfig::light()
        };
        let a = run_counter(4, 5, SyncPolicy::Inv, faults.clone(), seed);
        let b = run_counter(4, 5, SyncPolicy::Inv, faults, seed);
        prop_assert_eq!(a, b);
    }
}

/// Paranoid mode is a pure observer: it must not change a single cycle
/// or event of a fault-free run.
#[test]
fn paranoid_mode_changes_nothing() {
    let plain = run_counter(4, 8, SyncPolicy::Inv, FaultConfig::default(), 42);
    let paranoid = FaultConfig {
        paranoid: true,
        ..FaultConfig::default()
    };
    let checked = run_counter(4, 8, SyncPolicy::Inv, paranoid, 42);
    assert_eq!(plain.0, checked.0, "paranoid mode changed the cycle count");
    assert_eq!(plain.1, checked.1, "paranoid mode changed the event count");
}

/// A saturated fault schedule must actually fire — otherwise the suite
/// is testing nothing. Two processors (fetch_and_add + CAS loop, no
/// LL/SC so certain wipes cannot starve anyone) under every-window
/// evictions and wipes.
#[test]
fn saturated_schedule_actually_injects() {
    let faults = FaultConfig {
        evict_per_10k: 10_000,
        wipe_per_10k: 10_000,
        period: 64,
        ..FaultConfig::default()
    };
    let (_, _, (evictions, wipes, _)) = run_counter(2, 24, SyncPolicy::Inv, faults, 7);
    assert!(evictions > 0, "no evictions applied");
    assert!(wipes > 0, "no reservation wipes applied");
}

/// The lock-free stack conserves its nodes under the heavy fault preset
/// with paranoid checking on: no node is lost or duplicated.
#[test]
fn lockfree_stack_survives_heavy_faults() {
    let nodes = 4u32;
    let per_proc = 6u64;
    let mut alloc = ShmAlloc::new(32, nodes);
    let top = alloc.word();
    let node_addrs: Vec<Vec<Addr>> = (0..nodes)
        .map(|_| (0..per_proc).map(|_| alloc.array(2)).collect())
        .collect();

    let popped: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut mcfg = MachineConfig::with_nodes(nodes);
    // The light preset, not heavy: heavy's wipe storm (a reservation
    // wipe every ~4k cycles per node) can legally starve the stack's
    // LL/SC retry loop forever. Light leaves a progress window while
    // still racing evictions and wipes against the stack protocol.
    mcfg.faults = FaultConfig {
        paranoid: true,
        watchdog: 10_000_000,
        ..FaultConfig::light()
    };
    let mut b = MachineBuilder::new(mcfg);
    b.register_sync(top, SyncConfig::default());

    for p in 0..nodes {
        let my_nodes = node_addrs[p as usize].clone();
        let popped = Arc::clone(&popped);
        let mut round = 0usize;
        let mut pushing = true;
        let mut push: Option<StackPush> = None;
        let mut pop: Option<StackPop> = None;
        b.add_program(move |ctx: &mut ProcCtx<'_>| loop {
            if let Some(m) = &mut push {
                match step_action(m.step(ctx.last.take(), ctx.rng)) {
                    Some(action) => return action,
                    None => push = None,
                }
            }
            if let Some(m) = &mut pop {
                match step_action(m.step(ctx.last.take(), ctx.rng)) {
                    Some(action) => return action,
                    None => {
                        if let Some(n) = m.popped() {
                            popped.lock().unwrap().push(n);
                        }
                        pop = None;
                    }
                }
            }
            if round == my_nodes.len() {
                return Action::Done;
            }
            if pushing {
                pushing = false;
                push = Some(StackPush::new(top, my_nodes[round], StackPrim::Llsc));
            } else {
                pushing = true;
                round += 1;
                pop = Some(StackPop::new(top, StackPrim::Llsc));
            }
        });
    }

    let mut m = b.build();
    m.run(LIMIT).expect("faulted stack stress completes");
    m.validate_coherence().unwrap();

    let mut remaining = Vec::new();
    let mut cursor = match StackPrim::Llsc {
        StackPrim::CasCounted => unpack_node(m.read_word(top)),
        _ => m.read_word(top),
    };
    while cursor != 0 {
        remaining.push(cursor);
        assert!(
            remaining.len() <= (nodes as usize) * per_proc as usize + 1,
            "stack has a cycle!"
        );
        cursor = m.read_word(Addr::new(cursor));
    }
    let all_nodes: HashSet<u64> = node_addrs.iter().flatten().map(|a| a.as_u64()).collect();
    let mut seen = HashSet::new();
    for &n in popped.lock().unwrap().iter().chain(remaining.iter()) {
        assert!(all_nodes.contains(&n), "unknown node {n:#x}");
        assert!(seen.insert(n), "node {n:#x} duplicated under faults!");
    }
    assert_eq!(
        seen.len(),
        all_nodes.len(),
        "nodes lost under faults ({} of {})",
        seen.len(),
        all_nodes.len()
    );
}

/// An impossibly tight watchdog window trips on the first outstanding
/// operation and reports a structured livelock diagnostic naming the
/// blocked processors — instead of spinning forever or panicking.
#[test]
fn watchdog_reports_livelock_with_blocked_processors() {
    let faults = FaultConfig {
        watchdog: 1,
        ..FaultConfig::default()
    };
    let (mut m, _) = counter_machine(4, 4, SyncPolicy::Unc, faults, 3);
    let err = m.run(LIMIT).expect_err("watchdog must fire");
    match &err {
        RunError::Livelock { window, procs, .. } => {
            assert_eq!(*window, 1);
            assert!(
                procs.iter().any(|p| p.op.is_some()),
                "livelock dump must name a blocked op: {procs:?}"
            );
        }
        other => panic!("expected a livelock, got {other}"),
    }
    let rendered = err.to_string();
    assert!(rendered.contains("livelock"), "{rendered}");
    assert!(rendered.contains("blocked on"), "{rendered}");
}

/// Deliberate state corruption (the test-only hook) is caught by the
/// invariant checker as a structured diagnostic carrying the offending
/// line and node set — not as a panic.
#[test]
fn corruption_is_caught_as_structured_diagnostic() {
    let shared = Addr::new(0x40);
    let mut b = MachineBuilder::new(MachineConfig::with_nodes(2));
    for _ in 0..2 {
        b.add_program(move |ctx: &mut ProcCtx<'_>| {
            if ctx.last.is_none() {
                Action::Op(MemOp::Load { addr: shared })
            } else {
                Action::Done
            }
        });
    }
    let mut m = b.build();
    m.run(LIMIT).expect("load run completes");
    m.validate_coherence().unwrap();

    let line = shared.line(32);
    assert!(m.corrupt_promote_shared(atomic_dsm::sim::NodeId::new(0), line));
    assert!(m.corrupt_promote_shared(atomic_dsm::sim::NodeId::new(1), line));
    let violations = m.coherence_violations();
    let found: Vec<(&str, Option<_>, Vec<u32>)> = violations
        .iter()
        .map(|v| {
            (
                v.invariant,
                v.line,
                v.nodes.iter().map(|n| n.as_u32()).collect(),
            )
        })
        .collect();
    assert_eq!(
        found,
        vec![
            ("directory-agreement", Some(line), vec![0]),
            ("directory-agreement", Some(line), vec![1]),
            ("single-writer", Some(line), vec![0, 1]),
        ],
        "{violations:?}"
    );
    assert_eq!(m.validate_coherence(), Err(violations[0].clone()));
}

/// One failing job reports its own `JobError` without aborting its
/// siblings: the rest of the batch completes and returns `Ok`.
#[test]
fn runner_surfaces_per_job_failures_without_aborting_siblings() {
    let bar = BarSpec::new(SyncPolicy::Unc, Primitive::FetchPhi);
    let mut doomed_mcfg = MachineConfig::with_nodes(4);
    doomed_mcfg.faults.watchdog = 1; // trips on the first remote op
    let doomed = Job::counter(doomed_mcfg, CounterKind::LockFree, bar, 4, 1.0, 4);
    let healthy = Job::counter(
        MachineConfig::with_nodes(4),
        CounterKind::LockFree,
        bar,
        4,
        1.0,
        4,
    );
    let results = runner::try_run_all(&[doomed.clone(), healthy.clone()]);
    let err = results[0].as_ref().expect_err("doomed job must fail");
    assert!(err.message.contains("livelock"), "{err}");
    assert!(
        results[1].is_ok(),
        "sibling must survive the doomed job: {:?}",
        results[1]
    );
    // Failures are cached like successes: no re-simulation.
    let before = runner::stats().completed;
    let again = runner::try_run_one(&doomed);
    assert_eq!(again.expect_err("still failing").message, err.message);
    assert_eq!(
        runner::stats().completed,
        before,
        "failure was re-simulated"
    );
}

/// Regression: jitter must not break per-pair FIFO for a home node's
/// messages to its *co-located* cache. The local fast path in
/// `LatencyNetwork::send` used to skip the FIFO clamp, so a jittered
/// `CasGrant` could be overtaken by a later `FwdCas` on the same
/// (node, node) pair — the intervention then found the cache in
/// `Shared` (its grant still in flight) and died with a directory
/// mismatch. The fault injector found this on the `INV CASs +drop`
/// bar; this pins the exact failing job.
#[test]
fn jitter_preserves_local_fifo_between_home_and_colocated_cache() {
    let mut mcfg = MachineConfig::with_nodes(16);
    mcfg.faults = FaultConfig::light();
    let mut bar = BarSpec::new(SyncPolicy::Inv, Primitive::Cas);
    bar.cas_variant = atomic_dsm::protocol::CasVariant::Share;
    bar.drop_copy = true;
    let job = Job::counter(mcfg, CounterKind::LockFree, bar, 2, 1.0, 16);
    let result = runner::try_run_one(&job);
    assert!(result.is_ok(), "{}", result.unwrap_err());
}

/// Injected line corruption never yields a silent wrong value under
/// paranoid checking. Four processors each add 1 to one INV word 40
/// times, by three loads and a CAS of the last value read. A
/// `CorruptLine` fault promotes a shared copy to `Exclusive` behind the
/// directory's back; a node that then writes it silently loses updates
/// once an invalidation drops the copy. The per-transition directory
/// agreement check must stop every such run with
/// `RunError::Invariant`; every other run must count to 160.
#[test]
fn corrupted_lines_never_yield_a_silent_wrong_value() {
    const NODES: u32 = 4;
    const ITERS: u64 = 40;
    let counter = Addr::new(0x2000);
    let (mut caught, mut correct) = (0, 0);
    for seed in 0..200 {
        let mut mcfg = MachineConfig::with_nodes(NODES);
        mcfg.seed = seed;
        mcfg.faults = FaultConfig::from_spec("corrupt=2000,period=64").unwrap();
        mcfg.faults.paranoid = true;
        let mut b = MachineBuilder::new(mcfg);
        b.register_sync(counter, SyncConfig::default());
        for _ in 0..NODES {
            let mut done = 0;
            let mut loads = 0;
            b.add_program(move |ctx: &mut ProcCtx<'_>| {
                match ctx.last.take() {
                    Some(OpResult::CasDone { success: true, .. }) => done += 1,
                    Some(OpResult::Loaded { value, .. }) if loads == 3 => {
                        loads = 0;
                        return Action::Op(MemOp::Cas {
                            addr: counter,
                            expected: value,
                            new: value + 1,
                        });
                    }
                    _ => {}
                }
                if done == ITERS {
                    return Action::Done;
                }
                loads += 1;
                Action::Op(MemOp::Load { addr: counter })
            });
        }
        let mut m = b.build();
        match m.run(LIMIT) {
            Err(RunError::Invariant { .. }) => caught += 1,
            Ok(_) => {
                let value = m.read_word(counter);
                assert_eq!(
                    value,
                    u64::from(NODES) * ITERS,
                    "seed {seed}: silent wrong value"
                );
                correct += 1;
            }
            Err(e) => panic!("seed {seed}: {e}"),
        }
    }
    assert!(
        caught > 0 && correct > 0,
        "caught {caught}, correct {correct}"
    );
}

/// The mutation gate over Figure 3's lock-free counters: INV FAΦ, INV
/// CAS and INV LL/SC, each on 4 processors at c=4, a=1 for 16 rounds,
/// with `corrupt=2000,period=64` and paranoid checking, over the fixed
/// seeds 0..100. Every run either counts every update (the job's own
/// final-value check) or stops with an invariant violation; lost
/// updates or any other failure fail the gate.
#[test]
fn corrupted_figure3_counters_are_caught_or_correct() {
    let prims = [Primitive::FetchPhi, Primitive::Cas, Primitive::Llsc];
    let mut jobs = Vec::new();
    for prim in prims {
        for seed in 0..100 {
            let mut mcfg = MachineConfig::with_nodes(4);
            mcfg.seed = seed;
            mcfg.faults = FaultConfig::from_spec("corrupt=2000,period=64").unwrap();
            mcfg.faults.paranoid = true;
            let bar = BarSpec::new(SyncPolicy::Inv, prim);
            jobs.push(Job::counter(mcfg, CounterKind::LockFree, bar, 4, 1.0, 16));
        }
    }
    let mut counts = [(0, 0); 3]; // (correct, caught) per primitive
    for (i, result) in runner::try_run_all(&jobs).into_iter().enumerate() {
        match result {
            Ok(_) => counts[i / 100].0 += 1,
            Err(e) if e.message.contains("invariant violated") => counts[i / 100].1 += 1,
            Err(e) => panic!("{e}"),
        }
    }
    eprintln!("(correct, caught) for INV FAΦ, CAS, LL/SC: {counts:?}");
    assert!(
        counts.iter().map(|c| c.1).sum::<u32>() > 0,
        "no corruption was caught: {counts:?}"
    );
}
