//! The linearizability oracle over full-machine executions.
//!
//! Every lock-free structure — Michael–Scott queue, Harris list,
//! bucket hash map — runs on the simulated DSM machine with its
//! invocation/response history stamped in simulated cycles, and the
//! Wing–Gong checker must accept that history against the sequential
//! specification. Three execution regimes are covered: normal,
//! paranoid (the protocol invariant checker validates every
//! transition), and fault-injected (deterministic jitter, forced
//! evictions and reservation wipes via [`FaultConfig`]).
//!
//! The negative direction matters just as much: a deliberately buggy
//! implementation — the classic unvalidated-CAS stack pop, driven
//! through a directed ABA schedule — must produce a history the
//! checker *rejects*, and a rejected history must be written out as a
//! diagnostic artifact. A checker that accepts everything tests
//! nothing.

use atomic_dsm::machine::{Action, MachineBuilder, ProcCtx};
use atomic_dsm::protocol::{MemOp, OpResult, SyncConfig, SyncPolicy};
use atomic_dsm::sim::{Cycle, FaultConfig, MachineConfig};
use atomic_dsm::sync::{LinkPrim, ShmAlloc};
use atomic_dsm::trace::{
    assert_linearizable, check, FifoQueueSpec, HistEvent, HistOp, HistRet, History, LifoStackSpec,
    Rejection, SetSpec,
};
use atomic_dsm::workloads::{build_lockfree, check_invariants, LfConfig, LfStructure};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Where rejected histories are written: `$DSM_LIN_REJECTS` when set
/// (CI uploads that directory on failure), else `target/lin-rejected`.
fn rejects_dir() -> PathBuf {
    std::env::var_os("DSM_LIN_REJECTS")
        .map_or_else(|| PathBuf::from("target/lin-rejected"), PathBuf::from)
}

const LIMIT: Cycle = Cycle::new(5_000_000_000);

/// No faults, no paranoia — the default execution regime.
fn normal() -> FaultConfig {
    FaultConfig::default()
}

/// Protocol invariant checker after every transition (pure observer).
fn paranoid() -> FaultConfig {
    FaultConfig {
        paranoid: true,
        ..FaultConfig::default()
    }
}

/// The light fault preset (jitter + evictions + reservation wipes)
/// with paranoid checking and a watchdog. Heavy's wipe storm can
/// legally starve LL/SC retry loops, so light is the stress regime
/// every structure must survive (see `tests/fault_injection.rs`).
fn faulted() -> FaultConfig {
    FaultConfig {
        paranoid: true,
        watchdog: 10_000_000,
        ..FaultConfig::light()
    }
}

/// Runs one structure on the full machine and pushes its history
/// through invariants + the linearizability oracle.
fn run_and_check(structure: LfStructure, prim: LinkPrim, policy: SyncPolicy, faults: FaultConfig) {
    let mut mcfg = MachineConfig::with_nodes(4);
    mcfg.faults = faults;
    let cfg = LfConfig {
        structure,
        prim,
        sync: SyncConfig {
            policy,
            ..Default::default()
        },
        ops_per_proc: 6,
        key_space: 8,
        buckets: 3,
    };
    let label = format!("{}-{}-{}", structure.label(), prim, policy.label());
    let (mut m, run) = build_lockfree(mcfg, &cfg);
    m.run(LIMIT).unwrap_or_else(|e| panic!("{label}: {e}"));
    m.validate_coherence()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    check_invariants(&m, &cfg, &run).unwrap_or_else(|e| panic!("{label}: {e}"));
    let hist = run.history.lock().unwrap();
    match structure {
        LfStructure::Queue => assert_linearizable(&label, &FifoQueueSpec, &hist, &rejects_dir()),
        LfStructure::List | LfStructure::Map => {
            assert_linearizable(&label, &SetSpec, &hist, &rejects_dir())
        }
    }
}

/// Every structure × link primitive × coherence policy produces a
/// linearizable history under normal execution.
#[test]
fn all_structures_linearizable_normal() {
    for structure in LfStructure::ALL {
        for prim in LinkPrim::ALL {
            for policy in SyncPolicy::ALL {
                run_and_check(structure, prim, policy, normal());
            }
        }
    }
}

/// Paranoid invariant checking observes every transition without
/// disturbing linearizability.
#[test]
fn all_structures_linearizable_paranoid() {
    for structure in LfStructure::ALL {
        for prim in LinkPrim::ALL {
            run_and_check(structure, prim, SyncPolicy::Inv, paranoid());
        }
    }
}

/// Fault injection (jitter, evictions, reservation wipes) stretches
/// operation windows and forces retries, but histories stay
/// linearizable for every structure and primitive.
#[test]
fn all_structures_linearizable_under_faults() {
    for structure in LfStructure::ALL {
        for prim in LinkPrim::ALL {
            run_and_check(structure, prim, SyncPolicy::Inv, faulted());
        }
    }
}

/// Faulted runs under the memory-side reservation policies too.
#[test]
fn faulted_runs_cover_unc_and_upd() {
    for policy in [SyncPolicy::Unc, SyncPolicy::Upd] {
        run_and_check(LfStructure::Queue, LinkPrim::Llsc, policy, faulted());
        run_and_check(LfStructure::Map, LinkPrim::EmulLlsc, policy, faulted());
    }
}

// ---------------------------------------------------------------------------
// The negative: a deliberately buggy implementation the checker must
// reject.
// ---------------------------------------------------------------------------

/// One step of a directed two-processor schedule.
#[derive(Debug, Clone)]
enum SStep {
    /// Issue a memory operation and assert its result.
    Op(MemOp, Expect),
    /// Spin (host-side) until the shared phase reaches the value.
    Wait(u32),
    /// Advance the shared phase.
    Set(u32),
    /// Mark the invocation time of the next recorded operation.
    Begin,
    /// Record a completed operation into the history.
    Record(HistOp, HistRet),
}

#[derive(Debug, Clone)]
enum Expect {
    /// A load returning exactly this value.
    Value(u64),
    /// A CAS that must succeed.
    CasOk,
    /// A plain store.
    StoreOk,
}

/// Interprets a script as a machine program, recording history events
/// with real invocation/response cycle stamps.
fn scripted(
    steps: Vec<SStep>,
    phase: Arc<AtomicU32>,
    hist: Arc<Mutex<History>>,
    proc: u32,
) -> impl FnMut(&mut ProcCtx<'_>) -> Action {
    let mut idx = 0usize;
    let mut invoked = 0u64;
    let mut expecting: Option<Expect> = None;
    move |ctx: &mut ProcCtx<'_>| {
        if let Some(exp) = expecting.take() {
            let r = ctx.last.take().expect("scripted op result");
            match (&exp, &r) {
                (Expect::Value(v), OpResult::Loaded { value, .. }) => {
                    assert_eq!(value, v, "scripted load read the wrong value")
                }
                (Expect::CasOk, OpResult::CasDone { success, observed }) => {
                    assert!(*success, "scripted CAS failed (observed {observed:#x})")
                }
                (Expect::StoreOk, OpResult::Stored) => {}
                other => panic!("scripted step got unexpected result {other:?}"),
            }
        }
        loop {
            let Some(step) = steps.get(idx) else {
                return Action::Done;
            };
            match step {
                SStep::Op(op, exp) => {
                    expecting = Some(exp.clone());
                    idx += 1;
                    return Action::Op(*op);
                }
                SStep::Wait(p) => {
                    if phase.load(Ordering::Relaxed) < *p {
                        return Action::Compute(8);
                    }
                    idx += 1;
                }
                SStep::Set(p) => {
                    phase.store(*p, Ordering::Relaxed);
                    idx += 1;
                }
                SStep::Begin => {
                    invoked = ctx.now.as_u64();
                    idx += 1;
                }
                SStep::Record(op, ret) => {
                    hist.lock().unwrap().push(HistEvent {
                        proc,
                        invoked,
                        responded: ctx.now.as_u64(),
                        op: *op,
                        ret: *ret,
                    });
                    idx += 1;
                }
            }
        }
    }
}

/// The classic ABA bug, reproduced deterministically on the full
/// machine: a Treiber-stack pop implemented with an *unvalidated plain
/// CAS* (no reservation, no counter) reads `top = Y, Y.next = X`,
/// stalls, and meanwhile the other processor pops Y, pops X, and
/// pushes Y back. The victim's `CAS(top, Y → X)` then succeeds — the
/// address matches even though the stack changed underneath — leaving
/// the already-popped X reachable as the new top. The final pop
/// returns X a second time: one push of X, two pops of X, and the
/// Wing–Gong checker must find no linearization.
///
/// This is the in-tree "deliberately buggy seeded implementation"
/// negative: the safe disciplines (LL/SC, counted CAS — see
/// `tests/lockfree_stack.rs`) close exactly this window.
#[test]
fn aba_buggy_stack_pop_is_rejected() {
    let mut alloc = ShmAlloc::new(32, 2);
    let top = alloc.word();
    let x = alloc.array(2);
    let y = alloc.array(2);
    let (xv, yv) = (x.as_u64(), y.as_u64());

    let phase = Arc::new(AtomicU32::new(0));
    let hist: Arc<Mutex<History>> = Arc::default();
    // Seed: stack is X (bottom) then Y (top), recorded as two
    // sequential pushes that precede every machine operation.
    for (t, v) in [(0u64, xv), (1, yv)] {
        hist.lock().unwrap().push(HistEvent {
            proc: 0,
            invoked: t,
            responded: t,
            op: HistOp::Push(v),
            ret: HistRet::Ok,
        });
    }

    let mut b = MachineBuilder::new(MachineConfig::with_nodes(2));
    for addr in [top, x, y] {
        b.register_sync(addr, SyncConfig::default());
    }
    b.init_word(top, yv);
    b.init_word(y, xv); // Y.next = X
    b.init_word(x, 0); // X.next = nil

    // Processor 0: the victim. Reads top and next, then completes the
    // pop with a plain CAS after the world has changed underneath.
    let victim = vec![
        SStep::Begin,
        SStep::Op(MemOp::Load { addr: top }, Expect::Value(yv)),
        SStep::Op(MemOp::Load { addr: y }, Expect::Value(xv)),
        SStep::Set(1),
        SStep::Wait(2),
        SStep::Op(
            MemOp::Cas {
                addr: top,
                expected: yv,
                new: xv,
            },
            Expect::CasOk,
        ),
        SStep::Record(HistOp::Pop, HistRet::Value(yv)),
        SStep::Set(3),
    ];

    // Processor 1: pops Y, pops X, pushes Y back (all sequential and
    // individually correct), then pops the corrupted top.
    let interferer = vec![
        SStep::Wait(1),
        // pop -> Y
        SStep::Begin,
        SStep::Op(MemOp::Load { addr: top }, Expect::Value(yv)),
        SStep::Op(MemOp::Load { addr: y }, Expect::Value(xv)),
        SStep::Op(
            MemOp::Cas {
                addr: top,
                expected: yv,
                new: xv,
            },
            Expect::CasOk,
        ),
        SStep::Record(HistOp::Pop, HistRet::Value(yv)),
        // pop -> X
        SStep::Begin,
        SStep::Op(MemOp::Load { addr: top }, Expect::Value(xv)),
        SStep::Op(MemOp::Load { addr: x }, Expect::Value(0)),
        SStep::Op(
            MemOp::Cas {
                addr: top,
                expected: xv,
                new: 0,
            },
            Expect::CasOk,
        ),
        SStep::Record(HistOp::Pop, HistRet::Value(xv)),
        // push Y back
        SStep::Begin,
        SStep::Op(MemOp::Store { addr: y, value: 0 }, Expect::StoreOk),
        SStep::Op(
            MemOp::Cas {
                addr: top,
                expected: 0,
                new: yv,
            },
            Expect::CasOk,
        ),
        SStep::Record(HistOp::Push(yv), HistRet::Ok),
        SStep::Set(2),
        // The victim's stale CAS lands here, resurrecting X.
        SStep::Wait(3),
        SStep::Begin,
        SStep::Op(MemOp::Load { addr: top }, Expect::Value(xv)),
        SStep::Op(MemOp::Load { addr: x }, Expect::Value(0)),
        SStep::Op(
            MemOp::Cas {
                addr: top,
                expected: xv,
                new: 0,
            },
            Expect::CasOk,
        ),
        SStep::Record(HistOp::Pop, HistRet::Value(xv)),
    ];

    b.add_program(scripted(victim, Arc::clone(&phase), Arc::clone(&hist), 0));
    b.add_program(scripted(
        interferer,
        Arc::clone(&phase),
        Arc::clone(&hist),
        1,
    ));

    let mut m = b.build();
    m.run(LIMIT).expect("directed ABA schedule completes");
    m.validate_coherence().unwrap();

    // X was pushed once and popped twice: no linearization can exist.
    // 2 seeded pushes + 1 victim pop + 4 interferer ops = 7 events.
    let hist = hist.lock().unwrap();
    assert_eq!(hist.len(), 7);
    match check(&LifoStackSpec, &hist) {
        Err(Rejection::NotLinearizable { total, .. }) => assert_eq!(total, 7),
        other => panic!("ABA history must be rejected, got {other:?}"),
    }
}

/// A rejected history is written out as a diagnostic artifact (the CI
/// job uploads these on failure) before the assertion panics.
#[test]
fn rejected_history_writes_an_artifact() {
    let dir = std::path::Path::new("target").join("lin-rejects-selftest");
    let _ = std::fs::remove_dir_all(&dir);

    let mut h = History::new();
    for (t, op, ret) in [
        (0u64, HistOp::Push(7), HistRet::Ok),
        (1, HistOp::Pop, HistRet::Value(7)),
        (2, HistOp::Pop, HistRet::Value(7)), // popped twice, pushed once
    ] {
        h.push(HistEvent {
            proc: 0,
            invoked: 2 * t,
            responded: 2 * t + 1,
            op,
            ret,
        });
    }
    let result = std::panic::catch_unwind(|| {
        assert_linearizable("artifact-selftest", &LifoStackSpec, &h, &dir);
    });
    assert!(result.is_err(), "a non-linearizable history must panic");
    let artifact = dir.join("artifact-selftest.txt");
    let text = std::fs::read_to_string(&artifact)
        .unwrap_or_else(|e| panic!("rejection artifact {} missing: {e}", artifact.display()));
    assert!(text.contains("no linearization exists"), "{text}");
    assert!(text.contains("Pop"), "{text}");
}
