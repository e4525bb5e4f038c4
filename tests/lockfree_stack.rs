//! End-to-end lock-free stack runs on the full machine: concurrent
//! pushes and pops across processors must neither lose nor duplicate
//! nodes, under both safe head disciplines (LL/SC and counted CAS) and
//! every coherence policy.
//!
//! Every run also records a complete invocation/response history
//! (stamped with simulated cycles) and, when it fits the checker's
//! op cap, replays it through the Wing–Gong linearizability oracle
//! against [`LifoStackSpec`] — so the stack is held to the same
//! standard as the queue/list/map tier in `tests/linearizability.rs`,
//! not just to node conservation.

use atomic_dsm::machine::{Action, MachineBuilder, ProcCtx};
use atomic_dsm::sim::{Addr, Cycle, MachineConfig};
use atomic_dsm::sync::stack::{unpack_node, StackPop, StackPrim, StackPush};
use atomic_dsm::sync::{ShmAlloc, SubMachine};
use atomic_dsm::trace::linearize::MAX_OPS;
use atomic_dsm::trace::{assert_linearizable, HistEvent, HistOp, HistRet, History, LifoStackSpec};
use atomic_dsm::workloads::step_action;
use atomic_dsm::{SyncConfig, SyncPolicy};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Where rejected histories are written: `$DSM_LIN_REJECTS` when set
/// (CI uploads that directory on failure), else `target/lin-rejected`.
fn rejects_dir() -> PathBuf {
    std::env::var_os("DSM_LIN_REJECTS")
        .map_or_else(|| PathBuf::from("target/lin-rejected"), PathBuf::from)
}

const LIMIT: Cycle = Cycle::new(5_000_000_000);

fn run_stress(prim: StackPrim, policy: SyncPolicy, nodes: u32, per_proc: u64) {
    let mut alloc = ShmAlloc::new(32, nodes);
    let top = alloc.word();
    let node_addrs: Vec<Vec<Addr>> = (0..nodes)
        .map(|_| (0..per_proc).map(|_| alloc.array(2)).collect())
        .collect();

    let popped: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let hist: Arc<Mutex<History>> = Arc::default();
    let mut b = MachineBuilder::new(MachineConfig::with_nodes(nodes));
    b.register_sync(
        top,
        SyncConfig {
            policy,
            ..Default::default()
        },
    );

    for p in 0..nodes {
        let my_nodes = node_addrs[p as usize].clone();
        let popped = Arc::clone(&popped);
        let hist = Arc::clone(&hist);
        let mut round = 0usize;
        let mut pushing = true;
        let mut invoked = 0u64;
        let mut push: Option<StackPush> = None;
        let mut pop: Option<StackPop> = None;
        b.add_program(move |ctx: &mut ProcCtx<'_>| loop {
            if let Some(m) = &mut push {
                match step_action(m.step(ctx.last.take(), ctx.rng)) {
                    Some(action) => return action,
                    None => {
                        hist.lock().unwrap().push(HistEvent {
                            proc: p,
                            invoked,
                            responded: ctx.now.as_u64(),
                            op: HistOp::Push(my_nodes[round].as_u64()),
                            ret: HistRet::Ok,
                        });
                        push = None;
                    }
                }
            }
            if let Some(m) = &mut pop {
                match step_action(m.step(ctx.last.take(), ctx.rng)) {
                    Some(action) => return action,
                    None => {
                        let ret = match m.popped() {
                            Some(n) => {
                                popped.lock().unwrap().push(n);
                                HistRet::Value(n)
                            }
                            None => HistRet::Empty,
                        };
                        hist.lock().unwrap().push(HistEvent {
                            proc: p,
                            invoked,
                            responded: ctx.now.as_u64(),
                            op: HistOp::Pop,
                            ret,
                        });
                        pop = None;
                        round += 1;
                    }
                }
            }
            if round == my_nodes.len() {
                return Action::Done;
            }
            invoked = ctx.now.as_u64();
            if pushing {
                pushing = false;
                push = Some(StackPush::new(top, my_nodes[round], prim));
            } else {
                pushing = true;
                pop = Some(StackPop::new(top, prim));
            }
        });
    }

    let mut m = b.build();
    m.run(LIMIT).expect("stack stress completes");
    m.validate_coherence().unwrap();

    // Walk the remaining stack.
    let mut remaining = Vec::new();
    let mut cursor = match prim {
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

    // Conservation: every node appears exactly once, in `popped` or on
    // the stack.
    let all_nodes: HashSet<u64> = node_addrs.iter().flatten().map(|a| a.as_u64()).collect();
    let mut seen = HashSet::new();
    for &n in popped.lock().unwrap().iter().chain(remaining.iter()) {
        assert!(
            all_nodes.contains(&n),
            "{prim:?}/{policy}: unknown node {n:#x}"
        );
        assert!(seen.insert(n), "{prim:?}/{policy}: node {n:#x} duplicated!");
    }
    assert_eq!(
        seen.len(),
        all_nodes.len(),
        "{prim:?}/{policy}: nodes lost ({} of {})",
        seen.len(),
        all_nodes.len()
    );

    // Replay the cycle-stamped history through the linearizability
    // oracle whenever it fits the checker's cap (the 16×16 stress run
    // records 512 ops and exercises conservation only).
    let hist = hist.lock().unwrap();
    assert_eq!(hist.len(), (nodes as usize) * (per_proc as usize) * 2);
    if hist.len() <= MAX_OPS {
        let name = format!("stack-{prim:?}-{policy}-n{nodes}");
        assert_linearizable(&name, &LifoStackSpec, &hist, &rejects_dir());
    }
}

#[test]
fn llsc_stack_conserves_nodes_inv() {
    run_stress(StackPrim::Llsc, SyncPolicy::Inv, 8, 12);
}

#[test]
fn llsc_stack_conserves_nodes_unc() {
    run_stress(StackPrim::Llsc, SyncPolicy::Unc, 8, 12);
}

#[test]
fn counted_cas_stack_conserves_nodes_inv() {
    run_stress(StackPrim::CasCounted, SyncPolicy::Inv, 8, 12);
}

#[test]
fn counted_cas_stack_conserves_nodes_unc() {
    run_stress(StackPrim::CasCounted, SyncPolicy::Unc, 8, 12);
}

#[test]
fn counted_cas_stack_conserves_nodes_upd() {
    run_stress(StackPrim::CasCounted, SyncPolicy::Upd, 8, 12);
}

#[test]
fn bigger_llsc_stack_stress() {
    run_stress(StackPrim::Llsc, SyncPolicy::Inv, 16, 16);
}
