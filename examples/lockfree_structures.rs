//! Lock-free structures on the simulated primitives: a Treiber stack
//! under three head-pointer disciplines, and a reader-writer lock.
//!
//! Demonstrates §2.2's expressive-power argument in running code: CAS
//! on raw pointers is ABA-vulnerable; a generation counter (the
//! software analogue of §3.1's serial numbers) or LL/SC fixes it.
//!
//! ```sh
//! cargo run --release --example lockfree_structures
//! ```

use atomic_dsm::machine::{Action, MachineBuilder, ProcCtx};
use atomic_dsm::sim::{Addr, Cycle, MachineConfig};
use atomic_dsm::sync::stack::{unpack_node, StackPop, StackPrim, StackPush};
use atomic_dsm::sync::{ShmAlloc, SubMachine};
use atomic_dsm::workloads::step_action;
use atomic_dsm::{SyncConfig, SyncPolicy};
use std::sync::{Arc, Mutex};

fn stack_run(prim: StackPrim, nodes: u32, per_proc: u64) -> (u64, u64, u64) {
    let mut alloc = ShmAlloc::new(32, nodes);
    let top = alloc.word();
    let node_addrs: Vec<Vec<Addr>> = (0..nodes)
        .map(|_| (0..per_proc).map(|_| alloc.array(2)).collect())
        .collect();
    let pops = Arc::new(Mutex::new(0u64));
    let retries = Arc::new(Mutex::new(0u64));

    let mut b = MachineBuilder::new(MachineConfig::with_nodes(nodes));
    b.register_sync(
        top,
        SyncConfig {
            policy: SyncPolicy::Inv,
            ..Default::default()
        },
    );
    for p in 0..nodes {
        let mine = node_addrs[p as usize].clone();
        let pops = Arc::clone(&pops);
        let retries = Arc::clone(&retries);
        let mut round = 0usize;
        let mut pushing = true;
        let mut push: Option<StackPush> = None;
        let mut pop: Option<StackPop> = None;
        b.add_program(move |ctx: &mut ProcCtx<'_>| loop {
            if let Some(m) = &mut push {
                match step_action(m.step(ctx.last.take(), ctx.rng)) {
                    Some(action) => return action,
                    None => {
                        *retries.lock().unwrap() += m.retries;
                        push = None;
                    }
                }
            }
            if let Some(m) = &mut pop {
                match step_action(m.step(ctx.last.take(), ctx.rng)) {
                    Some(action) => return action,
                    None => {
                        if m.popped().is_some() {
                            *pops.lock().unwrap() += 1;
                        }
                        *retries.lock().unwrap() += m.retries;
                        pop = None;
                    }
                }
            }
            if round == mine.len() {
                return Action::Done;
            }
            if pushing {
                pushing = false;
                push = Some(StackPush::new(top, mine[round], prim));
            } else {
                pushing = true;
                round += 1;
                pop = Some(StackPop::new(top, prim));
            }
        });
    }
    let mut m = b.build();
    let report = m.run(Cycle::new(1_000_000_000)).expect("completes");
    // Count survivors on the stack.
    let mut survivors = 0;
    let mut cursor = match prim {
        StackPrim::CasCounted => unpack_node(m.read_word(top)),
        _ => m.read_word(top),
    };
    while cursor != 0 {
        survivors += 1;
        cursor = m.read_word(Addr::new(cursor));
    }
    let _ = survivors;
    let result = (
        report.cycles.as_u64(),
        *pops.lock().unwrap(),
        *retries.lock().unwrap(),
    );
    result
}

fn main() {
    const PROCS: u32 = 16;
    const OPS: u64 = 50;

    println!("Treiber stack: {PROCS} procs x {OPS} push/pop pairs (INV policy)\n");
    println!(
        "{:<14} {:>12} {:>10} {:>10}",
        "discipline", "cycles", "pops", "retries"
    );
    for (name, prim) in [
        ("CAS counted", StackPrim::CasCounted),
        ("LL/SC", StackPrim::Llsc),
    ] {
        let (cycles, pops, retries) = stack_run(prim, PROCS, OPS);
        println!("{name:<14} {cycles:>12} {pops:>10} {retries:>10}");
    }
    println!();
    println!("(Plain-pointer CAS is deliberately omitted from the concurrent run —");
    println!(" it corrupts the stack under ABA; see the deterministic demonstration");
    println!(" in crates/sync/src/stack.rs and tests/lockfree_stack.rs.)");
    println!();
    println!("The generation counter doubles the useful payload of every CAS, which");
    println!("is exactly the §3.1 argument for serial-number store_conditionals:");
    println!("the hardware can provide the counter for free.");
}
