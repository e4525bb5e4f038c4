//! Trace capture: run a contended `compare_and_swap` counter with the
//! observability layer on, write a Perfetto trace plus a binary ring
//! buffer, and print the machine's per-node counters (kept with or
//! without a tracer).
//!
//! ```sh
//! cargo run --release --example trace_capture
//! ```
//!
//! Open the printed `.json` file at <https://ui.perfetto.dev> (or
//! `chrome://tracing`): one process track per node, with the cpu,
//! cache-controller, home-directory and network rows inside it, and
//! arrows linking each network request to the service slice it caused.

use atomic_dsm::machine::{Action, MachineBuilder, ProcCtx};
use atomic_dsm::protocol::{MemOp, SyncConfig, SyncPolicy};
use atomic_dsm::sim::{Addr, Cycle, MachineConfig};
use atomic_dsm::trace::TraceSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const PROCS: u32 = 16;
    const ITERS: u64 = 50;
    let counter = Addr::new(0x40);

    let mut b = MachineBuilder::new(MachineConfig::with_nodes(PROCS));
    b.register_sync(
        counter,
        SyncConfig {
            policy: SyncPolicy::Inv,
            ..Default::default()
        },
    );
    for _ in 0..PROCS {
        // Each processor increments the counter ITERS times with a
        // load / compare_and_swap retry loop — the paper's lock-free
        // counter — so the trace shows real contention: failed CAS
        // instants, invalidation traffic, directory transitions.
        let mut done_incrs = 0u64;
        b.add_program(move |ctx: &mut ProcCtx<'_>| {
            use atomic_dsm::protocol::OpResult;
            match ctx.last {
                Some(OpResult::Loaded { value, .. }) => {
                    return Action::Op(MemOp::Cas {
                        addr: counter,
                        expected: value,
                        new: value + 1,
                    });
                }
                Some(OpResult::CasDone { success, .. }) => {
                    if success {
                        done_incrs += 1;
                    }
                    if done_incrs == ITERS {
                        return Action::Done;
                    }
                }
                _ => {}
            }
            Action::Op(MemOp::Load { addr: counter })
        });
    }

    // `TraceSpec::from_spec` accepts the same grammar as the
    // `--trace=SPEC` flag and the `DSM_TRACE` variable. This one asks
    // for both sinks: Perfetto JSON into `traces/`, and a 4096-event
    // ring buffer alongside it.
    let spec = TraceSpec::from_spec("perfetto,ring:4096")?;
    b.with_trace(spec);

    let mut machine = b.build();
    machine.run(Cycle::new(50_000_000))?;
    assert_eq!(machine.read_word(counter), PROCS as u64 * ITERS);

    println!("node  msgs  flits  srv-home  srv-cache  transit-avg  ops  retries");
    for (i, n) in machine.stats().nodes.iter().enumerate() {
        println!(
            "{i:<4}  {:>4}  {:>5}  {:>8}  {:>9}  {:>11.1}  {:>3}  {:>7}",
            n.msgs_sent,
            n.flits_sent,
            n.served_home,
            n.served_cache,
            n.transit_avg(),
            n.ops,
            n.retries
        );
    }

    println!("\ntrace files (content-addressed, deterministic):");
    for path in machine.trace_files() {
        println!("  {}", path.display());
    }
    println!("\nopen the .json file at https://ui.perfetto.dev");
    Ok(())
}
