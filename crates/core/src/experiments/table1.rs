//! Table 1: serialized network messages for stores to shared memory
//! under the different coherence policies.
//!
//! Each row is measured by a micro-program that engineers the directory
//! into the named state and then issues one store, reading the
//! serialized-chain length of that store from the machine.

use crate::experiments::runner::{self, Job, JobOutput};
use dsm_machine::{Action, MachineBuilder, ProcCtx};
use dsm_protocol::{MemOp, SyncConfig, SyncPolicy};
use dsm_sim::{Addr, Cycle, MachineConfig};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// The scenario name, as in the paper.
    pub scenario: &'static str,
    /// The value the paper reports.
    pub paper: u32,
    /// The value our simulator measures.
    pub measured: u32,
}

const LINE: Addr = Addr::new(0x40);

/// The number of micro-experiment scenarios (rows of Table 1).
pub const SCENARIOS: usize = SCENARIO_TABLE.len();

/// One row's recipe: name, paper-reported value, measurement function.
type Scenario = (&'static str, u32, fn() -> u32);

/// The paper's rows, in order.
const SCENARIO_TABLE: [Scenario; 7] = [
    ("UNC", 2, unc),
    ("INV to cached exclusive", 0, inv_cached_exclusive),
    ("INV to remote exclusive", 4, inv_remote_exclusive),
    ("INV to remote shared", 3, inv_remote_shared),
    ("INV to uncached", 2, inv_uncached),
    ("UPD to cached", 3, upd_cached),
    ("UPD to uncached", 2, upd_uncached),
];

/// The table's CSV rows (header first); the printed table renders the
/// same rows.
pub fn csv_rows(rows: &[Table1Row]) -> Vec<Vec<String>> {
    let mut out = vec![vec![
        "scenario".to_string(),
        "paper".to_string(),
        "measured".to_string(),
    ]];
    for r in rows {
        out.push(vec![
            r.scenario.to_string(),
            r.paper.to_string(),
            r.measured.to_string(),
        ]);
    }
    out
}

/// Measures one row by index. Only the [`runner`] calls this; use
/// [`run`] to get the whole table through the cache.
///
/// # Panics
///
/// Panics if `scenario` is out of range or the micro-machine fails to
/// complete (a simulator bug).
pub(crate) fn run_scenario(scenario: usize) -> Table1Row {
    let (name, paper, measure) = SCENARIO_TABLE[scenario];
    Table1Row {
        scenario: name,
        paper,
        measured: measure(),
    }
}

/// Runs all seven micro-experiments and returns the rows in the paper's
/// order, fanned out across the experiment [`runner`].
///
/// # Panics
///
/// Panics if any micro-machine fails to complete (a simulator bug).
pub fn run() -> Vec<Table1Row> {
    let jobs: Vec<Job> = (0..SCENARIOS).map(Job::table1).collect();
    runner::run_all(&jobs)
        .into_iter()
        .map(JobOutput::into_table1)
        .collect()
}

/// Builds a 4-node machine where processor 0 optionally primes the line
/// (`prime0`), then processor 1 optionally primes it (`prime1`), then
/// processor 1 performs the measured store. Returns the measured chain.
fn measure(policy: SyncPolicy, prime0: Option<MemOp>, prime1: Option<MemOp>, store_by: u32) -> u32 {
    let chain: Arc<AtomicU32> = Arc::new(AtomicU32::new(u32::MAX));
    let mut b = MachineBuilder::new(MachineConfig::with_nodes(4));
    b.register_sync(
        LINE,
        SyncConfig {
            policy,
            ..Default::default()
        },
    );
    for p in 0..4u32 {
        let chain = Arc::clone(&chain);
        let mut stage = 0u32;
        b.add_program(move |ctx: &mut ProcCtx<'_>| {
            stage += 1;
            // Stages are globally ordered by barriers so the priming
            // accesses strictly precede the measured store.
            match stage {
                1 => {
                    if p == 0 {
                        if let Some(op) = prime0 {
                            return Action::Op(op);
                        }
                    }
                    Action::Compute(1)
                }
                2 => Action::Barrier(0),
                3 => {
                    if p == 1 {
                        if let Some(op) = prime1 {
                            return Action::Op(op);
                        }
                    }
                    Action::Compute(1)
                }
                4 => Action::Barrier(1),
                5 => {
                    if p == store_by {
                        Action::Op(MemOp::Store {
                            addr: LINE,
                            value: 99,
                        })
                    } else {
                        Action::Compute(1)
                    }
                }
                6 => {
                    if p == store_by {
                        chain.store(ctx.last_chain.expect("store completed"), Ordering::Relaxed);
                    }
                    Action::Done
                }
                _ => unreachable!(),
            }
        });
    }
    let mut m = b.build();
    m.run(Cycle::new(1_000_000))
        .expect("table-1 micro-run completes");
    let c = chain.load(Ordering::Relaxed);
    assert_ne!(c, u32::MAX, "measured store never ran");
    c
}

fn unc() -> u32 {
    measure(SyncPolicy::Unc, None, None, 1)
}

fn inv_cached_exclusive() -> u32 {
    // P1 stores first (acquiring exclusive), then the measured store
    // hits locally.
    measure(
        SyncPolicy::Inv,
        None,
        Some(MemOp::Store {
            addr: LINE,
            value: 1,
        }),
        1,
    )
}

fn inv_remote_exclusive() -> u32 {
    // P0 owns the line exclusively; P1 stores.
    measure(
        SyncPolicy::Inv,
        Some(MemOp::Store {
            addr: LINE,
            value: 1,
        }),
        None,
        1,
    )
}

fn inv_remote_shared() -> u32 {
    // P0 holds a shared copy; P1 (without any copy) stores, which
    // invalidates P0 and collects its acknowledgment.
    measure(SyncPolicy::Inv, Some(MemOp::Load { addr: LINE }), None, 1)
}

fn inv_uncached() -> u32 {
    measure(SyncPolicy::Inv, None, None, 1)
}

fn upd_cached() -> u32 {
    // P0 caches the line (UPD read); P1's store must update P0's copy
    // and collect its acknowledgment.
    measure(SyncPolicy::Upd, Some(MemOp::Load { addr: LINE }), None, 1)
}

fn upd_uncached() -> u32 {
    measure(SyncPolicy::Upd, None, None, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline reproduction check: every measured chain equals the
    /// paper's Table 1.
    #[test]
    fn table1_matches_paper_exactly() {
        for row in run() {
            assert_eq!(
                row.measured, row.paper,
                "{}: paper says {}, simulator measured {}",
                row.scenario, row.paper, row.measured
            );
        }
    }
}
