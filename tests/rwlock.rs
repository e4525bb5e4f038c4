//! End-to-end reader-writer-lock runs: writers must be mutually
//! exclusive with everyone; readers must run concurrently and never
//! observe a torn write.

use atomic_dsm::machine::{Action, MachineBuilder, ProcCtx};
use atomic_dsm::protocol::MemOp;
use atomic_dsm::sim::{Cycle, MachineConfig};
use atomic_dsm::sync::rwlock::{ReadAcquire, ReadRelease, WriteAcquire, WriteRelease};
use atomic_dsm::sync::{Primitive, ShmAlloc, SubMachine};
use atomic_dsm::workloads::step_action;
use atomic_dsm::{SyncConfig, SyncPolicy};
use std::sync::{Arc, Mutex};

const LIMIT: Cycle = Cycle::new(5_000_000_000);

/// Writers store (k, k) into two separate shared words under the write
/// lock; readers take the read lock and load both words — they must
/// always be equal. The two words live on different cache lines so
/// coherence alone cannot provide the atomicity; the lock must.
fn run(prim: Primitive, policy: SyncPolicy, writers: u32, readers: u32, iters: u64) {
    let nodes = writers + readers;
    let mut alloc = ShmAlloc::new(32, nodes);
    let lock = alloc.word();
    let d1 = alloc.word();
    let d2 = alloc.word();

    let torn: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let reads_done = Arc::new(Mutex::new(0u64));
    let mut b = MachineBuilder::new(MachineConfig::with_nodes(nodes));
    b.register_sync(
        lock,
        SyncConfig {
            policy,
            ..Default::default()
        },
    );

    enum Frag {
        RA(ReadAcquire),
        RR(ReadRelease),
        WA(WriteAcquire),
        WR(WriteRelease),
        None,
    }

    for p in 0..nodes {
        let is_writer = p < writers;
        let torn = Arc::clone(&torn);
        let reads_done = Arc::clone(&reads_done);
        let mut left = iters;
        let mut frag = Frag::None;
        let mut stage = 0u8;
        let mut v1 = 0u64;
        b.add_program(move |ctx: &mut ProcCtx<'_>| loop {
            // Drive the active lock fragment.
            let step = match &mut frag {
                Frag::RA(m) => Some(m.step(ctx.last.take(), ctx.rng)),
                Frag::RR(m) => Some(m.step(ctx.last.take(), ctx.rng)),
                Frag::WA(m) => Some(m.step(ctx.last.take(), ctx.rng)),
                Frag::WR(m) => Some(m.step(ctx.last.take(), ctx.rng)),
                Frag::None => None,
            };
            if let Some(step) = step {
                match step_action(step) {
                    Some(action) => return action,
                    None => frag = Frag::None,
                }
            }
            if left == 0 {
                return Action::Done;
            }
            stage += 1;
            if is_writer {
                match stage {
                    1 => frag = Frag::WA(WriteAcquire::new(lock, prim)),
                    2 => {
                        return Action::Op(MemOp::Store {
                            addr: d1,
                            value: left,
                        })
                    }
                    3 => {
                        return Action::Op(MemOp::Store {
                            addr: d2,
                            value: left,
                        })
                    }
                    4 => frag = Frag::WR(WriteRelease::new(lock)),
                    5 => {
                        stage = 0;
                        left -= 1;
                    }
                    _ => unreachable!(),
                }
            } else {
                match stage {
                    1 => frag = Frag::RA(ReadAcquire::new(lock, prim)),
                    2 => return Action::Op(MemOp::Load { addr: d1 }),
                    3 => {
                        v1 = ctx.last.take().expect("d1 read").value().expect("value");
                        return Action::Op(MemOp::Load { addr: d2 });
                    }
                    4 => {
                        let v2 = ctx.last.take().expect("d2 read").value().expect("value");
                        if v1 != v2 {
                            torn.lock().unwrap().push((v1, v2));
                        }
                        *reads_done.lock().unwrap() += 1;
                        frag = Frag::RR(ReadRelease::new(lock, prim));
                    }
                    5 => {
                        stage = 0;
                        left -= 1;
                    }
                    _ => unreachable!(),
                }
            }
        });
    }

    let mut m = b.build();
    m.run(LIMIT).expect("rwlock run completes");
    m.validate_coherence().unwrap();
    assert!(
        torn.lock().unwrap().is_empty(),
        "{prim}/{policy}: torn reads observed: {:?}",
        torn.lock().unwrap()
    );
    assert_eq!(*reads_done.lock().unwrap(), readers as u64 * iters);
    assert_eq!(m.read_word(lock), 0, "lock fully released");
}

#[test]
fn cas_rwlock_inv() {
    run(Primitive::Cas, SyncPolicy::Inv, 3, 5, 12);
}

#[test]
fn cas_rwlock_unc() {
    run(Primitive::Cas, SyncPolicy::Unc, 3, 5, 12);
}

#[test]
fn llsc_rwlock_inv() {
    run(Primitive::Llsc, SyncPolicy::Inv, 3, 5, 12);
}

#[test]
fn llsc_rwlock_upd() {
    run(Primitive::Llsc, SyncPolicy::Upd, 2, 4, 8);
}

#[test]
fn reader_heavy_mix() {
    run(Primitive::Cas, SyncPolicy::Inv, 1, 15, 10);
}

#[test]
fn writer_heavy_mix() {
    run(Primitive::Llsc, SyncPolicy::Inv, 7, 1, 10);
}
