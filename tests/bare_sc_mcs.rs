//! The §3.1 bare-store-conditional optimization: "a process that
//! expects a particular value (and serial number) in memory can issue a
//! bare store_conditional … This capability is useful for algorithms
//! such as the MCS queue-based spin lock, in which it reduces by one
//! the number of memory accesses required to relinquish the lock."
//!
//! These tests run MCS acquire/release pairs on the full machine under
//! UNC with serial-number reservations and verify (a) exactness, (b)
//! that uncontended releases really are one access shorter.

use atomic_dsm::machine::{Action, MachineBuilder, ProcCtx};
use atomic_dsm::protocol::{LlscScheme, MemOp, SyncConfig, SyncPolicy};
use atomic_dsm::sim::{Addr, Cycle, MachineConfig};
use atomic_dsm::sync::{
    McsAcquire, McsLock, McsQnode, McsRelease, PrimChoice, Primitive, SubMachine,
};
use atomic_dsm::workloads::step_action;
use std::sync::{Arc, Mutex};

const LOCK: Addr = Addr::new(0x40);
const COUNTER: Addr = Addr::new(0x80);

fn sync_cfg() -> SyncConfig {
    SyncConfig {
        policy: SyncPolicy::Unc,
        llsc: LlscScheme::SerialNumber,
        ..Default::default()
    }
}

fn run(nodes: u32, active: u32, iters: u64, bare: bool) -> (u64, u64, u64) {
    let bare_hits = Arc::new(Mutex::new(0u64));
    let mut b = MachineBuilder::new(MachineConfig::with_nodes(nodes));
    b.register_sync(LOCK, sync_cfg());
    for p in 0..active {
        let qnode = McsQnode::at(Addr::new(0x1000 + p as u64 * 64));
        let bare_hits = Arc::clone(&bare_hits);
        let choice = PrimChoice::plain(Primitive::Llsc);
        let mut left = iters;
        let mut acq: Option<McsAcquire> = None;
        let mut rel: Option<McsRelease> = None;
        let mut serial: Option<u64> = None;
        let mut stage = 0u8;
        b.add_program(move |ctx: &mut ProcCtx<'_>| loop {
            if let Some(m) = &mut acq {
                match step_action(m.step(ctx.last.take(), ctx.rng)) {
                    Some(action) => return action,
                    None => {
                        serial = m.tail_serial_after_acquire();
                        acq = None;
                    }
                }
            }
            if let Some(m) = &mut rel {
                match step_action(m.step(ctx.last.take(), ctx.rng)) {
                    Some(action) => return action,
                    None => {
                        *bare_hits.lock().unwrap() += m.bare_sc_hits;
                        rel = None;
                    }
                }
            }
            if left == 0 {
                return Action::Done;
            }
            stage += 1;
            match stage {
                1 => acq = Some(McsAcquire::new(McsLock { tail: LOCK }, qnode, choice)),
                2 => return Action::Op(MemOp::Load { addr: COUNTER }),
                3 => {
                    let v = ctx
                        .last
                        .take()
                        .expect("counter read")
                        .value()
                        .expect("value");
                    return Action::Op(MemOp::Store {
                        addr: COUNTER,
                        value: v + 1,
                    });
                }
                4 => {
                    ctx.last.take();
                    let r = McsRelease::new(McsLock { tail: LOCK }, qnode, choice);
                    rel = Some(if bare {
                        r.with_bare_serial(serial.take())
                    } else {
                        r
                    });
                }
                5 => {
                    stage = 0;
                    left -= 1;
                    // Space acquisitions out so releases are usually
                    // uncontended (the bare SC's win scenario).
                    return Action::Compute(500);
                }
                _ => unreachable!(),
            }
        });
    }
    for _ in active..nodes {
        b.add_program(|_: &mut ProcCtx<'_>| Action::Done);
    }
    let mut m = b.build();
    m.run(Cycle::new(10_000_000_000)).expect("completes");
    m.validate_coherence().unwrap();
    assert_eq!(
        m.read_word(COUNTER),
        active as u64 * iters,
        "lock lost an update"
    );
    let hits = *bare_hits.lock().unwrap();
    (m.stats().msgs.total_messages(), m.stats().sync_ops, hits)
}

#[test]
fn bare_sc_release_saves_exactly_one_access_uncontended() {
    // One active processor: fully deterministic op counts.
    // Per iteration: enqueue LL+SC (2 ops) + release (2 ops plain, 1
    // bare) on the lock line.
    let iters = 10;
    let (msgs_plain, ops_plain, hits_plain) = run(2, 1, iters, false);
    let (msgs_bare, ops_bare, hits_bare) = run(2, 1, iters, true);
    assert_eq!(hits_plain, 0);
    assert_eq!(
        hits_bare, iters,
        "every uncontended release takes the fast path"
    );
    assert_eq!(ops_plain, 4 * iters);
    assert_eq!(
        ops_bare,
        3 * iters,
        "the paper's promised one-access saving"
    );
    assert_eq!(
        msgs_plain - msgs_bare,
        2 * iters,
        "each saved LL is one request + one reply under UNC"
    );
}

#[test]
fn bare_sc_still_helps_with_mild_contention() {
    let iters = 10;
    let (_, ops_plain, _) = run(4, 4, iters, false);
    let (_, ops_bare, hits_bare) = run(4, 4, iters, true);
    assert!(
        hits_bare > 0,
        "spaced-out releases should hit the fast path"
    );
    assert!(
        ops_bare < ops_plain,
        "bare SC must reduce lock-line accesses ({ops_bare} vs {ops_plain})"
    );
}

#[test]
fn bare_sc_falls_back_safely_under_contention() {
    // With zero compute spacing, successors enqueue during critical
    // sections; bare SCs fail and fall back — exactness must hold.
    let bare_hits = Arc::new(Mutex::new(0u64));
    let nodes = 8u32;
    let iters = 15u64;
    let mut b = MachineBuilder::new(MachineConfig::with_nodes(nodes));
    b.register_sync(LOCK, sync_cfg());
    for p in 0..nodes {
        let qnode = McsQnode::at(Addr::new(0x1000 + p as u64 * 64));
        let bare_hits = Arc::clone(&bare_hits);
        let choice = PrimChoice::plain(Primitive::Llsc);
        let mut left = iters;
        let mut acq: Option<McsAcquire> = None;
        let mut rel: Option<McsRelease> = None;
        b.add_program(move |ctx: &mut ProcCtx<'_>| loop {
            if let Some(m) = &mut acq {
                match step_action(m.step(ctx.last.take(), ctx.rng)) {
                    Some(action) => return action,
                    None => {
                        let serial = m.tail_serial_after_acquire();
                        acq = None;
                        rel = Some(
                            McsRelease::new(McsLock { tail: LOCK }, qnode, choice)
                                .with_bare_serial(serial),
                        );
                    }
                }
            }
            if let Some(m) = &mut rel {
                match step_action(m.step(ctx.last.take(), ctx.rng)) {
                    Some(action) => return action,
                    None => {
                        *bare_hits.lock().unwrap() += m.bare_sc_hits;
                        rel = None;
                        left -= 1;
                    }
                }
            }
            if left == 0 {
                return Action::Done;
            }
            acq = Some(McsAcquire::new(McsLock { tail: LOCK }, qnode, choice));
        });
    }
    let mut m = b.build();
    m.run(Cycle::new(10_000_000_000)).unwrap();
    m.validate_coherence().unwrap();
    assert_eq!(m.read_word(LOCK), 0, "queue fully drained");
    // Under this much contention some bare SCs fail; the point is that
    // no handoff was ever lost (the run completed and drained).
    let _ = *bare_hits.lock().unwrap();
}
