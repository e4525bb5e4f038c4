//! The full-machine simulator: ties processors, cache controllers, home
//! nodes, queued memory and the mesh network into one discrete-event
//! model of the paper's 64-node DSM multiprocessor.
//!
//! * [`Program`] / [`Action`] — the processor-program interface;
//! * [`MachineBuilder`] / [`Machine`] — construction and the event loop;
//! * [`MachineStats`] — contention, write-run, message-chain and latency
//!   instrumentation.
//!
//! # Example: 4 processors hammer one uncached fetch_and_add counter
//!
//! ```
//! use dsm_machine::{Action, MachineBuilder, ProcCtx};
//! use dsm_protocol::{MemOp, PhiOp, SyncConfig, SyncPolicy};
//! use dsm_sim::{Addr, Cycle, MachineConfig};
//!
//! let counter = Addr::new(0);
//! let mut b = MachineBuilder::new(MachineConfig::with_nodes(4));
//! b.register_sync(counter, SyncConfig { policy: SyncPolicy::Unc, ..Default::default() });
//! for _ in 0..4 {
//!     let mut remaining = 10;
//!     b.add_program(move |ctx: &mut ProcCtx<'_>| {
//!         if ctx.last.is_some() {
//!             remaining -= 1;
//!         }
//!         if remaining == 0 {
//!             Action::Done
//!         } else {
//!             Action::Op(MemOp::FetchPhi { addr: counter, op: PhiOp::Add(1) })
//!         }
//!     });
//! }
//! let mut m = b.build();
//! m.run(Cycle::new(1_000_000)).unwrap();
//! assert_eq!(m.read_word(counter), 40);
//! ```

#![deny(missing_docs)]

pub mod machine;
pub mod program;
pub mod stats;
pub mod trace;

pub use machine::{with_fault_config, Machine, MachineBuilder, ProcDump, RunError, RunReport};
pub use program::{Action, ProcCtx, Program};
pub use stats::MachineStats;
pub use trace::{new_trace, TraceRecorder, TraceReplay};

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_protocol::{CasVariant, LlscScheme, MemOp, OpResult, PhiOp, SyncConfig, SyncPolicy};
    use dsm_sim::{Addr, Cycle, MachineConfig};

    const COUNTER: Addr = Addr::new(0);
    const LIMIT: Cycle = Cycle::new(50_000_000);

    fn config(policy: SyncPolicy) -> SyncConfig {
        SyncConfig {
            policy,
            ..Default::default()
        }
    }

    /// N processors each add 1 to a counter `iters` times with
    /// fetch_and_add; the total must be exact under every policy.
    fn fetch_add_total(policy: SyncPolicy, nodes: u32, iters: u64) -> Machine {
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(nodes));
        b.register_sync(COUNTER, config(policy));
        for _ in 0..nodes {
            let mut remaining = iters;
            b.add_program(move |ctx: &mut ProcCtx<'_>| {
                if ctx.last.is_some() {
                    remaining -= 1;
                }
                if remaining == 0 {
                    Action::Done
                } else {
                    Action::Op(MemOp::FetchPhi {
                        addr: COUNTER,
                        op: PhiOp::Add(1),
                    })
                }
            });
        }
        let mut m = b.build();
        m.run(LIMIT).expect("run must complete");
        m
    }

    #[test]
    fn fetch_add_is_atomic_under_inv() {
        let m = fetch_add_total(SyncPolicy::Inv, 8, 50);
        assert_eq!(m.read_word(COUNTER), 400);
        m.validate_coherence().unwrap();
    }

    #[test]
    fn fetch_add_is_atomic_under_unc() {
        let m = fetch_add_total(SyncPolicy::Unc, 8, 50);
        assert_eq!(m.read_word(COUNTER), 400);
        m.validate_coherence().unwrap();
    }

    #[test]
    fn fetch_add_is_atomic_under_upd() {
        let m = fetch_add_total(SyncPolicy::Upd, 8, 50);
        assert_eq!(m.read_word(COUNTER), 400);
        m.validate_coherence().unwrap();
    }

    #[test]
    fn fetch_add_with_64_nodes() {
        let m = fetch_add_total(SyncPolicy::Inv, 64, 10);
        assert_eq!(m.read_word(COUNTER), 640);
        m.validate_coherence().unwrap();
    }

    /// A CAS-loop counter: load + compare_and_swap retry.
    fn cas_counter(policy: SyncPolicy, variant: CasVariant, use_load_exclusive: bool) {
        #[derive(Clone, Copy)]
        enum St {
            Idle,
            WaitLoad,
            WaitCas,
        }
        let nodes = 8;
        let iters = 30u64;
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(nodes));
        b.register_sync(
            COUNTER,
            SyncConfig {
                policy,
                cas_variant: variant,
                ..Default::default()
            },
        );
        for _ in 0..nodes {
            let mut remaining = iters;
            let mut st = St::Idle;
            b.add_program(move |ctx: &mut ProcCtx<'_>| match st {
                St::Idle => {
                    st = St::WaitLoad;
                    if use_load_exclusive {
                        Action::Op(MemOp::LoadExclusive { addr: COUNTER })
                    } else {
                        Action::Op(MemOp::Load { addr: COUNTER })
                    }
                }
                St::WaitLoad => {
                    let value = ctx.result().value().expect("load returns a value");
                    st = St::WaitCas;
                    Action::Op(MemOp::Cas {
                        addr: COUNTER,
                        expected: value,
                        new: value + 1,
                    })
                }
                St::WaitCas => match ctx.result() {
                    OpResult::CasDone { success: true, .. } => {
                        remaining -= 1;
                        if remaining == 0 {
                            return Action::Done;
                        }
                        st = St::WaitLoad;
                        if use_load_exclusive {
                            Action::Op(MemOp::LoadExclusive { addr: COUNTER })
                        } else {
                            Action::Op(MemOp::Load { addr: COUNTER })
                        }
                    }
                    OpResult::CasDone {
                        success: false,
                        observed,
                    } => Action::Op(MemOp::Cas {
                        addr: COUNTER,
                        expected: observed,
                        new: observed + 1,
                    }),
                    other => panic!("unexpected result {other:?}"),
                },
            });
        }
        let mut m = b.build();
        m.run(LIMIT).expect("run must complete");
        assert_eq!(m.read_word(COUNTER), nodes as u64 * iters);
        m.validate_coherence().unwrap();
    }

    #[test]
    fn cas_loop_counter_inv_plain() {
        cas_counter(SyncPolicy::Inv, CasVariant::Plain, false);
    }

    #[test]
    fn cas_loop_counter_inv_plain_with_load_exclusive() {
        cas_counter(SyncPolicy::Inv, CasVariant::Plain, true);
    }

    #[test]
    fn cas_loop_counter_invd() {
        cas_counter(SyncPolicy::Inv, CasVariant::Deny, false);
    }

    #[test]
    fn cas_loop_counter_invs() {
        cas_counter(SyncPolicy::Inv, CasVariant::Share, false);
    }

    #[test]
    fn cas_loop_counter_unc() {
        cas_counter(SyncPolicy::Unc, CasVariant::Plain, false);
    }

    #[test]
    fn cas_loop_counter_upd() {
        cas_counter(SyncPolicy::Upd, CasVariant::Plain, false);
    }

    /// An LL/SC counter loop.
    fn llsc_counter(policy: SyncPolicy, scheme: LlscScheme) {
        let nodes = 8;
        let iters = 30u64;
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(nodes));
        b.register_sync(
            COUNTER,
            SyncConfig {
                policy,
                llsc: scheme,
                ..Default::default()
            },
        );
        for _ in 0..nodes {
            let mut remaining = iters;
            b.add_program(move |ctx: &mut ProcCtx<'_>| match ctx.last {
                None => Action::Op(MemOp::LoadLinked { addr: COUNTER }),
                Some(OpResult::Loaded { value, serial, .. }) => {
                    Action::Op(MemOp::StoreConditional {
                        addr: COUNTER,
                        value: value + 1,
                        serial,
                    })
                }
                Some(OpResult::ScDone { success }) => {
                    if success {
                        remaining -= 1;
                        if remaining == 0 {
                            return Action::Done;
                        }
                    }
                    Action::Op(MemOp::LoadLinked { addr: COUNTER })
                }
                other => panic!("unexpected result {other:?}"),
            });
        }
        let mut m = b.build();
        m.run(LIMIT).expect("run must complete");
        assert_eq!(m.read_word(COUNTER), nodes as u64 * iters);
        m.validate_coherence().unwrap();
    }

    #[test]
    fn llsc_counter_inv() {
        llsc_counter(SyncPolicy::Inv, LlscScheme::BitVector);
    }

    #[test]
    fn llsc_counter_unc_bitvector() {
        llsc_counter(SyncPolicy::Unc, LlscScheme::BitVector);
    }

    #[test]
    fn llsc_counter_unc_serial() {
        llsc_counter(SyncPolicy::Unc, LlscScheme::SerialNumber);
    }

    #[test]
    fn llsc_counter_unc_linked_list() {
        llsc_counter(SyncPolicy::Unc, LlscScheme::LinkedList);
    }

    #[test]
    fn llsc_counter_upd() {
        llsc_counter(SyncPolicy::Upd, LlscScheme::BitVector);
    }

    #[test]
    fn llsc_counter_unc_limited_makes_progress() {
        // Limited(2) with 8 contenders: beyond-limit LLs fail their SCs
        // locally, but the reserved processors can succeed, so the loop
        // completes.
        llsc_counter(SyncPolicy::Unc, LlscScheme::Limited(2));
    }

    #[test]
    fn barrier_synchronizes_rounds() {
        use std::sync::{Arc, Mutex};
        let nodes = 4u32;
        let resume_times: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(nodes));
        for p in 0..nodes {
            let resume_times = Arc::clone(&resume_times);
            let mut stage = 0;
            b.add_program(move |ctx: &mut ProcCtx<'_>| {
                stage += 1;
                match stage {
                    // Compute for different durations, then barrier.
                    1 => Action::Compute(10 * (p as u64 + 1)),
                    2 => Action::Barrier(1),
                    3 => {
                        resume_times.lock().unwrap().push(ctx.now.as_u64());
                        Action::Done
                    }
                    _ => unreachable!(),
                }
            });
        }
        let mut m = b.build();
        m.run(Cycle::new(100_000)).unwrap();
        let times = resume_times.lock().unwrap();
        assert_eq!(times.len(), nodes as usize);
        assert!(
            times.windows(2).all(|w| w[0] == w[1]),
            "constant-time barrier must release everyone at the same cycle: {times:?}"
        );
        // Release happens when the slowest (40-cycle) processor arrives.
        assert!(times[0] >= 40);
    }

    #[test]
    fn cycle_limit_is_reported() {
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(2));
        b.add_program(|_: &mut ProcCtx<'_>| Action::Compute(1_000));
        b.add_program(|_: &mut ProcCtx<'_>| Action::Done);
        let mut m = b.build();
        let err = m.run(Cycle::new(10_000)).unwrap_err();
        assert!(matches!(err, RunError::CycleLimit { .. }));
        assert!(err.to_string().contains("cycle limit"));
    }

    #[test]
    fn stats_accumulate() {
        let m = fetch_add_total(SyncPolicy::Unc, 4, 5);
        let s = m.stats();
        assert_eq!(s.sync_ops, 20);
        assert!(
            s.msgs.chains().mean() >= 2.0,
            "UNC ops are 2-message chains"
        );
        assert!(s.sync_latency.mean() > 0.0);
        assert_eq!(s.contention.histogram().total(), 20);
    }

    #[test]
    fn mixed_ordinary_and_sync_traffic() {
        // Ordinary (base-protocol) data next to sync data: processors
        // write disjoint ordinary words, then fetch-add a shared counter.
        let nodes = 4u32;
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(nodes));
        b.register_sync(COUNTER, config(SyncPolicy::Inv));
        for p in 0..nodes {
            let private = Addr::new(0x1000 + p as u64 * 64);
            let mut stage = 0;
            b.add_program(move |ctx: &mut ProcCtx<'_>| {
                stage += 1;
                match stage {
                    1 => Action::Op(MemOp::Store {
                        addr: private,
                        value: p as u64,
                    }),
                    2 => Action::Op(MemOp::FetchPhi {
                        addr: COUNTER,
                        op: PhiOp::Add(1),
                    }),
                    3 => Action::Op(MemOp::Load { addr: private }),
                    4 => {
                        assert_eq!(ctx.result().value(), Some(p as u64));
                        Action::Done
                    }
                    _ => unreachable!(),
                }
            });
        }
        let mut m = b.build();
        m.run(LIMIT).unwrap();
        assert_eq!(m.read_word(COUNTER), nodes as u64);
        m.validate_coherence().unwrap();
    }

    #[test]
    fn drop_copy_exercises_the_writeback_race_and_stays_exact() {
        // Alternate fetch-add and drop_copy under contention: drops race
        // with forwarded interventions (the NAK path), yet the counter
        // must stay exact and the final state coherent.
        let nodes = 8u32;
        let iters = 20u64;
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(nodes));
        b.register_sync(COUNTER, config(SyncPolicy::Inv));
        for _ in 0..nodes {
            let mut adds_done = 0u64;
            let mut next_is_add = true;
            b.add_program(move |_: &mut ProcCtx<'_>| {
                if adds_done == iters {
                    return Action::Done;
                }
                if next_is_add {
                    next_is_add = false;
                    adds_done += 1;
                    Action::Op(MemOp::FetchPhi {
                        addr: COUNTER,
                        op: PhiOp::Add(1),
                    })
                } else {
                    next_is_add = true;
                    Action::Op(MemOp::DropCopy { addr: COUNTER })
                }
            });
        }
        let mut m = b.build();
        m.run(LIMIT).unwrap();
        assert_eq!(m.read_word(COUNTER), nodes as u64 * iters);
        m.validate_coherence().unwrap();
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = || {
            let mut b = MachineBuilder::new(MachineConfig::with_nodes(8));
            b.register_sync(COUNTER, config(SyncPolicy::Inv));
            for _ in 0..8 {
                let mut remaining = 20u64;
                b.add_program(move |ctx: &mut ProcCtx<'_>| {
                    if ctx.last.is_some() {
                        remaining -= 1;
                    }
                    if remaining == 0 {
                        Action::Done
                    } else {
                        Action::Op(MemOp::FetchPhi {
                            addr: COUNTER,
                            op: PhiOp::Add(1),
                        })
                    }
                });
            }
            let mut m = b.build();
            let report = m.run(LIMIT).unwrap();
            (
                report.cycles,
                report.events,
                m.stats().msgs.total_messages(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn init_word_seeds_memory() {
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(2));
        b.init_word(Addr::new(0x40), 123);
        let seen = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let seen2 = std::sync::Arc::clone(&seen);
        b.add_program(move |ctx: &mut ProcCtx<'_>| match ctx.last {
            None => Action::Op(MemOp::Load {
                addr: Addr::new(0x40),
            }),
            Some(r) => {
                seen2.store(r.value().unwrap(), std::sync::atomic::Ordering::Relaxed);
                Action::Done
            }
        });
        b.add_program(|_: &mut ProcCtx<'_>| Action::Done);
        let mut m = b.build();
        m.run(LIMIT).unwrap();
        assert_eq!(seen.load(std::sync::atomic::Ordering::Relaxed), 123);
    }

    #[test]
    fn uncontended_inv_atomic_becomes_local_after_first_miss() {
        // One processor repeatedly fetch-adds an INV counter: after the
        // first exclusive miss, every subsequent op is a cache hit with
        // zero messages — the core advantage the paper claims for INV.
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(2));
        b.register_sync(COUNTER, config(SyncPolicy::Inv));
        let mut remaining = 10u64;
        b.add_program(move |ctx: &mut ProcCtx<'_>| {
            if ctx.last.is_some() {
                remaining -= 1;
            }
            if remaining == 0 {
                Action::Done
            } else {
                Action::Op(MemOp::FetchPhi {
                    addr: COUNTER,
                    op: PhiOp::Add(1),
                })
            }
        });
        b.add_program(|_: &mut ProcCtx<'_>| Action::Done);
        let mut m = b.build();
        m.run(LIMIT).unwrap();
        let s = m.stats();
        assert_eq!(s.sync_ops, 10);
        assert_eq!(s.local_ops, 9, "all but the first op must be local hits");
        assert_eq!(m.read_word(COUNTER), 10);
    }
}
