//! Exhaustive interleaving exploration of the coherence protocol.
//!
//! The machine simulator executes one (deterministic) message ordering
//! per run; this harness instead explores **every** ordering. It drives
//! the pure protocol engines (`HomeNode` + `CacheNode`s) directly: the
//! "network" is a multiset of in-flight messages, and at each step any
//! oldest-per-(src, dst) message may be delivered next (the real
//! network is FIFO per source-destination pair, which the protocol
//! relies on; everything else is unordered).
//!
//! At every quiescent leaf the harness checks:
//! * every rule of the protocol's quiescent check
//!   (`dsm_protocol::check_quiescent`): single writer, exact
//!   directory/cache agreement, shared copies equal memory, nothing in
//!   flight;
//! * script-specific atomicity postconditions (counter totals, "exactly
//!   one CAS/SC wins", final memory values).
//!
//! This is how races like the drop_copy write-back/NAK crossing are
//! verified in *all* their delivery orders, not just the ones the
//! timing model happens to produce.

use dsm_protocol::{
    check_quiescent, AddressMap, CacheNode, DirState, HomeNode, MemOp, Msg, OpResult, Outbox,
    PhiOp, SyncConfig, SyncPolicy,
};
use dsm_sim::{Addr, CacheParams, NodeId};

const LINE_SIZE: u64 = 32;
const HOME: usize = 0;

/// One processor's script and progress.
#[derive(Clone)]
struct Proc {
    script: Vec<MemOp>,
    next: usize,
    results: Vec<OpResult>,
}

/// The explored world: home node 0 plus caches on nodes 1..=n.
#[derive(Clone)]
struct World {
    home: HomeNode,
    caches: Vec<CacheNode>,
    procs: Vec<Proc>,
    inflight: Vec<Msg>,
}

struct Explorer {
    map: AddressMap,
    leaves: u64,
    max_leaves: u64,
    check: fn(&World),
}

impl World {
    fn new(nodes: u32, scripts: Vec<Vec<MemOp>>, init: &[(Addr, u64)]) -> World {
        let mut home = HomeNode::new(NodeId::new(0), LINE_SIZE, 64);
        for &(a, v) in init {
            home.poke_word(a, v);
        }
        let mut caches = Vec::new();
        for n in 0..nodes {
            let mut c = CacheNode::new(NodeId::new(n), LINE_SIZE, CacheParams { sets: 4, ways: 2 });
            c.set_nodes(nodes);
            caches.push(c);
        }
        let procs = scripts
            .into_iter()
            .map(|script| Proc {
                script,
                next: 0,
                results: Vec::new(),
            })
            .collect();
        World {
            home,
            caches,
            procs,
            inflight: Vec::new(),
        }
    }

    /// Starts any processors that are idle and have work left. Local
    /// completions chain immediately.
    fn kick_procs(&mut self, map: &AddressMap) {
        loop {
            let mut progressed = false;
            for p in 0..self.procs.len() {
                // Processor p lives on node p+1, so node 0 is a pure
                // home and every request crosses the "network".
                let node = p + 1;
                if self.caches[node].busy() {
                    continue;
                }
                let proc = &self.procs[p];
                if proc.next >= proc.script.len() {
                    continue;
                }
                let op = proc.script[proc.next];
                let mut out = Outbox::new();
                let done = self.caches[node].start_op(op, map, &mut out).unwrap();
                self.inflight.extend(out.drain());
                if let Some(outcome) = done {
                    self.procs[p].next += 1;
                    self.procs[p].results.push(outcome.result);
                    progressed = true;
                } else {
                    // Blocked on the network; its messages are in flight.
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Indices of deliverable messages: the oldest in-flight message of
    /// each (src, dst) pair (per-pair FIFO).
    fn deliverable(&self) -> Vec<usize> {
        let mut firsts: Vec<usize> = Vec::new();
        let mut seen: Vec<(NodeId, NodeId)> = Vec::new();
        for (i, m) in self.inflight.iter().enumerate() {
            let key = (m.src, m.dst);
            if !seen.contains(&key) {
                seen.push(key);
                firsts.push(i);
            }
        }
        firsts
    }

    /// Delivers in-flight message `idx`.
    fn deliver(&mut self, idx: usize, map: &AddressMap) {
        let msg = self.inflight.remove(idx);
        let node = msg.dst.index();
        let mut out = Outbox::new();
        if msg.kind.home_bound() {
            assert_eq!(node, HOME, "all lines in these scripts are homed at node 0");
            self.home.handle(msg, map, &mut out).unwrap();
        } else {
            let done = self.caches[node].handle(msg, &mut out).unwrap();
            if let Some(outcome) = done {
                let p = node - 1;
                self.procs[p].next += 1;
                self.procs[p].results.push(outcome.result);
            }
        }
        self.inflight.extend(out.drain());
        self.kick_procs(map);
    }

    /// The logical current value of a word.
    fn value_of(&self, addr: Addr) -> u64 {
        let line = addr.line(LINE_SIZE);
        if let DirState::Dirty(owner) = self.home.dir_state(line) {
            if let Some(v) = self.caches[owner.index()].peek_word(addr) {
                return v;
            }
        }
        self.home.peek_word(addr)
    }
}

impl Explorer {
    fn explore(&mut self, world: &World) {
        let choices = world.deliverable();
        if choices.is_empty() {
            assert!(
                world.procs.iter().all(|p| p.next == p.script.len()),
                "deadlock: processors stuck with no messages in flight"
            );
            self.leaves += 1;
            assert!(
                self.leaves <= self.max_leaves,
                "state space larger than expected (> {} leaves)",
                self.max_leaves
            );
            let violations =
                check_quiescent(&world.caches, std::slice::from_ref(&world.home), &self.map);
            assert!(violations.is_empty(), "{violations:#?}");
            (self.check)(world);
            return;
        }
        for idx in choices {
            let mut next = world.clone();
            next.deliver(idx, &self.map);
            self.explore(&next);
        }
    }
}

/// Runs a full exploration and returns the number of distinct complete
/// interleavings that were checked.
fn explore_all(
    nodes: u32,
    scripts: Vec<Vec<MemOp>>,
    policy: SyncPolicy,
    sync_addrs: &[Addr],
    init: &[(Addr, u64)],
    max_leaves: u64,
    check: fn(&World),
) -> u64 {
    let mut map = AddressMap::new(LINE_SIZE);
    for &a in sync_addrs {
        map.register(
            a,
            SyncConfig {
                policy,
                ..Default::default()
            },
        );
    }
    let mut world = World::new(nodes, scripts, init);
    world.kick_procs(&map);
    let mut ex = Explorer {
        map,
        leaves: 0,
        max_leaves,
        check,
    };
    ex.explore(&world);
    ex.leaves
}

// All lines used below are homed at node 0 (line numbers ≡ 0 mod nodes).
fn homed_addr(nodes: u32, k: u64) -> Addr {
    Addr::new(k * nodes as u64 * LINE_SIZE)
}

#[test]
fn two_fetch_adds_always_sum_inv() {
    let x = homed_addr(3, 1);
    let leaves = explore_all(
        3,
        vec![
            vec![MemOp::FetchPhi {
                addr: x,
                op: PhiOp::Add(1),
            }],
            vec![MemOp::FetchPhi {
                addr: x,
                op: PhiOp::Add(1),
            }],
        ],
        SyncPolicy::Inv,
        &[x],
        &[],
        1_000_000,
        |w| {
            let x = homed_addr(3, 1);
            assert_eq!(w.value_of(x), 2, "an increment was lost");
        },
    );
    assert!(leaves >= 2, "expected multiple interleavings, got {leaves}");
}

#[test]
fn two_fetch_adds_always_sum_upd() {
    let x = homed_addr(3, 1);
    explore_all(
        3,
        vec![
            vec![
                MemOp::Load { addr: x },
                MemOp::FetchPhi {
                    addr: x,
                    op: PhiOp::Add(1),
                },
            ],
            vec![
                MemOp::Load { addr: x },
                MemOp::FetchPhi {
                    addr: x,
                    op: PhiOp::Add(1),
                },
            ],
        ],
        SyncPolicy::Upd,
        &[x],
        &[],
        1_000_000,
        |w| {
            let x = homed_addr(3, 1);
            assert_eq!(w.value_of(x), 2);
        },
    );
}

#[test]
fn exactly_one_cas_wins() {
    let x = homed_addr(3, 1);
    explore_all(
        3,
        vec![
            vec![MemOp::Cas {
                addr: x,
                expected: 0,
                new: 10,
            }],
            vec![MemOp::Cas {
                addr: x,
                expected: 0,
                new: 20,
            }],
        ],
        SyncPolicy::Inv,
        &[x],
        &[],
        1_000_000,
        |w| {
            let x = homed_addr(3, 1);
            let wins: Vec<bool> = w
                .procs
                .iter()
                .map(|p| matches!(p.results[0], OpResult::CasDone { success: true, .. }))
                .collect();
            assert_eq!(
                wins.iter().filter(|&&b| b).count(),
                1,
                "exactly one CAS(0, ..) must win: {wins:?}"
            );
            let v = w.value_of(x);
            assert!(v == 10 || v == 20, "final value must be a winner's: {v}");
            // The loser observed the winner's value.
            for (p, &won) in w.procs.iter().zip(&wins) {
                if !won {
                    let OpResult::CasDone { observed, .. } = p.results[0] else {
                        panic!()
                    };
                    assert_eq!(observed, v);
                }
            }
        },
    );
}

#[test]
fn at_most_one_sc_wins_inv() {
    let x = homed_addr(3, 1);
    explore_all(
        3,
        vec![
            vec![
                MemOp::LoadLinked { addr: x },
                MemOp::StoreConditional {
                    addr: x,
                    value: 10,
                    serial: None,
                },
            ],
            vec![
                MemOp::LoadLinked { addr: x },
                MemOp::StoreConditional {
                    addr: x,
                    value: 20,
                    serial: None,
                },
            ],
        ],
        SyncPolicy::Inv,
        &[x],
        &[],
        1_000_000,
        |w| {
            // The real LL/SC invariant: an SC may succeed only if no
            // other write intervened since its LL. Two successes are
            // legal only when the episodes did not overlap — i.e. one
            // processor's LL already observed the other's stored value.
            let x = homed_addr(3, 1);
            let ll = |p: usize| w.procs[p].results[0].value().unwrap();
            let sc_ok =
                |p: usize| matches!(w.procs[p].results[1], OpResult::ScDone { success: true });
            let v = w.value_of(x);
            match (sc_ok(0), sc_ok(1)) {
                (true, true) => {
                    // Serialized episodes: exactly one LL saw the other's
                    // value, and the later SC's value survives.
                    let p0_after_p1 = ll(0) == 20 && v == 10;
                    let p1_after_p0 = ll(1) == 10 && v == 20;
                    assert!(
                        p0_after_p1 ^ p1_after_p0,
                        "overlapping SCs both succeeded: lls=({}, {}), final={v}",
                        ll(0),
                        ll(1)
                    );
                }
                (true, false) => {
                    assert_eq!(v, 10);
                    assert_eq!(ll(0), 0, "winner's LL saw the initial value");
                }
                (false, true) => {
                    assert_eq!(v, 20);
                    assert_eq!(ll(1), 0, "winner's LL saw the initial value");
                }
                (false, false) => assert_eq!(v, 0, "no SC won, value untouched"),
            }
        },
    );
}

#[test]
fn drop_copy_races_never_lose_the_add() {
    // The WB/NAK race in every ordering: P1 adds then drops; P2 adds.
    let x = homed_addr(3, 1);
    explore_all(
        3,
        vec![
            vec![
                MemOp::FetchPhi {
                    addr: x,
                    op: PhiOp::Add(1),
                },
                MemOp::DropCopy { addr: x },
            ],
            vec![
                MemOp::FetchPhi {
                    addr: x,
                    op: PhiOp::Add(1),
                },
                MemOp::DropCopy { addr: x },
            ],
        ],
        SyncPolicy::Inv,
        &[x],
        &[],
        5_000_000,
        |w| {
            let x = homed_addr(3, 1);
            assert_eq!(w.value_of(x), 2);
        },
    );
}

#[test]
fn store_to_shared_line_invalidates_all_readers() {
    // Two readers cache the line; a third processor stores. In every
    // ordering the final state is coherent and the stored value wins.
    let x = homed_addr(4, 1);
    explore_all(
        4,
        vec![
            vec![MemOp::Load { addr: x }],
            vec![MemOp::Load { addr: x }],
            vec![MemOp::Store { addr: x, value: 9 }],
        ],
        SyncPolicy::Inv,
        &[x],
        &[(x, 5)],
        5_000_000,
        |w| {
            let x = homed_addr(4, 1);
            assert_eq!(w.value_of(x), 9);
            for p in &w.procs[..2] {
                let v = p.results[0].value().unwrap();
                assert!(v == 5 || v == 9, "reader saw a torn value {v}");
            }
        },
    );
}

#[test]
fn mixed_ordinary_and_sync_lines_stay_independent() {
    let x = homed_addr(3, 1); // sync (UNC)
    let y = homed_addr(3, 2); // ordinary (base INV)
    explore_all(
        3,
        vec![
            vec![
                MemOp::FetchPhi {
                    addr: x,
                    op: PhiOp::Add(1),
                },
                MemOp::Store { addr: y, value: 7 },
            ],
            vec![
                MemOp::FetchPhi {
                    addr: x,
                    op: PhiOp::Add(1),
                },
                MemOp::Load { addr: y },
            ],
        ],
        SyncPolicy::Unc,
        &[x],
        &[],
        5_000_000,
        |w| {
            let x = homed_addr(3, 1);
            assert_eq!(w.value_of(x), 2);
            let read = w.procs[1].results[1].value().unwrap();
            assert!(read == 0 || read == 7, "load of y saw garbage {read}");
        },
    );
}

#[test]
fn invs_cas_failure_orderings_are_coherent() {
    // P1 takes the line exclusive with a store; P2's INVs CAS (wrong
    // expected value) must fail in every ordering and leave shared
    // copies consistent.
    let x = homed_addr(3, 1);
    let mut map = AddressMap::new(LINE_SIZE);
    map.register(
        x,
        SyncConfig {
            policy: SyncPolicy::Inv,
            cas_variant: dsm_protocol::CasVariant::Share,
            ..Default::default()
        },
    );
    let mut world = World::new(
        3,
        vec![
            vec![MemOp::Store { addr: x, value: 5 }],
            vec![MemOp::Cas {
                addr: x,
                expected: 99,
                new: 1,
            }],
        ],
        &[],
    );
    world.kick_procs(&map);
    let mut ex = Explorer {
        map,
        leaves: 0,
        max_leaves: 5_000_000,
        check: |w| {
            let x = homed_addr(3, 1);
            let OpResult::CasDone { success, observed } = w.procs[1].results[0] else {
                panic!()
            };
            assert!(!success, "CAS with a wrong expected value must fail");
            assert!(
                observed == 0 || observed == 5,
                "observed a torn value {observed}"
            );
            assert_eq!(w.value_of(x), 5);
        },
    };
    ex.explore(&world);
    assert!(ex.leaves >= 2);
}

// ---------------------------------------------------------------------
// Memory-model litmus tests. The simulated processors are blocking (one
// outstanding operation), so the machine must be sequentially
// consistent; the classic forbidden outcomes must not appear in ANY
// delivery order.
// ---------------------------------------------------------------------

/// Message passing (MP): P1 writes data then flag; P2 reads flag then
/// data. Forbidden under SC: flag observed set but data observed stale.
#[test]
fn litmus_message_passing() {
    let data = homed_addr(3, 1);
    let flag = homed_addr(3, 2);
    explore_all(
        3,
        vec![
            vec![
                MemOp::Store {
                    addr: data,
                    value: 1,
                },
                MemOp::Store {
                    addr: flag,
                    value: 1,
                },
            ],
            vec![MemOp::Load { addr: flag }, MemOp::Load { addr: data }],
        ],
        SyncPolicy::Inv,
        &[],
        &[],
        5_000_000,
        |w| {
            let r_flag = w.procs[1].results[0].value().unwrap();
            let r_data = w.procs[1].results[1].value().unwrap();
            assert!(
                !(r_flag == 1 && r_data == 0),
                "SC violation: flag=1 observed but data=0"
            );
        },
    );
}

/// Store buffering (SB): P1 writes x then reads y; P2 writes y then
/// reads x. Forbidden under SC: both loads return 0.
#[test]
fn litmus_store_buffering() {
    let x = homed_addr(3, 1);
    let y = homed_addr(3, 2);
    explore_all(
        3,
        vec![
            vec![MemOp::Store { addr: x, value: 1 }, MemOp::Load { addr: y }],
            vec![MemOp::Store { addr: y, value: 1 }, MemOp::Load { addr: x }],
        ],
        SyncPolicy::Inv,
        &[],
        &[],
        5_000_000,
        |w| {
            let r1 = w.procs[0].results[1].value().unwrap();
            let r2 = w.procs[1].results[1].value().unwrap();
            assert!(
                !(r1 == 0 && r2 == 0),
                "SC violation: both SB loads returned 0"
            );
        },
    );
}

/// Coherence (CoRR): two successive reads of one location by the same
/// processor must not go backwards while another processor writes.
#[test]
fn litmus_read_read_coherence() {
    let x = homed_addr(3, 1);
    explore_all(
        3,
        vec![
            vec![MemOp::Load { addr: x }, MemOp::Load { addr: x }],
            vec![MemOp::Store { addr: x, value: 1 }],
        ],
        SyncPolicy::Inv,
        &[],
        &[],
        5_000_000,
        |w| {
            let r1 = w.procs[0].results[0].value().unwrap();
            let r2 = w.procs[0].results[1].value().unwrap();
            assert!(
                !(r1 == 1 && r2 == 0),
                "coherence violation: value went backwards (read 1 then 0)"
            );
        },
    );
}

/// MP with the flag under UNC and data under the base protocol — mixed
/// policies must preserve SC too.
#[test]
fn litmus_message_passing_mixed_policies() {
    let data = homed_addr(3, 1);
    let flag = homed_addr(3, 2);
    explore_all(
        3,
        vec![
            vec![
                MemOp::Store {
                    addr: data,
                    value: 1,
                },
                MemOp::Store {
                    addr: flag,
                    value: 1,
                },
            ],
            vec![MemOp::Load { addr: flag }, MemOp::Load { addr: data }],
        ],
        SyncPolicy::Unc,
        &[flag],
        &[],
        5_000_000,
        |w| {
            let r_flag = w.procs[1].results[0].value().unwrap();
            let r_data = w.procs[1].results[1].value().unwrap();
            assert!(
                !(r_flag == 1 && r_data == 0),
                "SC violation across mixed policies"
            );
        },
    );
}

/// UPD stores racing a read: the reader must see 0, 10, or 20 —
/// never a value that was never written — and final state matches the
/// last write in every ordering.
#[test]
fn upd_store_orderings_are_serializable() {
    let x = homed_addr(3, 1);
    explore_all(
        3,
        vec![
            vec![MemOp::Load { addr: x }, MemOp::Store { addr: x, value: 10 }],
            vec![MemOp::Load { addr: x }, MemOp::Store { addr: x, value: 20 }],
        ],
        SyncPolicy::Upd,
        &[x],
        &[],
        5_000_000,
        |w| {
            let x = homed_addr(3, 1);
            let v = w.value_of(x);
            assert!(
                v == 10 || v == 20,
                "final value must be one of the stores: {v}"
            );
            for p in &w.procs {
                let seen = p.results[0].value().unwrap();
                assert!(
                    seen == 0 || seen == 10 || seen == 20,
                    "phantom value {seen}"
                );
            }
        },
    );
}

/// UNC serial-number SCs: with one LL each, at most one SC can succeed
/// per serial epoch, and a bare SC with the initial serial competes
/// correctly.
#[test]
fn serial_number_sc_orderings() {
    let x = homed_addr(3, 1);
    let mut map = AddressMap::new(LINE_SIZE);
    map.register(
        x,
        SyncConfig {
            policy: SyncPolicy::Unc,
            llsc: dsm_protocol::LlscScheme::SerialNumber,
            ..Default::default()
        },
    );
    let mut world = World::new(
        3,
        vec![
            vec![
                MemOp::LoadLinked { addr: x },
                // The CPU threads the returned serial through; here the
                // initial serial is deterministically 0.
                MemOp::StoreConditional {
                    addr: x,
                    value: 10,
                    serial: Some(0),
                },
            ],
            vec![MemOp::StoreConditional {
                addr: x,
                value: 20,
                serial: Some(0),
            }], // bare SC
        ],
        &[],
    );
    world.kick_procs(&map);
    let mut ex = Explorer {
        map,
        leaves: 0,
        max_leaves: 5_000_000,
        check: |w| {
            let x = homed_addr(3, 1);
            let sc0 = matches!(w.procs[0].results[1], OpResult::ScDone { success: true });
            let sc1 = matches!(w.procs[1].results[0], OpResult::ScDone { success: true });
            // Both present serial 0; the home serializes them, so
            // exactly one succeeds.
            assert!(
                sc0 ^ sc1,
                "exactly one serial-0 SC must win (got {sc0}, {sc1})"
            );
            let v = w.value_of(x);
            assert_eq!(v, if sc0 { 10 } else { 20 });
        },
    };
    ex.explore(&world);
    assert!(ex.leaves >= 2);
}

/// INVd compare-and-swap against a migrating line: the forwarded
/// compare (FwdCas) path in all orderings, including the case where
/// the owner's copy is being written back.
#[test]
fn invd_fwdcas_orderings() {
    let x = homed_addr(3, 1);
    let mut map = AddressMap::new(LINE_SIZE);
    map.register(
        x,
        SyncConfig {
            policy: SyncPolicy::Inv,
            cas_variant: dsm_protocol::CasVariant::Deny,
            ..Default::default()
        },
    );
    let mut world = World::new(
        3,
        vec![
            // P1 dirties the line (value 5), then drops it.
            vec![
                MemOp::Store { addr: x, value: 5 },
                MemOp::DropCopy { addr: x },
            ],
            // P2's CAS expects 5: depending on ordering it is compared
            // at the owner (forwarded) or at the home (after the
            // write-back), or even before P1's store lands.
            vec![MemOp::Cas {
                addr: x,
                expected: 5,
                new: 9,
            }],
        ],
        &[],
    );
    world.kick_procs(&map);
    let mut ex = Explorer {
        map,
        leaves: 0,
        max_leaves: 5_000_000,
        check: |w| {
            let x = homed_addr(3, 1);
            let OpResult::CasDone { success, observed } = w.procs[1].results[0] else {
                panic!()
            };
            let v = w.value_of(x);
            if success {
                assert_eq!(observed, 5);
                assert_eq!(v, 9);
            } else {
                assert_eq!(observed, 0, "failed only if it raced ahead of the store");
                assert_eq!(v, 5);
            }
        },
    };
    ex.explore(&world);
    assert!(
        ex.leaves >= 3,
        "expected several orderings, got {}",
        ex.leaves
    );
}
