//! Lock-free data-structure benchmark scenarios with history capture.
//!
//! Three paper-style workloads over the structures in
//! [`dsm_sync::lockfree`], each sweepable across link primitive ×
//! coherence policy like the counter figures:
//!
//! * [`LfStructure::Queue`] — producer/consumer hammering of the
//!   Michael–Scott queue: every processor interleaves enqueues of
//!   tagged values with dequeues;
//! * [`LfStructure::List`] — set-membership churn on a single Harris
//!   list: random insert/remove/contains over a small key space;
//! * [`LfStructure::Map`] — read/write mixes on the bucket hash map
//!   (a multi-bucket version of the list workload).
//!
//! Every operation is recorded into a [`History`] — invocation and
//! response stamped with simulated cycles — so the same run that
//! produces a throughput number can be fed to the linearizability
//! checker in [`dsm_trace::linearize`]. Recording happens entirely on
//! the host side (an `Arc<Mutex<…>>` shared with the programs) and
//! never issues memory operations, so it cannot perturb timing:
//! benchmark results are identical with the history kept or thrown
//! away.

use crate::driver::step_action;
use dsm_machine::{Action, Machine, MachineBuilder, ProcCtx, Program};
use dsm_protocol::SyncConfig;
use dsm_sim::{Addr, MachineConfig};
use dsm_sync::lockfree::{clear_mark, decode, is_marked};
use dsm_sync::{
    BucketMap, LinkPrim, MapContains, MapInsert, MapRemove, MsDequeue, MsEnqueue, MsQueue,
    ShmAlloc, SubMachine,
};
use dsm_trace::{HistEvent, HistOp, HistRet, History};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Which lock-free structure a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LfStructure {
    /// Michael–Scott MPMC queue (producer/consumer hammering).
    Queue,
    /// Harris list as a sorted set (membership churn).
    List,
    /// Fixed-bucket hash map (read/write mix across buckets).
    Map,
}

impl LfStructure {
    /// All structures, in table order.
    pub const ALL: [LfStructure; 3] = [LfStructure::Queue, LfStructure::List, LfStructure::Map];

    /// Human-readable name.
    pub fn label(self) -> &'static str {
        match self {
            LfStructure::Queue => "MS-queue",
            LfStructure::List => "Harris-list",
            LfStructure::Map => "bucket-map",
        }
    }
}

/// Parameters of one lock-free structure run.
#[derive(Debug, Clone, Copy)]
pub struct LfConfig {
    /// Which structure.
    pub structure: LfStructure,
    /// Link-word primitive discipline.
    pub prim: LinkPrim,
    /// Synchronization-line configuration for every structure line.
    pub sync: SyncConfig,
    /// Operations per processor (queue: this many enqueues *and* this
    /// many dequeues; list/map: this many mixed ops).
    pub ops_per_proc: u32,
    /// Key space for list/map keys (`0..key_space`).
    pub key_space: u64,
    /// Bucket count for [`LfStructure::Map`] (the list always uses 1).
    pub buckets: u32,
}

impl LfConfig {
    fn bucket_count(&self) -> u32 {
        match self.structure {
            LfStructure::Map => self.buckets.max(1),
            _ => 1,
        }
    }
}

/// The shared-memory layout of a lock-free run (exposed so tests and
/// the experiment harness can walk the final structure).
#[derive(Debug, Clone)]
pub struct LfLayout {
    /// The queue pointers, when the structure is the queue.
    pub queue: Option<MsQueue>,
    /// Bucket heads (one for the list), when the structure is a set.
    pub map: Option<BucketMap>,
    /// The link primitive (needed to decode raw link words).
    pub prim: LinkPrim,
    /// Per-processor fresh-node pools.
    pub pools: Vec<Vec<Addr>>,
}

/// Everything a lock-free run hands back besides the machine: the
/// recorded history and the memory layout.
#[derive(Debug, Clone)]
pub struct LfRun {
    /// The complete operation history (populated while the machine
    /// runs; complete once `Machine::run` returns).
    pub history: Arc<Mutex<History>>,
    /// The memory layout.
    pub layout: LfLayout,
}

/// Tags a queue value with its producer: `(proc + 1) << 32 | seq`.
/// Unique across the run, and the producer/sequence split is what the
/// per-producer FIFO invariant checks.
pub fn queue_value(proc: u32, seq: u64) -> u64 {
    ((proc as u64 + 1) << 32) | seq
}

/// The producer of a [`queue_value`].
pub fn value_producer(v: u64) -> u32 {
    (v >> 32) as u32 - 1
}

/// The per-producer sequence number of a [`queue_value`].
pub fn value_seq(v: u64) -> u64 {
    v & 0xFFFF_FFFF
}

enum QAct {
    Enq(MsEnqueue, u64),
    Deq(MsDequeue),
}

struct QueueProg {
    q: MsQueue,
    prim: LinkPrim,
    pool: Vec<Addr>,
    proc: u32,
    enq_left: u32,
    deq_left: u32,
    next_node: usize,
    seq: u64,
    active: Option<(QAct, u64)>,
    hist: Arc<Mutex<History>>,
}

impl Program for QueueProg {
    fn step(&mut self, ctx: &mut ProcCtx<'_>) -> Action {
        loop {
            if let Some((act, invoked)) = &mut self.active {
                let step = match act {
                    QAct::Enq(m, _) => m.step(ctx.last.take(), ctx.rng),
                    QAct::Deq(m) => m.step(ctx.last.take(), ctx.rng),
                };
                match step_action(step) {
                    Some(action) => return action,
                    None => {
                        let (op, ret) = match act {
                            QAct::Enq(_, v) => (HistOp::Enqueue(*v), HistRet::Ok),
                            QAct::Deq(m) => (
                                HistOp::Dequeue,
                                match m.dequeued() {
                                    Some(v) => HistRet::Value(v),
                                    None => HistRet::Empty,
                                },
                            ),
                        };
                        self.hist.lock().unwrap().push(HistEvent {
                            proc: self.proc,
                            invoked: *invoked,
                            responded: ctx.now.as_u64(),
                            op,
                            ret,
                        });
                        self.active = None;
                    }
                }
                continue;
            }
            if self.enq_left == 0 && self.deq_left == 0 {
                return Action::Done;
            }
            let enqueue = self.enq_left > 0 && (self.deq_left == 0 || ctx.rng.range(2) == 0);
            let invoked = ctx.now.as_u64();
            let act = if enqueue {
                self.enq_left -= 1;
                let node = self.pool[self.next_node];
                self.next_node += 1;
                let v = queue_value(self.proc, self.seq);
                self.seq += 1;
                QAct::Enq(MsEnqueue::new(self.q, node, v, self.prim), v)
            } else {
                self.deq_left -= 1;
                QAct::Deq(MsDequeue::new(self.q, self.prim))
            };
            self.active = Some((act, invoked));
        }
    }
}

enum SAct {
    Ins(MapInsert, u64),
    Rem(MapRemove, u64),
    Con(MapContains, u64),
}

struct SetProg {
    map: BucketMap,
    prim: LinkPrim,
    pool: Vec<Addr>,
    proc: u32,
    ops_left: u32,
    next_node: usize,
    key_space: u64,
    active: Option<(SAct, u64)>,
    hist: Arc<Mutex<History>>,
}

impl Program for SetProg {
    fn step(&mut self, ctx: &mut ProcCtx<'_>) -> Action {
        loop {
            if let Some((act, invoked)) = &mut self.active {
                let step = match act {
                    SAct::Ins(m, _) => m.step(ctx.last.take(), ctx.rng),
                    SAct::Rem(m, _) => m.step(ctx.last.take(), ctx.rng),
                    SAct::Con(m, _) => m.step(ctx.last.take(), ctx.rng),
                };
                match step_action(step) {
                    Some(action) => return action,
                    None => {
                        let (op, ret) = match act {
                            SAct::Ins(m, k) => {
                                let added = m.inserted().expect("finished");
                                if added {
                                    // The node is published; the next
                                    // insert needs a fresh one.
                                    self.next_node += 1;
                                }
                                (HistOp::Insert(*k), HistRet::Bool(added))
                            }
                            SAct::Rem(m, k) => (
                                HistOp::Remove(*k),
                                HistRet::Bool(m.removed().expect("finished")),
                            ),
                            SAct::Con(m, k) => (
                                HistOp::Contains(*k),
                                HistRet::Bool(m.found().expect("finished")),
                            ),
                        };
                        self.hist.lock().unwrap().push(HistEvent {
                            proc: self.proc,
                            invoked: *invoked,
                            responded: ctx.now.as_u64(),
                            op,
                            ret,
                        });
                        self.active = None;
                    }
                }
                continue;
            }
            if self.ops_left == 0 {
                return Action::Done;
            }
            self.ops_left -= 1;
            let invoked = ctx.now.as_u64();
            let key = ctx.rng.range(self.key_space);
            let have_node = self.next_node < self.pool.len();
            let act = match ctx.rng.range(3) {
                // Out of fresh nodes: fall back to a read.
                0 if have_node => SAct::Ins(
                    MapInsert::new(&self.map, self.pool[self.next_node], key, self.prim),
                    key,
                ),
                1 => SAct::Rem(MapRemove::new(&self.map, key, self.prim), key),
                _ => SAct::Con(MapContains::new(&self.map, key, self.prim), key),
            };
            self.active = Some((act, invoked));
        }
    }
}

/// Builds a ready-to-run machine for a lock-free structure run.
///
/// Returns the machine and an [`LfRun`] holding the (shared, still
/// filling) history plus the layout. The history is complete once
/// `Machine::run` returns.
pub fn build_lockfree(mcfg: MachineConfig, cfg: &LfConfig) -> (Machine, LfRun) {
    assert!(cfg.ops_per_proc > 0, "need at least one op per processor");
    assert!(cfg.key_space > 0, "key space must be non-empty");
    let procs = mcfg.nodes;
    let mut alloc = ShmAlloc::new(mcfg.params.line_size, procs);
    let history: Arc<Mutex<History>> = Arc::default();

    // Per-processor fresh-node pools (nodes are never recycled — see
    // the dsm_sync::lockfree module docs).
    let mut structure_words: Vec<Addr> = Vec::new();
    let (queue, map, dummy) = match cfg.structure {
        LfStructure::Queue => {
            let q = MsQueue {
                head: alloc.word(),
                tail: alloc.word(),
            };
            let dummy = alloc.array(2);
            structure_words.extend([q.head, q.tail, dummy]);
            (Some(q), None, Some(dummy))
        }
        LfStructure::List | LfStructure::Map => {
            let buckets: Vec<Addr> = (0..cfg.bucket_count()).map(|_| alloc.word()).collect();
            structure_words.extend(buckets.iter().copied());
            (None, Some(BucketMap { buckets }), None)
        }
    };
    let pools: Vec<Vec<Addr>> = (0..procs)
        .map(|_| (0..cfg.ops_per_proc).map(|_| alloc.array(2)).collect())
        .collect();

    let mut b = MachineBuilder::new(mcfg);
    // Every line the structure CASes or SCs must carry the benchmarked
    // sync configuration: the anchor words and all node lines.
    for &w in structure_words.iter().chain(pools.iter().flatten()) {
        b.register_sync(w, cfg.sync);
    }
    if let (Some(q), Some(d)) = (queue, dummy) {
        // Head and tail start at the dummy node (tag 0 under the
        // emulation — tags only ever grow from here).
        b.init_word(q.head, d.as_u64());
        b.init_word(q.tail, d.as_u64());
    }

    for p in 0..procs {
        let pool = pools[p as usize].clone();
        let hist = Arc::clone(&history);
        match cfg.structure {
            LfStructure::Queue => {
                b.add_program(QueueProg {
                    q: queue.expect("queue layout"),
                    prim: cfg.prim,
                    pool,
                    proc: p,
                    enq_left: cfg.ops_per_proc,
                    deq_left: cfg.ops_per_proc,
                    next_node: 0,
                    seq: 0,
                    active: None,
                    hist,
                });
            }
            LfStructure::List | LfStructure::Map => {
                b.add_program(SetProg {
                    map: map.clone().expect("map layout"),
                    prim: cfg.prim,
                    pool,
                    proc: p,
                    ops_left: cfg.ops_per_proc,
                    next_node: 0,
                    key_space: cfg.key_space,
                    active: None,
                    hist,
                });
            }
        }
    }

    let layout = LfLayout {
        queue,
        map,
        prim: cfg.prim,
        pools,
    };
    (b.build(), LfRun { history, layout })
}

/// Walks the final queue chain (excluding the current dummy),
/// returning the residual values in FIFO order.
///
/// # Panics
///
/// Panics if the layout is not a queue's or the chain is cyclic.
pub fn queue_residue(m: &Machine, layout: &LfLayout) -> Vec<u64> {
    let q = layout.queue.expect("queue layout");
    let total: usize = layout.pools.iter().map(Vec::len).sum();
    let mut out = Vec::new();
    // The head points at the dummy; values live in its successors.
    let mut cur = decode(layout.prim, m.read_word(q.head));
    cur = decode(layout.prim, m.read_word(Addr::new(cur)));
    while cur != 0 {
        out.push(m.read_word(Addr::new(cur + 8)));
        assert!(out.len() <= total, "queue chain has a cycle");
        cur = decode(layout.prim, m.read_word(Addr::new(cur)));
    }
    out
}

/// Walks the final set chains, returning `(key, marked)` per node in
/// physical order, one vector per bucket.
///
/// # Panics
///
/// Panics if the layout is not a set's or a chain is cyclic.
pub fn set_chains(m: &Machine, layout: &LfLayout) -> Vec<Vec<(u64, bool)>> {
    let map = layout.map.as_ref().expect("set layout");
    let total: usize = layout.pools.iter().map(Vec::len).sum();
    map.buckets
        .iter()
        .map(|&head| {
            let mut out = Vec::new();
            let mut cur = decode(layout.prim, m.read_word(head));
            while cur != 0 {
                let cw = decode(layout.prim, m.read_word(Addr::new(cur)));
                out.push((m.read_word(Addr::new(cur + 8)), is_marked(cw)));
                assert!(out.len() <= total, "set chain has a cycle");
                cur = clear_mark(cw);
            }
            out
        })
        .collect()
}

/// Structure-specific end-state invariants, checked directly against
/// memory and the recorded history (no linearization search — this is
/// the cheap sanity layer the benchmark harness runs on every job).
///
/// * queue — value conservation (every enqueued value is dequeued
///   exactly once or still in the chain, and nothing else is), FIFO
///   per producer (each producer's dequeued values form a prefix of
///   its enqueue sequence; its residual values remain in order);
/// * list/map — every chain strictly sorted, every key in its home
///   bucket, and key conservation (a key is live in memory iff its
///   successful inserts outnumber its successful removes).
pub fn check_invariants(m: &Machine, cfg: &LfConfig, run: &LfRun) -> Result<(), String> {
    let hist = run.history.lock().unwrap();
    match cfg.structure {
        LfStructure::Queue => {
            let mut enq: HashMap<u64, i64> = HashMap::new();
            for e in hist.events() {
                match (e.op, e.ret) {
                    (HistOp::Enqueue(v), _) => *enq.entry(v).or_default() += 1,
                    (HistOp::Dequeue, HistRet::Value(v)) => *enq.entry(v).or_default() -= 1,
                    (HistOp::Dequeue, HistRet::Empty) => {}
                    other => return Err(format!("non-queue event {other:?}")),
                }
            }
            let residue = queue_residue(m, &run.layout);
            for &v in &residue {
                *enq.entry(v).or_default() -= 1;
            }
            if let Some((&v, &c)) = enq.iter().find(|&(_, &c)| c != 0) {
                return Err(format!(
                    "value {v:#x} enqueued-minus-consumed {c} times (lost or duplicated)"
                ));
            }
            // FIFO per producer over the residue...
            let mut last_seq: HashMap<u32, u64> = HashMap::new();
            for &v in &residue {
                let p = value_producer(v);
                if let Some(&prev) = last_seq.get(&p) {
                    if value_seq(v) <= prev {
                        return Err(format!(
                            "producer {p}'s residual values out of order at seq {}",
                            value_seq(v)
                        ));
                    }
                }
                last_seq.insert(p, value_seq(v));
            }
            // ...and the dequeued part: each producer's consumed
            // values must be exactly the prefix its residue leaves.
            let mut min_residue: HashMap<u32, u64> = HashMap::new();
            for &v in &residue {
                let e = min_residue.entry(value_producer(v)).or_insert(u64::MAX);
                *e = (*e).min(value_seq(v));
            }
            for e in hist.events() {
                if let (HistOp::Dequeue, HistRet::Value(v)) = (e.op, e.ret) {
                    let p = value_producer(v);
                    if value_seq(v) >= *min_residue.get(&p).unwrap_or(&u64::MAX) {
                        return Err(format!(
                            "producer {p}: seq {} dequeued while an earlier value \
                             remained queued (per-producer FIFO broken)",
                            value_seq(v)
                        ));
                    }
                }
            }
            Ok(())
        }
        LfStructure::List | LfStructure::Map => {
            let chains = set_chains(m, &run.layout);
            let buckets = chains.len() as u64;
            let mut live: Vec<u64> = Vec::new();
            for (b, chain) in chains.iter().enumerate() {
                let mut prev: Option<u64> = None;
                for &(key, marked) in chain {
                    if key % buckets != b as u64 {
                        return Err(format!("key {key} in wrong bucket {b}"));
                    }
                    if let Some(p) = prev {
                        if key <= p {
                            return Err(format!("bucket {b} unsorted at key {key}"));
                        }
                    }
                    prev = Some(key);
                    if !marked {
                        live.push(key);
                    }
                }
            }
            live.sort_unstable();
            let mut balance: HashMap<u64, i64> = HashMap::new();
            for e in hist.events() {
                match (e.op, e.ret) {
                    (HistOp::Insert(k), HistRet::Bool(true)) => *balance.entry(k).or_default() += 1,
                    (HistOp::Remove(k), HistRet::Bool(true)) => *balance.entry(k).or_default() -= 1,
                    (HistOp::Insert(_) | HistOp::Remove(_) | HistOp::Contains(_), _) => {}
                    other => return Err(format!("non-set event {other:?}")),
                }
            }
            let mut expected: Vec<u64> = balance
                .iter()
                .filter_map(|(&k, &c)| match c {
                    0 => None,
                    1 => Some(k),
                    _ => Some(u64::MAX), // flagged below
                })
                .collect();
            if expected.contains(&u64::MAX) {
                return Err("a key's insert/remove balance left |balance| > 1".into());
            }
            expected.sort_unstable();
            if live != expected {
                return Err(format!(
                    "live keys {live:?} != history-implied keys {expected:?} \
                     (key conservation broken)"
                ));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_protocol::SyncPolicy;
    use dsm_sim::Cycle;
    use dsm_trace::{check, FifoQueueSpec, SetSpec};

    const LIMIT: Cycle = Cycle::new(5_000_000_000);

    fn cfg(structure: LfStructure, prim: LinkPrim, policy: SyncPolicy) -> LfConfig {
        LfConfig {
            structure,
            prim,
            sync: SyncConfig {
                policy,
                ..Default::default()
            },
            ops_per_proc: 6,
            key_space: 8,
            buckets: 4,
        }
    }

    fn run(cfg: &LfConfig, nodes: u32) -> (Machine, LfRun) {
        let (mut m, run) = build_lockfree(MachineConfig::with_nodes(nodes), cfg);
        m.run(LIMIT).expect("lock-free run completes");
        m.validate_coherence().unwrap();
        (m, run)
    }

    /// Every structure × primitive × policy runs to completion with
    /// intact invariants — the end-to-end smoke for the whole tier.
    /// (Linearizability itself is checked in `tests/linearizability.rs`.)
    #[test]
    fn every_structure_prim_policy_keeps_invariants() {
        for structure in LfStructure::ALL {
            for prim in LinkPrim::ALL {
                for policy in SyncPolicy::ALL {
                    let c = cfg(structure, prim, policy);
                    let (m, r) = run(&c, 4);
                    let ops = r.history.lock().unwrap().len();
                    let expected = match structure {
                        LfStructure::Queue => 4 * 2 * c.ops_per_proc as usize,
                        _ => 4 * c.ops_per_proc as usize,
                    };
                    assert_eq!(
                        ops,
                        expected,
                        "{} / {} / {}",
                        structure.label(),
                        prim,
                        policy
                    );
                    check_invariants(&m, &c, &r).unwrap_or_else(|e| {
                        panic!("{} / {} / {}: {e}", structure.label(), prim, policy)
                    });
                }
            }
        }
    }

    #[test]
    fn queue_history_is_linearizable_smoke() {
        let c = cfg(LfStructure::Queue, LinkPrim::EmulLlsc, SyncPolicy::Inv);
        let (_m, r) = run(&c, 4);
        check(&FifoQueueSpec, &r.history.lock().unwrap()).expect("linearizable");
    }

    #[test]
    fn map_history_is_linearizable_smoke() {
        let c = cfg(LfStructure::Map, LinkPrim::CasPlain, SyncPolicy::Unc);
        let (_m, r) = run(&c, 4);
        check(&SetSpec, &r.history.lock().unwrap()).expect("linearizable");
    }

    #[test]
    fn value_tagging_round_trips() {
        let v = queue_value(7, 42);
        assert_eq!(value_producer(v), 7);
        assert_eq!(value_seq(v), 42);
    }

    #[test]
    fn invariant_checker_rejects_a_corrupted_residue() {
        let c = cfg(LfStructure::Queue, LinkPrim::Llsc, SyncPolicy::Inv);
        let (m, r) = run(&c, 2);
        // Sabotage the history: pretend one more value was enqueued.
        r.history.lock().unwrap().push(HistEvent {
            proc: 0,
            invoked: 0,
            responded: 1,
            op: HistOp::Enqueue(queue_value(0, 999)),
            ret: HistRet::Ok,
        });
        assert!(check_invariants(&m, &c, &r).is_err());
    }
}
