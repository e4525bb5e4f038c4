//! The Harris sorted linked list with logical deletion.
//!
//! Layout: like the queue, a node is one cache line (word 0 the `next`
//! link, word 1 the key) named by its `next`-word address; 0 is nil.
//! The list is a single head link word pointing at the first node, and
//! nodes are kept in strictly ascending key order.
//!
//! Deletion is two-phase: a remove first *marks* its victim by setting
//! bit 0 of the victim's own `next` word (the logical delete — a
//! marked node's `next` is frozen, because every conditional update
//! validates against an unmarked value), then unlinks it from its
//! predecessor (the physical delete, finished by whoever notices the
//! marked node during a later traversal). Traversals use plain loads
//! only; the conditional updates — snipping a marked node, linking a
//! new node, setting a mark — each use one [`link_load`]/[`link_update`]
//! pair whose token comes from the read that justified the update.

use super::{
    clear_mark, decode, is_marked, link_load, link_ok, link_token, link_update, with_mark,
    LinkPrim, PrivInit,
};
use crate::submachine::{Step, SubMachine};
use dsm_protocol::{MemOp, OpResult};
use dsm_sim::{Addr, SimRng};

/// The head link word naming a Harris list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarrisList {
    /// Head link word; points at the first node (0 when empty).
    pub head: Addr,
}

/// Shared search phase: walks the list to the first node whose key is
/// `>= key`, snipping marked nodes out of the chain along the way.
///
/// After [`Step::Done`]: [`prev`](Search::prev) is the link word to
/// update for an insert or unlink (the head, or a node's `next` word),
/// [`cur`](Search::cur) the found node (0 if the walk hit nil), and
/// [`cur_key`](Search::cur_key) its key.
#[derive(Debug, Clone)]
pub(crate) struct Search {
    head: Addr,
    key: u64,
    prim: LinkPrim,
    state: SState,
    prev: u64,
    cur: u64,
    cur_key: u64,
    /// Walks restarted after a lost snip race (for statistics).
    pub restarts: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SState {
    Start,
    WaitHead,
    Inspect,
    WaitCurWord,
    WaitSnipLl { succ: u64 },
    WaitSnip { succ: u64 },
    WaitKey { cw: u64 },
    Found,
}

impl Search {
    pub(crate) fn new(list: HarrisList, key: u64, prim: LinkPrim) -> Self {
        Search {
            head: list.head,
            key,
            prim,
            state: SState::Start,
            prev: list.head.as_u64(),
            cur: 0,
            cur_key: 0,
            restarts: 0,
        }
    }

    /// The link word preceding [`cur`](Search::cur).
    pub(crate) fn prev(&self) -> Addr {
        Addr::new(self.prev)
    }

    /// The first node with key `>= key`, or 0.
    pub(crate) fn cur(&self) -> u64 {
        self.cur
    }

    /// [`cur`](Search::cur)'s key (meaningless when `cur == 0`).
    pub(crate) fn cur_key(&self) -> u64 {
        self.cur_key
    }

    fn restart(&mut self, rng: &mut SimRng) -> Step {
        self.restarts += 1;
        self.state = SState::Start;
        self.step(None, rng)
    }
}

impl SubMachine for Search {
    fn step(&mut self, last: Option<OpResult>, rng: &mut SimRng) -> Step {
        match self.state {
            SState::Start => {
                self.prev = self.head.as_u64();
                self.state = SState::WaitHead;
                Step::Op(MemOp::Load { addr: self.head })
            }
            SState::WaitHead => {
                // The head word is never marked.
                self.cur = decode(
                    self.prim,
                    last.expect("head read").value().expect("load value"),
                );
                self.state = SState::Inspect;
                self.step(None, rng)
            }
            SState::Inspect => {
                if self.cur == 0 {
                    self.state = SState::Found;
                    return Step::Done;
                }
                self.state = SState::WaitCurWord;
                Step::Op(MemOp::Load {
                    addr: Addr::new(self.cur),
                })
            }
            SState::WaitCurWord => {
                let cw = decode(
                    self.prim,
                    last.expect("cur word").value().expect("load value"),
                );
                if is_marked(cw) {
                    // cur is logically deleted: snip it out of prev
                    // before moving on. The token must confirm prev
                    // still points at cur (and is itself unmarked).
                    self.state = SState::WaitSnipLl {
                        succ: clear_mark(cw),
                    };
                    return Step::Op(link_load(self.prim, Addr::new(self.prev)));
                }
                self.state = SState::WaitKey { cw };
                Step::Op(MemOp::Load {
                    addr: Addr::new(self.cur + 8),
                })
            }
            SState::WaitSnipLl { succ } => {
                let tok = link_token(self.prim, &last.expect("snip prev read"));
                if tok.value != self.cur {
                    // prev moved (or got marked) under us.
                    return self.restart(rng);
                }
                self.state = SState::WaitSnip { succ };
                Step::Op(link_update(self.prim, Addr::new(self.prev), &tok, succ))
            }
            SState::WaitSnip { succ } => {
                if link_ok(&last.expect("snip result")) {
                    // Chain now skips the marked node; keep walking
                    // from its (frozen) successor.
                    self.cur = succ;
                    self.state = SState::Inspect;
                    self.step(None, rng)
                } else {
                    self.restart(rng)
                }
            }
            SState::WaitKey { cw } => {
                let k = last.expect("key read").value().expect("load value");
                if k >= self.key {
                    self.cur_key = k;
                    self.state = SState::Found;
                    return Step::Done;
                }
                // Advance: cur was unmarked when read, so it may serve
                // as the next prev, and cw is its successor.
                self.prev = self.cur;
                self.cur = cw;
                self.state = SState::Inspect;
                self.step(None, rng)
            }
            SState::Found => Step::Done,
        }
    }
}

/// One insert of `node` (carrying `key`) into the list; duplicate keys
/// are rejected.
///
/// After [`Step::Done`], [`inserted`](ListInsert::inserted) reports
/// whether the key was added (`false` if already present).
#[derive(Debug, Clone)]
pub struct ListInsert {
    list: HarrisList,
    node: Addr,
    key: u64,
    prim: LinkPrim,
    search: Search,
    init: PrivInit,
    state: IState,
    result: Option<bool>,
    /// Lost publication races (for statistics).
    pub retries: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IState {
    StoreKey,
    WaitKey,
    Searching,
    Initing,
    WaitPrevLl,
    WaitSwap,
    Finished,
}

impl ListInsert {
    /// Creates an insert of the node whose `next` word is at `node`.
    pub fn new(list: HarrisList, node: Addr, key: u64, prim: LinkPrim) -> Self {
        ListInsert {
            list,
            node,
            key,
            prim,
            search: Search::new(list, key, prim),
            init: PrivInit::new(node, 0, prim),
            state: IState::StoreKey,
            result: None,
            retries: 0,
        }
    }

    /// `true` if the key was inserted, `false` if it was already
    /// present. Meaningful only after the sub-machine finishes.
    pub fn inserted(&self) -> Option<bool> {
        self.result
    }

    fn research(&mut self, rng: &mut SimRng) -> Step {
        self.retries += 1;
        self.search = Search::new(self.list, self.key, self.prim);
        self.state = IState::Searching;
        self.step(None, rng)
    }
}

impl SubMachine for ListInsert {
    fn step(&mut self, last: Option<OpResult>, rng: &mut SimRng) -> Step {
        match self.state {
            IState::StoreKey => {
                self.state = IState::WaitKey;
                Step::Op(MemOp::Store {
                    addr: Addr::new(self.node.as_u64() + 8),
                    value: self.key,
                })
            }
            IState::WaitKey => {
                last.expect("key store");
                self.state = IState::Searching;
                self.step(None, rng)
            }
            IState::Searching => match self.search.step(last, rng) {
                Step::Done => {
                    if self.search.cur() != 0 && self.search.cur_key() == self.key {
                        self.result = Some(false);
                        self.state = IState::Finished;
                        return Step::Done;
                    }
                    // Privately point our node at the successor.
                    self.init = PrivInit::new(self.node, self.search.cur(), self.prim);
                    self.state = IState::Initing;
                    self.step(None, rng)
                }
                s => s,
            },
            IState::Initing => match self.init.step(last, rng) {
                Step::Done => {
                    self.state = IState::WaitPrevLl;
                    Step::Op(link_load(self.prim, self.search.prev()))
                }
                s => s,
            },
            IState::WaitPrevLl => {
                let tok = link_token(self.prim, &last.expect("prev read"));
                if tok.value != self.search.cur() {
                    // prev moved, got marked, or gained a node.
                    return self.research(rng);
                }
                self.state = IState::WaitSwap;
                Step::Op(link_update(
                    self.prim,
                    self.search.prev(),
                    &tok,
                    self.node.as_u64(),
                ))
            }
            IState::WaitSwap => {
                if link_ok(&last.expect("swap result")) {
                    self.result = Some(true);
                    self.state = IState::Finished;
                    Step::Done
                } else {
                    self.research(rng)
                }
            }
            IState::Finished => Step::Done,
        }
    }
}

/// One remove of `key` from the list.
///
/// After [`Step::Done`], [`removed`](ListRemove::removed) reports
/// whether this operation deleted the key (`false` if absent).
#[derive(Debug, Clone)]
pub struct ListRemove {
    list: HarrisList,
    key: u64,
    prim: LinkPrim,
    search: Search,
    state: RState,
    result: Option<bool>,
    /// Lost marking races (for statistics).
    pub retries: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RState {
    Searching,
    WaitCurLl,
    WaitMark { succ: u64 },
    WaitPrevLl { succ: u64 },
    WaitUnlink,
    Finished,
}

impl ListRemove {
    /// Creates a remove.
    pub fn new(list: HarrisList, key: u64, prim: LinkPrim) -> Self {
        ListRemove {
            list,
            key,
            prim,
            search: Search::new(list, key, prim),
            state: RState::Searching,
            result: None,
            retries: 0,
        }
    }

    /// `true` if this operation deleted the key, `false` if it was
    /// absent. Meaningful only after the sub-machine finishes.
    pub fn removed(&self) -> Option<bool> {
        self.result
    }

    fn research(&mut self, rng: &mut SimRng) -> Step {
        self.retries += 1;
        self.search = Search::new(self.list, self.key, self.prim);
        self.state = RState::Searching;
        self.step(None, rng)
    }

    fn finish(&mut self, deleted: bool) -> Step {
        self.result = Some(deleted);
        self.state = RState::Finished;
        Step::Done
    }
}

impl SubMachine for ListRemove {
    fn step(&mut self, last: Option<OpResult>, rng: &mut SimRng) -> Step {
        match self.state {
            RState::Searching => match self.search.step(last, rng) {
                Step::Done => {
                    if self.search.cur() == 0 || self.search.cur_key() != self.key {
                        return self.finish(false);
                    }
                    // Logical delete: mark the victim's own next word.
                    self.state = RState::WaitCurLl;
                    Step::Op(link_load(self.prim, Addr::new(self.search.cur())))
                }
                s => s,
            },
            RState::WaitCurLl => {
                let tok = link_token(self.prim, &last.expect("cur read"));
                if is_marked(tok.value) {
                    // Someone else is deleting it; re-search (the key
                    // may yet reappear under a fresh node).
                    return self.research(rng);
                }
                self.state = RState::WaitMark { succ: tok.value };
                Step::Op(link_update(
                    self.prim,
                    Addr::new(self.search.cur()),
                    &tok,
                    with_mark(tok.value),
                ))
            }
            RState::WaitMark { succ } => {
                if !link_ok(&last.expect("mark result")) {
                    return self.research(rng);
                }
                // Physical delete, best effort: unlink from prev. If
                // prev moved on, a later traversal snips the node.
                self.state = RState::WaitPrevLl { succ };
                Step::Op(link_load(self.prim, self.search.prev()))
            }
            RState::WaitPrevLl { succ } => {
                let tok = link_token(self.prim, &last.expect("prev read"));
                if tok.value != self.search.cur() {
                    return self.finish(true);
                }
                self.state = RState::WaitUnlink;
                Step::Op(link_update(self.prim, self.search.prev(), &tok, succ))
            }
            RState::WaitUnlink => {
                let _ = link_ok(&last.expect("unlink result"));
                self.finish(true)
            }
            RState::Finished => Step::Done,
        }
    }
}

/// One membership query for `key`.
///
/// A read-only traversal: marked nodes are skipped (not snipped), so a
/// contains never writes shared memory.
///
/// After [`Step::Done`], [`found`](ListContains::found) reports
/// membership.
#[derive(Debug, Clone)]
pub struct ListContains {
    key: u64,
    prim: LinkPrim,
    state: CState,
    result: Option<bool>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CState {
    Start { head: Addr },
    WaitHead,
    Inspect { cur: u64 },
    WaitWord { cur: u64 },
    WaitKey { cw: u64 },
    Finished,
}

impl ListContains {
    /// Creates a membership query.
    pub fn new(list: HarrisList, key: u64, prim: LinkPrim) -> Self {
        ListContains {
            key,
            prim,
            state: CState::Start { head: list.head },
            result: None,
        }
    }

    /// `true` if the key was present. Meaningful only after the
    /// sub-machine finishes.
    pub fn found(&self) -> Option<bool> {
        self.result
    }

    fn finish(&mut self, found: bool) -> Step {
        self.result = Some(found);
        self.state = CState::Finished;
        Step::Done
    }
}

impl SubMachine for ListContains {
    // `rng` is part of the trait signature; this machine only threads
    // it through its state-advance recursion.
    #[allow(clippy::only_used_in_recursion)]
    fn step(&mut self, last: Option<OpResult>, rng: &mut SimRng) -> Step {
        match self.state {
            CState::Start { head } => {
                self.state = CState::WaitHead;
                Step::Op(MemOp::Load { addr: head })
            }
            CState::WaitHead => {
                let cur = decode(
                    self.prim,
                    last.expect("head read").value().expect("load value"),
                );
                self.state = CState::Inspect { cur };
                self.step(None, rng)
            }
            CState::Inspect { cur } => {
                if cur == 0 {
                    return self.finish(false);
                }
                self.state = CState::WaitWord { cur };
                Step::Op(MemOp::Load {
                    addr: Addr::new(cur),
                })
            }
            CState::WaitWord { cur } => {
                let cw = decode(
                    self.prim,
                    last.expect("cur word").value().expect("load value"),
                );
                if is_marked(cw) {
                    // Logically deleted: skip without snipping.
                    self.state = CState::Inspect {
                        cur: clear_mark(cw),
                    };
                    return self.step(None, rng);
                }
                self.state = CState::WaitKey { cw };
                Step::Op(MemOp::Load {
                    addr: Addr::new(cur + 8),
                })
            }
            CState::WaitKey { cw } => {
                let k = last.expect("key read").value().expect("load value");
                if k == self.key {
                    return self.finish(true);
                }
                if k > self.key {
                    return self.finish(false);
                }
                self.state = CState::Inspect { cur: cw };
                self.step(None, rng)
            }
            CState::Finished => Step::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submachine::{drive_sync, SeqMem};

    const HEAD: Addr = Addr::new(0x40);

    fn list() -> HarrisList {
        HarrisList { head: HEAD }
    }

    fn node(i: u64) -> Addr {
        Addr::new(0x1000 + i * 64)
    }

    fn insert(mem: &mut SeqMem, i: u64, key: u64, prim: LinkPrim) -> bool {
        let mut rng = SimRng::new(1);
        let mut m = ListInsert::new(list(), node(i), key, prim);
        drive_sync(&mut m, &mut rng, 2000, |op| mem.eval(op));
        m.inserted().expect("finished")
    }

    fn remove(mem: &mut SeqMem, key: u64, prim: LinkPrim) -> bool {
        let mut rng = SimRng::new(1);
        let mut m = ListRemove::new(list(), key, prim);
        drive_sync(&mut m, &mut rng, 2000, |op| mem.eval(op));
        m.removed().expect("finished")
    }

    fn contains(mem: &mut SeqMem, key: u64, prim: LinkPrim) -> bool {
        let mut rng = SimRng::new(1);
        let mut m = ListContains::new(list(), key, prim);
        drive_sync(&mut m, &mut rng, 2000, |op| mem.eval(op));
        m.found().expect("finished")
    }

    /// Walks the physical chain: (node, key, marked) triples.
    fn chain(mem: &SeqMem, prim: LinkPrim) -> Vec<(u64, u64, bool)> {
        let mut out = Vec::new();
        let mut cur = decode(prim, mem.get(HEAD));
        while cur != 0 {
            let cw = decode(prim, mem.get(Addr::new(cur)));
            out.push((cur, mem.get(Addr::new(cur + 8)), is_marked(cw)));
            cur = clear_mark(cw);
            assert!(out.len() < 100, "cycle in chain");
        }
        out
    }

    fn basic_set_ops(prim: LinkPrim) {
        let mut mem = SeqMem::default();
        assert!(!contains(&mut mem, 10, prim), "{prim:?}: starts empty");
        assert!(!remove(&mut mem, 10, prim));
        // Insert out of order; chain must come out sorted.
        assert!(insert(&mut mem, 0, 30, prim));
        assert!(insert(&mut mem, 1, 10, prim));
        assert!(insert(&mut mem, 2, 20, prim));
        assert!(!insert(&mut mem, 3, 20, prim), "{prim:?}: duplicate");
        let keys: Vec<u64> = chain(&mem, prim).iter().map(|&(_, k, _)| k).collect();
        assert_eq!(keys, vec![10, 20, 30], "{prim:?}: sorted");
        for k in [10, 20, 30] {
            assert!(contains(&mut mem, k, prim), "{prim:?}: {k}");
        }
        assert!(!contains(&mut mem, 15, prim));
        // Remove the middle; the chain shrinks (remove unlinks too).
        assert!(remove(&mut mem, 20, prim));
        assert!(!remove(&mut mem, 20, prim));
        assert!(!contains(&mut mem, 20, prim));
        let keys: Vec<u64> = chain(&mem, prim).iter().map(|&(_, k, _)| k).collect();
        assert_eq!(keys, vec![10, 30], "{prim:?}: unlinked");
        // Re-insert the removed key under a fresh node.
        assert!(insert(&mut mem, 4, 20, prim));
        assert!(contains(&mut mem, 20, prim));
    }

    #[test]
    fn set_ops_llsc() {
        basic_set_ops(LinkPrim::Llsc);
    }

    #[test]
    fn set_ops_emul() {
        basic_set_ops(LinkPrim::EmulLlsc);
    }

    #[test]
    fn set_ops_cas() {
        basic_set_ops(LinkPrim::CasPlain);
    }

    /// Drives a remove only through its mark, leaving the node marked
    /// but linked — then checks queries skip it and a later insert's
    /// search snips it.
    fn interrupted_after_mark(prim: LinkPrim) {
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        assert!(insert(&mut mem, 0, 10, prim));
        assert!(insert(&mut mem, 1, 20, prim));
        assert!(insert(&mut mem, 2, 30, prim));
        let mut m = ListRemove::new(list(), 20, prim);
        let mut last = None;
        loop {
            match m.step(last.take(), &mut rng) {
                Step::Op(op) => {
                    let marking = matches!(
                        op,
                        MemOp::Cas { addr, .. } | MemOp::StoreConditional { addr, .. }
                            if addr == node(1)
                    );
                    let r = mem.eval(op);
                    if marking && link_ok(&r) {
                        break; // marked, not yet unlinked
                    }
                    last = Some(r);
                }
                Step::Compute(_) => {}
                Step::SpinWhile { .. } => unreachable!("no spin-waits here"),
                Step::Done => panic!("must not finish before unlinking"),
            }
        }
        let marked: Vec<u64> = chain(&mem, prim)
            .iter()
            .filter(|&&(_, _, m)| m)
            .map(|&(_, k, _)| k)
            .collect();
        assert_eq!(marked, vec![20], "{prim:?}: 20 is marked but linked");
        // Contains skips the marked node without writing.
        assert!(!contains(&mut mem, 20, prim), "{prim:?}");
        assert!(contains(&mut mem, 30, prim), "{prim:?}");
        // An insert whose search crosses the marked node snips it.
        assert!(insert(&mut mem, 3, 25, prim));
        let keys: Vec<u64> = chain(&mem, prim).iter().map(|&(_, k, _)| k).collect();
        assert_eq!(keys, vec![10, 25, 30], "{prim:?}: snipped during search");
    }

    #[test]
    fn marked_nodes_are_snipped_llsc() {
        interrupted_after_mark(LinkPrim::Llsc);
    }

    #[test]
    fn marked_nodes_are_snipped_emul() {
        interrupted_after_mark(LinkPrim::EmulLlsc);
    }

    #[test]
    fn marked_nodes_are_snipped_cas() {
        interrupted_after_mark(LinkPrim::CasPlain);
    }

    #[test]
    fn insert_retries_when_prev_gains_a_node() {
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        assert!(insert(&mut mem, 0, 10, LinkPrim::CasPlain));
        let mut m = ListInsert::new(list(), node(1), 30, LinkPrim::CasPlain);
        let mut interfered = false;
        let mut last = None;
        loop {
            match m.step(last.take(), &mut rng) {
                Step::Op(op) => {
                    if !interfered && matches!(op, MemOp::Cas { .. }) {
                        interfered = true;
                        // A rival inserts 20 after node 10 first.
                        assert!(insert(&mut mem, 2, 20, LinkPrim::CasPlain));
                    }
                    last = Some(mem.eval(op));
                }
                Step::Compute(_) => {}
                Step::SpinWhile { .. } => unreachable!("no spin-waits here"),
                Step::Done => break,
            }
        }
        assert!(m.inserted().unwrap());
        assert_eq!(m.retries, 1);
        let keys: Vec<u64> = chain(&mem, LinkPrim::CasPlain)
            .iter()
            .map(|&(_, k, _)| k)
            .collect();
        assert_eq!(keys, vec![10, 20, 30]);
    }

    #[test]
    fn concurrent_removes_delete_once() {
        // Two removes of the same key race; exactly one reports true.
        for stop_rival_first in [false, true] {
            let mut mem = SeqMem::default();
            let mut rng = SimRng::new(1);
            assert!(insert(&mut mem, 0, 10, LinkPrim::EmulLlsc));
            let mut m = ListRemove::new(list(), 10, LinkPrim::EmulLlsc);
            let mut interfered = false;
            let mut last = None;
            let mut rival_won = false;
            loop {
                match m.step(last.take(), &mut rng) {
                    Step::Op(op) => {
                        if !interfered && matches!(op, MemOp::Cas { addr, .. } if addr == node(0)) {
                            interfered = true;
                            if stop_rival_first {
                                // Rival completes its remove first.
                                rival_won = remove(&mut mem, 10, LinkPrim::EmulLlsc);
                            }
                        }
                        last = Some(mem.eval(op));
                    }
                    Step::Compute(_) => {}
                    Step::SpinWhile { .. } => unreachable!("no spin-waits here"),
                    Step::Done => break,
                }
            }
            let mine = m.removed().unwrap();
            assert_eq!(
                mine, !stop_rival_first,
                "exactly one remove wins (rival_won={rival_won})"
            );
            assert!(!contains(&mut mem, 10, LinkPrim::EmulLlsc));
        }
    }
}
