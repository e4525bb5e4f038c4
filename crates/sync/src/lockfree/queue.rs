//! The Michael–Scott MPMC FIFO queue on simulated link primitives.
//!
//! Layout: each node is one cache line whose word 0 is the `next` link
//! and word 1 the user value; a node is named by the address of its
//! `next` word, and 0 is nil. The queue itself is two link words
//! ([`MsQueue::head`] and [`MsQueue::tail`]), each on its own line,
//! both initialized to a dummy node whose `next` is nil.
//!
//! The algorithm is the classic two-pointer queue: enqueue links a
//! fresh node after the last node and then swings `tail`; dequeue
//! swings `head` past the dummy and retires the old dummy. Lagging
//! tails are helped along by whoever observes them (the tail-swing
//! helper embedded in both operations), and the helping swing derives its
//! successor from the freshly loaded tail value — never from a stale
//! read — so it is safe under every [`LinkPrim`].

use super::{decode, link_load, link_ok, link_token, link_update, LinkPrim, LinkToken, PrivInit};
use crate::submachine::{Step, SubMachine};
use dsm_protocol::{MemOp, OpResult};
use dsm_sim::{Addr, SimRng};

/// The two link words naming a Michael–Scott queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsQueue {
    /// Head pointer word (points at the current dummy node).
    pub head: Addr,
    /// Tail pointer word (points at the last or second-to-last node).
    pub tail: Addr,
}

/// Where control returns after an embedded tail swing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum After {
    Retry,
    Finish,
}

/// One enqueue of `node` (carrying `value`) onto the queue.
#[derive(Debug, Clone)]
pub struct MsEnqueue {
    q: MsQueue,
    node: Addr,
    value: u64,
    prim: LinkPrim,
    init: PrivInit,
    state: EnqState,
    /// Failed link attempts (for statistics).
    pub retries: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EnqState {
    Init,
    StoreValue,
    WaitValue,
    ReadTail,
    WaitTail,
    WaitNext { t: u64 },
    WaitLink,
    SwingLoad { then: After },
    SwingTail { then: After },
    SwingNext { then: After, tok: LinkToken },
    SwingDone { then: After },
    Finished,
}

impl MsEnqueue {
    /// Creates an enqueue of the node whose `next` word is at `node`.
    pub fn new(q: MsQueue, node: Addr, value: u64, prim: LinkPrim) -> Self {
        MsEnqueue {
            q,
            node,
            value,
            prim,
            init: PrivInit::new(node, 0, prim),
            state: EnqState::Init,
            retries: 0,
        }
    }

    fn after(&mut self, then: After, rng: &mut SimRng) -> Step {
        match then {
            After::Retry => {
                self.state = EnqState::ReadTail;
                self.step(None, rng)
            }
            After::Finish => {
                self.state = EnqState::Finished;
                Step::Done
            }
        }
    }
}

impl SubMachine for MsEnqueue {
    fn step(&mut self, last: Option<OpResult>, rng: &mut SimRng) -> Step {
        match self.state {
            // Privately prepare the node: next = nil, then the value.
            EnqState::Init => match self.init.step(last, rng) {
                Step::Done => {
                    self.state = EnqState::StoreValue;
                    self.step(None, rng)
                }
                s => s,
            },
            EnqState::StoreValue => {
                self.state = EnqState::WaitValue;
                Step::Op(MemOp::Store {
                    addr: Addr::new(self.node.as_u64() + 8),
                    value: self.value,
                })
            }
            EnqState::WaitValue => {
                last.expect("value store");
                self.state = EnqState::ReadTail;
                self.step(None, rng)
            }
            EnqState::ReadTail => {
                self.state = EnqState::WaitTail;
                Step::Op(MemOp::Load { addr: self.q.tail })
            }
            EnqState::WaitTail => {
                let t = decode(
                    self.prim,
                    last.expect("tail read").value().expect("load value"),
                );
                // The one outstanding LL of this attempt: the last
                // node's `next` word.
                self.state = EnqState::WaitNext { t };
                Step::Op(link_load(self.prim, Addr::new(t)))
            }
            EnqState::WaitNext { t } => {
                let tok = link_token(self.prim, &last.expect("next read"));
                if tok.value != 0 {
                    // Tail is lagging: help swing it, then retry.
                    self.state = EnqState::SwingLoad { then: After::Retry };
                    return self.step(None, rng);
                }
                self.state = EnqState::WaitLink;
                Step::Op(link_update(
                    self.prim,
                    Addr::new(t),
                    &tok,
                    self.node.as_u64(),
                ))
            }
            EnqState::WaitLink => {
                if link_ok(&last.expect("link result")) {
                    // Linked: swing the tail over our node (best
                    // effort — anyone may have done it already).
                    self.state = EnqState::SwingLoad {
                        then: After::Finish,
                    };
                } else {
                    self.retries += 1;
                    self.state = EnqState::ReadTail;
                }
                self.step(None, rng)
            }
            // --- embedded tail swing -------------------------------
            // Re-load the tail with the link primitive, read that
            // node's `next` *fresh*, and conditionally advance the
            // tail to it. Deriving the successor from the freshly
            // loaded tail (never a stale read) keeps the swing safe
            // under every primitive.
            EnqState::SwingLoad { then } => {
                self.state = EnqState::SwingTail { then };
                Step::Op(link_load(self.prim, self.q.tail))
            }
            EnqState::SwingTail { then } => {
                let tok = link_token(self.prim, &last.expect("swing tail read"));
                self.state = EnqState::SwingNext { then, tok };
                Step::Op(MemOp::Load {
                    addr: Addr::new(tok.value),
                })
            }
            EnqState::SwingNext { then, tok } => {
                let succ = decode(
                    self.prim,
                    last.expect("swing next read").value().expect("load value"),
                );
                if succ == 0 {
                    // Tail already points at the last node.
                    return self.after(then, rng);
                }
                self.state = EnqState::SwingDone { then };
                Step::Op(link_update(self.prim, self.q.tail, &tok, succ))
            }
            EnqState::SwingDone { then } => {
                // Success or not, somebody advanced the tail.
                let _ = link_ok(&last.expect("swing result"));
                self.after(then, rng)
            }
            EnqState::Finished => Step::Done,
        }
    }
}

/// One dequeue from the queue.
///
/// After [`Step::Done`], [`dequeued`](MsDequeue::dequeued) yields the
/// value, or `None` if the queue was observed empty.
#[derive(Debug, Clone)]
pub struct MsDequeue {
    q: MsQueue,
    prim: LinkPrim,
    state: DeqState,
    result: Option<Option<(u64, u64)>>,
    /// Failed attempts (for statistics).
    pub retries: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeqState {
    ReadHead,
    WaitHead,
    WaitTail { tok: LinkToken },
    WaitNext { tok: LinkToken, t: u64 },
    Validate { tok: LinkToken, t: u64, n: u64 },
    WaitValue { tok: LinkToken, n: u64 },
    WaitSwap { h: u64, n: u64, v: u64 },
    SwingLoad,
    SwingTail,
    SwingNext { tok: LinkToken },
    SwingDone,
    Finished,
}

impl MsDequeue {
    /// Creates a dequeue.
    pub fn new(q: MsQueue, prim: LinkPrim) -> Self {
        MsDequeue {
            q,
            prim,
            state: DeqState::ReadHead,
            result: None,
            retries: 0,
        }
    }

    /// The dequeued value, or `None` for an empty queue. Meaningful
    /// only after the sub-machine finishes.
    pub fn dequeued(&self) -> Option<u64> {
        self.result.flatten().map(|(_, v)| v)
    }

    /// The retired node (the old dummy's `next`-word address), if a
    /// value was dequeued. The node no longer belongs to the queue but
    /// must not be recycled (see the module docs on fresh nodes).
    pub fn retired(&self) -> Option<u64> {
        self.result.flatten().map(|(h, _)| h)
    }

    fn retry(&mut self, rng: &mut SimRng) -> Step {
        self.retries += 1;
        self.state = DeqState::ReadHead;
        self.step(None, rng)
    }
}

impl SubMachine for MsDequeue {
    fn step(&mut self, last: Option<OpResult>, rng: &mut SimRng) -> Step {
        match self.state {
            DeqState::ReadHead => {
                // The one outstanding LL of this attempt: the head.
                self.state = DeqState::WaitHead;
                Step::Op(link_load(self.prim, self.q.head))
            }
            DeqState::WaitHead => {
                let tok = link_token(self.prim, &last.expect("head read"));
                self.state = DeqState::WaitTail { tok };
                Step::Op(MemOp::Load { addr: self.q.tail })
            }
            DeqState::WaitTail { tok } => {
                let t = decode(
                    self.prim,
                    last.expect("tail read").value().expect("load value"),
                );
                self.state = DeqState::WaitNext { tok, t };
                Step::Op(MemOp::Load {
                    addr: Addr::new(tok.value),
                })
            }
            DeqState::WaitNext { tok, t } => {
                let n = decode(
                    self.prim,
                    last.expect("next read").value().expect("load value"),
                );
                // Re-read the head so the empty answer (and the
                // consistency of `n`) is anchored to an interval where
                // the head did not move. Fresh nodes make the
                // value-compare exact: a head value never repeats.
                self.state = DeqState::Validate { tok, t, n };
                Step::Op(MemOp::Load { addr: self.q.head })
            }
            DeqState::Validate { tok, t, n } => {
                let cur = decode(
                    self.prim,
                    last.expect("head re-read").value().expect("load value"),
                );
                if cur != tok.value {
                    return self.retry(rng);
                }
                if tok.value == t {
                    if n == 0 {
                        // Empty: head == tail and no successor while
                        // the head stood still.
                        self.result = Some(None);
                        self.state = DeqState::Finished;
                        return Step::Done;
                    }
                    // Tail is lagging behind a linked node: help.
                    self.state = DeqState::SwingLoad;
                    return self.step(None, rng);
                }
                if n == 0 {
                    // Head strictly behind tail implies a successor;
                    // a stale read can still miss it — retry.
                    return self.retry(rng);
                }
                self.state = DeqState::WaitValue { tok, n };
                Step::Op(MemOp::Load {
                    addr: Addr::new(n + 8),
                })
            }
            DeqState::WaitValue { tok, n } => {
                let v = last.expect("value read").value().expect("load value");
                self.state = DeqState::WaitSwap { h: tok.value, n, v };
                Step::Op(link_update(self.prim, self.q.head, &tok, n))
            }
            DeqState::WaitSwap { h, n, v } => {
                if link_ok(&last.expect("swap result")) {
                    self.result = Some(Some((h, v)));
                    self.state = DeqState::Finished;
                    let _ = n;
                    Step::Done
                } else {
                    self.retry(rng)
                }
            }
            // --- embedded tail swing (see MsEnqueue) ----------------
            DeqState::SwingLoad => {
                self.state = DeqState::SwingTail;
                Step::Op(link_load(self.prim, self.q.tail))
            }
            DeqState::SwingTail => {
                let tok = link_token(self.prim, &last.expect("swing tail read"));
                self.state = DeqState::SwingNext { tok };
                Step::Op(MemOp::Load {
                    addr: Addr::new(tok.value),
                })
            }
            DeqState::SwingNext { tok } => {
                let succ = decode(
                    self.prim,
                    last.expect("swing next read").value().expect("load value"),
                );
                if succ == 0 {
                    return self.retry(rng);
                }
                self.state = DeqState::SwingDone;
                Step::Op(link_update(self.prim, self.q.tail, &tok, succ))
            }
            DeqState::SwingDone => {
                let _ = link_ok(&last.expect("swing result"));
                self.retry(rng)
            }
            DeqState::Finished => Step::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submachine::{drive_sync, SeqMem};

    const HEAD: Addr = Addr::new(0x40);
    const TAIL: Addr = Addr::new(0x80);

    fn node(i: u64) -> Addr {
        Addr::new(0x1000 + i * 64)
    }

    /// head = tail = dummy (node 99), dummy.next = 0.
    fn fresh(mem: &mut SeqMem) -> MsQueue {
        let dummy = node(99);
        mem.set(HEAD, dummy.as_u64());
        mem.set(TAIL, dummy.as_u64());
        MsQueue {
            head: HEAD,
            tail: TAIL,
        }
    }

    fn enq(mem: &mut SeqMem, q: MsQueue, i: u64, v: u64, prim: LinkPrim) {
        let mut rng = SimRng::new(1);
        let mut e = MsEnqueue::new(q, node(i), v, prim);
        drive_sync(&mut e, &mut rng, 1000, |op| mem.eval(op));
    }

    fn deq(mem: &mut SeqMem, q: MsQueue, prim: LinkPrim) -> Option<u64> {
        let mut rng = SimRng::new(1);
        let mut d = MsDequeue::new(q, prim);
        drive_sync(&mut d, &mut rng, 1000, |op| mem.eval(op));
        d.dequeued()
    }

    fn fifo_round_trip(prim: LinkPrim) {
        let mut mem = SeqMem::default();
        let q = fresh(&mut mem);
        assert_eq!(deq(&mut mem, q, prim), None, "{prim:?}: starts empty");
        for (i, v) in [(0u64, 111u64), (1, 222), (2, 333)] {
            enq(&mut mem, q, i, v, prim);
        }
        // Tail points at the last node after un-contended enqueues.
        assert_eq!(decode(prim, mem.get(TAIL)), node(2).as_u64());
        for v in [111u64, 222, 333] {
            assert_eq!(deq(&mut mem, q, prim), Some(v), "{prim:?}: FIFO");
        }
        assert_eq!(deq(&mut mem, q, prim), None, "{prim:?}: drains empty");
        // Head == tail again (both at the final dummy).
        assert_eq!(decode(prim, mem.get(HEAD)), decode(prim, mem.get(TAIL)));
    }

    #[test]
    fn fifo_llsc() {
        fifo_round_trip(LinkPrim::Llsc);
    }

    #[test]
    fn fifo_emul() {
        fifo_round_trip(LinkPrim::EmulLlsc);
    }

    #[test]
    fn fifo_cas() {
        fifo_round_trip(LinkPrim::CasPlain);
    }

    #[test]
    fn emul_tags_advance_on_every_update() {
        let mut mem = SeqMem::default();
        let q = fresh(&mut mem);
        enq(&mut mem, q, 0, 1, LinkPrim::EmulLlsc);
        let tag_after_one = super::super::tagged_tag(mem.get(TAIL));
        enq(&mut mem, q, 1, 2, LinkPrim::EmulLlsc);
        assert!(
            super::super::tagged_tag(mem.get(TAIL)) > tag_after_one,
            "tail tag must advance"
        );
    }

    /// Drives an enqueue only until its link succeeds, leaving the tail
    /// lagging — then checks the next enqueue helps swing it.
    fn interrupted_after_link(prim: LinkPrim) {
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        let q = fresh(&mut mem);
        let mut e = MsEnqueue::new(q, node(0), 111, prim);
        let mut last = None;
        loop {
            match e.step(last.take(), &mut rng) {
                Step::Op(op) => {
                    let to_next = matches!(
                        op,
                        MemOp::Cas { addr, .. } | MemOp::StoreConditional { addr, .. }
                            if addr == node(99)
                    );
                    let r = mem.eval(op);
                    if to_next && link_ok(&r) {
                        break; // linked, tail not yet swung
                    }
                    last = Some(r);
                }
                Step::Compute(_) => {}
                Step::SpinWhile { .. } => unreachable!("no spin-waits here"),
                Step::Done => panic!("must not finish before the swing"),
            }
        }
        assert_eq!(
            decode(prim, mem.get(TAIL)),
            node(99).as_u64(),
            "tail still lags at the dummy"
        );
        // The next enqueue must help swing the tail, then link itself.
        enq(&mut mem, q, 1, 222, prim);
        assert_eq!(decode(prim, mem.get(TAIL)), node(1).as_u64());
        assert_eq!(decode(prim, mem.get(node(0))), node(1).as_u64());
        // FIFO holds across the interruption.
        assert_eq!(deq(&mut mem, q, prim), Some(111));
        assert_eq!(deq(&mut mem, q, prim), Some(222));
        assert_eq!(deq(&mut mem, q, prim), None);
    }

    #[test]
    fn lagging_tail_is_helped_llsc() {
        interrupted_after_link(LinkPrim::Llsc);
    }

    #[test]
    fn lagging_tail_is_helped_emul() {
        interrupted_after_link(LinkPrim::EmulLlsc);
    }

    #[test]
    fn lagging_tail_is_helped_cas() {
        interrupted_after_link(LinkPrim::CasPlain);
    }

    /// A dequeue facing a lagging tail (head == tail but a node is
    /// linked) must swing the tail itself and then dequeue the value.
    fn dequeue_helps(prim: LinkPrim) {
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        let q = fresh(&mut mem);
        let mut e = MsEnqueue::new(q, node(0), 111, prim);
        let mut last = None;
        loop {
            match e.step(last.take(), &mut rng) {
                Step::Op(op) => {
                    let to_next = matches!(
                        op,
                        MemOp::Cas { addr, .. } | MemOp::StoreConditional { addr, .. }
                            if addr == node(99)
                    );
                    let r = mem.eval(op);
                    if to_next && link_ok(&r) {
                        break;
                    }
                    last = Some(r);
                }
                Step::Compute(_) => {}
                Step::SpinWhile { .. } => unreachable!("no spin-waits here"),
                Step::Done => panic!("must not finish before the swing"),
            }
        }
        let mut d = MsDequeue::new(q, prim);
        drive_sync(&mut d, &mut rng, 1000, |op| mem.eval(op));
        assert_eq!(d.dequeued(), Some(111), "{prim:?}");
        assert_eq!(d.retired(), Some(node(99).as_u64()));
        assert_eq!(
            decode(prim, mem.get(TAIL)),
            node(0).as_u64(),
            "{prim:?}: dequeue swung the lagging tail"
        );
    }

    #[test]
    fn dequeue_helps_lagging_tail_llsc() {
        dequeue_helps(LinkPrim::Llsc);
    }

    #[test]
    fn dequeue_helps_lagging_tail_emul() {
        dequeue_helps(LinkPrim::EmulLlsc);
    }

    #[test]
    fn dequeue_helps_lagging_tail_cas() {
        dequeue_helps(LinkPrim::CasPlain);
    }

    #[test]
    fn enqueue_retries_on_interference() {
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        let q = fresh(&mut mem);
        let mut e = MsEnqueue::new(q, node(0), 111, LinkPrim::CasPlain);
        let mut interfered = false;
        let mut last = None;
        loop {
            match e.step(last.take(), &mut rng) {
                Step::Op(op) => {
                    if !interfered && matches!(op, MemOp::Cas { addr, .. } if addr == node(99)) {
                        interfered = true;
                        // A rival enqueues node 5 first.
                        enq(&mut mem, q, 5, 555, LinkPrim::CasPlain);
                    }
                    last = Some(mem.eval(op));
                }
                Step::Compute(_) => {}
                Step::SpinWhile { .. } => unreachable!("no spin-waits here"),
                Step::Done => break,
            }
        }
        assert_eq!(e.retries, 1);
        assert_eq!(deq(&mut mem, q, LinkPrim::CasPlain), Some(555));
        assert_eq!(deq(&mut mem, q, LinkPrim::CasPlain), Some(111));
    }
}
