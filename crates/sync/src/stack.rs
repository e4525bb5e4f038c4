//! A lock-free (Treiber) stack — the §2.2 expressive-power story made
//! executable.
//!
//! The paper argues that `compare_and_swap` "can cause a problem if the
//! datum is a pointer and if a pointer can retain its original value
//! after deallocating and reallocating the storage accessed by it" (the
//! ABA problem), while `load_linked`/`store_conditional` — whose
//! reservations are invalidated by *any* write — does not suffer from
//! it. The classic victim is this stack.
//!
//! Three head-pointer disciplines are provided:
//!
//! * [`StackPrim::CasPlain`] — raw pointers + CAS. **ABA-vulnerable**:
//!   see the demonstration in `tests/lockfree_stack.rs`.
//! * [`StackPrim::CasCounted`] — a generation count packed into the
//!   upper 32 bits of the head word, the standard software fix (and the
//!   in-memory analogue of the paper's §3.1 serial-number proposal).
//! * [`StackPrim::Llsc`] — LL/SC; safe by construction.
//!
//! Node layout: each node is one cache line whose word 0 is `next` and
//! word 1 is a user value. A node is named by the address of its `next`
//! word; 0 is nil.

use crate::submachine::{Step, SubMachine};
use dsm_protocol::{MemOp, OpResult};
use dsm_sim::{Addr, SimRng};

/// Which primitive discipline manipulates the stack head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackPrim {
    /// Raw pointer CAS (ABA-vulnerable).
    CasPlain,
    /// CAS over a `(generation << 32) | pointer` packed word.
    CasCounted,
    /// Load-linked / store-conditional.
    Llsc,
}

/// Packs a generation count and a (32-bit) node address into one word.
pub fn pack(generation: u32, node: u64) -> u64 {
    debug_assert!(
        node <= u32::MAX as u64,
        "node addresses must fit in 32 bits"
    );
    ((generation as u64) << 32) | node
}

/// Extracts the node address from a packed head word.
pub fn unpack_node(word: u64) -> u64 {
    word & 0xFFFF_FFFF
}

/// Extracts the generation count from a packed head word.
pub fn unpack_gen(word: u64) -> u32 {
    (word >> 32) as u32
}

fn head_node(prim: StackPrim, head_word: u64) -> u64 {
    match prim {
        StackPrim::CasCounted => unpack_node(head_word),
        _ => head_word,
    }
}

/// One push of `node` onto the stack headed at `top`.
#[derive(Debug, Clone)]
pub struct StackPush {
    top: Addr,
    node: Addr,
    prim: StackPrim,
    state: PushState,
    /// Failed attempts (for statistics).
    pub retries: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PushState {
    ReadTop,
    WaitTop,
    WaitLink { observed: u64, serial: Option<u64> },
    WaitSwap { observed: u64 },
}

impl StackPush {
    /// Creates a push of the node whose `next` word is at `node`.
    pub fn new(top: Addr, node: Addr, prim: StackPrim) -> Self {
        StackPush {
            top,
            node,
            prim,
            state: PushState::ReadTop,
            retries: 0,
        }
    }
}

impl SubMachine for StackPush {
    fn step(&mut self, last: Option<OpResult>, _rng: &mut SimRng) -> Step {
        match self.state {
            PushState::ReadTop => {
                self.state = PushState::WaitTop;
                match self.prim {
                    StackPrim::Llsc => Step::Op(MemOp::LoadLinked { addr: self.top }),
                    _ => Step::Op(MemOp::Load { addr: self.top }),
                }
            }
            PushState::WaitTop => {
                let result = last.expect("top read");
                let observed = result.value().expect("load value");
                let serial = match result {
                    OpResult::Loaded { serial, .. } => serial,
                    _ => None,
                };
                self.state = PushState::WaitLink { observed, serial };
                // Link our node in front of the observed head.
                Step::Op(MemOp::Store {
                    addr: self.node,
                    value: head_node(self.prim, observed),
                })
            }
            PushState::WaitLink { observed, serial } => {
                let new = match self.prim {
                    StackPrim::CasPlain => self.node.as_u64(),
                    StackPrim::CasCounted => {
                        pack(unpack_gen(observed).wrapping_add(1), self.node.as_u64())
                    }
                    StackPrim::Llsc => self.node.as_u64(),
                };
                self.state = PushState::WaitSwap { observed };
                match self.prim {
                    StackPrim::Llsc => {
                        // Note: the reservation placed by the LL in
                        // ReadTop survives our store to the (distinct)
                        // node line only on machines whose reservations
                        // track a specific address — which this
                        // simulator's do.
                        Step::Op(MemOp::StoreConditional {
                            addr: self.top,
                            value: new,
                            serial,
                        })
                    }
                    _ => Step::Op(MemOp::Cas {
                        addr: self.top,
                        expected: observed,
                        new,
                    }),
                }
            }
            PushState::WaitSwap { .. } => match last.expect("swap result") {
                OpResult::CasDone { success: true, .. } | OpResult::ScDone { success: true } => {
                    Step::Done
                }
                OpResult::CasDone { success: false, .. } | OpResult::ScDone { success: false } => {
                    self.retries += 1;
                    self.state = PushState::ReadTop;
                    // Retry from a fresh read of the head.
                    self.step(None, _rng)
                }
                other => panic!("unexpected swap result {other:?}"),
            },
        }
    }
}

/// One pop from the stack headed at `top`.
///
/// After [`Step::Done`], [`popped`](StackPop::popped) yields the node's
/// `next`-word address, or `None` if the stack was empty.
#[derive(Debug, Clone)]
pub struct StackPop {
    top: Addr,
    prim: StackPrim,
    state: PopState,
    result: Option<u64>,
    /// Failed attempts (for statistics).
    pub retries: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PopState {
    ReadTop,
    WaitTop,
    WaitNext { observed: u64, serial: Option<u64> },
    WaitSwap { observed: u64 },
}

impl StackPop {
    /// Creates a pop.
    pub fn new(top: Addr, prim: StackPrim) -> Self {
        StackPop {
            top,
            prim,
            state: PopState::ReadTop,
            result: None,
            retries: 0,
        }
    }

    /// The popped node (its `next`-word address), or `None` for an
    /// empty stack. Meaningful only after the sub-machine finishes.
    pub fn popped(&self) -> Option<u64> {
        self.result.filter(|&n| n != 0)
    }
}

impl SubMachine for StackPop {
    fn step(&mut self, last: Option<OpResult>, _rng: &mut SimRng) -> Step {
        match self.state {
            PopState::ReadTop => {
                self.state = PopState::WaitTop;
                match self.prim {
                    StackPrim::Llsc => Step::Op(MemOp::LoadLinked { addr: self.top }),
                    _ => Step::Op(MemOp::Load { addr: self.top }),
                }
            }
            PopState::WaitTop => {
                let result = last.expect("top read");
                let observed = result.value().expect("load value");
                let serial = match result {
                    OpResult::Loaded { serial, .. } => serial,
                    _ => None,
                };
                if head_node(self.prim, observed) == 0 {
                    self.result = Some(0);
                    return Step::Done;
                }
                self.state = PopState::WaitNext { observed, serial };
                Step::Op(MemOp::Load {
                    addr: Addr::new(head_node(self.prim, observed)),
                })
            }
            PopState::WaitNext { observed, serial } => {
                let next = last.expect("next read").value().expect("load value");
                let new = match self.prim {
                    StackPrim::CasPlain | StackPrim::Llsc => next,
                    StackPrim::CasCounted => pack(unpack_gen(observed).wrapping_add(1), next),
                };
                self.state = PopState::WaitSwap { observed };
                match self.prim {
                    StackPrim::Llsc => Step::Op(MemOp::StoreConditional {
                        addr: self.top,
                        value: new,
                        serial,
                    }),
                    _ => Step::Op(MemOp::Cas {
                        addr: self.top,
                        expected: observed,
                        new,
                    }),
                }
            }
            PopState::WaitSwap { observed } => match last.expect("swap result") {
                OpResult::CasDone { success: true, .. } | OpResult::ScDone { success: true } => {
                    self.result = Some(head_node(self.prim, observed));
                    Step::Done
                }
                OpResult::CasDone { success: false, .. } | OpResult::ScDone { success: false } => {
                    self.retries += 1;
                    self.state = PopState::ReadTop;
                    self.step(None, _rng)
                }
                other => panic!("unexpected swap result {other:?}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submachine::{drive_sync, SeqMem};

    const TOP: Addr = Addr::new(0x100);

    fn node(i: u64) -> Addr {
        Addr::new(0x1000 + i * 64)
    }

    #[test]
    fn pack_round_trips() {
        let w = pack(7, 0x1234);
        assert_eq!(unpack_gen(w), 7);
        assert_eq!(unpack_node(w), 0x1234);
        assert_eq!(unpack_node(pack(u32::MAX, 0)), 0);
    }

    fn push_pop_sequence(prim: StackPrim) {
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        // Push nodes 0, 1, 2.
        for i in 0..3 {
            let mut p = StackPush::new(TOP, node(i), prim);
            drive_sync(&mut p, &mut rng, 100, |op| mem.eval(op));
        }
        // Pop yields LIFO order: 2, 1, 0, then empty.
        for expect in [Some(node(2)), Some(node(1)), Some(node(0)), None] {
            let mut p = StackPop::new(TOP, prim);
            drive_sync(&mut p, &mut rng, 100, |op| mem.eval(op));
            assert_eq!(p.popped(), expect.map(|a| a.as_u64()), "{prim:?}");
        }
    }

    #[test]
    fn lifo_order_cas_plain() {
        push_pop_sequence(StackPrim::CasPlain);
    }

    #[test]
    fn lifo_order_cas_counted() {
        push_pop_sequence(StackPrim::CasCounted);
    }

    #[test]
    fn lifo_order_llsc() {
        push_pop_sequence(StackPrim::Llsc);
    }

    #[test]
    fn counted_cas_bumps_generation() {
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        let mut p = StackPush::new(TOP, node(0), StackPrim::CasCounted);
        drive_sync(&mut p, &mut rng, 100, |op| mem.eval(op));
        assert_eq!(unpack_gen(mem.get(TOP)), 1);
        let mut p = StackPop::new(TOP, StackPrim::CasCounted);
        drive_sync(&mut p, &mut rng, 100, |op| mem.eval(op));
        assert_eq!(unpack_gen(mem.get(TOP)), 2);
        assert_eq!(unpack_node(mem.get(TOP)), 0);
    }

    #[test]
    fn push_retries_on_interference() {
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        let mut p = StackPush::new(TOP, node(0), StackPrim::CasPlain);
        let mut interfered = false;
        drive_sync(&mut p, &mut rng, 100, |op| {
            if matches!(op, MemOp::Cas { .. }) && !interfered {
                interfered = true;
                // Someone else pushed node 9 meanwhile.
                mem.set(TOP, node(9).as_u64());
            }
            mem.eval(op)
        });
        assert_eq!(p.retries, 1);
        // Our node now heads the stack and links to node 9.
        assert_eq!(mem.get(TOP), node(0).as_u64());
        assert_eq!(mem.get(node(0)), node(9).as_u64());
    }

    /// The scripted ABA schedule from §2.2: P1 reads top=A and A.next=B;
    /// meanwhile A and B are popped and A is pushed back (with a
    /// different successor). P1's plain CAS then succeeds and corrupts
    /// the stack; the counted CAS fails and retries safely.
    fn aba_schedule(prim: StackPrim) -> (SeqMem, bool) {
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        // Stack: A -> B -> C.
        for i in [2u64, 1, 0] {
            let mut p = StackPush::new(TOP, node(i), prim);
            drive_sync(&mut p, &mut rng, 100, |op| mem.eval(op));
        }
        let (a, b, c) = (node(0).as_u64(), node(1).as_u64(), node(2).as_u64());

        // P1 starts a pop and is "preempted" right before its swap.
        let mut victim = StackPop::new(TOP, prim);
        let mut last = None;
        let mut interfered = false;
        loop {
            match victim.step(last.take(), &mut rng) {
                Step::Op(op) => {
                    if !interfered
                        && matches!(op, MemOp::Cas { .. } | MemOp::StoreConditional { .. })
                    {
                        interfered = true;
                        // --- interference by P2: pop A, pop B, push A back ---
                        let p2 = dsm_sim::ProcId::new(2);
                        for _ in 0..2 {
                            let mut p = StackPop::new(TOP, prim);
                            drive_sync(&mut p, &mut rng, 100, |o| mem.eval_by(p2, o));
                        }
                        let mut p = StackPush::new(TOP, node(0), prim);
                        drive_sync(&mut p, &mut rng, 100, |o| mem.eval_by(p2, o));
                        // Stack is now A -> C; B is "free".
                        assert_eq!(head_node(prim, mem.get(TOP)), a);
                        assert_eq!(mem.get(Addr::new(a)), c);
                        // --- victim resumes its swap ---
                        last = Some(mem.eval(op));
                    } else {
                        last = Some(mem.eval(op));
                    }
                }
                Step::Compute(_) => {}
                Step::SpinWhile { .. } => unreachable!("no spin-waits here"),
                Step::Done => break,
            }
        }
        let _ = b;
        // Did the victim's first swap succeed (true = ABA bit us)?
        let corrupted = victim.retries == 0;
        (mem, corrupted)
    }

    #[test]
    fn plain_cas_suffers_aba_corruption() {
        let (mem, corrupted) = aba_schedule(StackPrim::CasPlain);
        assert!(corrupted, "plain CAS must not detect the ABA writes");
        // The stack head now points at B, which was freed: corruption.
        assert_eq!(mem.get(TOP), node(1).as_u64());
    }

    #[test]
    fn counted_cas_survives_aba() {
        let (mem, corrupted) = aba_schedule(StackPrim::CasCounted);
        assert!(!corrupted, "the generation count must force a retry");
        // The retry popped the real head A; C remains.
        assert_eq!(unpack_node(mem.get(TOP)), node(2).as_u64());
    }

    #[test]
    fn llsc_survives_aba() {
        let (mem, corrupted) = aba_schedule(StackPrim::Llsc);
        assert!(
            !corrupted,
            "the interfering writes must clear the reservation"
        );
        assert_eq!(head_node(StackPrim::Llsc, mem.get(TOP)), node(2).as_u64());
    }
}
