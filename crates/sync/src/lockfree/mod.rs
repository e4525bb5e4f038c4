//! Lock-free data structures on the simulated primitives.
//!
//! This tier re-asks the paper's primitive comparison on the classic
//! non-blocking structures instead of counters and locks:
//!
//! * [`queue`] — the Michael–Scott MPMC FIFO queue;
//! * [`list`] — the Harris sorted linked list with logical deletion;
//! * [`map`] — a fixed-bucket hash map, each bucket a Harris list.
//!
//! Every structure is parameterized by a [`LinkPrim`]: the discipline
//! used for its *link words* (head/tail pointers and per-node `next`
//! fields):
//!
//! * [`LinkPrim::Llsc`] — the machine's native load-linked /
//!   store-conditional;
//! * [`LinkPrim::EmulLlsc`] — the Blelloch–Wei constant-time LL/SC
//!   emulation from pointer-width CAS: every link word carries a
//!   modification tag in its upper 32 bits, an emulated LL is a plain
//!   load that remembers the whole tagged word, and an emulated SC is a
//!   CAS from that word to `(tag + 1, new value)`;
//! * [`LinkPrim::CasPlain`] — raw-pointer CAS with no tag.
//!
//! # Memory discipline
//!
//! The structures assume *fresh nodes*: a node address is used for at
//! most one successful publication and is never recycled afterwards.
//! Under that discipline even [`LinkPrim::CasPlain`] is ABA-safe here,
//! because link-word histories are monotone (queue pointers only move
//! forward through never-reused nodes, and the list re-validates
//! through the full word). Recycling nodes would additionally require
//! safe memory reclamation (hazard pointers or epochs), which no
//! word-sized primitive provides by itself — the Treiber stack in
//! [`crate::stack`] keeps its node-reuse ABA demonstration for exactly
//! that reason.
//!
//! # Reservation discipline
//!
//! Under the INV policy each processor has a *single* reservation
//! register, and a new `load_linked` displaces the previous one. Every
//! state machine here therefore holds at most one outstanding LL at a
//! time and uses plain loads for all other shared reads between the LL
//! and its SC.

pub mod list;
pub mod map;
pub mod queue;

use crate::submachine::{Step, SubMachine};
use dsm_protocol::{MemOp, OpResult};
use dsm_sim::{Addr, SimRng};

/// The primitive discipline used for a structure's link words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkPrim {
    /// Native load-linked / store-conditional.
    Llsc,
    /// Blelloch–Wei LL/SC emulated from pointer-width CAS via a
    /// 32-bit modification tag packed into each link word.
    EmulLlsc,
    /// Raw CAS with no tag (safe here only under fresh nodes).
    CasPlain,
}

impl LinkPrim {
    /// All variants, in benchmark-sweep order.
    pub const ALL: [LinkPrim; 3] = [LinkPrim::Llsc, LinkPrim::EmulLlsc, LinkPrim::CasPlain];

    /// Short label for tables (`LLSC`, `EMUL`, `CAS`).
    pub fn label(self) -> &'static str {
        match self {
            LinkPrim::Llsc => "LLSC",
            LinkPrim::EmulLlsc => "EMUL",
            LinkPrim::CasPlain => "CAS",
        }
    }
}

impl std::fmt::Display for LinkPrim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Number of bits reserved for the logical value of a tagged link word.
pub const TAG_SHIFT: u32 = 32;

/// Packs a Blelloch–Wei modification tag and a (32-bit) logical value.
pub fn pack_tagged(tag: u32, low: u64) -> u64 {
    debug_assert!(low <= u32::MAX as u64, "link values must fit in 32 bits");
    ((tag as u64) << TAG_SHIFT) | low
}

/// The logical value of a tagged link word.
pub fn tagged_low(word: u64) -> u64 {
    word & 0xFFFF_FFFF
}

/// The modification tag of a tagged link word.
pub fn tagged_tag(word: u64) -> u32 {
    (word >> TAG_SHIFT) as u32
}

/// Decodes a raw link word into its logical value under `prim`
/// (strips the tag for [`LinkPrim::EmulLlsc`], identity otherwise).
pub fn decode(prim: LinkPrim, raw: u64) -> u64 {
    match prim {
        LinkPrim::EmulLlsc => tagged_low(raw),
        _ => raw,
    }
}

/// The Harris logical-deletion mark: bit 0 of a link value. Node
/// addresses are line-aligned, so the bit is always free.
pub const MARK: u64 = 1;

/// Sets the deletion mark on a link value.
pub fn with_mark(v: u64) -> u64 {
    v | MARK
}

/// `true` if the link value carries the deletion mark.
pub fn is_marked(v: u64) -> bool {
    v & MARK != 0
}

/// Clears the deletion mark from a link value.
pub fn clear_mark(v: u64) -> u64 {
    v & !MARK
}

/// What a link-word load observed, carrying everything a later
/// conditional update needs.
///
/// The token must come from the *original* read that justified the
/// update — re-reading inside a helper would reopen the ABA window the
/// tag (or reservation) exists to close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkToken {
    /// Logical (decoded, tag-stripped) value; may carry [`MARK`].
    pub value: u64,
    /// Raw word as stored in memory (tag included for `EmulLlsc`).
    pub raw: u64,
    /// Reservation serial, when the machine handed one out.
    pub serial: Option<u64>,
}

/// The load that begins a link-word read-modify-write: a real LL for
/// [`LinkPrim::Llsc`], a plain load otherwise.
pub fn link_load(prim: LinkPrim, addr: Addr) -> MemOp {
    match prim {
        LinkPrim::Llsc => MemOp::LoadLinked { addr },
        _ => MemOp::Load { addr },
    }
}

/// Extracts a [`LinkToken`] from the result of a [`link_load`].
///
/// # Panics
///
/// Panics if `result` is not a load result.
pub fn link_token(prim: LinkPrim, result: &OpResult) -> LinkToken {
    match *result {
        OpResult::Loaded { value, serial, .. } => LinkToken {
            value: decode(prim, value),
            raw: value,
            serial,
        },
        ref other => panic!("link load returned {other:?}"),
    }
}

/// The conditional update that ends a link-word read-modify-write:
/// an SC for [`LinkPrim::Llsc`], a tag-bumping CAS for
/// [`LinkPrim::EmulLlsc`], a raw CAS for [`LinkPrim::CasPlain`].
pub fn link_update(prim: LinkPrim, addr: Addr, token: &LinkToken, new: u64) -> MemOp {
    match prim {
        LinkPrim::Llsc => MemOp::StoreConditional {
            addr,
            value: new,
            serial: token.serial,
        },
        LinkPrim::EmulLlsc => MemOp::Cas {
            addr,
            expected: token.raw,
            new: pack_tagged(tagged_tag(token.raw).wrapping_add(1), new),
        },
        LinkPrim::CasPlain => MemOp::Cas {
            addr,
            expected: token.raw,
            new,
        },
    }
}

/// `true` if a [`link_update`] result reports success.
///
/// # Panics
///
/// Panics if `result` is not a CAS or SC result.
pub fn link_ok(result: &OpResult) -> bool {
    match *result {
        OpResult::CasDone { success, .. } | OpResult::ScDone { success } => success,
        ref other => panic!("link update returned {other:?}"),
    }
}

/// Privately initializes a link word (before the owning node is
/// published) while preserving the Blelloch–Wei tag discipline.
///
/// For [`LinkPrim::EmulLlsc`] this is a load followed by a store of
/// `(tag + 1, value)` — the tag must keep advancing even across private
/// writes, so a token captured before the write can never match after
/// it. For the other primitives it is a single plain store.
#[derive(Debug, Clone)]
pub struct PrivInit {
    addr: Addr,
    value: u64,
    prim: LinkPrim,
    state: InitState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InitState {
    Start,
    WaitLoad,
    WaitStore,
}

impl PrivInit {
    /// Creates an initializer writing logical `value` to `addr`.
    pub fn new(addr: Addr, value: u64, prim: LinkPrim) -> Self {
        PrivInit {
            addr,
            value,
            prim,
            state: InitState::Start,
        }
    }
}

impl SubMachine for PrivInit {
    fn step(&mut self, last: Option<OpResult>, _rng: &mut SimRng) -> Step {
        match self.state {
            InitState::Start => match self.prim {
                LinkPrim::EmulLlsc => {
                    self.state = InitState::WaitLoad;
                    Step::Op(MemOp::Load { addr: self.addr })
                }
                _ => {
                    self.state = InitState::WaitStore;
                    Step::Op(MemOp::Store {
                        addr: self.addr,
                        value: self.value,
                    })
                }
            },
            InitState::WaitLoad => {
                let raw = last.expect("init read").value().expect("load value");
                self.state = InitState::WaitStore;
                Step::Op(MemOp::Store {
                    addr: self.addr,
                    value: pack_tagged(tagged_tag(raw).wrapping_add(1), self.value),
                })
            }
            InitState::WaitStore => {
                last.expect("init store");
                Step::Done
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submachine::{drive_sync, SeqMem};

    #[test]
    fn tagged_words_round_trip() {
        let w = pack_tagged(7, 0x1230);
        assert_eq!(tagged_tag(w), 7);
        assert_eq!(tagged_low(w), 0x1230);
        assert_eq!(decode(LinkPrim::EmulLlsc, w), 0x1230);
        assert_eq!(decode(LinkPrim::CasPlain, w), w);
        assert_eq!(decode(LinkPrim::Llsc, w), w);
    }

    #[test]
    fn mark_helpers() {
        assert!(!is_marked(0x40));
        assert!(is_marked(with_mark(0x40)));
        assert_eq!(clear_mark(with_mark(0x40)), 0x40);
        assert_eq!(clear_mark(0), 0);
    }

    #[test]
    fn link_update_shapes_per_prim() {
        let addr = Addr::new(0x40);
        let tok = LinkToken {
            value: 5,
            raw: pack_tagged(3, 5),
            serial: Some(9),
        };
        match link_update(LinkPrim::Llsc, addr, &tok, 6) {
            MemOp::StoreConditional { value, serial, .. } => {
                assert_eq!(value, 6);
                assert_eq!(serial, Some(9));
            }
            other => panic!("{other:?}"),
        }
        match link_update(LinkPrim::EmulLlsc, addr, &tok, 6) {
            MemOp::Cas { expected, new, .. } => {
                assert_eq!(expected, pack_tagged(3, 5));
                assert_eq!(new, pack_tagged(4, 6));
            }
            other => panic!("{other:?}"),
        }
        match link_update(LinkPrim::CasPlain, addr, &tok, 6) {
            MemOp::Cas { expected, new, .. } => {
                assert_eq!(expected, pack_tagged(3, 5));
                assert_eq!(new, 6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn priv_init_bumps_emul_tag() {
        let mut mem = SeqMem::default();
        let mut rng = SimRng::new(1);
        let a = Addr::new(0x40);
        mem.set(a, pack_tagged(4, 0x80));
        let mut init = PrivInit::new(a, 0xC0, LinkPrim::EmulLlsc);
        let ops = drive_sync(&mut init, &mut rng, 10, |op| mem.eval(op));
        assert_eq!(ops, 2, "emulated init is load + store");
        assert_eq!(mem.get(a), pack_tagged(5, 0xC0));
        // A token captured before the private rewrite can never match.
        assert_ne!(tagged_tag(mem.get(a)), 4);
    }

    #[test]
    fn priv_init_is_one_store_for_native_prims() {
        for prim in [LinkPrim::Llsc, LinkPrim::CasPlain] {
            let mut mem = SeqMem::default();
            let mut rng = SimRng::new(1);
            let a = Addr::new(0x40);
            let mut init = PrivInit::new(a, 0xC0, prim);
            let ops = drive_sync(&mut init, &mut rng, 10, |op| mem.eval(op));
            assert_eq!(ops, 1, "{prim:?}");
            assert_eq!(mem.get(a), 0xC0);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(LinkPrim::Llsc.label(), "LLSC");
        assert_eq!(LinkPrim::EmulLlsc.label(), "EMUL");
        assert_eq!(LinkPrim::CasPlain.label(), "CAS");
        assert_eq!(format!("{}", LinkPrim::EmulLlsc), "EMUL");
    }
}
