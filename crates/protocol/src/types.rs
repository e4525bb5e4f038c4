//! Operation, policy and result types shared across the protocol engine.

use dsm_sim::Addr;
use std::fmt;

/// A 64-bit machine word — the granularity of all atomic operations.
pub type Value = u64;

/// The coherence policy used for a synchronization variable (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncPolicy {
    /// Computational power in the cache controllers, write-invalidate
    /// coherence. Atomic updates execute locally once the line is held
    /// exclusively.
    Inv,
    /// Computational power in the memory, write-update coherence. Reads
    /// hit even under alternating access; writes and atomics go to the
    /// home node, which pushes updates to sharers.
    Upd,
    /// Computational power in the memory, caching disabled. Every access
    /// is a two-message request/reply with the home node.
    Unc,
}

impl SyncPolicy {
    /// All policies, in the paper's reporting order (UNC, INV, UPD).
    pub const ALL: [SyncPolicy; 3] = [SyncPolicy::Unc, SyncPolicy::Inv, SyncPolicy::Upd];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SyncPolicy::Inv => "INV",
            SyncPolicy::Upd => "UPD",
            SyncPolicy::Unc => "UNC",
        }
    }
}

impl fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Variant of the INV implementation of `compare_and_swap` (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CasVariant {
    /// Always acquire an exclusive copy and compare locally.
    #[default]
    Plain,
    /// "INVd": compare at the home (or owner); on failure the requester
    /// is *denied* a cached copy, so failing CAS's do not invalidate
    /// other nodes' copies.
    Deny,
    /// "INVs": compare at the home (or owner); on failure the requester
    /// receives a read-only *shared* copy.
    Share,
}

impl CasVariant {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            CasVariant::Plain => "INV",
            CasVariant::Deny => "INVd",
            CasVariant::Share => "INVs",
        }
    }

    /// Folds the variant into a state digest.
    pub fn digest(self, h: &mut dsm_sim::StableHasher) {
        h.write_u8(match self {
            CasVariant::Plain => 0,
            CasVariant::Deny => 1,
            CasVariant::Share => 2,
        });
    }
}

/// The fetch-and-Φ function family (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhiOp {
    /// `fetch_and_add(addr, k)`.
    Add(Value),
    /// `fetch_and_store(addr, v)` (atomic swap).
    Store(Value),
    /// `fetch_and_or(addr, v)`.
    Or(Value),
    /// `test_and_set(addr)`: fetch and store 1.
    TestAndSet,
    /// `fetch_and_and(addr, v)`; with a mask this provides `clear`.
    And(Value),
}

impl PhiOp {
    /// Applies Φ to `old`, returning the new value to store.
    pub fn apply(self, old: Value) -> Value {
        match self {
            PhiOp::Add(k) => old.wrapping_add(k),
            PhiOp::Store(v) => v,
            PhiOp::Or(v) => old | v,
            PhiOp::TestAndSet => 1,
            PhiOp::And(v) => old & v,
        }
    }

    /// Folds the operation into a state digest.
    pub fn digest(self, h: &mut dsm_sim::StableHasher) {
        let (tag, operand) = match self {
            PhiOp::Add(k) => (0u8, k),
            PhiOp::Store(v) => (1, v),
            PhiOp::Or(v) => (2, v),
            PhiOp::TestAndSet => (3, 0),
            PhiOp::And(v) => (4, v),
        };
        h.write_u8(tag);
        h.write_u64(operand);
    }
}

/// The scheme used to hold LL/SC reservations at the memory (§3.1),
/// relevant for the UNC and UPD implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LlscScheme {
    /// A bit vector with one reservation bit per processor per line.
    #[default]
    BitVector,
    /// A linked list of reserving processors drawn from a free pool.
    LinkedList,
    /// At most `k` reservations per line; beyond-limit `load_linked`s
    /// return a failure indicator so their `store_conditional`s fail
    /// locally without network traffic.
    Limited(u8),
    /// A per-line serial number incremented by every write;
    /// `store_conditional` succeeds only if it presents the current
    /// serial number. Supports *bare* SC without a preceding LL.
    SerialNumber,
}

/// A memory operation issued by a simulated processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Ordinary load of the word at `addr`.
    Load {
        /// Word address.
        addr: Addr,
    },
    /// Ordinary store of `value` to the word at `addr`.
    Store {
        /// Word address.
        addr: Addr,
        /// Value to store.
        value: Value,
    },
    /// `load_exclusive`: load that acquires exclusive access (§3).
    LoadExclusive {
        /// Word address.
        addr: Addr,
    },
    /// `drop_copy`: self-invalidate the line containing `addr` (§3).
    DropCopy {
        /// Any address within the line to drop.
        addr: Addr,
    },
    /// A fetch-and-Φ primitive.
    FetchPhi {
        /// Word address.
        addr: Addr,
        /// The Φ function to apply.
        op: PhiOp,
    },
    /// `compare_and_swap(addr, expected, new)`.
    Cas {
        /// Word address.
        addr: Addr,
        /// Expected value.
        expected: Value,
        /// Replacement value.
        new: Value,
    },
    /// `load_linked(addr)`.
    LoadLinked {
        /// Word address.
        addr: Addr,
    },
    /// `store_conditional(addr, value)`. When the serial-number scheme
    /// is in use, `serial` carries the expected serial number (taken
    /// from the preceding LL result, or synthesized for a bare SC).
    StoreConditional {
        /// Word address.
        addr: Addr,
        /// Value to store on success.
        value: Value,
        /// Expected serial number (serial-number scheme only).
        serial: Option<u64>,
    },
}

impl MemOp {
    /// The word address this operation targets.
    pub fn addr(self) -> Addr {
        match self {
            MemOp::Load { addr }
            | MemOp::Store { addr, .. }
            | MemOp::LoadExclusive { addr }
            | MemOp::DropCopy { addr }
            | MemOp::FetchPhi { addr, .. }
            | MemOp::Cas { addr, .. }
            | MemOp::LoadLinked { addr }
            | MemOp::StoreConditional { addr, .. } => addr,
        }
    }

    /// Whether this operation writes memory when it succeeds (used for
    /// write-run accounting, which counts "writes including atomic
    /// updates").
    pub fn is_write(self) -> bool {
        matches!(
            self,
            MemOp::Store { .. }
                | MemOp::FetchPhi { .. }
                | MemOp::Cas { .. }
                | MemOp::StoreConditional { .. }
        )
    }

    /// Whether this is one of the atomic read-modify-write primitives.
    pub fn is_atomic(self) -> bool {
        matches!(
            self,
            MemOp::FetchPhi { .. }
                | MemOp::Cas { .. }
                | MemOp::LoadLinked { .. }
                | MemOp::StoreConditional { .. }
        )
    }

    /// What this operation does to the word it targets, given the
    /// word's current value: the result for the processor and the value
    /// to write, if any. The one definition of a Load, LoadExclusive,
    /// Store, fetch-and-Φ and CAS, shared by the memory module, the
    /// cache controller and sequential test memories. A `drop_copy`
    /// leaves the word alone.
    ///
    /// # Panics
    ///
    /// Panics on `load_linked` and `store_conditional`, whose effect
    /// depends on a reservation.
    #[inline]
    pub fn apply(self, word: Value) -> (OpResult, Option<Value>) {
        match self {
            MemOp::Load { .. } | MemOp::LoadExclusive { .. } => (
                OpResult::Loaded {
                    value: word,
                    serial: None,
                    reserved: false,
                },
                None,
            ),
            MemOp::Store { value, .. } => (OpResult::Stored, Some(value)),
            MemOp::DropCopy { .. } => (OpResult::Stored, None),
            MemOp::FetchPhi { op, .. } => (OpResult::Fetched { old: word }, Some(op.apply(word))),
            MemOp::Cas { expected, new, .. } => {
                let success = word == expected;
                (
                    OpResult::CasDone {
                        success,
                        observed: word,
                    },
                    success.then_some(new),
                )
            }
            MemOp::LoadLinked { .. } | MemOp::StoreConditional { .. } => {
                panic!("{} has no reservation-free effect on a word", self.label())
            }
        }
    }

    /// A short static name for this operation, used as the slice label
    /// in trace output.
    pub fn label(self) -> &'static str {
        match self {
            MemOp::Load { .. } => "Load",
            MemOp::Store { .. } => "Store",
            MemOp::LoadExclusive { .. } => "LoadExclusive",
            MemOp::DropCopy { .. } => "DropCopy",
            MemOp::FetchPhi { .. } => "FetchPhi",
            MemOp::Cas { .. } => "Cas",
            MemOp::LoadLinked { .. } => "LoadLinked",
            MemOp::StoreConditional { .. } => "StoreConditional",
        }
    }

    /// Folds the operation (kind, address and payload) into a state
    /// digest.
    pub fn digest(self, h: &mut dsm_sim::StableHasher) {
        h.write_u64(self.addr().as_u64());
        match self {
            MemOp::Load { .. } => h.write_u8(0),
            MemOp::Store { value, .. } => {
                h.write_u8(1);
                h.write_u64(value);
            }
            MemOp::LoadExclusive { .. } => h.write_u8(2),
            MemOp::DropCopy { .. } => h.write_u8(3),
            MemOp::FetchPhi { op, .. } => {
                h.write_u8(4);
                op.digest(h);
            }
            MemOp::Cas { expected, new, .. } => {
                h.write_u8(5);
                h.write_u64(expected);
                h.write_u64(new);
            }
            MemOp::LoadLinked { .. } => h.write_u8(6),
            MemOp::StoreConditional { value, serial, .. } => {
                h.write_u8(7);
                h.write_u64(value);
                match serial {
                    Some(s) => {
                        h.write_u8(1);
                        h.write_u64(s);
                    }
                    None => h.write_u8(0),
                }
            }
        }
    }
}

/// The outcome delivered to a processor when its operation completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpResult {
    /// A load-class operation returning the value read. For
    /// `load_linked` under the serial-number scheme, `serial` carries
    /// the line's current serial number; for a beyond-limit LL under
    /// [`LlscScheme::Limited`], `reserved` is `false`.
    Loaded {
        /// The value read.
        value: Value,
        /// Line serial number (serial-number scheme only).
        serial: Option<u64>,
        /// Whether a reservation was recorded (LL only).
        reserved: bool,
    },
    /// A store-class operation completed.
    Stored,
    /// A fetch-and-Φ returning the original value.
    Fetched {
        /// The original value of the destination operand.
        old: Value,
    },
    /// `compare_and_swap` outcome: `success`, plus the value observed
    /// (the original value of the destination operand).
    CasDone {
        /// Whether the swap took place.
        success: bool,
        /// The value observed at the destination.
        observed: Value,
    },
    /// `store_conditional` outcome.
    ScDone {
        /// Whether the conditional store took place.
        success: bool,
    },
}

impl OpResult {
    /// The loaded/fetched/observed value, if this result carries one.
    pub fn value(self) -> Option<Value> {
        match self {
            OpResult::Loaded { value, .. } => Some(value),
            OpResult::Fetched { old } => Some(old),
            OpResult::CasDone { observed, .. } => Some(observed),
            OpResult::Stored | OpResult::ScDone { .. } => None,
        }
    }

    /// `true` for successful CAS/SC, `true` for every other completed op.
    pub fn succeeded(self) -> bool {
        match self {
            OpResult::CasDone { success, .. } | OpResult::ScDone { success } => success,
            _ => true,
        }
    }

    /// Folds the result into a state digest.
    pub fn digest(self, h: &mut dsm_sim::StableHasher) {
        match self {
            OpResult::Loaded {
                value,
                serial,
                reserved,
            } => {
                h.write_u8(0);
                h.write_u64(value);
                match serial {
                    Some(s) => {
                        h.write_u8(1);
                        h.write_u64(s);
                    }
                    None => h.write_u8(0),
                }
                h.write_u8(reserved as u8);
            }
            OpResult::Stored => h.write_u8(1),
            OpResult::Fetched { old } => {
                h.write_u8(2);
                h.write_u64(old);
            }
            OpResult::CasDone { success, observed } => {
                h.write_u8(3);
                h.write_u8(success as u8);
                h.write_u64(observed);
            }
            OpResult::ScDone { success } => {
                h.write_u8(4);
                h.write_u8(success as u8);
            }
        }
    }
}

/// Per-line configuration of a synchronization variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncConfig {
    /// Coherence policy for the line.
    pub policy: SyncPolicy,
    /// Which INV compare-and-swap variant to use.
    pub cas_variant: CasVariant,
    /// How memory-side LL/SC reservations are kept.
    pub llsc: LlscScheme,
    /// Home-node atomics (ARM-LSE / NIC-side style, the modern fourth
    /// implementation point): fetch-and-Φ and compare-and-swap on this
    /// line execute at the home memory *without migrating the line*,
    /// even under the [`SyncPolicy::Inv`] policy. Loads, stores and
    /// LL/SC keep their normal INV handling; the flag is meaningless
    /// (and ignored) under UNC/UPD, whose atomics already execute at
    /// the memory. Default `false` — the paper's 1995 machine.
    pub home_atomics: bool,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            policy: SyncPolicy::Inv,
            cas_variant: CasVariant::Plain,
            llsc: LlscScheme::BitVector,
            home_atomics: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_ops_apply_correctly() {
        assert_eq!(PhiOp::Add(3).apply(4), 7);
        assert_eq!(PhiOp::Add(1).apply(u64::MAX), 0, "wrapping add");
        assert_eq!(PhiOp::Store(9).apply(4), 9);
        assert_eq!(PhiOp::Or(0b100).apply(0b001), 0b101);
        assert_eq!(PhiOp::TestAndSet.apply(0), 1);
        assert_eq!(PhiOp::TestAndSet.apply(1), 1);
        assert_eq!(PhiOp::And(0b110).apply(0b011), 0b010);
    }

    #[test]
    fn memop_apply_table() {
        let a = Addr::new(64);
        let loaded = |value| OpResult::Loaded {
            value,
            serial: None,
            reserved: false,
        };
        let cas = |expected, new| MemOp::Cas {
            addr: a,
            expected,
            new,
        };
        let done = |success, observed| OpResult::CasDone { success, observed };
        let table: [(MemOp, Value, (OpResult, Option<Value>)); 9] = [
            (MemOp::Load { addr: a }, 7, (loaded(7), None)),
            (MemOp::DropCopy { addr: a }, 7, (OpResult::Stored, None)),
            (MemOp::LoadExclusive { addr: a }, 7, (loaded(7), None)),
            (
                MemOp::Store { addr: a, value: 9 },
                7,
                (OpResult::Stored, Some(9)),
            ),
            (
                MemOp::FetchPhi {
                    addr: a,
                    op: PhiOp::Add(3),
                },
                7,
                (OpResult::Fetched { old: 7 }, Some(10)),
            ),
            (
                MemOp::FetchPhi {
                    addr: a,
                    op: PhiOp::Add(1),
                },
                u64::MAX,
                (OpResult::Fetched { old: u64::MAX }, Some(0)),
            ),
            (
                MemOp::FetchPhi {
                    addr: a,
                    op: PhiOp::TestAndSet,
                },
                0,
                (OpResult::Fetched { old: 0 }, Some(1)),
            ),
            (cas(7, 8), 7, (done(true, 7), Some(8))),
            (cas(6, 8), 7, (done(false, 7), None)),
        ];
        for (op, word, want) in table {
            assert_eq!(op.apply(word), want, "{op:?} on {word}");
        }
    }

    #[test]
    #[should_panic(expected = "LoadLinked has no reservation-free effect")]
    fn memop_apply_refuses_reservation_ops() {
        MemOp::LoadLinked {
            addr: Addr::new(64),
        }
        .apply(0);
    }

    #[test]
    fn memop_classification() {
        let a = Addr::new(64);
        assert!(MemOp::Store { addr: a, value: 1 }.is_write());
        assert!(MemOp::Cas {
            addr: a,
            expected: 0,
            new: 1
        }
        .is_write());
        assert!(!MemOp::Load { addr: a }.is_write());
        assert!(!MemOp::LoadLinked { addr: a }.is_write());
        assert!(MemOp::LoadLinked { addr: a }.is_atomic());
        assert!(!MemOp::LoadExclusive { addr: a }.is_atomic());
        assert_eq!(MemOp::DropCopy { addr: a }.addr(), a);
    }

    #[test]
    fn op_result_accessors() {
        assert_eq!(
            OpResult::Loaded {
                value: 5,
                serial: None,
                reserved: true
            }
            .value(),
            Some(5)
        );
        assert_eq!(OpResult::Fetched { old: 7 }.value(), Some(7));
        assert_eq!(
            OpResult::CasDone {
                success: false,
                observed: 3
            }
            .value(),
            Some(3)
        );
        assert_eq!(OpResult::Stored.value(), None);
        assert!(!OpResult::ScDone { success: false }.succeeded());
        assert!(OpResult::Stored.succeeded());
    }

    #[test]
    fn labels() {
        assert_eq!(SyncPolicy::Inv.label(), "INV");
        assert_eq!(format!("{}", SyncPolicy::Unc), "UNC");
        assert_eq!(CasVariant::Deny.label(), "INVd");
        assert_eq!(CasVariant::Share.label(), "INVs");
    }

    #[test]
    fn default_sync_config_is_paper_recommendation_policy() {
        let c = SyncConfig::default();
        assert_eq!(c.policy, SyncPolicy::Inv);
        assert_eq!(c.cas_variant, CasVariant::Plain);
    }
}
