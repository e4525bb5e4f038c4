//! LL/SC reservation bookkeeping.
//!
//! For cache-based (INV) implementations each processor has a single
//! reservation bit and address register ([`CacheReservation`]), as on
//! the MIPS R4000. For memory-based (UNC/UPD) implementations, §3.1 of
//! the paper offers four schemes for keeping per-location reservations
//! at the home node; [`ReservationStore`] implements all of them:
//!
//! * a **bit vector** per line (one bit per processor);
//! * a **linked list** of reserving processors drawn from a bounded free
//!   pool maintained by the protocol;
//! * a **limited** count of reservations (beyond-limit `load_linked`s
//!   return a failure indicator so their `store_conditional`s can fail
//!   locally without network traffic);
//! * a **serial number** per line, incremented by every write;
//!   `store_conditional` carries the expected serial number, which also
//!   enables *bare* SC without a preceding LL.

use crate::error::{ProtocolError, ProtocolErrorKind};
use crate::types::LlscScheme;
use dsm_sim::StableHashMap;
use dsm_sim::{LineAddr, ProcId};

/// The error every reservation operation returns when a line's records
/// are found under a different scheme than the request assumes.
fn scheme_mismatch(line: LineAddr) -> ProtocolError {
    ProtocolError::new(
        ProtocolErrorKind::SchemeMismatch,
        "line switched reservation schemes",
    )
    .on_line(line)
}

/// The single cache-side reservation of one processor (INV policy).
///
/// # Example
///
/// ```
/// use dsm_protocol::CacheReservation;
/// use dsm_sim::LineAddr;
///
/// let mut r = CacheReservation::default();
/// r.set(LineAddr::new(4));
/// assert!(r.valid_for(LineAddr::new(4)));
/// r.invalidate_line(LineAddr::new(4)); // e.g. an invalidation arrived
/// assert!(!r.valid_for(LineAddr::new(4)));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheReservation {
    line: Option<LineAddr>,
}

impl CacheReservation {
    /// Places a reservation on `line` (displacing any previous one —
    /// processors have one reservation register).
    pub fn set(&mut self, line: LineAddr) {
        self.line = Some(line);
    }

    /// `true` if a valid reservation for `line` is held.
    pub fn valid_for(&self, line: LineAddr) -> bool {
        self.line == Some(line)
    }

    /// Clears the reservation unconditionally (context switch, SC).
    pub fn clear(&mut self) {
        self.line = None;
    }

    /// Clears the reservation if it names `line` (invalidation,
    /// eviction, `drop_copy`, loss of ownership).
    pub fn invalidate_line(&mut self, line: LineAddr) {
        if self.line == Some(line) {
            self.line = None;
        }
    }

    /// The line currently reserved, if any (for the invariant checker).
    pub fn line(&self) -> Option<LineAddr> {
        self.line
    }

    /// Folds the reservation register into a state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        match self.line {
            Some(l) => {
                h.write_u8(1);
                h.write_u64(l.number());
            }
            None => h.write_u8(0),
        }
    }
}

/// Result of a memory-side `load_linked`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlGrant {
    /// Serial number returned to the processor (serial-number scheme).
    pub serial: Option<u64>,
    /// Whether a reservation was actually recorded. Beyond-limit LLs
    /// under [`LlscScheme::Limited`] (or a full free pool under
    /// [`LlscScheme::LinkedList`]) return `false`, so the corresponding
    /// SC can fail locally without network traffic.
    pub reserved: bool,
}

#[derive(Debug, Clone)]
enum LineResv {
    BitVector(crate::nodeset::NodeSet),
    /// Indices into the shared free pool would be the hardware reality;
    /// we model the list as the ordered vector of processors plus the
    /// pool accounting in the store.
    LinkedList(Vec<ProcId>),
    Limited(Vec<ProcId>),
    Serial(u64),
}

/// Memory-side reservations for all lines homed at one node.
///
/// # Example
///
/// ```
/// use dsm_protocol::{LlscScheme, ReservationStore};
/// use dsm_sim::{LineAddr, ProcId};
///
/// let mut store = ReservationStore::new(64);
/// let line = LineAddr::new(7);
/// let g = store.load_linked(line, ProcId::new(3), LlscScheme::BitVector).unwrap();
/// assert!(g.reserved);
/// assert!(store.check_sc(line, ProcId::new(3), None, LlscScheme::BitVector).unwrap());
/// // The successful SC cleared every reservation on the line.
/// assert!(!store.check_sc(line, ProcId::new(3), None, LlscScheme::BitVector).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct ReservationStore {
    lines: StableHashMap<LineAddr, LineResv>,
    /// Free-pool capacity for the linked-list scheme (total list nodes
    /// available across all lines homed here).
    pool_capacity: usize,
    pool_used: usize,
}

impl ReservationStore {
    /// Creates a store with a linked-list free pool of `pool_capacity`
    /// entries.
    pub fn new(pool_capacity: usize) -> Self {
        ReservationStore {
            lines: StableHashMap::default(),
            pool_capacity,
            pool_used: 0,
        }
    }

    /// Records a `load_linked` by `proc` on `line` under `scheme` and
    /// returns what the reply should carry.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolErrorKind::SchemeMismatch`] if the line already
    /// holds reservations under a different scheme.
    pub fn load_linked(
        &mut self,
        line: LineAddr,
        proc: ProcId,
        scheme: LlscScheme,
    ) -> Result<LlGrant, ProtocolError> {
        match scheme {
            LlscScheme::BitVector => {
                let e = self
                    .lines
                    .entry(line)
                    .or_insert_with(|| LineResv::BitVector(crate::nodeset::NodeSet::new()));
                let LineResv::BitVector(set) = e else {
                    return Err(scheme_mismatch(line));
                };
                set.insert(dsm_sim::NodeId::new(proc.as_u32()));
                Ok(LlGrant {
                    serial: None,
                    reserved: true,
                })
            }
            LlscScheme::LinkedList => {
                let e = self
                    .lines
                    .entry(line)
                    .or_insert_with(|| LineResv::LinkedList(Vec::new()));
                let LineResv::LinkedList(list) = e else {
                    return Err(scheme_mismatch(line));
                };
                if list.contains(&proc) {
                    return Ok(LlGrant {
                        serial: None,
                        reserved: true,
                    });
                }
                if self.pool_used >= self.pool_capacity {
                    // Free pool exhausted: the reservation is dropped and
                    // the LL reply says so.
                    return Ok(LlGrant {
                        serial: None,
                        reserved: false,
                    });
                }
                self.pool_used += 1;
                list.push(proc);
                Ok(LlGrant {
                    serial: None,
                    reserved: true,
                })
            }
            LlscScheme::Limited(k) => {
                let e = self
                    .lines
                    .entry(line)
                    .or_insert_with(|| LineResv::Limited(Vec::new()));
                let LineResv::Limited(list) = e else {
                    return Err(scheme_mismatch(line));
                };
                if list.contains(&proc) {
                    return Ok(LlGrant {
                        serial: None,
                        reserved: true,
                    });
                }
                if list.len() >= k as usize {
                    return Ok(LlGrant {
                        serial: None,
                        reserved: false,
                    });
                }
                list.push(proc);
                Ok(LlGrant {
                    serial: None,
                    reserved: true,
                })
            }
            LlscScheme::SerialNumber => {
                let e = self.lines.entry(line).or_insert(LineResv::Serial(0));
                let LineResv::Serial(s) = e else {
                    return Err(scheme_mismatch(line));
                };
                Ok(LlGrant {
                    serial: Some(*s),
                    reserved: true,
                })
            }
        }
    }

    /// Checks (and on success consumes) the reservation for a
    /// `store_conditional` by `proc`. `serial` carries the expected
    /// serial number under [`LlscScheme::SerialNumber`].
    ///
    /// A successful SC also clears all other reservations on the line
    /// (it is a write); the caller needs no separate
    /// [`on_write`](Self::on_write).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolErrorKind::SchemeMismatch`] if the line's
    /// records are held under a different scheme.
    pub fn check_sc(
        &mut self,
        line: LineAddr,
        proc: ProcId,
        serial: Option<u64>,
        scheme: LlscScheme,
    ) -> Result<bool, ProtocolError> {
        match scheme {
            LlscScheme::BitVector => {
                let ok = matches!(
                    self.lines.get(&line),
                    Some(LineResv::BitVector(set)) if set.contains(dsm_sim::NodeId::new(proc.as_u32()))
                );
                if ok {
                    self.on_write(line, scheme);
                }
                Ok(ok)
            }
            LlscScheme::LinkedList => {
                let ok = matches!(
                    self.lines.get(&line),
                    Some(LineResv::LinkedList(list)) if list.contains(&proc)
                );
                if ok {
                    self.on_write(line, scheme);
                }
                Ok(ok)
            }
            LlscScheme::Limited(_) => {
                let ok = matches!(
                    self.lines.get(&line),
                    Some(LineResv::Limited(list)) if list.contains(&proc)
                );
                if ok {
                    self.on_write(line, scheme);
                }
                Ok(ok)
            }
            LlscScheme::SerialNumber => {
                let current = match self.lines.get(&line) {
                    Some(LineResv::Serial(s)) => *s,
                    None => 0,
                    Some(_) => return Err(scheme_mismatch(line)),
                };
                let ok = serial == Some(current);
                if ok {
                    self.on_write(line, scheme);
                }
                Ok(ok)
            }
        }
    }

    /// Records an ordinary write to `line`: clears reservations (bumping
    /// the serial number under the serial-number scheme).
    pub fn on_write(&mut self, line: LineAddr, scheme: LlscScheme) {
        match scheme {
            LlscScheme::SerialNumber => {
                let e = self.lines.entry(line).or_insert(LineResv::Serial(0));
                if let LineResv::Serial(s) = e {
                    *s = s.wrapping_add(1);
                }
            }
            LlscScheme::LinkedList => {
                if let Some(LineResv::LinkedList(list)) = self.lines.get_mut(&line) {
                    self.pool_used -= list.len();
                    list.clear();
                }
            }
            _ => {
                if let Some(r) = self.lines.get_mut(&line) {
                    match r {
                        LineResv::BitVector(set) => set.clear(),
                        LineResv::Limited(list) => list.clear(),
                        _ => {}
                    }
                }
            }
        }
    }

    /// Current serial number of `line` (serial-number scheme), for bare
    /// store-conditionals issued without a preceding LL.
    pub fn serial(&self, line: LineAddr) -> u64 {
        match self.lines.get(&line) {
            Some(LineResv::Serial(s)) => *s,
            _ => 0,
        }
    }

    /// Linked-list pool entries currently in use (for tests/metrics).
    pub fn pool_used(&self) -> usize {
        self.pool_used
    }

    /// Capacity of the linked-list free pool.
    pub fn pool_capacity(&self) -> usize {
        self.pool_capacity
    }

    /// Linked-list entries actually recorded across all lines — must
    /// always equal [`pool_used`](Self::pool_used); the invariant
    /// checker verifies the accounting.
    pub fn pool_entries(&self) -> usize {
        self.lines
            .values()
            .map(|r| match r {
                LineResv::LinkedList(list) => list.len(),
                _ => 0,
            })
            .sum()
    }

    /// Folds the store (pool accounting plus every line's records, in
    /// sorted line order) into a state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        h.write_usize(self.pool_capacity);
        h.write_usize(self.pool_used);
        let mut lines: Vec<(&LineAddr, &LineResv)> = self.lines.iter().collect();
        lines.sort_unstable_by_key(|(l, _)| l.number());
        h.write_usize(lines.len());
        for (l, r) in lines {
            h.write_u64(l.number());
            match r {
                LineResv::BitVector(set) => {
                    h.write_u8(0);
                    set.digest(h);
                }
                LineResv::LinkedList(list) => {
                    h.write_u8(1);
                    h.write_usize(list.len());
                    for p in list {
                        h.write_u32(p.as_u32());
                    }
                }
                LineResv::Limited(list) => {
                    h.write_u8(2);
                    h.write_usize(list.len());
                    for p in list {
                        h.write_u32(p.as_u32());
                    }
                }
                LineResv::Serial(s) => {
                    h.write_u8(3);
                    h.write_u64(*s);
                }
            }
        }
    }

    /// Forcibly invalidates every reservation held at this node — the
    /// fault injector's "reservation storm". Bit-vector and list schemes
    /// drop all reserving processors (releasing linked-list pool
    /// entries); the serial-number scheme bumps every line's serial so
    /// outstanding serials go stale. Protocol-legal: LL/SC only promises
    /// an SC *may* succeed, so spurious reservation loss is allowed.
    pub fn invalidate_all(&mut self) {
        for resv in self.lines.values_mut() {
            match resv {
                LineResv::BitVector(set) => set.clear(),
                LineResv::LinkedList(list) => {
                    self.pool_used -= list.len();
                    list.clear();
                }
                LineResv::Limited(list) => list.clear(),
                LineResv::Serial(s) => *s = s.wrapping_add(1),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LineAddr = LineAddr::new(3);
    const P0: ProcId = ProcId::new(0);
    const P1: ProcId = ProcId::new(1);
    const P2: ProcId = ProcId::new(2);

    #[test]
    fn cache_reservation_lifecycle() {
        let mut r = CacheReservation::default();
        assert!(!r.valid_for(L));
        r.set(L);
        assert!(r.valid_for(L));
        // A new LL displaces the old reservation.
        r.set(LineAddr::new(9));
        assert!(!r.valid_for(L));
        assert!(r.valid_for(LineAddr::new(9)));
        r.invalidate_line(L); // unrelated line: no effect
        assert!(r.valid_for(LineAddr::new(9)));
        r.clear();
        assert!(!r.valid_for(LineAddr::new(9)));
    }

    #[test]
    fn bitvector_basic_ll_sc() {
        let mut s = ReservationStore::new(0);
        assert!(
            s.load_linked(L, P0, LlscScheme::BitVector)
                .unwrap()
                .reserved
        );
        assert!(
            s.load_linked(L, P1, LlscScheme::BitVector)
                .unwrap()
                .reserved
        );
        // P0's SC succeeds and clears P1's reservation too.
        assert!(s.check_sc(L, P0, None, LlscScheme::BitVector).unwrap());
        assert!(!s.check_sc(L, P1, None, LlscScheme::BitVector).unwrap());
    }

    #[test]
    fn bitvector_cleared_by_ordinary_write() {
        let mut s = ReservationStore::new(0);
        s.load_linked(L, P0, LlscScheme::BitVector).unwrap();
        s.on_write(L, LlscScheme::BitVector);
        assert!(!s.check_sc(L, P0, None, LlscScheme::BitVector).unwrap());
    }

    #[test]
    fn sc_without_ll_fails() {
        let mut s = ReservationStore::new(0);
        assert!(!s.check_sc(L, P0, None, LlscScheme::BitVector).unwrap());
        assert!(!s.check_sc(L, P0, None, LlscScheme::Limited(4)).unwrap());
    }

    #[test]
    fn limited_scheme_caps_reservations() {
        let mut s = ReservationStore::new(0);
        assert!(
            s.load_linked(L, P0, LlscScheme::Limited(2))
                .unwrap()
                .reserved
        );
        assert!(
            s.load_linked(L, P1, LlscScheme::Limited(2))
                .unwrap()
                .reserved
        );
        // Third processor is beyond the limit.
        let g = s
            .load_linked(L, P2, LlscScheme::Limited(2))
            .unwrap()
            .reserved;
        assert!(!g, "beyond-limit LL must report failure");
        // Re-LL by an already reserved processor is fine.
        assert!(
            s.load_linked(L, P0, LlscScheme::Limited(2))
                .unwrap()
                .reserved
        );
        assert!(s.check_sc(L, P1, None, LlscScheme::Limited(2)).unwrap());
        // The successful SC cleared the rest.
        assert!(!s.check_sc(L, P0, None, LlscScheme::Limited(2)).unwrap());
    }

    #[test]
    fn linked_list_pool_exhaustion() {
        let mut s = ReservationStore::new(2);
        assert!(
            s.load_linked(L, P0, LlscScheme::LinkedList)
                .unwrap()
                .reserved
        );
        assert!(
            s.load_linked(LineAddr::new(4), P1, LlscScheme::LinkedList)
                .unwrap()
                .reserved
        );
        assert_eq!(s.pool_used(), 2);
        // Pool is exhausted; the next LL fails to reserve.
        assert!(
            !s.load_linked(L, P2, LlscScheme::LinkedList)
                .unwrap()
                .reserved
        );
        // A write releases line L's entries back to the pool.
        s.on_write(L, LlscScheme::LinkedList);
        assert_eq!(s.pool_used(), 1);
        assert!(
            s.load_linked(L, P2, LlscScheme::LinkedList)
                .unwrap()
                .reserved
        );
    }

    #[test]
    fn serial_numbers_advance_on_writes() {
        let mut s = ReservationStore::new(0);
        let g = s.load_linked(L, P0, LlscScheme::SerialNumber).unwrap();
        assert_eq!(g.serial, Some(0));
        assert!(g.reserved);
        // SC with the right serial succeeds and bumps the serial.
        assert!(s
            .check_sc(L, P0, Some(0), LlscScheme::SerialNumber)
            .unwrap());
        assert_eq!(s.serial(L), 1);
        // Stale serial now fails.
        assert!(!s
            .check_sc(L, P0, Some(0), LlscScheme::SerialNumber)
            .unwrap());
        // Bare SC by a different processor with the current serial works.
        assert!(s
            .check_sc(L, P1, Some(1), LlscScheme::SerialNumber)
            .unwrap());
        assert_eq!(s.serial(L), 2);
    }

    #[test]
    fn serial_scheme_detects_aba() {
        // The value can return to its original, but the serial number
        // cannot: this is the paper's fix for the pointer/ABA problem.
        let mut s = ReservationStore::new(0);
        let g = s.load_linked(L, P0, LlscScheme::SerialNumber).unwrap();
        // Two intervening writes restore the "same value" in memory.
        s.on_write(L, LlscScheme::SerialNumber);
        s.on_write(L, LlscScheme::SerialNumber);
        assert!(!s
            .check_sc(L, P0, g.serial, LlscScheme::SerialNumber)
            .unwrap());
    }

    #[test]
    fn serial_none_fails() {
        let mut s = ReservationStore::new(0);
        s.load_linked(L, P0, LlscScheme::SerialNumber).unwrap();
        assert!(!s.check_sc(L, P0, None, LlscScheme::SerialNumber).unwrap());
    }

    #[test]
    fn lines_are_independent() {
        let mut s = ReservationStore::new(16);
        s.load_linked(L, P0, LlscScheme::BitVector).unwrap();
        s.load_linked(LineAddr::new(8), P0, LlscScheme::BitVector)
            .unwrap();
        s.on_write(L, LlscScheme::BitVector);
        assert!(!s.check_sc(L, P0, None, LlscScheme::BitVector).unwrap());
        assert!(s
            .check_sc(LineAddr::new(8), P0, None, LlscScheme::BitVector)
            .unwrap());
    }
}
