//! The protocol's coherence rules, in one place.
//!
//! One per-line rule set serves two entry points:
//!
//! * [`check_line`] runs after *every* protocol transition in paranoid
//!   mode. The protocol legally passes through transient states (an
//!   upgraded owner may coexist with stale sharers until their
//!   invalidation acknowledgments drain), so it checks only what holds
//!   in every state:
//!   * **single writer** — at most one cache holds the line `Exclusive`;
//!   * **directory agreement** — a cache that holds the line `Exclusive`
//!     is the directory's `Dirty` owner, or the requester of the
//!     intervention in flight on that line;
//!   * **reservation residency** — a cache-side LL reservation implies
//!     the reserved line is resident in that cache;
//!   * **UNC discipline** — lines configured `Unc` are never cached;
//!   * **UPD discipline** — lines configured `Upd` are never `Exclusive`
//!     in any cache (write-update keeps memory the owner);
//!   * **MSHR sanity** — an in-flight operation that has seen its
//!     primary reply never collects more acknowledgments than it asked
//!     for;
//!   * **linked-list pool accounting** at the line's home — the
//!     reservation free-pool counter equals the total length of the
//!     per-line reservation lists and never exceeds capacity.
//! * [`check_quiescent`] runs once nothing is in flight: at the end of a
//!   paranoid run, and behind `Machine::validate_coherence`. It visits
//!   every line that is cached, in a directory, reserved or pending, and
//!   adds to the per-line rules the ones that hold only at rest:
//!   * **exact directory agreement** — `Dirty(o)` means `o` alone holds
//!     the line, `Exclusive`; `Shared(s)` means every holder is in `s`
//!     (stale sharers are legal: shared copies are dropped silently) and
//!     none is `Exclusive`; `Uncached` means no holder;
//!   * **shared-copy values** — unless the directory says `Dirty`,
//!     every shared copy's words equal memory;
//!   * **message conservation** — no busy line, no queued waiter and no
//!     outstanding MSHR;
//!   * linked-list pool accounting once per home.
//!
//! Each violation carries the offending block address and node set, so a
//! failed check pins the bug to a specific line and cache.

use crate::addrmap::AddressMap;
use crate::cache::CacheState;
use crate::cachectl::CacheNode;
use crate::directory::{DirEntry, DirState};
use crate::home::HomeNode;
use crate::types::SyncPolicy;
use dsm_sim::{LineAddr, NodeId};
use std::collections::HashMap;
use std::fmt;

/// One broken invariant, located as precisely as possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Name of the invariant that failed (stable, test-matchable).
    pub invariant: &'static str,
    /// The block address involved, if the violation concerns one.
    pub line: Option<LineAddr>,
    /// The nodes involved (offending caches or homes), ascending.
    pub nodes: Vec<NodeId>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant violated: {}", self.invariant)?;
        if let Some(line) = self.line {
            write!(f, ", line {line}")?;
        }
        if !self.nodes.is_empty() {
            write!(f, ", nodes [")?;
            for (i, n) in self.nodes.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{n}")?;
            }
            write!(f, "]")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for InvariantViolation {}

/// What the caches (and, at quiescence, the directory) hold for one
/// line, gathered so the rules never walk the caches themselves.
#[derive(Default)]
struct LineView<'a> {
    /// Caches holding the line, ascending, with their state.
    holders: Vec<(NodeId, CacheState)>,
    /// Caches whose LL reservation names the line.
    reservers: Vec<NodeId>,
    /// Caches with an operation outstanding on the line.
    pending: Vec<NodeId>,
    /// The line's directory entry (quiescent check only).
    entry: Option<&'a DirEntry>,
}

/// Builds one violation record.
fn violation(
    invariant: &'static str,
    line: Option<LineAddr>,
    nodes: Vec<NodeId>,
    detail: String,
) -> InvariantViolation {
    InvariantViolation {
        invariant,
        line,
        nodes,
        detail,
    }
}

/// Checks the per-transition invariants that concern a single `line`,
/// plus the reservation-pool accounting of its home node. This is the
/// check paranoid mode runs after every protocol transition.
pub fn check_line(
    caches: &[CacheNode],
    homes: &[HomeNode],
    map: &AddressMap,
    line: LineAddr,
) -> Vec<InvariantViolation> {
    let mut view = LineView::default();
    for (idx, cache) in caches.iter().enumerate() {
        let node = NodeId::new(idx as u32);
        if let Some(state) = cache.cache_state(line) {
            view.holders.push((node, state));
        }
        if cache.reserved_line() == Some(line) {
            view.reservers.push(node);
        }
        if cache.pending_line() == Some(line) {
            view.pending.push(node);
        }
    }
    let mut out = Vec::new();
    line_rules(caches, homes, map, line, &view, &mut out);
    pool_rule(homes, line.home(homes.len() as u32), Some(line), &mut out);
    out
}

/// Checks every invariant of a quiescent machine: the per-line rules of
/// [`check_line`] plus the rules that hold only when nothing is in
/// flight (see the module docs), over every line that is cached, in a
/// directory, reserved or pending. Returns all violations (empty when
/// the state is coherent), sorted by line then invariant name, so the
/// order does not depend on hash-map iteration.
pub fn check_quiescent(
    caches: &[CacheNode],
    homes: &[HomeNode],
    map: &AddressMap,
) -> Vec<InvariantViolation> {
    // One pass over the caches and directories, bucketing per line.
    let mut lines: HashMap<LineAddr, LineView<'_>> = HashMap::new();
    for (idx, cache) in caches.iter().enumerate() {
        let node = NodeId::new(idx as u32);
        for (line, state) in cache.cached_lines() {
            lines.entry(line).or_default().holders.push((node, state));
        }
        if let Some(line) = cache.reserved_line() {
            lines.entry(line).or_default().reservers.push(node);
        }
        if let Some(line) = cache.pending_line() {
            lines.entry(line).or_default().pending.push(node);
        }
    }
    for home in homes {
        for (line, entry) in home.dir_lines() {
            lines.entry(line).or_default().entry = Some(entry);
        }
    }

    let mut out = Vec::new();
    for (&line, view) in &lines {
        line_rules(caches, homes, map, line, view, &mut out);
        quiescent_rules(caches, homes, map, line, view, &mut out);
    }
    for idx in 0..homes.len() {
        pool_rule(homes, NodeId::new(idx as u32), None, &mut out);
    }
    out.sort_by_key(|v| (v.line, v.invariant));
    out
}

/// The rules that hold after every transition.
fn line_rules(
    caches: &[CacheNode],
    homes: &[HomeNode],
    map: &AddressMap,
    line: LineAddr,
    view: &LineView<'_>,
    out: &mut Vec<InvariantViolation>,
) {
    let at = Some(line);
    for &node in &view.reservers {
        if !view.holders.iter().any(|&(n, _)| n == node) {
            out.push(violation(
                "reservation-residency",
                at,
                vec![node],
                "cache-side LL reservation on a non-resident line".to_string(),
            ));
        }
    }
    for &node in &view.pending {
        if let Some((true, got, needed)) = caches[node.index()].mshr_progress() {
            if got > needed {
                out.push(violation(
                    "mshr-ack-overflow",
                    at,
                    vec![node],
                    format!("outstanding op got {got} acks but needed only {needed}"),
                ));
            }
        }
    }

    let owners: Vec<NodeId> = view
        .holders
        .iter()
        .filter(|(_, s)| *s == CacheState::Exclusive)
        .map(|(n, _)| *n)
        .collect();
    if owners.len() > 1 {
        out.push(violation(
            "single-writer",
            at,
            owners.clone(),
            "more than one cache holds the line exclusively".to_string(),
        ));
    }
    let home = &homes[line.home(homes.len() as u32).index()];
    let dir = home.dir_state(line);
    for &owner in &owners {
        if dir.owner() != Some(owner) && home.busy_requester(line) != Some(owner) {
            out.push(violation(
                "directory-agreement",
                at,
                vec![owner],
                format!("cache holds the line exclusively; the directory says {dir:?}"),
            ));
        }
    }
    match map.config_for_line(line).policy {
        SyncPolicy::Unc if !view.holders.is_empty() => out.push(violation(
            "unc-never-cached",
            at,
            view.holders.iter().map(|(n, _)| *n).collect(),
            "a line configured UNC is resident in a cache".to_string(),
        )),
        SyncPolicy::Upd if !owners.is_empty() => out.push(violation(
            "upd-never-exclusive",
            at,
            owners,
            "a line configured UPD is held exclusively".to_string(),
        )),
        _ => {}
    }
}

/// The rules that hold only when nothing is in flight. Exclusive
/// holders the directory does not name are already reported by
/// [`line_rules`]; together the two give exact directory agreement.
fn quiescent_rules(
    caches: &[CacheNode],
    homes: &[HomeNode],
    map: &AddressMap,
    line: LineAddr,
    view: &LineView<'_>,
    out: &mut Vec<InvariantViolation>,
) {
    let at = Some(line);
    let home_node = line.home(homes.len() as u32);
    let home = &homes[home_node.index()];
    let dir = home.dir_state(line);
    if let DirState::Dirty(owner) = dir {
        if !view.holders.contains(&(*owner, CacheState::Exclusive)) {
            out.push(violation(
                "directory-agreement",
                at,
                vec![*owner],
                "the directory says Dirty but the owner does not hold the line exclusively"
                    .to_string(),
            ));
        }
    }
    for &(node, state) in &view.holders {
        if state != CacheState::Shared {
            continue;
        }
        if !dir.sharers().is_some_and(|s| s.contains(node)) {
            out.push(violation(
                "directory-agreement",
                at,
                vec![node],
                format!("cache holds a shared copy; the directory says {dir:?}"),
            ));
        }
        if dir.owner().is_some() {
            continue; // memory is stale under an owner
        }
        let base = line.base(map.line_size());
        let cache = &caches[node.index()];
        if let Some(w) = (0..map.line_size() / 8).find(|w| {
            let addr = base + w * 8;
            cache.peek_word(addr) != Some(home.peek_word(addr))
        }) {
            out.push(violation(
                "shared-copy-value",
                at,
                vec![node],
                format!("word {w} of the shared copy differs from memory"),
            ));
        }
    }

    if let Some(entry) = view.entry {
        if entry.is_busy() || !entry.waiters.is_empty() {
            out.push(violation(
                "message-conservation",
                at,
                vec![home_node],
                format!(
                    "home still busy at quiescence (busy: {}, {} queued requests)",
                    entry.is_busy(),
                    entry.waiters.len()
                ),
            ));
        }
    }
    for &node in &view.pending {
        out.push(violation(
            "message-conservation",
            at,
            vec![node],
            "cache still has an outstanding request at quiescence".to_string(),
        ));
    }
}

/// Linked-list reservation pool accounting at home `node`.
fn pool_rule(
    homes: &[HomeNode],
    node: NodeId,
    line: Option<LineAddr>,
    out: &mut Vec<InvariantViolation>,
) {
    let resv = homes[node.index()].reservations();
    let (used, entries, capacity) = (resv.pool_used(), resv.pool_entries(), resv.pool_capacity());
    if entries != used || used > capacity {
        out.push(violation(
            "linked-pool-accounting",
            line,
            vec![node],
            format!("pool counter {used} vs {entries} list entries (capacity {capacity})"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home::Outbox;
    use crate::types::{MemOp, SyncConfig};
    use dsm_sim::{Addr, CacheParams};

    const NODES: u32 = 4;
    const A: Addr = Addr::new(0x40); // line 2, homed at node 2

    struct World {
        caches: Vec<CacheNode>,
        homes: Vec<HomeNode>,
        map: AddressMap,
    }

    impl World {
        fn new() -> World {
            let caches = (0..NODES)
                .map(|n| {
                    let mut c = CacheNode::new(NodeId::new(n), 32, CacheParams::default());
                    c.set_nodes(NODES);
                    c
                })
                .collect();
            let homes = (0..NODES)
                .map(|n| HomeNode::new(NodeId::new(n), 32, 64))
                .collect();
            World {
                caches,
                homes,
                map: AddressMap::new(32),
            }
        }

        /// Starts `op` at cache `node` and delivers its request to the
        /// home; returns the home's reply, undelivered.
        fn request(&mut self, node: usize, op: MemOp) -> crate::msg::Msg {
            let mut out = Outbox::new();
            let done = self.caches[node].start_op(op, &self.map, &mut out);
            assert!(done.unwrap().is_none(), "{op:?} must miss");
            let req = out.drain().remove(0);
            self.homes[req.dst.index()]
                .handle(req, &self.map, &mut out)
                .unwrap();
            out.drain().remove(0)
        }

        /// Fills line A Shared at cache `node` through its home, so the
        /// directory records the sharer.
        fn fill_shared(&mut self, node: usize) {
            let reply = self.request(node, MemOp::Load { addr: A });
            let mut out = Outbox::new();
            self.caches[node].handle(reply, &mut out).unwrap();
            assert!(out.drain().is_empty());
        }

        fn quiescent(&self) -> Vec<(&'static str, Option<LineAddr>, Vec<u32>)> {
            check_quiescent(&self.caches, &self.homes, &self.map)
                .into_iter()
                .map(|v| {
                    let nodes = v.nodes.iter().map(|n| n.as_u32()).collect();
                    (v.invariant, v.line, nodes)
                })
                .collect()
        }
    }

    fn line() -> Option<LineAddr> {
        Some(A.line(32))
    }

    #[test]
    fn healthy_state_has_no_violations() {
        let mut w = World::new();
        w.fill_shared(1);
        w.fill_shared(3);
        assert!(w.quiescent().is_empty());
        assert!(check_line(&w.caches, &w.homes, &w.map, A.line(32)).is_empty());
    }

    #[test]
    fn corruption_hook_trips_single_writer() {
        let mut w = World::new();
        w.fill_shared(1);
        w.fill_shared(3);
        assert!(w.caches[1].corrupt_promote_shared(A.line(32)));
        assert!(w.caches[3].corrupt_promote_shared(A.line(32)));
        assert_eq!(
            w.quiescent(),
            vec![
                ("directory-agreement", line(), vec![1]),
                ("directory-agreement", line(), vec![3]),
                ("single-writer", line(), vec![1, 3]),
            ]
        );
    }

    #[test]
    fn unc_line_in_cache_is_flagged() {
        let mut w = World::new();
        w.fill_shared(1);
        // Reconfigure the line as UNC after the fact: the resident copy
        // is now illegal.
        w.map.register(
            A,
            SyncConfig {
                policy: SyncPolicy::Unc,
                ..Default::default()
            },
        );
        assert_eq!(w.quiescent(), vec![("unc-never-cached", line(), vec![1])]);
    }

    #[test]
    fn upd_exclusive_is_flagged() {
        let mut w = World::new();
        w.fill_shared(1);
        w.map.register(
            A,
            SyncConfig {
                policy: SyncPolicy::Upd,
                ..Default::default()
            },
        );
        assert!(w.quiescent().is_empty());
        assert!(w.caches[1].corrupt_promote_shared(A.line(32)));
        assert_eq!(
            w.quiescent(),
            vec![
                ("directory-agreement", line(), vec![1]),
                ("upd-never-exclusive", line(), vec![1]),
            ]
        );
    }

    /// The home records `Dirty(1)` but the `DataX` never reaches cache 1:
    /// no cache holds the line, so only a check that visits directory
    /// lines sees the owner the directory names.
    #[test]
    fn dirty_line_no_cache_holds_is_flagged() {
        let mut w = World::new();
        let reply = w.request(1, MemOp::Store { addr: A, value: 7 });
        assert!(matches!(reply.kind, crate::msg::MsgKind::DataX { .. }));
        assert_eq!(
            w.homes[2].dir_state(A.line(32)),
            &DirState::Dirty(NodeId::new(1))
        );
        assert_eq!(
            w.quiescent(),
            vec![
                ("directory-agreement", line(), vec![1]),
                ("message-conservation", line(), vec![1]),
            ]
        );
    }

    /// An exclusive copy is evicted and its write-back lost: nothing is
    /// in flight, yet the directory still names an owner.
    #[test]
    fn lost_write_back_is_flagged() {
        let mut w = World::new();
        let reply = w.request(1, MemOp::Store { addr: A, value: 7 });
        let mut out = Outbox::new();
        w.caches[1].handle(reply, &mut out).unwrap().unwrap();
        assert!(w.quiescent().is_empty());
        assert_eq!(w.caches[1].inject_evict(&mut out), Some(A.line(32)));
        drop(out.drain()); // the write-back is lost
        assert_eq!(
            w.quiescent(),
            vec![("directory-agreement", line(), vec![1])]
        );
    }

    #[test]
    fn stale_shared_copy_is_flagged() {
        let mut w = World::new();
        w.fill_shared(1);
        w.homes[2].poke_word(A + 8, 5);
        assert_eq!(w.quiescent(), vec![("shared-copy-value", line(), vec![1])]);
    }

    #[test]
    fn display_names_line_and_nodes() {
        let v = InvariantViolation {
            invariant: "single-writer",
            line: Some(LineAddr::new(7)),
            nodes: vec![NodeId::new(2), NodeId::new(5)],
            detail: "two owners".to_string(),
        };
        let s = v.to_string();
        assert!(s.contains("single-writer"), "{s}");
        assert!(s.contains("line L0x7"), "{s}");
        assert!(s.contains("n2") && s.contains("n5"), "{s}");
    }
}
