//! The paranoid-mode protocol invariant checker.
//!
//! [`check_invariants`] sweeps every cache and home node and reports all
//! violations of properties that must hold after *every* protocol
//! transition — not just at quiescence. The protocol legally passes
//! through transient states (an upgraded owner may coexist with stale
//! sharers until their invalidation acknowledgments drain), so the
//! per-transition set is deliberately weaker than the full coherence
//! oracle the machine runs at the end of a run:
//!
//! * **single writer** — at most one cache holds a line `Exclusive`;
//! * **directory agreement** ([`check_line`] only) — a cache that holds
//!   a line `Exclusive` is the directory's `Dirty` owner, or the
//!   requester of the intervention in flight on that line;
//! * **reservation residency** — a cache-side LL reservation implies the
//!   reserved line is resident in that cache;
//! * **UNC discipline** — lines configured `Unc` are never cached;
//! * **UPD discipline** — lines configured `Upd` are never `Exclusive`
//!   in any cache (write-update keeps memory the owner);
//! * **linked-list pool accounting** — at every home, the reservation
//!   free-pool counter equals the total length of the per-line
//!   reservation lists and never exceeds capacity;
//! * **MSHR sanity** — an in-flight operation that has seen its primary
//!   reply never collects more acknowledgments than it asked for.
//!
//! Each violation carries the offending block address and node set, so a
//! failed paranoid run pins the bug to a specific line and cache.

use crate::addrmap::AddressMap;
use crate::cache::CacheState;
use crate::cachectl::CacheNode;
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

/// Checks the per-transition invariants that concern a single `line`
/// (plus the reservation-pool accounting of its home node). This is the
/// cheap check paranoid mode runs after every protocol transition; the
/// full-machine [`check_invariants`] sweep runs at quiescence.
pub fn check_line(
    caches: &[CacheNode],
    homes: &[HomeNode],
    map: &AddressMap,
    line: LineAddr,
) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    let mut holders: Vec<(NodeId, CacheState)> = Vec::new();
    for (idx, cache) in caches.iter().enumerate() {
        let node = NodeId::new(idx as u32);
        if let Some(state) = cache.cache_state(line) {
            holders.push((node, state));
        }
        if cache.reserved_line() == Some(line) && cache.cache_state(line).is_none() {
            violations.push(InvariantViolation {
                invariant: "reservation-residency",
                line: Some(line),
                nodes: vec![node],
                detail: "cache-side LL reservation on a non-resident line".to_string(),
            });
        }
        if cache.pending_line() == Some(line) {
            if let Some((reply_seen, acks_got, acks_needed)) = cache.mshr_progress() {
                if reply_seen && acks_got > acks_needed {
                    violations.push(InvariantViolation {
                        invariant: "mshr-ack-overflow",
                        line: Some(line),
                        nodes: vec![node],
                        detail: format!(
                            "outstanding op got {acks_got} acks but needed only {acks_needed}"
                        ),
                    });
                }
            }
        }
    }

    let owners: Vec<NodeId> = holders
        .iter()
        .filter(|(_, s)| *s == CacheState::Exclusive)
        .map(|(n, _)| *n)
        .collect();
    if owners.len() > 1 {
        violations.push(InvariantViolation {
            invariant: "single-writer",
            line: Some(line),
            nodes: owners.clone(),
            detail: "more than one cache holds the line exclusively".to_string(),
        });
    }
    let home_node = line.home(homes.len() as u32);
    let home = &homes[home_node.index()];
    for &owner in &owners {
        let dir = home.dir_state(line);
        if dir.owner() != Some(owner) && home.busy_requester(line) != Some(owner) {
            violations.push(InvariantViolation {
                invariant: "directory-agreement",
                line: Some(line),
                nodes: vec![owner],
                detail: format!("cache holds the line exclusively; the directory says {dir:?}"),
            });
        }
    }
    match map.config_for_line(line).policy {
        SyncPolicy::Unc if !holders.is_empty() => {
            violations.push(InvariantViolation {
                invariant: "unc-never-cached",
                line: Some(line),
                nodes: holders.iter().map(|(n, _)| *n).collect(),
                detail: "a line configured UNC is resident in a cache".to_string(),
            });
        }
        SyncPolicy::Upd if !owners.is_empty() => {
            violations.push(InvariantViolation {
                invariant: "upd-never-exclusive",
                line: Some(line),
                nodes: owners,
                detail: "a line configured UPD is held exclusively".to_string(),
            });
        }
        _ => {}
    }

    let resv = home.reservations();
    let (used, entries, capacity) = (resv.pool_used(), resv.pool_entries(), resv.pool_capacity());
    if entries != used || used > capacity {
        violations.push(InvariantViolation {
            invariant: "linked-pool-accounting",
            line: Some(line),
            nodes: vec![home_node],
            detail: format!("pool counter {used} vs {entries} list entries (capacity {capacity})"),
        });
    }
    violations
}

/// Checks every per-transition invariant over the whole machine state,
/// returning all violations found (empty when the state is healthy).
/// Results are sorted by line then invariant name, so output order is
/// deterministic regardless of internal hash-map iteration order.
pub fn check_invariants(
    caches: &[CacheNode],
    homes: &[HomeNode],
    map: &AddressMap,
) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();

    // One pass over all caches, bucketing holders per line.
    let mut holders: HashMap<LineAddr, Vec<(NodeId, CacheState)>> = HashMap::new();
    for (idx, cache) in caches.iter().enumerate() {
        let node = NodeId::new(idx as u32);
        for (line, state) in cache.cached_lines() {
            holders.entry(line).or_default().push((node, state));
        }

        if let Some(line) = cache.reserved_line() {
            if cache.cache_state(line).is_none() {
                violations.push(InvariantViolation {
                    invariant: "reservation-residency",
                    line: Some(line),
                    nodes: vec![node],
                    detail: "cache-side LL reservation on a non-resident line".to_string(),
                });
            }
        }

        if let Some((reply_seen, acks_got, acks_needed)) = cache.mshr_progress() {
            if reply_seen && acks_got > acks_needed {
                violations.push(InvariantViolation {
                    invariant: "mshr-ack-overflow",
                    line: cache.pending_line(),
                    nodes: vec![node],
                    detail: format!(
                        "outstanding op got {acks_got} acks but needed only {acks_needed}"
                    ),
                });
            }
        }
    }

    for (&line, entry) in &holders {
        let owners: Vec<NodeId> = entry
            .iter()
            .filter(|(_, s)| *s == CacheState::Exclusive)
            .map(|(n, _)| *n)
            .collect();
        if owners.len() > 1 {
            let mut nodes = owners;
            nodes.sort_unstable_by_key(|n| n.as_u32());
            violations.push(InvariantViolation {
                invariant: "single-writer",
                line: Some(line),
                nodes,
                detail: "more than one cache holds the line exclusively".to_string(),
            });
        }
        match map.config_for_line(line).policy {
            SyncPolicy::Unc => {
                let mut nodes: Vec<NodeId> = entry.iter().map(|(n, _)| *n).collect();
                nodes.sort_unstable_by_key(|n| n.as_u32());
                violations.push(InvariantViolation {
                    invariant: "unc-never-cached",
                    line: Some(line),
                    nodes,
                    detail: "a line configured UNC is resident in a cache".to_string(),
                });
            }
            SyncPolicy::Upd => {
                let mut nodes: Vec<NodeId> = entry
                    .iter()
                    .filter(|(_, s)| *s == CacheState::Exclusive)
                    .map(|(n, _)| *n)
                    .collect();
                if !nodes.is_empty() {
                    nodes.sort_unstable_by_key(|n| n.as_u32());
                    violations.push(InvariantViolation {
                        invariant: "upd-never-exclusive",
                        line: Some(line),
                        nodes,
                        detail: "a line configured UPD is held exclusively".to_string(),
                    });
                }
            }
            SyncPolicy::Inv => {}
        }
    }

    for (idx, home) in homes.iter().enumerate() {
        let node = NodeId::new(idx as u32);
        let resv = home.reservations();
        let used = resv.pool_used();
        let entries = resv.pool_entries();
        let capacity = resv.pool_capacity();
        if entries != used || used > capacity {
            violations.push(InvariantViolation {
                invariant: "linked-pool-accounting",
                line: None,
                nodes: vec![node],
                detail: format!(
                    "pool counter {used} vs {entries} list entries (capacity {capacity})"
                ),
            });
        }
    }

    violations.sort_by(|a, b| {
        let ka = (a.line.map(LineAddr::number), a.invariant);
        let kb = (b.line.map(LineAddr::number), b.invariant);
        ka.cmp(&kb)
    });
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home::Outbox;
    use crate::types::{MemOp, SyncConfig};
    use dsm_sim::{Addr, CacheParams};

    const NODES: u32 = 4;
    const A: Addr = Addr::new(0x40); // line 2

    fn machine() -> (Vec<CacheNode>, Vec<HomeNode>, AddressMap) {
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
        (caches, homes, AddressMap::new(32))
    }

    fn fill_shared(c: &mut CacheNode, map: &AddressMap) {
        let mut out = Outbox::new();
        c.start_op(MemOp::Load { addr: A }, map, &mut out).unwrap();
        let home = out.drain().remove(0).dst;
        let reply = crate::msg::Msg {
            src: home,
            dst: NodeId::new(1),
            line: A.line(32),
            addr: A,
            proc: dsm_sim::ProcId::new(1),
            chain: 2,
            kind: crate::msg::MsgKind::DataS {
                data: crate::data::LineData::zeroed(32),
            },
        };
        c.handle(reply, &mut out).unwrap();
    }

    #[test]
    fn healthy_state_has_no_violations() {
        let (mut caches, homes, map) = machine();
        fill_shared(&mut caches[1], &map);
        assert!(check_invariants(&caches, &homes, &map).is_empty());
    }

    #[test]
    fn corruption_hook_trips_single_writer() {
        let (mut caches, homes, map) = machine();
        fill_shared(&mut caches[1], &map);
        fill_shared(&mut caches[3], &map);
        assert!(caches[1].corrupt_promote_shared(A.line(32)));
        assert!(caches[3].corrupt_promote_shared(A.line(32)));
        let v = check_invariants(&caches, &homes, &map);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "single-writer");
        assert_eq!(v[0].line, Some(A.line(32)));
        assert_eq!(v[0].nodes, vec![NodeId::new(1), NodeId::new(3)]);
    }

    #[test]
    fn unc_line_in_cache_is_flagged() {
        let (mut caches, homes, mut map) = machine();
        fill_shared(&mut caches[1], &map);
        // Reconfigure the line as UNC after the fact: the resident copy
        // is now illegal.
        map.register(
            A,
            SyncConfig {
                policy: SyncPolicy::Unc,
                ..Default::default()
            },
        );
        let v = check_invariants(&caches, &homes, &map);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "unc-never-cached");
    }

    #[test]
    fn upd_exclusive_is_flagged() {
        let (mut caches, homes, mut map) = machine();
        fill_shared(&mut caches[1], &map);
        map.register(
            A,
            SyncConfig {
                policy: SyncPolicy::Upd,
                ..Default::default()
            },
        );
        assert!(check_invariants(&caches, &homes, &map).is_empty());
        caches[1].corrupt_promote_shared(A.line(32));
        let v = check_invariants(&caches, &homes, &map);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "upd-never-exclusive");
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
