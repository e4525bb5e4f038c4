//! A fixed-bucket lock-free hash map: an array of bucket head words,
//! each heading an independent Harris list (see [`super::list`]).
//!
//! Keys hash to a bucket by `key % buckets`; each bucket keeps its
//! chain sorted and uses the same logical-deletion protocol as the
//! standalone list, so every correctness property (and every
//! [`LinkPrim`] trade-off) carries over bucket-by-bucket.

use super::list::{HarrisList, ListContains, ListInsert, ListRemove};
use super::LinkPrim;
use crate::submachine::{Step, SubMachine};
use dsm_protocol::OpResult;
use dsm_sim::{Addr, SimRng};

/// The bucket head words naming a lock-free hash map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketMap {
    /// One head link word per bucket, each on its own line.
    pub buckets: Vec<Addr>,
}

impl BucketMap {
    /// The bucket list a key belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the map has no buckets.
    pub fn bucket_of(&self, key: u64) -> HarrisList {
        assert!(!self.buckets.is_empty(), "map needs at least one bucket");
        HarrisList {
            head: self.buckets[(key % self.buckets.len() as u64) as usize],
        }
    }
}

/// One insert of `key` into the map (under a fresh `node`).
///
/// After [`Step::Done`], [`inserted`](MapInsert::inserted) reports
/// whether the key was added.
#[derive(Debug, Clone)]
pub struct MapInsert {
    inner: ListInsert,
}

impl MapInsert {
    /// Creates an insert of the node whose `next` word is at `node`.
    pub fn new(map: &BucketMap, node: Addr, key: u64, prim: LinkPrim) -> Self {
        MapInsert {
            inner: ListInsert::new(map.bucket_of(key), node, key, prim),
        }
    }

    /// `true` if the key was inserted, `false` if already present.
    pub fn inserted(&self) -> Option<bool> {
        self.inner.inserted()
    }

    /// Lost publication races (for statistics).
    pub fn retries(&self) -> u64 {
        self.inner.retries
    }
}

impl SubMachine for MapInsert {
    fn step(&mut self, last: Option<OpResult>, rng: &mut SimRng) -> Step {
        self.inner.step(last, rng)
    }
}

/// One remove of `key` from the map.
///
/// After [`Step::Done`], [`removed`](MapRemove::removed) reports
/// whether this operation deleted the key.
#[derive(Debug, Clone)]
pub struct MapRemove {
    inner: ListRemove,
}

impl MapRemove {
    /// Creates a remove.
    pub fn new(map: &BucketMap, key: u64, prim: LinkPrim) -> Self {
        MapRemove {
            inner: ListRemove::new(map.bucket_of(key), key, prim),
        }
    }

    /// `true` if this operation deleted the key, `false` if absent.
    pub fn removed(&self) -> Option<bool> {
        self.inner.removed()
    }

    /// Lost marking races (for statistics).
    pub fn retries(&self) -> u64 {
        self.inner.retries
    }
}

impl SubMachine for MapRemove {
    fn step(&mut self, last: Option<OpResult>, rng: &mut SimRng) -> Step {
        self.inner.step(last, rng)
    }
}

/// One membership query for `key` (read-only).
///
/// After [`Step::Done`], [`found`](MapContains::found) reports
/// membership.
#[derive(Debug, Clone)]
pub struct MapContains {
    inner: ListContains,
}

impl MapContains {
    /// Creates a membership query.
    pub fn new(map: &BucketMap, key: u64, prim: LinkPrim) -> Self {
        MapContains {
            inner: ListContains::new(map.bucket_of(key), key, prim),
        }
    }

    /// `true` if the key was present.
    pub fn found(&self) -> Option<bool> {
        self.inner.found()
    }
}

impl SubMachine for MapContains {
    fn step(&mut self, last: Option<OpResult>, rng: &mut SimRng) -> Step {
        self.inner.step(last, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submachine::{drive_sync, SeqMem};

    fn map(buckets: u64) -> BucketMap {
        BucketMap {
            buckets: (0..buckets).map(|i| Addr::new(0x40 + i * 64)).collect(),
        }
    }

    fn node(i: u64) -> Addr {
        Addr::new(0x10000 + i * 64)
    }

    fn insert(mem: &mut SeqMem, m: &BucketMap, i: u64, key: u64, prim: LinkPrim) -> bool {
        let mut rng = SimRng::new(1);
        let mut op = MapInsert::new(m, node(i), key, prim);
        drive_sync(&mut op, &mut rng, 2000, |o| mem.eval(o));
        op.inserted().expect("finished")
    }

    fn remove(mem: &mut SeqMem, m: &BucketMap, key: u64, prim: LinkPrim) -> bool {
        let mut rng = SimRng::new(1);
        let mut op = MapRemove::new(m, key, prim);
        drive_sync(&mut op, &mut rng, 2000, |o| mem.eval(o));
        op.removed().expect("finished")
    }

    fn contains(mem: &mut SeqMem, m: &BucketMap, key: u64, prim: LinkPrim) -> bool {
        let mut rng = SimRng::new(1);
        let mut op = MapContains::new(m, key, prim);
        drive_sync(&mut op, &mut rng, 2000, |o| mem.eval(o));
        op.found().expect("finished")
    }

    #[test]
    fn keys_route_to_buckets_by_modulus() {
        let m = map(4);
        for key in 0..32u64 {
            assert_eq!(m.bucket_of(key).head, m.buckets[(key % 4) as usize]);
        }
    }

    fn map_ops(prim: LinkPrim) {
        let mut mem = SeqMem::default();
        let m = map(4);
        // Keys 0..16 spread across 4 buckets (4 each).
        for k in 0..16u64 {
            assert!(insert(&mut mem, &m, k, k, prim), "{prim:?}: insert {k}");
        }
        for k in 0..16u64 {
            assert!(!insert(&mut mem, &m, 100 + k, k, prim), "{prim:?}: dup {k}");
            assert!(contains(&mut mem, &m, k, prim), "{prim:?}: find {k}");
        }
        assert!(!contains(&mut mem, &m, 77, prim));
        // Remove every key congruent to 1 (one full bucket).
        for k in [1u64, 5, 9, 13] {
            assert!(remove(&mut mem, &m, k, prim));
        }
        for k in 0..16u64 {
            assert_eq!(contains(&mut mem, &m, k, prim), k % 4 != 1, "{prim:?}: {k}");
        }
        // Per-bucket chains stay sorted.
        for b in 0..4u64 {
            let mut cur = super::super::decode(prim, mem.get(m.buckets[b as usize]));
            let mut prev_key = None;
            while cur != 0 {
                let cw = super::super::decode(prim, mem.get(Addr::new(cur)));
                let key = mem.get(Addr::new(cur + 8));
                assert_eq!(key % 4, b, "{prim:?}: key {key} in wrong bucket");
                if let Some(p) = prev_key {
                    assert!(key > p, "{prim:?}: bucket {b} unsorted");
                }
                prev_key = Some(key);
                cur = super::super::clear_mark(cw);
            }
        }
    }

    #[test]
    fn map_ops_llsc() {
        map_ops(LinkPrim::Llsc);
    }

    #[test]
    fn map_ops_emul() {
        map_ops(LinkPrim::EmulLlsc);
    }

    #[test]
    fn map_ops_cas() {
        map_ops(LinkPrim::CasPlain);
    }
}
