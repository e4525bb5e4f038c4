//! A compact set of node identifiers (directory sharer vectors).

use dsm_sim::NodeId;
use std::fmt;

/// A bit-vector set of [`NodeId`]s, as stored in directory entries.
///
/// Grows on demand, so machines larger than 64 nodes work; the common
/// 64-node case stays within one word.
///
/// # Example
///
/// ```
/// use dsm_protocol::NodeSet;
/// use dsm_sim::NodeId;
///
/// let mut s = NodeSet::new();
/// s.insert(NodeId::new(3));
/// s.insert(NodeId::new(70));
/// assert!(s.contains(NodeId::new(3)));
/// assert_eq!(s.len(), 2);
/// s.remove(NodeId::new(3));
/// assert!(!s.contains(NodeId::new(3)));
/// ```
#[derive(Clone, Default)]
pub struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set containing a single node.
    pub fn singleton(node: NodeId) -> Self {
        let mut s = Self::new();
        s.insert(node);
        s
    }

    /// Adds `node`; returns `true` if it was not already present.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let (w, b) = (node.index() / 64, node.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `node`; returns `true` if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let (w, b) = (node.index() / 64, node.index() % 64);
        if w >= self.words.len() {
            return false;
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test.
    pub fn contains(&self, node: NodeId) -> bool {
        let (w, b) = (node.index() / 64, node.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Iterates members in ascending order, one step per member.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some(NodeId::new(wi as u32 * 64 + b))
            })
        })
    }

    /// The words up to the last nonzero one: the members, whatever
    /// capacity earlier members left behind.
    fn significant_words(&self) -> &[u64] {
        let n = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        &self.words[..n]
    }

    /// Folds the set's members into a state digest. Trailing
    /// all-zero words are not hashed, so equal sets digest equally
    /// regardless of capacity history.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        h.write_usize(self.len());
        for n in self.iter() {
            h.write_u32(n.as_u32());
        }
    }

    /// The single member, if the set has exactly one.
    pub fn sole_member(&self) -> Option<NodeId> {
        let mut it = self.iter();
        let first = it.next()?;
        if it.next().is_none() {
            Some(first)
        } else {
            None
        }
    }
}

// Manual impls: equality and hashing must see the members only, like
// `digest`, so a set that grew and shrank equals a fresh one.
impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        self.significant_words() == other.significant_words()
    }
}

impl Eq for NodeSet {}

impl std::hash::Hash for NodeSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.significant_words().hash(state);
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = NodeSet::new();
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for n in iter {
            self.insert(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new();
        assert!(s.is_empty());
        assert!(s.insert(NodeId::new(5)));
        assert!(!s.insert(NodeId::new(5)), "double insert reports false");
        assert!(s.contains(NodeId::new(5)));
        assert!(!s.contains(NodeId::new(6)));
        assert!(s.remove(NodeId::new(5)));
        assert!(!s.remove(NodeId::new(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn crosses_word_boundaries() {
        let mut s = NodeSet::new();
        s.insert(NodeId::new(63));
        s.insert(NodeId::new(64));
        s.insert(NodeId::new(200));
        assert_eq!(s.len(), 3);
        let members: Vec<_> = s.iter().map(|n| n.as_u32()).collect();
        assert_eq!(members, vec![63, 64, 200]);
    }

    #[test]
    fn equality_and_hash_see_members_only() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &NodeSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        // Grown past 64 nodes, then emptied: equal to a fresh set.
        let mut s = NodeSet::new();
        s.insert(NodeId::new(70));
        s.remove(NodeId::new(70));
        assert_eq!(s, NodeSet::new());
        assert_eq!(hash(&s), hash(&NodeSet::new()));
        // Same members, different capacity history.
        s.insert(NodeId::new(3));
        let fresh = NodeSet::singleton(NodeId::new(3));
        assert_eq!(s, fresh);
        assert_eq!(hash(&s), hash(&fresh));
        assert_ne!(s, NodeSet::singleton(NodeId::new(4)));
        // Sets that differ only above 64 nodes still differ.
        let wide = NodeSet::from_iter([NodeId::new(3), NodeId::new(70)]);
        assert_ne!(wide, fresh);
    }

    #[test]
    fn sole_member() {
        let mut s = NodeSet::singleton(NodeId::new(9));
        assert_eq!(s.sole_member(), Some(NodeId::new(9)));
        s.insert(NodeId::new(10));
        assert_eq!(s.sole_member(), None);
        s.clear();
        assert_eq!(s.sole_member(), None);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: NodeSet = [1u32, 3, 5].into_iter().map(NodeId::new).collect();
        s.extend([NodeId::new(7)]);
        assert_eq!(s.len(), 4);
        assert!(s.contains(NodeId::new(7)));
    }

    #[test]
    fn debug_lists_members() {
        let s = NodeSet::singleton(NodeId::new(2));
        assert_eq!(format!("{s:?}"), "{NodeId(2)}");
    }

    proptest! {
        #[test]
        fn matches_reference_set(ops in proptest::collection::vec((0u32..128, any::<bool>()), 0..200)) {
            let mut ours = NodeSet::new();
            let mut reference = std::collections::BTreeSet::new();
            for (n, add) in ops {
                if add {
                    prop_assert_eq!(ours.insert(NodeId::new(n)), reference.insert(n));
                } else {
                    prop_assert_eq!(ours.remove(NodeId::new(n)), reference.remove(&n));
                }
            }
            prop_assert_eq!(ours.len(), reference.len());
            let got: Vec<u32> = ours.iter().map(|n| n.as_u32()).collect();
            let want: Vec<u32> = reference.into_iter().collect();
            let rebuilt: NodeSet = want.iter().map(|&n| NodeId::new(n)).collect();
            prop_assert_eq!(&ours, &rebuilt);
            prop_assert_eq!(got, want);
        }
    }
}
