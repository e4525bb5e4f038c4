//! Contention-level measurement (Figure 2 of the paper).

use crate::Histogram;
use dsm_sim::StableHashMap;

/// Measures the level of contention on atomically accessed locations.
///
/// The paper defines the level of contention as "the number of
/// processors that concurrently try to access an atomically accessed
/// shared location", sampled "at the beginning of each access". A
/// processor *begins* an access when it starts a synchronization attempt
/// (e.g. enters a lock-acquire loop or issues a lock-free update) and
/// *ends* it when the attempt completes.
///
/// # Example
///
/// ```
/// use dsm_stats::ContentionTracker;
///
/// let mut t = ContentionTracker::new();
/// t.begin(100, 0); // p0 alone: contention 1
/// t.begin(100, 1); // p1 joins: contention 2
/// t.end(100, 0);
/// t.end(100, 1);
/// let h = t.histogram();
/// assert_eq!(h.count(1), 1);
/// assert_eq!(h.count(2), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContentionTracker {
    /// Number of processors currently attempting each location.
    active: StableHashMap<u64, u32>,
    histogram: Histogram,
}

impl ContentionTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the beginning of an atomic access by `_proc` to `location`
    /// and samples the contention level (including this processor).
    pub fn begin(&mut self, location: u64, _proc: u32) {
        let n = self.active.entry(location).or_insert(0);
        *n += 1;
        self.histogram.record(*n as usize);
    }

    /// Marks the end of an atomic access.
    ///
    /// # Panics
    ///
    /// Panics if no access to `location` is in progress (an unmatched
    /// `end` indicates an instrumentation bug).
    pub fn end(&mut self, location: u64, _proc: u32) {
        let n = self
            .active
            .get_mut(&location)
            .expect("ContentionTracker::end without matching begin");
        assert!(*n > 0, "ContentionTracker::end without matching begin");
        *n -= 1;
    }

    /// Returns the contention histogram accumulated so far.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Returns the number of accesses currently in progress on
    /// `location`.
    pub fn in_progress(&self, location: u64) -> u32 {
        self.active.get(&location).copied().unwrap_or(0)
    }

    /// Folds the tracker's state into a state digest. Locations
    /// whose in-progress count has returned to zero are skipped, so the
    /// digest is a function of the observable state, not of which
    /// locations were ever touched.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        let mut active: Vec<(u64, u32)> = self
            .active
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|(&loc, &n)| (loc, n))
            .collect();
        active.sort_unstable();
        h.write_usize(active.len());
        for (loc, n) in active {
            h.write_u64(loc);
            h.write_u32(n);
        }
        self.histogram.digest(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_accesses_record_one() {
        let mut t = ContentionTracker::new();
        for i in 0..10 {
            t.begin(5, i);
            t.end(5, i);
        }
        assert_eq!(t.histogram().count(1), 10);
        assert_eq!(t.histogram().total(), 10);
    }

    #[test]
    fn overlapping_accesses_raise_the_level() {
        let mut t = ContentionTracker::new();
        for i in 0..4 {
            t.begin(5, i);
        }
        assert_eq!(t.in_progress(5), 4);
        for i in 0..4 {
            t.end(5, i);
        }
        // Levels sampled: 1, 2, 3, 4.
        for v in 1..=4 {
            assert_eq!(t.histogram().count(v), 1);
        }
        assert_eq!(t.in_progress(5), 0);
    }

    #[test]
    fn locations_tracked_independently() {
        let mut t = ContentionTracker::new();
        t.begin(1, 0);
        t.begin(2, 1);
        assert_eq!(t.in_progress(1), 1);
        assert_eq!(t.in_progress(2), 1);
        assert_eq!(t.histogram().count(1), 2);
        assert_eq!(t.histogram().count(2), 0);
        t.end(1, 0);
        t.end(2, 1);
    }

    #[test]
    #[should_panic(expected = "without matching begin")]
    fn unmatched_end_panics() {
        let mut t = ContentionTracker::new();
        t.end(1, 0);
    }
}
