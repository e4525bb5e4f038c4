//! Write-run-length tracking (Eggers & Katz, used in §4.2 of the paper).

use crate::OnlineMean;
use dsm_sim::StableHashMap;

/// Tracks the average write-run length of atomically accessed locations.
///
/// The paper defines the average write-run length as "the average number
/// of consecutive writes (including atomic updates) by a processor to an
/// atomically accessed shared location without intervening accesses
/// (reads or writes) by any other processors".
///
/// Feed every access (read or write, plain or atomic) to
/// [`access`](WriteRunTracker::access); finished runs accumulate into an
/// [`OnlineMean`]. Call [`finish`](WriteRunTracker::finish) at the end of
/// the measured region to flush runs still in progress.
///
/// # Example
///
/// ```
/// use dsm_stats::WriteRunTracker;
///
/// let mut t = WriteRunTracker::new();
/// // Processor 0 writes location 1 twice, then processor 1 intervenes.
/// t.access(1, 0, true);
/// t.access(1, 0, true);
/// t.access(1, 1, true);
/// let stats = t.finish();
/// // Two runs: [p0 x2] and [p1 x1] -> mean 1.5.
/// assert_eq!(stats.mean(), 1.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteRunTracker {
    /// Per-location state: (processor of current run, writes in run).
    current: StableHashMap<u64, (u32, u64)>,
    runs: OnlineMean,
}

impl WriteRunTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access to `location` by `proc`.
    ///
    /// `is_write` marks stores and atomic updates; loads pass `false`.
    pub fn access(&mut self, location: u64, proc: u32, is_write: bool) {
        match self.current.get_mut(&location) {
            Some((owner, count)) if *owner == proc => {
                if is_write {
                    *count += 1;
                }
                // Reads by the run owner neither extend nor break the run.
            }
            Some((owner, count)) => {
                // Intervening access by another processor ends the run.
                let finished = *count;
                if finished > 0 {
                    self.runs.add(finished as f64);
                }
                if is_write {
                    *owner = proc;
                    *count = 1;
                } else {
                    // A read by a different processor: no run in progress
                    // until someone writes again.
                    *owner = proc;
                    *count = 0;
                }
            }
            None => {
                if is_write {
                    self.current.insert(location, (proc, 1));
                } else {
                    self.current.insert(location, (proc, 0));
                }
            }
        }
    }

    /// Flushes in-progress runs and returns the run-length statistics.
    pub fn finish(mut self) -> OnlineMean {
        for (_, (_, count)) in self.current.drain() {
            if count > 0 {
                self.runs.add(count as f64);
            }
        }
        self.runs
    }

    /// Returns the statistics over completed runs only, without
    /// consuming the tracker.
    pub fn completed(&self) -> &OnlineMean {
        &self.runs
    }

    /// Folds the tracker's state (in-progress runs plus completed-run
    /// statistics) into a state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        let mut current: Vec<(u64, u32, u64)> = self
            .current
            .iter()
            .map(|(&loc, &(owner, count))| (loc, owner, count))
            .collect();
        current.sort_unstable();
        h.write_usize(current.len());
        for (loc, owner, count) in current {
            h.write_u64(loc);
            h.write_u32(owner);
            h.write_u64(count);
        }
        self.runs.digest(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_long_run() {
        let mut t = WriteRunTracker::new();
        for _ in 0..5 {
            t.access(9, 3, true);
        }
        assert_eq!(t.finish().mean(), 5.0);
    }

    #[test]
    fn alternating_writers_give_runs_of_one() {
        let mut t = WriteRunTracker::new();
        for i in 0..10 {
            t.access(1, i % 2, true);
        }
        let s = t.finish();
        assert_eq!(s.mean(), 1.0);
        assert_eq!(s.count(), 10);
    }

    #[test]
    fn own_reads_do_not_break_runs() {
        let mut t = WriteRunTracker::new();
        t.access(1, 0, true);
        t.access(1, 0, false); // own read
        t.access(1, 0, true);
        assert_eq!(t.finish().mean(), 2.0);
    }

    #[test]
    fn foreign_read_breaks_run() {
        let mut t = WriteRunTracker::new();
        t.access(1, 0, true);
        t.access(1, 0, true);
        t.access(1, 1, false); // foreign read intervenes
        t.access(1, 0, true);
        let s = t.finish();
        // Runs: [2], [1] -> mean 1.5
        assert_eq!(s.mean(), 1.5);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn locations_are_independent() {
        let mut t = WriteRunTracker::new();
        t.access(1, 0, true);
        t.access(2, 1, true);
        t.access(1, 0, true);
        t.access(2, 1, true);
        let s = t.finish();
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn reads_only_produce_no_runs() {
        let mut t = WriteRunTracker::new();
        t.access(1, 0, false);
        t.access(1, 1, false);
        let s = t.finish();
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn completed_excludes_in_progress() {
        let mut t = WriteRunTracker::new();
        t.access(1, 0, true);
        t.access(1, 1, true); // run of 1 completed, run of 1 in progress
        assert_eq!(t.completed().count(), 1);
        assert_eq!(t.finish().count(), 2);
    }

    #[test]
    fn paper_style_lock_pattern() {
        // Acquire (write), release (write), then another processor
        // acquires: write-run length 2, as in LocusRoute/Cholesky (~1.7).
        let mut t = WriteRunTracker::new();
        for round in 0..100u32 {
            let p = round % 4;
            t.access(7, p, true); // acquire
            t.access(7, p, true); // release
        }
        let s = t.finish();
        assert_eq!(s.mean(), 2.0);
    }
}
