//! Measurement infrastructure for the atomic-primitive experiments.
//!
//! The paper characterizes workloads by two quantities (§4.2) and reports
//! results as averages:
//!
//! * **Contention** — the number of processors concurrently trying to
//!   access an atomically accessed location at the beginning of each
//!   access, reported as a histogram ([`ContentionTracker`], Figure 2);
//! * **Average write-run length** — the average number of consecutive
//!   writes (including atomic updates) by one processor to a location
//!   without intervening accesses by any other processor
//!   ([`WriteRunTracker`]);
//! * **Average cycles per operation** and **serialized network
//!   messages** ([`ChainStats`], Table 1) and general aggregates
//!   ([`OnlineMean`], [`Histogram`]).
//!
//! Rendering helpers ([`table`]) produce the aligned text tables and CSV
//! series that the benchmark harness prints for every figure.

#![warn(missing_docs)]

pub mod contention;
pub mod histogram;
pub mod latency;
pub mod messages;
pub mod metrics;
pub mod table;
pub mod writerun;

pub use contention::ContentionTracker;
pub use histogram::Histogram;
pub use latency::LatencyHist;
pub use messages::{ChainStats, MsgClass};
pub use metrics::NodeMetrics;
pub use table::{render_bar_chart, render_csv, render_table};
pub use writerun::WriteRunTracker;

/// An online (streaming) mean with count, min and max.
///
/// # Example
///
/// ```
/// use dsm_stats::OnlineMean;
///
/// let mut m = OnlineMean::new();
/// for v in [10.0, 20.0, 30.0] {
///     m.add(v);
/// }
/// assert_eq!(m.mean(), 20.0);
/// assert_eq!(m.count(), 3);
/// assert_eq!(m.min(), Some(10.0));
/// assert_eq!(m.max(), Some(30.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineMean {
    count: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl OnlineMean {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Adds `n` samples of `v`, bit-identical to calling [`add`](Self::add)
    /// `n` times. When `v` and the running sum are integers and the
    /// result stays below 2^53, every partial sum is exact, so one
    /// multiply-add gives the same bits; otherwise the samples are added
    /// one by one.
    pub fn add_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        const EXACT: f64 = (1u64 << 53) as f64;
        let total = v.abs() * n as f64;
        if v.fract() == 0.0 && self.sum.fract() == 0.0 && self.sum.abs() + total < EXACT {
            self.count += n;
            self.sum += v * n as f64;
            self.min = Some(self.min.map_or(v, |m| m.min(v)));
            self.max = Some(self.max.map_or(v, |m| m.max(v)));
        } else {
            for _ in 0..n {
                self.add(v);
            }
        }
    }

    /// The mean of all samples, or 0.0 if none.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineMean) {
        self.count += other.count;
        self.sum += other.sum;
        if let Some(m) = other.min {
            self.min = Some(self.min.map_or(m, |s| s.min(m)));
        }
        if let Some(m) = other.max {
            self.max = Some(self.max.map_or(m, |s| s.max(m)));
        }
    }

    /// Folds the accumulator's exact state (count, bit-exact sum,
    /// min/max) into a state digest.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        h.write_u64(self.count);
        h.write_f64_bits(self.sum);
        for bound in [self.min, self.max] {
            match bound {
                Some(v) => {
                    h.write_u8(1);
                    h.write_f64_bits(v);
                }
                None => h.write_u8(0),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_mean_is_zero() {
        let m = OnlineMean::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.count(), 0);
        assert_eq!(m.min(), None);
        assert_eq!(m.max(), None);
    }

    #[test]
    fn add_n_matches_repeated_add_bit_for_bit() {
        for (start, v, n) in [
            (&[][..], 1.0, 5u64),
            (&[3.0, 7.0][..], 1.0, 1_000_000),
            (&[0.1][..], 1.0, 17),
            (&[2.0][..], 0.3, 9),
            (&[9.007_199_254_740_99e15][..], 1.0, 40),
        ] {
            let mut one = OnlineMean::new();
            let mut bulk = OnlineMean::new();
            for &s in start {
                one.add(s);
                bulk.add(s);
            }
            for _ in 0..n {
                one.add(v);
            }
            bulk.add_n(v, n);
            assert_eq!(one.count(), bulk.count());
            assert_eq!(
                one.sum().to_bits(),
                bulk.sum().to_bits(),
                "{start:?} + {n} x {v}"
            );
            assert_eq!((one.min(), one.max()), (bulk.min(), bulk.max()));
        }
        let mut m = OnlineMean::new();
        m.add_n(4.0, 0);
        assert_eq!(m, OnlineMean::new());
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = OnlineMean::new();
        a.add(1.0);
        a.add(3.0);
        let mut b = OnlineMean::new();
        b.add(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(5.0));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineMean::new();
        a.add(2.0);
        let before = a.clone();
        a.merge(&OnlineMean::new());
        assert_eq!(a, before);
        let mut e = OnlineMean::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
