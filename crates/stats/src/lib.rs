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
pub mod table;
pub mod writerun;

pub use contention::ContentionTracker;
pub use histogram::Histogram;
pub use latency::LatencyHist;
pub use messages::{ChainStats, MsgClass};
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
}
