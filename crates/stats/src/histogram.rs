//! Integer-bucket histograms.

/// A histogram over small nonnegative integer values (bucket per value).
///
/// Used for the contention histograms of Figure 2 and for
/// serialized-message-chain distributions.
///
/// # Example
///
/// ```
/// use dsm_stats::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(1);
/// h.record(1);
/// h.record(3);
/// assert_eq!(h.count(1), 2);
/// assert_eq!(h.total(), 3);
/// assert!((h.percentage(1) - 66.66).abs() < 0.1);
/// assert_eq!(h.mean(), (1.0 + 1.0 + 3.0) / 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: usize) {
        if value >= self.buckets.len() {
            self.buckets.resize(value + 1, 0);
        }
        self.buckets[value] += 1;
        self.total += 1;
    }

    /// Records `n` observations of `value`.
    pub fn record_n(&mut self, value: usize, n: u64) {
        if n == 0 {
            return;
        }
        if value >= self.buckets.len() {
            self.buckets.resize(value + 1, 0);
        }
        self.buckets[value] += n;
        self.total += n;
    }

    /// Number of observations of `value`.
    pub fn count(&self, value: usize) -> u64 {
        self.buckets.get(value).copied().unwrap_or(0)
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Percentage (0–100) of observations equal to `value`.
    pub fn percentage(&self, value: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(value) as f64 * 100.0 / self.total as f64
        }
    }

    /// Mean of the observed values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// Largest value observed, if any.
    pub fn max_value(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Percentage of observations less than or equal to `value`.
    pub fn cumulative_percentage(&self, value: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let below: u64 = self.buckets.iter().take(value + 1).sum();
        below as f64 * 100.0 / self.total as f64
    }

    /// Iterates over `(value, count)` pairs with nonzero counts.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v, c))
    }

    /// Folds the histogram's contents into a state digest. Only
    /// nonzero buckets are hashed, so two histograms that compare equal
    /// observation-wise digest identically regardless of trailing empty
    /// buckets.
    pub fn digest(&self, h: &mut dsm_sim::StableHasher) {
        h.write_u64(self.total);
        for (v, c) in self.iter() {
            h.write_usize(v);
            h.write_u64(c);
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (v, c) in other.iter() {
            self.record_n(v, c);
        }
    }

    /// Renders the histogram as percentage-per-value lines, e.g. for the
    /// Figure 2 reproduction:
    ///
    /// ```text
    ///  1:  92.1% ###############################
    ///  2:   5.3% ##
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut suppressed = 0u64;
        for (v, count) in self.iter() {
            let pct = self.percentage(v);
            if pct < 0.1 {
                suppressed += count;
                continue;
            }
            let bar = "#".repeat((pct / 2.0).round() as usize);
            out.push_str(&format!("{v:>4}: {pct:>5.1}% {bar}\n"));
        }
        if suppressed > 0 {
            out.push_str(&format!(
                "      (+{suppressed} accesses below 0.1%, up to level {})\n",
                self.max_value().unwrap_or(0)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.count(5), 0);
        assert_eq!(h.percentage(5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max_value(), None);
        assert_eq!(h.cumulative_percentage(10), 0.0);
    }

    #[test]
    fn record_and_query() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(2);
        h.record(2);
        h.record_n(5, 7);
        assert_eq!(h.total(), 10);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.count(5), 7);
        assert_eq!(h.max_value(), Some(5));
        assert_eq!(h.percentage(5), 70.0);
        assert_eq!(h.cumulative_percentage(2), 30.0);
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = Histogram::new();
        h.record_n(3, 0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_value(), None);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        a.record(1);
        let mut b = Histogram::new();
        b.record(1);
        b.record(4);
        a.merge(&b);
        assert_eq!(a.count(1), 2);
        assert_eq!(a.count(4), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn render_contains_values() {
        let mut h = Histogram::new();
        h.record_n(1, 9);
        h.record_n(8, 1);
        let s = h.render();
        assert!(s.contains("1:"));
        assert!(s.contains("90.0%"));
        assert!(s.contains("8:"));
    }

    proptest! {
        #[test]
        fn percentages_sum_to_100(values in proptest::collection::vec(0usize..20, 1..200)) {
            let mut h = Histogram::new();
            for v in &values {
                h.record(*v);
            }
            let sum: f64 = (0..=h.max_value().unwrap()).map(|v| h.percentage(v)).sum();
            prop_assert!((sum - 100.0).abs() < 1e-6);
            prop_assert_eq!(h.total(), values.len() as u64);
        }

        #[test]
        fn mean_matches_direct_computation(values in proptest::collection::vec(0usize..50, 1..100)) {
            let mut h = Histogram::new();
            for v in &values {
                h.record(*v);
            }
            let direct = values.iter().sum::<usize>() as f64 / values.len() as f64;
            prop_assert!((h.mean() - direct).abs() < 1e-9);
        }
    }
}
