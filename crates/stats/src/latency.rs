//! Cycle-exact log-bucketed latency histograms.
//!
//! [`LatencyHist`] is an HDR-style histogram over `u64` cycle counts:
//! values below [`PRECISION`](LatencyHist::PRECISION) land in exact
//! unit buckets, larger values in logarithmic buckets subdivided into
//! [`PRECISION`](LatencyHist::PRECISION) sub-buckets, bounding the
//! relative quantization error of any reported quantile by
//! `1 / PRECISION` (~3%). The exact maximum is tracked on the side, so
//! `max()` (and any quantile that resolves to the last occupied bucket)
//! is cycle-exact.
//!
//! Percentile math is integer-only (rank arithmetic on bucket counts),
//! merging is commutative and associative, and the byte encoding —
//! written with the `dsm-sim` snapshot codec — is deterministic: two
//! histograms holding the same observations encode to identical bytes
//! regardless of insertion order. That makes per-job histograms safe to
//! persist in the result cache and merge across any worker count.

use dsm_sim::snapshot::{ByteReader, ByteWriter, SnapshotError};
use dsm_sim::StableHasher;

/// A mergeable log-bucketed histogram of cycle latencies.
///
/// # Example
///
/// ```
/// use dsm_stats::LatencyHist;
///
/// let mut h = LatencyHist::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.total(), 1000);
/// assert_eq!(h.max(), 1000);
/// let p50 = h.percentile(50, 100);
/// assert!((480..=520).contains(&p50), "p50 = {p50}");
/// assert_eq!(h.percentile(100, 100), 1000);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHist {
    /// Sparse bucket counts, indexed by [`bucket_index`].
    counts: Vec<u64>,
    /// Total observations.
    total: u64,
    /// Exact largest value observed (0 when empty).
    max: u64,
    /// Exact sum of observed values (for the mean).
    sum: u128,
}

/// log2(PRECISION): bucket index arithmetic shifts by this.
const PRECISION_BITS: u32 = 5;

impl LatencyHist {
    /// Sub-buckets per power of two; bounds relative quantization error
    /// of bucketed quantiles by `1 / PRECISION`.
    pub const PRECISION: u64 = 1 << PRECISION_BITS;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index of `value` (exact below [`Self::PRECISION`],
    /// logarithmic with `PRECISION` sub-buckets above).
    fn bucket_index(value: u64) -> usize {
        if value < Self::PRECISION {
            value as usize
        } else {
            let exp = 63 - value.leading_zeros(); // >= PRECISION_BITS
            let sub = (value >> (exp - PRECISION_BITS)) & (Self::PRECISION - 1);
            ((exp - PRECISION_BITS + 1) as u64 * Self::PRECISION + sub) as usize
        }
    }

    /// The largest value that maps into bucket `index` — the value a
    /// quantile resolving to that bucket reports (conservative: never
    /// under-reports a latency).
    fn bucket_upper(index: usize) -> u64 {
        let index = index as u64;
        if index < Self::PRECISION {
            index
        } else {
            let exp = index / Self::PRECISION - 1 + PRECISION_BITS as u64;
            let sub = index % Self::PRECISION;
            let width = 1u64 << (exp - PRECISION_BITS as u64);
            // Base of the bucket plus (width - 1): its inclusive top.
            (Self::PRECISION + sub)
                .wrapping_mul(width)
                .wrapping_add(width - 1)
        }
    }

    /// Records one observation of `value` cycles.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value` cycles.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.total += n;
        self.max = self.max.max(value);
        self.sum += value as u128 * n as u128;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `num / den` (e.g. `percentile(99, 100)` is
    /// p99, `percentile(999, 1000)` is p99.9), computed with integer
    /// rank arithmetic: the smallest bucket whose cumulative count
    /// reaches `ceil(total * num / den)`, reported as that bucket's
    /// upper bound and capped at the exact maximum. Returns 0 when
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `den` is 0 or `num > den`.
    pub fn percentile(&self, num: u64, den: u64) -> u64 {
        assert!(den > 0 && num <= den, "quantile {num}/{den} out of range");
        if self.total == 0 {
            return 0;
        }
        // ceil(total * num / den), clamped to at least rank 1.
        let rank = ((self.total as u128 * num as u128).div_ceil(den as u128) as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one. Merging is commutative:
    /// `merge(a, b)` and `merge(b, a)` are observation-equal and encode
    /// to identical bytes.
    pub fn merge(&mut self, other: &LatencyHist) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Iterates over `(bucket upper bound, count)` pairs with nonzero
    /// counts, in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_upper(i), c))
    }

    /// Folds the histogram's contents into a state digest. Only
    /// nonzero buckets are hashed, so trailing empty buckets do not
    /// perturb the digest.
    pub fn digest(&self, h: &mut StableHasher) {
        h.write_u64(self.total);
        h.write_u64(self.max);
        h.write_u64((self.sum >> 64) as u64);
        h.write_u64(self.sum as u64);
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                h.write_usize(idx);
                h.write_u64(c);
            }
        }
    }

    /// Appends the histogram to a snapshot payload: totals, then the
    /// sparse `(bucket index, count)` list in index order — a canonical
    /// byte form independent of observation order.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u64(self.total);
        w.put_u64(self.max);
        w.put_u64((self.sum >> 64) as u64);
        w.put_u64(self.sum as u64);
        let nonzero = self.counts.iter().filter(|&&c| c > 0).count() as u64;
        w.put_u64(nonzero);
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                w.put_u32(idx as u32);
                w.put_u64(c);
            }
        }
    }

    /// Decodes a histogram previously written by
    /// [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Returns a typed [`SnapshotError`] on truncation or structural
    /// invalidity (buckets out of order, totals that disagree with the
    /// bucket counts).
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let total = r.take_u64()?;
        let max = r.take_u64()?;
        let sum = ((r.take_u64()? as u128) << 64) | r.take_u64()? as u128;
        let nonzero = r.take_u64()?;
        let mut counts = Vec::new();
        let mut counted = 0u64;
        let mut last: Option<u32> = None;
        for _ in 0..nonzero {
            let idx = r.take_u32()?;
            let c = r.take_u64()?;
            if last.is_some_and(|p| idx <= p) {
                return Err(SnapshotError::Malformed(
                    "latency histogram buckets out of order".into(),
                ));
            }
            if c == 0 {
                return Err(SnapshotError::Malformed(
                    "latency histogram stores an empty bucket".into(),
                ));
            }
            last = Some(idx);
            if idx as usize >= counts.len() {
                counts.resize(idx as usize + 1, 0);
            }
            counts[idx as usize] = c;
            counted = counted
                .checked_add(c)
                .ok_or_else(|| SnapshotError::Malformed("bucket counts overflow".into()))?;
        }
        if counted != total {
            return Err(SnapshotError::Malformed(format!(
                "latency histogram total {total} disagrees with bucket sum {counted}"
            )));
        }
        Ok(LatencyHist {
            counts,
            total,
            max,
            sum,
        })
    }

    /// Renders the standard quantile row for this histogram:
    /// `count  p50  p90  p99  p99.9  max  mean`.
    pub fn quantile_cells(&self) -> Vec<String> {
        vec![
            self.total.to_string(),
            self.percentile(50, 100).to_string(),
            self.percentile(90, 100).to_string(),
            self.percentile(99, 100).to_string(),
            self.percentile(999, 1000).to_string(),
            self.max.to_string(),
            format!("{:.1}", self.mean()),
        ]
    }

    /// Header cells matching [`quantile_cells`](Self::quantile_cells).
    pub fn quantile_header() -> Vec<String> {
        ["ops", "p50", "p90", "p99", "p99.9", "max", "mean"]
            .into_iter()
            .map(String::from)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHist::new();
        assert_eq!(h.total(), 0);
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50, 100), 0);
        assert_eq!(h.percentile(999, 1000), 0);
        assert_eq!(h.iter().count(), 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = LatencyHist::new();
        h.record(12345);
        for (num, den) in [(1, 100), (50, 100), (99, 100), (999, 1000), (1, 1)] {
            assert_eq!(h.percentile(num, den), 12345, "{num}/{den}");
        }
        assert_eq!(h.max(), 12345);
        assert_eq!(h.mean(), 12345.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHist::new();
        for v in 0..LatencyHist::PRECISION {
            h.record(v);
        }
        for v in 0..LatencyHist::PRECISION {
            let got = h.percentile(v + 1, LatencyHist::PRECISION);
            assert_eq!(got, v, "quantile {}", v + 1);
        }
    }

    #[test]
    fn saturating_bucket_at_max_cycle_value() {
        let mut h = LatencyHist::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1);
        assert_eq!(h.max(), u64::MAX);
        // The top bucket saturates but the exact max caps the report.
        assert_eq!(h.percentile(1, 1), u64::MAX);
        assert_eq!(h.percentile(999, 1000), u64::MAX);
        assert_eq!(h.total(), 3);
        // Round-trips through the codec despite the extreme index.
        let mut w = ByteWriter::new();
        h.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = LatencyHist::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn quantization_error_is_bounded() {
        let mut h = LatencyHist::new();
        for v in [100u64, 1_000, 10_000, 1_000_000, 123_456_789] {
            h.record(v);
            let got = h.percentile(1, 1);
            assert!(got >= v, "quantile must not under-report: {got} < {v}");
            assert_eq!(got, h.max(), "top quantile is exact via max");
        }
        // Interior quantiles are within 1/PRECISION relative error.
        let mut h = LatencyHist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50, 100);
        assert!(
            (50_000..=50_000 + 50_000 / 32 + 1).contains(&p50),
            "p50 = {p50}"
        );
    }

    #[test]
    fn merge_is_commutative_and_matches_combined() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut combined = LatencyHist::new();
        for v in [3u64, 700, 70_000, 1] {
            a.record(v);
            combined.record(v);
        }
        for v in [9u64, 700, 123_456_789] {
            b.record(v);
            combined.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, combined);
    }

    #[test]
    fn encoding_is_canonical_and_round_trips() {
        let mut fwd = LatencyHist::new();
        let mut rev = LatencyHist::new();
        let values = [5u64, 90, 5, 1 << 40, 77, 77, 0];
        for &v in &values {
            fwd.record(v);
        }
        for &v in values.iter().rev() {
            rev.record(v);
        }
        let enc = |h: &LatencyHist| {
            let mut w = ByteWriter::new();
            h.encode_into(&mut w);
            w.into_bytes()
        };
        assert_eq!(enc(&fwd), enc(&rev), "insertion order leaked into bytes");
        let bytes = enc(&fwd);
        let mut r = ByteReader::new(&bytes);
        let back = LatencyHist::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, fwd);
    }

    #[test]
    fn decode_rejects_inconsistent_totals() {
        let mut h = LatencyHist::new();
        h.record(10);
        let mut w = ByteWriter::new();
        h.encode_into(&mut w);
        let mut bytes = w.into_bytes();
        bytes[0] ^= 1; // perturb the stored total
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            LatencyHist::decode_from(&mut r),
            Err(SnapshotError::Malformed(_))
        ));
    }

    proptest! {
        #[test]
        fn merge_commutativity_property(
            xs in proptest::collection::vec(0u64..1_000_000_000, 0..200),
            ys in proptest::collection::vec(0u64..1_000_000_000, 0..200),
        ) {
            let mut a = LatencyHist::new();
            for &v in &xs { a.record(v); }
            let mut b = LatencyHist::new();
            for &v in &ys { b.record(v); }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            prop_assert_eq!(ab.total(), (xs.len() + ys.len()) as u64);
            let direct_max = xs.iter().chain(&ys).copied().max().unwrap_or(0);
            prop_assert_eq!(ab.max(), direct_max);
        }

        #[test]
        fn quantiles_are_monotone_and_bounded(
            xs in proptest::collection::vec(0u64..1_000_000_000, 1..300),
        ) {
            let mut h = LatencyHist::new();
            for &v in &xs { h.record(v); }
            let mut prev = 0u64;
            for num in [1u64, 10, 50, 90, 99, 100] {
                let q = h.percentile(num, 100);
                prop_assert!(q >= prev, "quantiles must be monotone");
                prop_assert!(q <= h.max());
                prev = q;
            }
            prop_assert_eq!(h.percentile(100, 100), h.max());
        }

        #[test]
        fn codec_round_trips_any_histogram(
            xs in proptest::collection::vec(0u64..u64::MAX, 0..100),
        ) {
            let mut h = LatencyHist::new();
            for &v in &xs { h.record(v); }
            let mut w = ByteWriter::new();
            h.encode_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let back = LatencyHist::decode_from(&mut r).unwrap();
            r.finish().unwrap();
            prop_assert_eq!(back, h);
        }
    }
}
