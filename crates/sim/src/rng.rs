//! A small deterministic pseudo-random number generator.
//!
//! The simulator needs randomness for exponential-backoff jitter and for
//! workload generation, and needs every run to be exactly reproducible
//! from a single `u64` seed regardless of platform or library version.
//! We therefore carry our own tiny generator (xoshiro256**, seeded via
//! SplitMix64) rather than depending on an external crate whose stream
//! could change between releases.

/// A deterministic PRNG (xoshiro256\*\*) seeded from a single `u64`.
///
/// Not cryptographically secure; intended only for simulation jitter and
/// synthetic workload generation.
///
/// # Example
///
/// ```
/// use dsm_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let r = a.range(10);
/// assert!(r < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state, as
        // recommended by the xoshiro authors.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "range bound must be positive");
        // Lemire's multiply-shift rejection method for unbiased bounded
        // integers.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Returns the generator's full internal state (the four xoshiro
    /// words). Two generators with equal state produce identical
    /// streams forever — this is what state digests hash.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Derives an independent generator for a child component.
    ///
    /// Streams derived with distinct `salt` values are statistically
    /// independent of each other and of the parent.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_is_in_bounds_and_covers() {
        let mut rng = SimRng::new(99);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all buckets should be hit in 1000 draws"
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.1));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(3);
        let mut v: Vec<u32> = (0..32).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "a 32-element shuffle should almost surely move something"
        );
    }

    #[test]
    fn forked_streams_differ_from_parent() {
        let mut parent = SimRng::new(11);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut rng = SimRng::new(0);
        // xoshiro with an all-zero state would be stuck at zero; SplitMix
        // seeding must avoid that.
        assert!((0..16).any(|_| rng.next_u64() != 0));
    }
}
