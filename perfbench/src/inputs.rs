//! Seeded input generation. Every input the benchmark feeds the program
//! is a pure function of the workload seed, so one seed reproduces the
//! same keys, values and request streams on every run.

/// SplitMix64: a tiny, statistically solid generator whose whole state
/// is one word, so every stream is cheap to derive from `(seed, tag)`.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for `(seed, tag)` — e.g. one per connection
    /// and phase.
    pub fn stream(seed: u64, tag: u64) -> Self {
        Self(mix64(seed ^ mix64(tag.wrapping_add(0x6A09_E667_F3BC_C909))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (Lemire's multiply-high; bias below 2^-32 for
    /// the sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// The SplitMix64 / Murmur3 finalizer: a bijection on `u64`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const MASK63: u64 = u64::MAX >> 1;

/// The `i`-th key of the seed's key universe (`i < 2^63`). Every step is
/// a bijection on 63-bit values (xor-shift, and multiplication by an odd
/// constant modulo 2^63), so distinct indices give distinct keys, and
/// every key stays below 2^63, clear of the tables' reserved sentinels.
pub fn key(seed: u64, i: u64) -> u64 {
    let mut z = (i ^ mix64(seed)) & MASK63;
    z = ((z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9)) & MASK63;
    z = ((z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB)) & MASK63;
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn one_seed_one_stream() {
        let a: Vec<u64> =
            (0..100).scan(SplitMix64::stream(7, 3), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> =
            (0..100).scan(SplitMix64::stream(7, 3), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> =
            (0..100).scan(SplitMix64::stream(8, 3), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(1);
        assert!((0..10_000).all(|_| r.below(37) < 37));
    }

    #[test]
    fn keys_are_distinct_and_unreserved() {
        let keys: HashSet<u64> = (0..1u64 << 20).map(|i| key(42, i)).collect();
        assert_eq!(keys.len(), 1 << 20);
        assert!(keys.iter().all(|&k| k < sevendim_core::TOMBSTONE_KEY));
    }
}
