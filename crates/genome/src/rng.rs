//! A small seeded PRNG (xoshiro256**), so the workspace needs no external
//! `rand` crate and builds fully offline.
//!
//! The synthetic assemblies ([`crate::synth`]) and every seeded-random test
//! in the workspace draw from this generator. It is deterministic for a
//! given seed across platforms, which is what the reproduction cares about —
//! statistical quality beyond that is a non-goal (xoshiro256** passes the
//! usual batteries anyway).
//!
//! # Examples
//!
//! ```
//! use genome::rng::Xoshiro256;
//!
//! let mut a = Xoshiro256::seed_from_u64(7);
//! let mut b = Xoshiro256::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!(a.gen_below(10) < 10);
//! ```

/// A xoshiro256** generator seeded through SplitMix64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed the generator from a single `u64` by expanding it with
    /// SplitMix64 (the seeding procedure the xoshiro authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256 {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly random bits.
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

    /// A uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform index in `0..n` via Lemire's multiply-shift reduction.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn gen_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_below needs a non-empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A uniform value in `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "gen_range needs lo < hi, got {lo}..{hi}");
        lo + self.gen_below(hi - lo)
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_below(i + 1);
            slice.swap(i, j);
        }
    }

    /// A reference to a uniformly chosen element, or `None` when empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_below(slice.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = Xoshiro256::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_below_is_roughly_uniform() {
        let mut r = Xoshiro256::seed_from_u64(9);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[r.gen_below(8)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Xoshiro256::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = Xoshiro256::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut r = Xoshiro256::seed_from_u64(11);
        let items = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &v = r.choose(&items).unwrap();
            seen[items.iter().position(|&x| x == v).unwrap()] = true;
        }
        assert_eq!(seen, [true; 3]);
        assert!(r.choose::<u8>(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "non-empty range")]
    fn gen_below_zero_panics() {
        Xoshiro256::seed_from_u64(0).gen_below(0);
    }
}
