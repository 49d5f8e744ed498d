//! A small deterministic RNG (SplitMix64 state advance + xorshift-style
//! output mixing).
//!
//! The simulation must be bit-reproducible across runs and across dependency
//! upgrades, so we do not rely on an external RNG crate whose algorithm may
//! change between versions. SplitMix64 is tiny, fast and has well-understood
//! statistical quality — more than sufficient for workload generation (client
//! movement, packet jitter, page-dirtying patterns).

/// Deterministic pseudo-random number generator.
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl DetRng {
    /// Create a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point and decorrelate trivial seeds.
        let mut rng = DetRng {
            state: seed.wrapping_add(GOLDEN_GAMMA),
        };
        rng.next_u64();
        rng
    }

    /// Derive an independent child stream; children with distinct `stream`
    /// tags are decorrelated from each other and from the parent.
    pub fn fork(&self, stream: u64) -> DetRng {
        DetRng::new(self.state ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Advance the stream past `n` values without producing them: the
    /// generator (and any [`fork`](Self::fork) taken from it) ends up where
    /// `n` calls of [`next_u64`](Self::next_u64) would leave it. SplitMix64
    /// is counter-based, so this is one multiply-add.
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GOLDEN_GAMMA));
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Multiply-shift rejection-free mapping (Lemire); bias is < 2^-64 per
        // draw, irrelevant for workload generation.
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal deviate (Box–Muller; one value per call, the pair's
    /// second value is discarded to keep the stream position predictable).
    pub fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.f64();
            if u1 > f64::EPSILON {
                let u2 = self.f64();
                return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Exponential deviate with the given mean (for inter-arrival jitter).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned outputs. Every simulated figure is a function of this
    /// stream, so a refactor that shifts it must fail here rather than
    /// silently move every output. Seed 0 is the reference SplitMix64
    /// sequence (its 3rd–5th outputs: `new` consumes the first).
    #[test]
    fn golden_stream() {
        let mut r = DetRng::new(0);
        assert_eq!(
            [r.next_u64(), r.next_u64(), r.next_u64()],
            [
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
                0x1b39_896a_51a8_749b
            ]
        );
        let mut r = DetRng::new(0x05CA_1EBC);
        assert_eq!(
            [r.next_u64(), r.next_u64()],
            [0x641f_1512_bcc1_d078, 0xe96c_801c_f3ae_6ddc]
        );
        let mut r = DetRng::new(42);
        assert_eq!(
            [
                r.index(1),
                r.index(2),
                r.index(7),
                r.index(400),
                r.index(4096)
            ],
            [0, 0, 0, 347, 894]
        );
        assert_eq!(
            [
                r.range_u64(10, 20),
                r.range_u64(0, u64::MAX),
                r.range_u64(1000, 1001)
            ],
            [18, 6_270_620_877_612_482_004, 1000]
        );
        assert_eq!(
            [r.f64(), r.f64()],
            [0.204_901_831_798_775_52, 0.492_989_185_794_692_4]
        );
        let parent = DetRng::new(7);
        assert_eq!(parent.fork(1).next_u64(), 0xcde6_d688_8ee6_a1e0);
        assert_eq!(parent.fork(0xdead).next_u64(), 0xfbb0_899f_31e6_1324);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_decorrelated() {
        let parent = DetRng::new(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = DetRng::new(4);
        for _ in 0..10_000 {
            let x = rng.range_u64(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn range_mean_is_roughly_centred() {
        let mut rng = DetRng::new(5);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| rng.range_u64(0, 100)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 49.5).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = DetRng::new(6);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = DetRng::new(8);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::new(9);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(10);
        assert!((0..100).all(|_| !rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `skip(n)` leaves the stream, and every fork of it, exactly where
        /// `n` calls of `next_u64` would.
        #[test]
        fn skip_matches_n_draws(seed in 0u64..u64::MAX, n in 0u64..5000, stream in 0u64..u64::MAX) {
            let mut drawn = DetRng::new(seed);
            for _ in 0..n {
                drawn.next_u64();
            }
            let mut skipped = DetRng::new(seed);
            skipped.skip(n);
            prop_assert_eq!(skipped.fork(stream).next_u64(), drawn.fork(stream).next_u64());
            prop_assert_eq!(skipped.next_u64(), drawn.next_u64());
        }
    }
}
