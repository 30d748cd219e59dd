//! Deterministic random number generation for the simulator.
//!
//! The whole study must be a pure function of one `u64` seed, stable across
//! library upgrades, so the generator is implemented here
//! (xoshiro256\*\*, seeded via SplitMix64) rather than delegating to the
//! `rand` crate's version-dependent `StdRng`.

/// xoshiro256** generator with convenience distributions.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second normal deviate from Box-Muller.
    spare_normal: Option<f64>,
}

impl Rng {
    /// Creates a generator from a seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Self { s: [next(), next(), next(), next()], spare_normal: None }
    }

    /// Derives an independent stream (e.g. one per taxi) from this seed
    /// state and a stream id.
    pub fn fork(&self, stream: u64) -> Rng {
        Rng::new(
            self.s[0]
                .wrapping_mul(0xd6e8_feb8_6659_fd93)
                .wrapping_add(stream.wrapping_mul(0xa076_1d64_78bd_642f))
                .wrapping_add(self.s[2]),
        )
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        // Multiply-shift; bias is negligible for simulator purposes.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal deviate (Box-Muller with caching).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid log(0).
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Exponential deviate with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Weighted choice: returns an index drawn proportionally to `weights`.
    /// Panics if all weights are zero or the slice is empty.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted() needs a positive total weight");
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(8);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn forks_are_independent() {
        let base = Rng::new(7);
        let mut a = base.fork(0);
        let mut b = base.fork(1);
        assert_ne!(a.next_u64(), b.next_u64());
        // Forking is deterministic.
        let mut a2 = base.fork(0);
        assert_eq!(Rng::new(7).fork(0).next_u64(), a2.next_u64() /* same state */);
    }

    #[test]
    fn uniform_mean_and_range() {
        let mut r = Rng::new(42);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(42);
        let n = 50_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::new(42);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.exponential(10.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(42);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let k = r.below(10);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn weighted_respects_weights() {
        let mut r = Rng::new(42);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[r.weighted(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let frac2 = counts[2] as f64 / 30_000.0;
        assert!((frac2 - 0.7).abs() < 0.03, "{frac2}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = Rng::new(42);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }
}
