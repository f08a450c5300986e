//! Deterministic, stream-split random-number generation.
//!
//! Experiments in the *Diversify!* reproduction compare system
//! configurations under *common random numbers*: every logical component
//! draws from its own [`RngStream`] derived from `(master_seed, stream_id)`
//! so that changing one component's behaviour does not perturb the random
//! sequence seen by the others.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Identifies a logical random stream within a simulation (e.g. "activity 3
/// firing delays" or "node 7 exploit outcomes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

/// SplitMix64 step — the standard seed-expansion finalizer. Used to derive
/// well-decorrelated child seeds from `(master, stream)` pairs.
#[must_use]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a master seed and a stream identifier.
///
/// The derivation is two rounds of SplitMix64 over the XOR-combined inputs,
/// which empirically decorrelates adjacent streams.
///
/// # Examples
///
/// ```
/// use diversify_des::{derive_seed, StreamId};
/// let a = derive_seed(42, StreamId(0));
/// let b = derive_seed(42, StreamId(1));
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(42, StreamId(0)));
/// ```
#[must_use]
pub fn derive_seed(master: u64, stream: StreamId) -> u64 {
    splitmix64(splitmix64(master) ^ splitmix64(stream.0.wrapping_mul(0xA24B_AED4_963E_E407)))
}

/// A named, independently seeded random stream.
///
/// Wraps [`SmallRng`] (xoshiro-family, fast and reproducible across runs of
/// the same binary) and records its provenance for debugging.
#[derive(Debug)]
pub struct RngStream {
    id: StreamId,
    rng: SmallRng,
}

impl RngStream {
    /// Creates the stream identified by `id` under `master` seed.
    #[must_use]
    pub fn new(master: u64, id: StreamId) -> Self {
        RngStream {
            id,
            rng: SmallRng::seed_from_u64(derive_seed(master, id)),
        }
    }

    /// The stream identifier this stream was created with.
    #[must_use]
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// Draws a uniform value in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53-bit mantissa construction for an unbiased double in [0,1).
        (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0,1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Draws an exponential variate with the given `rate` (λ).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -u.ln() / rate
    }

    /// Draws a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform_range requires lo <= hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Draws an integer uniformly from `0..n`.
    ///
    /// Each call divides twice: once for the rejection zone and once for
    /// the remainder. Hot loops that draw from a fixed `n` should build
    /// an [`IndexDraw`] once and call [`RngStream::draw_index`], which
    /// returns the same indexes with multiplications only.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires non-empty range");
        // Rejection sampling for an unbiased draw.
        let n64 = n as u64;
        let zone = u64::MAX - (u64::MAX % n64);
        loop {
            let v = self.rng.next_u64();
            if v < zone {
                return (v % n64) as usize;
            }
        }
    }

    /// Draws an integer uniformly from `0..n`, for the `n` that `draw`
    /// was built for: the same value [`RngStream::index`] returns, from
    /// the same `next_u64` values, without a division.
    #[inline]
    pub fn draw_index(&mut self, draw: &IndexDraw) -> usize {
        loop {
            let v = self.rng.next_u64();
            if v < draw.zone {
                return draw.reduce(v);
            }
        }
    }

    /// Selects an index from a discrete distribution given by `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative value, or sums to
    /// zero.
    pub fn discrete(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "discrete requires at least one weight");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0, "discrete weights must be non-negative");
                w
            })
            .sum();
        assert!(total > 0.0, "discrete weights must not all be zero");
        let mut u = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }

    /// Draws a standard normal variate (Box–Muller, polar form).
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let x = self.uniform_range(-1.0, 1.0);
            let y = self.uniform_range(-1.0, 1.0);
            let s = x * x + y * y;
            if s > 0.0 && s < 1.0 {
                return x * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Draws a normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `sd` is negative.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        assert!(sd >= 0.0, "standard deviation must be non-negative");
        mean + sd * self.standard_normal()
    }

    /// Draws a Weibull variate with `shape` k and `scale` λ, a common model
    /// for time-to-compromise distributions.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not strictly positive.
    pub fn weibull(&mut self, shape: f64, scale: f64) -> f64 {
        assert!(
            shape > 0.0 && scale > 0.0,
            "weibull parameters must be positive"
        );
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        scale * (-u.ln()).powf(1.0 / shape)
    }

    /// Draws a log-normal variate parameterized by the mean and standard
    /// deviation of the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }
}

/// A bounded-index draw over `0..n` with its divisions done once, up
/// front: the rejection zone of [`RngStream::index`] and the reciprocal
/// `m = ⌊u64::MAX / n⌋`.
///
/// [`RngStream::draw_index`] consumes exactly the `next_u64` values
/// `index(n)` consumes and returns exactly the same `v % n`, from a high
/// multiply and one conditional subtraction (division by an invariant
/// integer, Granlund & Montgomery 1994). A multiply-shift mapping
/// without the remainder would be cheaper still, but it returns
/// different indexes, and so different trajectories.
///
/// # Examples
///
/// ```
/// use diversify_des::{IndexDraw, RngStream, StreamId};
/// let draw = IndexDraw::new(12);
/// let mut a = RngStream::new(7, StreamId(1));
/// let mut b = RngStream::new(7, StreamId(1));
/// for _ in 0..100 {
///     assert_eq!(a.draw_index(&draw), b.index(12));
/// }
/// assert_eq!(a.uniform(), b.uniform());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexDraw {
    n: u64,
    /// `m · n = u64::MAX − u64::MAX % n`, the zone of `index(n)`: draws
    /// at or above it are rejected.
    zone: u64,
    /// `⌊u64::MAX / n⌋`.
    m: u64,
}

impl IndexDraw {
    /// Precomputes the draw over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "index requires non-empty range");
        let n = n as u64;
        let m = u64::MAX / n;
        IndexDraw { n, zone: m * n, m }
    }

    /// `v % n`, for every `v`. The quotient estimate `⌊v · m / 2^64⌋`
    /// falls short of `⌊v / n⌋` by at most one, since
    /// `v/n − v·m/2^64 = v · (2^64 − m·n) / (n · 2^64) ≤ v / 2^64 < 1`
    /// (`2^64 − m·n = u64::MAX % n + 1 ≤ n`), so the first remainder is
    /// below `2n` and one subtraction of `n` finishes it.
    #[inline]
    fn reduce(&self, v: u64) -> usize {
        let q = ((u128::from(v) * u128::from(self.m)) >> 64) as u64;
        let r = v - q * self.n;
        (if r >= self.n { r - self.n } else { r }) as usize
    }
}

impl RngCore for RngStream {
    fn next_u32(&mut self) -> u32 {
        self.rng.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.rng.fill_bytes(dest);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.rng.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn streams_are_reproducible() {
        let mut a = RngStream::new(7, StreamId(3));
        let mut b = RngStream::new(7, StreamId(3));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = RngStream::new(7, StreamId(0));
        let mut b = RngStream::new(7, StreamId(1));
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = RngStream::new(1, StreamId(0));
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut r = RngStream::new(2, StreamId(0));
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = RngStream::new(3, StreamId(0));
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        assert!(!r.bernoulli(-0.5));
        assert!(r.bernoulli(1.5));
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = RngStream::new(4, StreamId(0));
        let hits = (0..100_000).filter(|_| r.bernoulli(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = RngStream::new(5, StreamId(0));
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        RngStream::new(0, StreamId(0)).exponential(0.0);
    }

    #[test]
    fn index_unbiased_small() {
        let mut r = RngStream::new(6, StreamId(0));
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[r.index(5)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    /// The bounds every case of [`index_draw_matches_index`] covers: the
    /// small lateral degrees, each power of two with its neighbours, and
    /// the bounds with the widest rejection zones.
    fn edge_bounds() -> Vec<usize> {
        let mut ns: Vec<u64> = vec![1, 2, 3, 12, (1 << 32) - 1, (1 << 63) + 1, u64::MAX];
        for k in 1..64 {
            let p = 1u64 << k;
            ns.extend([p - 1, p, p + 1]);
        }
        ns.into_iter()
            .filter_map(|n| usize::try_from(n).ok())
            .collect()
    }

    /// 256 draws from `0..n` agree between [`IndexDraw`] and `index`,
    /// the two streams stay in step, and the remainder equals `%` at the
    /// edges of the divisor and of the rejection zone.
    fn assert_draw_matches_index(n: usize, seed: u64) {
        let draw = IndexDraw::new(n);
        let mut fast = RngStream::new(seed, StreamId(5));
        let mut oracle = RngStream::new(seed, StreamId(5));
        for k in 0..256 {
            let i = fast.draw_index(&draw);
            assert_eq!(i, oracle.index(n), "n={n} seed={seed} draw {k}");
        }
        assert_eq!(fast.next_u64(), oracle.next_u64(), "n={n} seed={seed}");
        let n64 = n as u64;
        for v in [0, n64 - 1, n64, draw.zone - 1, draw.zone, u64::MAX] {
            assert_eq!(draw.reduce(v) as u64, v % n64, "n={n} v={v}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The precomputed draw is `index` without the divisions, over
        /// random seeds: the edge bounds plus one random bound per case
        /// (a random value cut to a random bit width, so small and huge
        /// bounds both occur).
        #[test]
        fn index_draw_matches_index(seed in any::<u64>(), raw in any::<u64>(), bits in 1u32..=64) {
            let random = usize::try_from((raw >> (64 - bits)).max(1)).unwrap_or(usize::MAX);
            for n in edge_bounds().into_iter().chain([random]) {
                assert_draw_matches_index(n, seed);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn index_draw_rejects_empty_range() {
        let _ = IndexDraw::new(0);
    }

    #[test]
    fn discrete_respects_weights() {
        let mut r = RngStream::new(8, StreamId(0));
        let mut counts = [0usize; 3];
        for _ in 0..60_000 {
            counts[r.discrete(&[1.0, 2.0, 3.0])] += 1;
        }
        assert!((counts[0] as f64 / 60_000.0 - 1.0 / 6.0).abs() < 0.01);
        assert!((counts[2] as f64 / 60_000.0 - 0.5).abs() < 0.01);
    }

    #[test]
    fn normal_moments() {
        let mut r = RngStream::new(9, StreamId(0));
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let mut r = RngStream::new(10, StreamId(0));
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.weibull(1.0, 2.0)).sum::<f64>() / n as f64;
        // Weibull(k=1, λ=2) has mean λ = 2.
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn derive_seed_spreads_bits() {
        // Adjacent streams should differ in roughly half their bits.
        let a = derive_seed(0, StreamId(0));
        let b = derive_seed(0, StreamId(1));
        let diff = (a ^ b).count_ones();
        assert!(diff > 10, "only {diff} differing bits");
    }
}
