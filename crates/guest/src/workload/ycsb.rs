//! YCSB-style workload generation.
//!
//! Implements the Yahoo! Cloud Serving Benchmark's request generator: a
//! zipfian distribution over record keys (scrambled so hot keys spread
//! across the keyspace) and a read/update operation mix. The paper uses
//! YCSB with a 95/5 read-heavy mix against memcached and a 30/70
//! write-heavy mix against Cassandra.

use simkit::Prng;

/// Zipfian-distributed integer generator over `[0, n)`.
///
/// Uses the Gray et al. rejection-free method, the same algorithm as the
/// YCSB reference implementation, with the standard constant θ = 0.99.
///
/// # Examples
///
/// ```
/// use guestsim::workload::ycsb::Zipfian;
/// use simkit::Prng;
/// let mut z = Zipfian::new(1000);
/// let mut prng = Prng::new(1);
/// let v = z.next(&mut prng);
/// assert!(v < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipfian {
    /// A zipfian over `[0, n)` with θ = 0.99.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Zipfian {
        Self::with_theta(n, 0.99)
    }

    /// A zipfian with explicit skew θ in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or θ is outside `(0, 1)`.
    pub fn with_theta(n: u64, theta: f64) -> Zipfian {
        assert!(n > 0, "zipfian needs at least one item");
        assert!((0.0..1.0).contains(&theta) && theta > 0.0, "theta in (0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            zetan,
            alpha,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n; integral approximation beyond a cutoff keeps
        // construction O(1)-ish for huge keyspaces.
        const EXACT: u64 = 100_000;
        if n <= EXACT {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=EXACT).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let tail =
                ((n as f64).powf(1.0 - theta) - (EXACT as f64).powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }

    /// Number of items.
    pub fn item_count(&self) -> u64 {
        self.n
    }

    /// Draws the next zipfian value (0 is the hottest key).
    pub fn next(&mut self, prng: &mut Prng) -> u64 {
        let u = prng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }

    /// θ used by this generator.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The zeta(2, θ) constant (exposed for tests).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

/// Scrambles zipfian ranks across the keyspace (YCSB's
/// `ScrambledZipfianGenerator`): rank 0 is still drawn most often but maps
/// to a pseudorandom key.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// A scrambled zipfian over `[0, n)`.
    pub fn new(n: u64) -> ScrambledZipfian {
        ScrambledZipfian {
            inner: Zipfian::new(n),
        }
    }

    /// Draws the next key.
    pub fn next(&mut self, prng: &mut Prng) -> u64 {
        let rank = self.inner.next(prng);
        // Murmur-style scramble (salted so rank 0 moves too), folded into
        // the keyspace.
        let mut h = (rank ^ 0x5851_F42D_4C95_7F2D).wrapping_mul(0xC6A4_A793_5BD1_E995);
        h ^= h >> 47;
        h = h.wrapping_mul(0xC6A4_A793_5BD1_E995);
        h % self.inner.item_count()
    }
}

/// One YCSB operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbOp {
    /// Read the record with this key.
    Read(u64),
    /// Update the record with this key.
    Update(u64),
}

/// A YCSB operation mix over a keyspace.
///
/// # Examples
///
/// ```
/// use guestsim::workload::ycsb::{YcsbWorkload, YcsbOp};
/// use simkit::Prng;
/// let mut w = YcsbWorkload::memcached_style(10_000);
/// let mut prng = Prng::new(1);
/// match w.next(&mut prng) {
///     YcsbOp::Read(k) | YcsbOp::Update(k) => assert!(k < 10_000),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct YcsbWorkload {
    keys: ScrambledZipfian,
    read_ratio: f64,
}

impl YcsbWorkload {
    /// A workload with `read_ratio` reads (rest are updates).
    ///
    /// # Panics
    ///
    /// Panics if `read_ratio` is outside `[0, 1]`.
    pub fn new(records: u64, read_ratio: f64) -> YcsbWorkload {
        assert!((0.0..=1.0).contains(&read_ratio), "ratio in [0,1]");
        YcsbWorkload {
            keys: ScrambledZipfian::new(records),
            read_ratio,
        }
    }

    /// The paper's memcached mix: 95% reads, 5% writes.
    pub fn memcached_style(records: u64) -> YcsbWorkload {
        YcsbWorkload::new(records, 0.95)
    }

    /// The paper's Cassandra mix: 30% reads, 70% writes.
    pub fn cassandra_style(records: u64) -> YcsbWorkload {
        YcsbWorkload::new(records, 0.30)
    }

    /// The configured read ratio.
    pub fn read_ratio(&self) -> f64 {
        self.read_ratio
    }

    /// Draws the next operation.
    pub fn next(&mut self, prng: &mut Prng) -> YcsbOp {
        let key = self.keys.next(prng);
        if prng.chance(self.read_ratio) {
            YcsbOp::Read(key)
        } else {
            YcsbOp::Update(key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_respects_bounds() {
        let mut z = Zipfian::new(100);
        let mut prng = Prng::new(1);
        for _ in 0..10_000 {
            assert!(z.next(&mut prng) < 100);
        }
    }

    #[test]
    fn zipfian_is_skewed() {
        let mut z = Zipfian::new(1000);
        let mut prng = Prng::new(2);
        let mut hits0 = 0u32;
        const N: u32 = 100_000;
        for _ in 0..N {
            if z.next(&mut prng) == 0 {
                hits0 += 1;
            }
        }
        let p0 = hits0 as f64 / N as f64;
        // Rank 0 of a θ=0.99 zipfian over 1000 items has p ≈ 1/zeta ≈ 0.12.
        assert!(p0 > 0.05, "hottest key probability was {p0}");
    }

    #[test]
    fn zipfian_large_keyspace_constructs_fast() {
        let mut z = Zipfian::new(1_000_000_000);
        let mut prng = Prng::new(3);
        for _ in 0..100 {
            assert!(z.next(&mut prng) < 1_000_000_000);
        }
    }

    #[test]
    fn scrambled_spreads_hot_key() {
        let mut s = ScrambledZipfian::new(1000);
        let mut prng = Prng::new(4);
        // The most frequent *key* should not be 0 after scrambling.
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[s.next(&mut prng) as usize] += 1;
        }
        let hottest = counts.iter().enumerate().max_by_key(|&(_, c)| c).unwrap().0;
        assert_ne!(hottest, 0, "scramble should move the hot key");
    }

    #[test]
    fn mixes_hit_requested_ratio() {
        let mut w = YcsbWorkload::memcached_style(1000);
        let mut prng = Prng::new(5);
        let reads = (0..100_000)
            .filter(|_| matches!(w.next(&mut prng), YcsbOp::Read(_)))
            .count();
        let ratio = reads as f64 / 100_000.0;
        assert!((ratio - 0.95).abs() < 0.01, "read ratio {ratio}");

        let mut c = YcsbWorkload::cassandra_style(1000);
        let reads = (0..100_000)
            .filter(|_| matches!(c.next(&mut prng), YcsbOp::Read(_)))
            .count();
        let ratio = reads as f64 / 100_000.0;
        assert!((ratio - 0.30).abs() < 0.01, "read ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn empty_keyspace_panics() {
        Zipfian::new(0);
    }
}
