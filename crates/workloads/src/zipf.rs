//! Zipf-distributed key sampling (YCSB-style, Gray et al.).
//!
//! Rank `k` (1-based) is drawn with probability proportional to
//! `1/k^θ`. Used for the skewed-update experiments around §3.5
//! ("Handling Skews in Incoming Updates").

use rand::Rng;

/// A Zipf(θ) sampler over `1..=n`.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Build a sampler over `1..=n` with skew `theta` in `(0, 1)`.
    /// θ → 0 approaches uniform; θ ≈ 0.99 is the YCSB default hot-spot.
    pub(crate) fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0);
        assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for small n; integral approximation for large n.
        if n <= 10_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            // ∫_{10000}^{n} x^-θ dx
            let tail = ((n as f64).powf(1.0 - theta) - 10_000f64.powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }

    /// Sample a rank in `1..=n` (rank 1 is the hottest).
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 1;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 2;
        }
        let k = ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.clamp(1, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn histogram(theta: f64, n: u64, samples: usize) -> Vec<u64> {
        let z = Zipf::new(n, theta);
        let mut rng = StdRng::seed_from_u64(42);
        let mut h = vec![0u64; n as usize + 1];
        for _ in 0..samples {
            let k = z.sample(&mut rng);
            h[k as usize] += 1;
        }
        h
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(100, 0.9);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!((1..=100).contains(&k));
        }
    }

    #[test]
    fn high_theta_concentrates_mass() {
        let h = histogram(0.99, 1000, 100_000);
        let top10: u64 = h[1..=10].iter().sum();
        assert!(
            top10 as f64 > 0.3 * 100_000.0,
            "top-10 ranks got {top10} of 100k"
        );
    }

    #[test]
    fn low_theta_is_flatter() {
        let skewed = histogram(0.99, 1000, 100_000);
        let flat = histogram(0.01, 1000, 100_000);
        assert!(
            flat[1] < skewed[1] / 2,
            "flat {} skewed {}",
            flat[1],
            skewed[1]
        );
    }

    #[test]
    fn large_n_does_not_overflow_or_stall() {
        let z = Zipf::new(1 << 30, 0.8);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let k = z.sample(&mut rng);
            assert!((1..=1 << 30).contains(&k));
        }
    }
}
