//! Seeded samplers for the distributions the simulation needs.
//!
//! The sanctioned dependency set includes `rand` but not `rand_distr`, so the
//! handful of continuous distributions used by the throughput and user models
//! are implemented here: normal (Box–Muller), log-normal, Pareto, and a
//! weighted categorical.  Each is a tiny, well-tested function rather
//! than a framework.

use rand::Rng;

/// Standard normal via the Box–Muller transform.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    debug_assert!(std >= 0.0);
    let u1: f64 = 1.0 - rng.random::<f64>(); // (0, 1]
    let u2: f64 = rng.random::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std * z
}

/// Log-normal parameterized by the *underlying* normal's mean and std
/// (i.e. `exp(N(mu, sigma))`).
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Log-normal parameterized by its median (`exp(mu)`) — more readable at call
/// sites that think in terms of "median throughput 25 Mbit/s".
pub fn log_normal_median<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    debug_assert!(median > 0.0);
    log_normal(rng, median.ln(), sigma)
}

/// Pareto (Type I) with scale `x_min` and shape `alpha`.
///
/// Heavy-tailed for small `alpha`; the mean is finite only for `alpha > 1`.
/// Used for watch-time tails (Fig. 10 is a CCDF with a visible power-law
/// tail) and steady-state dwell times.
pub fn pareto<R: Rng + ?Sized>(rng: &mut R, x_min: f64, alpha: f64) -> f64 {
    debug_assert!(x_min > 0.0 && alpha > 0.0);
    let u: f64 = 1.0 - rng.random::<f64>(); // (0, 1]
    x_min / u.powf(1.0 / alpha)
}

/// Sample an index from unnormalized non-negative weights.
pub fn categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "categorical needs at least one weight");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    let mut u = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        debug_assert!(w >= 0.0, "negative weight");
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1 // floating-point slack lands on the last bucket
}

/// Uniform in `[lo, hi)`.
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    debug_assert!(hi >= lo);
    lo + (hi - lo) * rng.random::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(123)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 30_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut r, 2.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.4, "var {var}");
    }

    #[test]
    fn log_normal_median_is_median() {
        let mut r = rng();
        let n = 20_001;
        let mut xs: Vec<f64> = (0..n).map(|_| log_normal_median(&mut r, 10.0, 0.8)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[n / 2];
        assert!((med - 10.0).abs() / 10.0 < 0.05, "median {med}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn pareto_respects_scale_and_is_heavy_tailed() {
        let mut r = rng();
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| pareto(&mut r, 1.0, 1.2)).collect();
        assert!(xs.iter().all(|&x| x >= 1.0));
        // Heavy tail: the max should dwarf the median by orders of magnitude.
        let max = xs.iter().cloned().fold(0.0, f64::max);
        assert!(max > 100.0, "max {max} not heavy-tailed");
    }

    #[test]
    fn pareto_mean_matches_theory() {
        // For alpha=3, xm=2: mean = alpha*xm/(alpha-1) = 3.
        let mut r = rng();
        let n = 60_000;
        let mean = (0..n).map(|_| pareto(&mut r, 2.0, 3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn categorical_frequencies() {
        let mut r = rng();
        let w = [1.0, 3.0, 6.0];
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[categorical(&mut r, &w)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = w[i] / 10.0;
            let got = c as f64 / n as f64;
            assert!((got - expected).abs() < 0.02, "bucket {i}: {got} vs {expected}");
        }
    }

    #[test]
    fn categorical_single_bucket() {
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(categorical(&mut r, &[0.7]), 0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn categorical_zero_weights_panics() {
        let mut r = rng();
        categorical(&mut r, &[0.0, 0.0]);
    }

    #[test]
    fn uniform_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let x = uniform(&mut r, -2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = rand::rngs::StdRng::seed_from_u64(7);
        let mut b = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(normal(&mut a, 0.0, 1.0), normal(&mut b, 0.0, 1.0));
        }
    }
}
