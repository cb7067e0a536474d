//! Mergeable streaming accumulators for out-of-core analysis (§3.4).
//!
//! The paper's power analysis needs statistics over ≥1M stream-hours — far
//! more rows than fit comfortably in RAM once telemetry lives on disk in
//! `.puf` archives.  Its stall-ratio statistics decompose into a small,
//! mergeable state that one streaming pass can maintain (the
//! duration-weighted SSIM mean stays in memory, [`crate::weighted`]):
//!
//! * [`RatioAccumulator`] — the aggregate rebuffering ratio Σ stall/Σ watch
//!   ("the fraction of time spent stalled... a ratio of sums");
//! * [`Reservoir`] — a uniform fixed-size sample of an unbounded stream
//!   (Vitter's Algorithm R), for quantiles and spot checks;
//! * [`PoissonBootstrap`] — percentile bootstrap CIs on the ratio of sums
//!   (Efron & Tibshirani \[12\]) computed in **one pass**: classical
//!   resampling needs random access to all streams, but drawing each
//!   stream's multiplicity per replicate from Poisson(1) is equivalent for
//!   large n and needs only the replicates' running sums.
//!
//! All accumulators are `merge`-able, so per-shard passes (e.g. one per
//! archive file) combine exactly; results depend only on the data and the
//! seeds, never on shard boundaries (for the deterministic accumulators) —
//! the sampling ones ([`Reservoir`], [`PoissonBootstrap`]) are deterministic
//! given their RNG stream.

use crate::bootstrap::ConfidenceInterval;
use rand::Rng;

/// Running ratio of sums Σ numerator / Σ denominator with a stream count —
/// the rebuffering-ratio statistic as mergeable state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RatioAccumulator {
    /// Σ numerator (e.g. total stall seconds).
    pub num: f64,
    /// Σ denominator (e.g. total watch seconds).
    pub den: f64,
    /// Streams folded in.
    pub n: u64,
}

impl RatioAccumulator {
    /// Fold in one stream's `(numerator, denominator)` pair.
    pub fn push(&mut self, num: f64, den: f64) {
        self.num += num;
        self.den += den;
        self.n += 1;
    }

    /// Combine with another accumulator (exact: addition of sums).
    pub fn merge(&mut self, other: &RatioAccumulator) {
        self.num += other.num;
        self.den += other.den;
        self.n += other.n;
    }

    /// The ratio of sums; 0 for an empty or zero-denominator state.
    pub fn ratio(&self) -> f64 {
        if self.den > 0.0 {
            self.num / self.den
        } else {
            0.0
        }
    }
}

/// Fixed-size uniform sample of an unbounded stream (Vitter's Algorithm R).
///
/// After `n ≥ k` pushes, each of the `n` items seen has probability `k/n` of
/// being in the reservoir.  Deterministic given the RNG stream; the sample
/// order within the reservoir is not meaningful.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    items: Vec<T>,
    capacity: usize,
    seen: u64,
}

impl<T> Reservoir<T> {
    /// An empty reservoir holding at most `capacity` items.
    pub fn new(capacity: usize) -> Reservoir<T> {
        assert!(capacity > 0, "reservoir needs positive capacity");
        Reservoir { items: Vec::with_capacity(capacity), capacity, seen: 0 }
    }

    /// Offer one item; it is kept with probability `capacity / seen`.
    pub fn push<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
            return;
        }
        let j = rng.random_range(0..self.seen);
        if let Ok(j) = usize::try_from(j) {
            if j < self.capacity {
                self.items[j] = item;
            }
        }
    }

    /// The current sample (unordered).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Total items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// Single-pass percentile bootstrap on the ratio of sums Σ num / Σ den.
///
/// Classical stream-level resampling ([`crate::bootstrap_ratio_ci`]) draws
/// `n` streams with replacement per replicate — impossible in one pass over
/// an archive.  The Poisson bootstrap replaces each stream's Multinomial
/// multiplicity with an independent Poisson(1) draw per replicate (mean 1,
/// variance 1 — the same first two moments, converging to the same
/// distribution as n grows), so each replicate reduces to a running
/// weighted sum that one pass maintains.  The point estimate uses the exact
/// totals, not a resample.
#[derive(Debug, Clone)]
pub struct PoissonBootstrap {
    /// Exact totals (the point estimate).
    exact: RatioAccumulator,
    /// Per-replicate (Σ num, Σ den) running sums.
    replicates: Vec<(f64, f64)>,
}

/// Draw from Poisson(mean 1) by inversion.  The tail is truncated at 16
/// (P ≈ 1e-14) to bound work per call.
fn poisson1<R: Rng + ?Sized>(rng: &mut R) -> u32 {
    let u: f64 = rng.random();
    let mut k = 0u32;
    let mut p = (-1.0f64).exp();
    let mut cum = p;
    while u > cum && k < 16 {
        k += 1;
        p /= f64::from(k);
        cum += p;
    }
    k
}

impl PoissonBootstrap {
    /// A bootstrap with `n_boot` replicates (≥ 10, as in
    /// [`crate::bootstrap_ratio_ci`]).
    pub fn new(n_boot: usize) -> PoissonBootstrap {
        assert!(n_boot >= 10, "need a meaningful number of resamples");
        PoissonBootstrap {
            exact: RatioAccumulator::default(),
            replicates: vec![(0.0, 0.0); n_boot],
        }
    }

    /// Fold in one stream's `(numerator, denominator)`; each replicate
    /// counts it Poisson(1) times.  Allocation-free.
    pub fn push<R: Rng + ?Sized>(&mut self, num: f64, den: f64, rng: &mut R) {
        self.exact.push(num, den);
        for rep in &mut self.replicates {
            let m = f64::from(poisson1(rng));
            rep.0 += m * num;
            rep.1 += m * den;
        }
    }

    /// Combine with another bootstrap of the same replicate count (exact:
    /// replicate sums add, since Poisson multiplicities are independent
    /// across streams).
    pub fn merge(&mut self, other: &PoissonBootstrap) {
        assert_eq!(self.replicates.len(), other.replicates.len(), "replicate counts must match");
        self.exact.merge(&other.exact);
        for (a, b) in self.replicates.iter_mut().zip(&other.replicates) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }

    /// Streams folded in.
    pub fn n(&self) -> u64 {
        self.exact.n
    }

    /// Σ denominator folded in (e.g. total watch seconds).
    pub fn den_total(&self) -> f64 {
        self.exact.den
    }

    /// Percentile CI at `confidence` (e.g. 0.95), with the exact ratio of
    /// sums as the point estimate.  Same percentile-index convention as
    /// [`crate::bootstrap_ratio_ci`].
    pub fn ci(&self, confidence: f64) -> ConfidenceInterval {
        assert!((0.0..1.0).contains(&confidence) && confidence > 0.5);
        assert!(self.exact.n > 0, "need at least one stream");
        let n_boot = self.replicates.len();
        let mut stats: Vec<f64> = self
            .replicates
            .iter()
            .map(|&(num, den)| if den > 0.0 { num / den } else { 0.0 })
            .collect();
        stats.sort_by(|a, b| a.total_cmp(b));
        let alpha = (1.0 - confidence) / 2.0;
        let lo_idx = ((n_boot as f64 * alpha).floor() as usize).min(n_boot - 1);
        let hi_idx = ((n_boot as f64 * (1.0 - alpha)).ceil() as usize).min(n_boot - 1);
        ConfidenceInterval { lo: stats[lo_idx], point: self.exact.ratio(), hi: stats[hi_idx] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::bootstrap_ratio_ci;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn population(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut r = rng(seed);
        (0..n)
            .map(|_| {
                let u: f64 = r.random();
                let watch = 30.0 * (1.0 / (1.0 - u * 0.999)).powf(0.7);
                let stall =
                    if r.random::<f64>() < 0.04 { watch * 0.05 * r.random::<f64>() } else { 0.0 };
                (stall, watch)
            })
            .collect()
    }

    #[test]
    fn ratio_merge_equals_single_pass() {
        let pop = population(500, 1);
        let mut whole = RatioAccumulator::default();
        let mut left = RatioAccumulator::default();
        let mut right = RatioAccumulator::default();
        for (i, &(s, w)) in pop.iter().enumerate() {
            whole.push(s, w);
            if i % 2 == 0 {
                left.push(s, w);
            } else {
                right.push(s, w);
            }
        }
        left.merge(&right);
        assert_eq!(left.n, whole.n);
        assert!((left.ratio() - whole.ratio()).abs() < 1e-15);
    }

    #[test]
    fn reservoir_keeps_everything_below_capacity() {
        let mut res = Reservoir::new(100);
        let mut r = rng(3);
        for i in 0..50u64 {
            res.push(i, &mut r);
        }
        assert_eq!(res.items().len(), 50);
        assert_eq!(res.seen(), 50);
    }

    #[test]
    fn reservoir_sample_is_roughly_uniform() {
        // Offer 0..10_000; the kept sample's mean should be near 5000.
        let mut res = Reservoir::new(500);
        let mut r = rng(4);
        for i in 0..10_000u64 {
            res.push(i as f64, &mut r);
        }
        assert_eq!(res.items().len(), 500);
        let mean: f64 = res.items().iter().sum::<f64>() / 500.0;
        assert!((3800.0..6200.0).contains(&mean), "sample mean {mean}");
    }

    #[test]
    fn reservoir_is_deterministic_given_seed() {
        let run = || {
            let mut res = Reservoir::new(32);
            let mut r = rng(5);
            for i in 0..1000u64 {
                res.push(i, &mut r);
            }
            res.items().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn poisson1_has_mean_one() {
        let mut r = rng(6);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| u64::from(poisson1(&mut r))).sum();
        let mean = sum as f64 / n as f64;
        assert!((0.97..1.03).contains(&mean), "Poisson(1) sample mean {mean}");
    }

    #[test]
    fn poisson_bootstrap_point_is_exact_ratio() {
        let pop = population(800, 7);
        let mut boot = PoissonBootstrap::new(200);
        let mut r = rng(8);
        for &(s, w) in &pop {
            boot.push(s, w, &mut r);
        }
        let want: f64 = pop.iter().map(|p| p.0).sum::<f64>() / pop.iter().map(|p| p.1).sum::<f64>();
        let ci = boot.ci(0.95);
        assert!((ci.point - want).abs() < 1e-12);
        assert!(ci.lo <= ci.point && ci.point <= ci.hi, "{ci:?}");
    }

    #[test]
    fn poisson_bootstrap_width_tracks_classical_bootstrap() {
        // Same population, same statistic: the one-pass CI must agree with
        // the random-access bootstrap to well within a factor of two.
        let pop = population(4000, 9);
        let mut boot = PoissonBootstrap::new(400);
        let mut r = rng(10);
        for &(s, w) in &pop {
            boot.push(s, w, &mut r);
        }
        let ours = boot.ci(0.95).relative_half_width();
        let classical = bootstrap_ratio_ci(&pop, 400, 0.95, &mut rng(11)).relative_half_width();
        assert!(
            ours < classical * 1.6 && classical < ours * 1.6,
            "poisson {ours} vs classical {classical}"
        );
    }

    #[test]
    fn poisson_bootstrap_narrows_with_more_data() {
        let small = population(300, 12);
        let big = population(30_000, 12);
        let run = |pop: &[(f64, f64)], seed: u64| {
            let mut boot = PoissonBootstrap::new(200);
            let mut r = rng(seed);
            for &(s, w) in pop {
                boot.push(s, w, &mut r);
            }
            boot.ci(0.95).relative_half_width()
        };
        assert!(run(&big, 13) < run(&small, 14));
    }

    #[test]
    fn poisson_bootstrap_merge_combines_shards() {
        let pop = population(2000, 15);
        let (left, right) = pop.split_at(1000);
        let mut a = PoissonBootstrap::new(200);
        let mut b = PoissonBootstrap::new(200);
        let mut ra = rng(16);
        let mut rb = rng(17);
        for &(s, w) in left {
            a.push(s, w, &mut ra);
        }
        for &(s, w) in right {
            b.push(s, w, &mut rb);
        }
        a.merge(&b);
        assert_eq!(a.n(), 2000);
        let want: f64 = pop.iter().map(|p| p.0).sum::<f64>() / pop.iter().map(|p| p.1).sum::<f64>();
        let ci = a.ci(0.95);
        assert!((ci.point - want).abs() < 1e-12);
        // The merged interval must be in the same regime as a single pass.
        let mut whole = PoissonBootstrap::new(200);
        let mut rw = rng(18);
        for &(s, w) in &pop {
            whole.push(s, w, &mut rw);
        }
        let merged_w = ci.relative_half_width();
        let whole_w = whole.ci(0.95).relative_half_width();
        assert!(merged_w < whole_w * 2.0 && whole_w < merged_w * 2.0);
    }
}
