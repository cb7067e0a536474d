//! Loss functions and probability utilities.
//!
//! The TTP is trained by minimizing "the cross-entropy loss between the output
//! probability distribution and the discretized actual transmission time"
//! (§4.3); Pensieve's actor–critic update additionally needs log-prob
//! gradients and an entropy bonus, both of which reduce to the same softmax
//! plumbing implemented here.

use crate::matrix::Matrix;

/// Numerically-stable row-wise softmax, applied in place (allocation-free
/// on inference hot paths).
// lint: panic-free — the only division is f32 by the row's exp-sum (total by IEEE-754)
pub fn softmax_rows_inplace(logits: &mut Matrix) {
    for r in 0..logits.rows() {
        let row = logits.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// Mean cross-entropy over the batch with optional per-sample weights.
///
/// Returns the loss and writes `dlogits`, the gradient of the (weighted)
/// mean loss with respect to the logits — ready to feed to
/// [`Mlp::backward_into`](crate::Mlp::backward_into) — into a caller-owned
/// matrix (resized to fit), so the training hot loop performs no
/// allocations in steady state.
///
/// Weights implement the paper's recency weighting: "Within the 14-day window,
/// we weight more recent days more heavily" (§4.3).
// lint: panic-free — entry asserts pin logits/targets/weights dims; divisions are f32 by total_weight asserted > 0
// lint: alloc-free — dlogits resizes once to the batch shape; warm calls are allocation-free per tests/alloc_gate.rs
pub fn softmax_cross_entropy_into(
    logits: &Matrix,
    targets: &[usize],
    weights: Option<&[f32]>,
    dlogits: &mut Matrix,
) -> f32 {
    let n = logits.rows();
    assert_eq!(targets.len(), n, "one target per row");
    if let Some(w) = weights {
        assert_eq!(w.len(), n, "one weight per row");
    }
    let total_weight: f32 = match weights {
        Some(w) => w.iter().sum(),
        None => n as f32,
    };
    assert!(total_weight > 0.0, "weights must not sum to zero");

    dlogits.resize(n, logits.cols());
    dlogits.data_mut().copy_from_slice(logits.data());
    softmax_rows_inplace(dlogits);
    let mut loss = 0.0f64;
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < logits.cols(), "target class out of range");
        let w = weights.map_or(1.0, |w| w[r]);
        let p = dlogits.get(r, t).max(1e-12);
        loss += f64::from(w) * -f64::from(p.ln());
        // d/dlogit of -w·log softmax = w·(p - onehot) / total_weight
        let row = dlogits.row_mut(r);
        for x in row.iter_mut() {
            *x *= w / total_weight;
        }
        row[t] -= w / total_weight;
    }
    (loss / f64::from(total_weight)) as f32
}

/// Mean-squared-error loss; returns `(loss, dpred)`.
///
/// Used by the Pensieve critic (value network) and by regression-style
/// predictor ablations.
pub fn mse(pred: &Matrix, target: &[f32]) -> (f32, Matrix) {
    let n = pred.rows();
    assert_eq!(pred.cols(), 1, "mse expects a single output column");
    assert_eq!(target.len(), n);
    let mut d = Matrix::zeros(n, 1);
    let mut loss = 0.0f64;
    for (r, &t) in target.iter().enumerate() {
        let e = pred.get(r, 0) - t;
        loss += f64::from(e) * f64::from(e);
        d.set(r, 0, 2.0 * e / n as f32);
    }
    ((loss / n as f64) as f32, d)
}

/// Shannon entropy of each row of a probability matrix, in nats.
pub fn entropy_rows(probs: &Matrix) -> Vec<f32> {
    (0..probs.rows())
        .map(|r| probs.row(r).iter().filter(|&&p| p > 0.0).map(|&p| -p * p.ln()).sum())
        .collect()
}

/// Index of the largest element (first on ties).
///
/// Generic over the element type so `f64` probability tables can be argmaxed
/// directly instead of being narrowed through an intermediate `Vec<f32>`
/// (which can flip near-ties and costs an allocation per call).
pub fn argmax<T: PartialOrd>(v: &[T]) -> usize {
    let Some(mut max) = v.first() else { return 0 };
    let mut best = 0;
    for (i, x) in v.iter().enumerate().skip(1) {
        if x > max {
            (best, max) = (i, x);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn softmax(logits: &Matrix) -> Matrix {
        let mut p = logits.clone();
        softmax_rows_inplace(&mut p);
        p
    }

    fn cross_entropy(logits: &Matrix, targets: &[usize], weights: Option<&[f32]>) -> (f32, Matrix) {
        let mut dlogits = Matrix::default();
        let loss = softmax_cross_entropy_into(logits, targets, weights, &mut dlogits);
        (loss, dlogits)
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -100.0, 0.0, 100.0]);
        let p = softmax(&m);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(p.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
        // Extreme logits stay finite.
        assert!((p.get(1, 2) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        let logits = Matrix::from_vec(1, 3, vec![50.0, 0.0, 0.0]);
        let (l, _) = cross_entropy(&logits, &[0], None);
        assert!(l < 1e-4);
    }

    #[test]
    fn cross_entropy_uniform_is_log_k() {
        let logits = Matrix::zeros(1, 21);
        let (l, _) = cross_entropy(&logits, &[7], None);
        assert!((l - (21f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero_per_row() {
        let logits = Matrix::from_vec(2, 3, vec![0.3, -1.0, 2.0, 1.0, 1.0, 1.0]);
        let (_, d) = cross_entropy(&logits, &[2, 0], None);
        for r in 0..2 {
            let s: f32 = d.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "softmax-CE grad rows sum to zero");
        }
    }

    #[test]
    fn weighted_cross_entropy_prefers_heavy_samples() {
        // Two contradictory samples; with weight on the second, loss is
        // dominated by it.
        let logits = Matrix::from_vec(2, 2, vec![5.0, 0.0, 5.0, 0.0]);
        let (unweighted, _) = cross_entropy(&logits, &[0, 1], None);
        let (weighted, _) = cross_entropy(&logits, &[0, 1], Some(&[0.01, 1.0]));
        assert!(weighted > unweighted, "weighting the wrong sample raises the loss");
    }

    #[test]
    fn mse_known_value() {
        let p = Matrix::from_vec(2, 1, vec![1.0, 3.0]);
        let (l, d) = mse(&p, &[0.0, 3.0]);
        assert!((l - 0.5).abs() < 1e-6);
        assert!((d.get(0, 0) - 1.0).abs() < 1e-6);
        assert!(d.get(1, 0).abs() < 1e-6);
    }

    #[test]
    fn entropy_peaks_at_uniform() {
        let p = Matrix::from_vec(2, 4, vec![0.25, 0.25, 0.25, 0.25, 1.0, 0.0, 0.0, 0.0]);
        let h = entropy_rows(&p);
        assert!((h[0] - (4f32).ln()).abs() < 1e-5);
        assert!(h[1].abs() < 1e-6);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0f32, 3.0, 3.0, 2.0]), 1);
    }

    #[test]
    fn argmax_f64_matches_f32_tie_behavior() {
        // The controller argmaxes f64 probability tables; ties must resolve
        // to the first index exactly as they do for f32 inputs.
        assert_eq!(argmax(&[1.0f64, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[0.5f64]), 0);
        // A pair whose f32 round-trip would tie but whose f64 values do not:
        // the generic argmax must pick the genuinely larger element.
        let a = 0.1f64;
        let b = 0.1f64 + 1e-12;
        assert_eq!(a as f32, b as f32, "precondition: indistinguishable in f32");
        assert_eq!(argmax(&[a, b]), 1);
    }
}
