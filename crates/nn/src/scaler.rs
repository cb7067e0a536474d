//! Per-feature input standardization.
//!
//! The TTP's inputs mix wildly different scales — chunk sizes in bytes (10⁵–10⁷),
//! transmission times in seconds (10⁻¹–10¹), congestion windows in packets,
//! RTTs in milliseconds.  A [`Scaler`] fitted on the training window maps each
//! feature to zero mean / unit variance so one learning rate works for all of
//! them.  The scaler is stored alongside the model checkpoint; inference must
//! use the training-time statistics (not the deployment-time ones) or the
//! model silently degrades — exactly the dataset-shift trap §4.3 retrains
//! against.

/// Affine per-feature transform `x' = (x - mean) / std`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaler {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Scaler {
    /// Identity scaler of the given dimension (mean 0, std 1).
    pub fn identity(dim: usize) -> Self {
        Scaler { mean: vec![0.0; dim], std: vec![1.0; dim] }
    }

    /// Fit means and standard deviations over a dataset of feature rows.
    ///
    /// Features with (near-)zero variance get `std = 1` so they pass through
    /// centred but unscaled instead of exploding.
    pub fn fit(rows: &[Vec<f32>]) -> Self {
        Self::fit_from(rows.iter().map(Vec::as_slice))
    }

    /// [`Scaler::fit`] over borrowed rows: any re-iterable source of feature
    /// slices works, so callers holding samples in richer structures can fit
    /// without materializing a `Vec<Vec<f32>>` copy of every row (the
    /// training pipeline fits directly on `&[Sample]`).  Accumulation order
    /// matches [`Scaler::fit`] exactly, so the statistics are bit-identical.
    pub fn fit_from<'a, I>(rows: I) -> Self
    where
        I: IntoIterator<Item = &'a [f32]> + Clone,
    {
        let mut iter = rows.clone().into_iter();
        let first = iter.next().expect("cannot fit a scaler on an empty dataset");
        let dim = first.len();
        let n = (1 + iter.count()) as f64;
        let mut mean = vec![0.0f64; dim];
        for r in rows.clone() {
            assert_eq!(r.len(), dim, "ragged feature rows");
            for (m, &x) in mean.iter_mut().zip(r) {
                *m += f64::from(x);
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f64; dim];
        for r in rows {
            for ((v, &x), &m) in var.iter_mut().zip(r).zip(&mean) {
                let d = f64::from(x) - m;
                *v += d * d;
            }
        }
        let std: Vec<f32> = var
            .iter()
            .map(|&v| {
                let s = (v / n).sqrt();
                if s < 1e-8 {
                    1.0
                } else {
                    s as f32
                }
            })
            .collect();
        Scaler { mean: mean.iter().map(|&m| m as f32).collect(), std }
    }

    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    pub fn std(&self) -> &[f32] {
        &self.std
    }

    /// Construct from explicit statistics (checkpoint loading).
    pub fn from_parts(mean: Vec<f32>, std: Vec<f32>) -> Self {
        assert_eq!(mean.len(), std.len());
        assert!(std.iter().all(|&s| s > 0.0), "std must be positive");
        Scaler { mean, std }
    }

    /// Standardize one feature row in place.
    pub fn transform_inplace(&self, row: &mut [f32]) {
        assert_eq!(row.len(), self.mean.len(), "feature dimension mismatch");
        for ((x, &m), &s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
            *x = (*x - m) / s;
        }
    }

    /// Standardize a copy of the row.
    pub fn transform(&self, row: &[f32]) -> Vec<f32> {
        let mut out = row.to_vec();
        self.transform_inplace(&mut out);
        out
    }

    /// Standardize `row` into a caller-owned buffer, avoiding the allocation
    /// of [`Scaler::transform`] on hot inference paths.
    // lint: panic-free — entry asserts pin the feature dims; (x-m)/s is f32 division, total by IEEE-754
    pub fn transform_into(&self, row: &[f32], out: &mut [f32]) {
        assert_eq!(row.len(), self.mean.len(), "feature dimension mismatch");
        assert_eq!(out.len(), row.len(), "output buffer dimension mismatch");
        for (((o, &x), &m), &s) in out.iter_mut().zip(row).zip(&self.mean).zip(&self.std) {
            *o = (x - m) / s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_then_transform_standardizes() {
        let rows: Vec<Vec<f32>> =
            (0..100).map(|i| vec![i as f32, 1000.0 + 10.0 * i as f32]).collect();
        let s = Scaler::fit(&rows);
        let transformed: Vec<Vec<f32>> = rows.iter().map(|r| s.transform(r)).collect();
        for d in 0..2 {
            let mean: f32 = transformed.iter().map(|r| r[d]).sum::<f32>() / 100.0;
            let var: f32 = transformed.iter().map(|r| (r[d] - mean).powi(2)).sum::<f32>() / 100.0;
            assert!(mean.abs() < 1e-4, "dim {d} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "dim {d} var {var}");
        }
    }

    #[test]
    fn constant_feature_does_not_explode() {
        let rows = vec![vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]];
        let s = Scaler::fit(&rows);
        let t = s.transform(&[5.0, 2.0]);
        assert!(t[0].abs() < 1e-6);
        assert!(t.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn transform_into_matches_transform() {
        let rows = vec![vec![1.0, -3.0], vec![2.0, 4.0], vec![0.5, 10.0]];
        let s = Scaler::fit(&rows);
        let x = [1.7f32, 6.2];
        let mut buf = [0.0f32; 2];
        s.transform_into(&x, &mut buf);
        assert_eq!(buf.to_vec(), s.transform(&x));
    }

    #[test]
    fn identity_is_noop() {
        let s = Scaler::identity(3);
        assert_eq!(s.transform(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn dimension_mismatch_panics() {
        let s = Scaler::identity(2);
        s.transform(&[1.0, 2.0, 3.0]);
    }
}
