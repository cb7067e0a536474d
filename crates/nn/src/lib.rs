//! # puffer-nn — a minimal dense neural-network substrate
//!
//! The paper trains its Transmission Time Predictor (TTP) in PyTorch and loads
//! the trained model into C++ for inference (§4.5).  This crate replaces that
//! stack with a small, dependency-free implementation of exactly the pieces the
//! paper needs:
//!
//! * fully-connected networks with ReLU hidden layers ([`Mlp`]),
//! * softmax + cross-entropy classification over discretized transmission-time
//!   bins ([`loss::softmax_cross_entropy`]),
//! * stochastic gradient descent with momentum and Adam ([`optim`]),
//! * per-feature input standardization ([`Scaler`]),
//! * allocation-free scratch paths for both inference ([`MlpScratch`]) and
//!   training ([`TrainCache`] + [`BackwardScratch`], driven by
//!   [`Mlp::forward_train`] / [`Mlp::backward_into`]),
//! * plain-text checkpoints so models can be saved/loaded deterministically
//!   without a serialization framework ([`serialize`]), with one reader for
//!   model files that concatenate several networks.
//!
//! The networks involved are tiny (the TTP is 2 hidden layers of 64 units,
//! §4.5), but the batched RCT day loop feeds them `(streams · rungs)`-row
//! batches, so every product runs on one fused row kernel dispatched at
//! runtime over a small tier hierarchy — AVX2+FMA and AVX+FMA, which pack a
//! row's nonzeros instead of branching on the ReLU zeros, and portable
//! `f32::mul_add` loops — that is **bit-identical across tiers** (see
//! [`matrix::Tier`] and the module docs of [`matrix`]): every element sees
//! the same sequence of correctly-rounded fused multiply-adds no matter
//! which tier ran.  Matrices are row-major
//! `Vec<f32>` and all randomness comes from caller-provided seeded RNGs, so
//! results stay exactly reproducible across machines and thread counts.
//!
//! ## Example
//!
//! ```
//! use puffer_nn::{loss, optim::Sgd, Activation, BackwardScratch, Mlp, TrainCache};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // A 4 -> 16 -> 3 classifier.
//! let mut net = Mlp::new(&[4, 16, 3], Activation::Relu, &mut rng);
//! let mut opt = Sgd::new(0.05, 0.9);
//! let (mut cache, mut scratch) = (TrainCache::new(), BackwardScratch::new());
//! cache.input_mut(1, 4).data_mut().copy_from_slice(&[0.1, -0.2, 0.3, 0.4]);
//! for _ in 0..50 {
//!     net.forward_train(&mut cache);
//!     let (_loss, dlogits) = loss::softmax_cross_entropy(cache.logits(), &[2], None);
//!     net.zero_grad();
//!     net.backward_into(&cache, &dlogits, &mut scratch);
//!     net.step(&mut opt);
//! }
//! let x = puffer_nn::Matrix::row_vector(&[0.1, -0.2, 0.3, 0.4]);
//! let probs = loss::softmax_rows(&net.forward(&x));
//! assert!(probs.get(0, 2) > 0.9);
//! ```

pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optim;
pub mod scaler;
pub mod serialize;

pub use matrix::{cpu_features, CpuFeatures, Matrix, Tier};
pub use mlp::{Activation, BackwardScratch, Linear, Mlp, MlpScratch, TrainCache};
pub use scaler::Scaler;

/// Draw a standard normal sample with the Box–Muller transform.
///
/// `rand` 0.9 without `rand_distr` has no normal distribution; the handful of
/// call sites here (weight init) do not justify an extra dependency.
pub fn standard_normal<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
