//! The matmul kernel tiers head-to-head at the shapes the RCT produces.
//!
//! The batched scheduler turns a wave of 16 streams × 10 rungs into a
//! 160-row staged batch per step-net, so the hidden-layer matmul is
//! `160×64 · 64×64` and the output layer `160×64 · 64×21`.  Benching every
//! tier the CPU supports on those exact shapes shows what the zero-packing
//! AVX kernels buy over the portable `mul_add` loop — all tiers produce
//! bit-identical results (pinned by `crates/nn/tests/properties.rs`), so
//! this file is the only place they're *supposed* to differ.
//!
//! Each shape runs twice: with a dense `A` (the first layer's raw-feature
//! input) and with a ReLU-masked `A`.  The mask zeroes each element
//! independently with probability ½ from a seeded RNG (50.1% of this `A`'s
//! elements are zero), because that is what the traffic looks like: in
//! `examples/rctbench`'s `rct_primary` and `rct_insitu` at seed 1, 46–47% of
//! the TTP's first hidden layer's activations and 56–57% of its second's
//! are zero, and whether a unit is zero differs from its neighbour's 49–52%
//! of the time.  A periodic mask, such as `sin(0.37·i) < 0` (which repeats every
//! ≈17 elements), lets the branch predictor learn the zero pattern and
//! makes a kernel that branches on every zero look fast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use puffer_nn::{Matrix, Tier};
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// `(streams · rungs)`-row staged batches: hidden layer and output layer.
const SHAPES: [(usize, usize, usize); 2] = [(160, 64, 64), (160, 64, 21)];

fn input_matrix(rows: usize, cols: usize, relu_masked: bool) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| {
                let v = 0.1 + ((i as f32) * 0.37).sin().abs() * 3.0;
                if relu_masked && rng.random::<bool>() {
                    0.0 // ReLU-style sparsity
                } else {
                    v
                }
            })
            .collect(),
    )
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_matmul");
    for (m, k, n) in SHAPES {
        for (suffix, relu_masked) in [("dense", false), ("relu", true)] {
            let a = input_matrix(m, k, relu_masked);
            let b_m =
                Matrix::from_vec(k, n, (0..k * n).map(|i| ((i as f32) * 0.11).cos()).collect());
            for tier in Tier::ALL.into_iter().filter(|t| t.supported()) {
                let mut out = Matrix::zeros(0, 0);
                a.matmul_into_with(tier, &b_m, &mut out); // warm the output shape
                group.bench_function(
                    BenchmarkId::from_parameter(format!("{m}x{k}x{n}_{suffix}_{}", tier.name())),
                    |b| {
                        b.iter(|| {
                            a.matmul_into_with(tier, black_box(&b_m), &mut out);
                            black_box(&mut out);
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
