//! Property-based tests for the NN substrate: algebraic identities of the
//! matrix kernels, softmax/CE math, and checkpoint serialization over
//! arbitrary architectures.
//!
//! Skipped under Miri: hundreds of proptest cases through the full
//! simulation are minutes-long in an interpreter, and the unsafe code
//! Miri exists to check is exercised by the faster unit tests.
#![cfg(not(miri))]

use proptest::prelude::*;
use puffer_nn::serialize::{load_from_str, save_to_string, Checkpoint};
use puffer_nn::{loss, Activation, Matrix, Mlp, Scaler, Tier};
use rand::SeedableRng;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// The kernel tiers this CPU can run (always at least `Scalar`).
fn supported_tiers() -> Vec<Tier> {
    Tier::ALL.into_iter().filter(|t| t.supported()).collect()
}

/// Bit patterns, so that −0.0 differs from +0.0, with every NaN mapped to
/// one pattern: which elements are NaN is pinned, but not the NaN's sign or
/// payload, which Rust leaves unspecified for arithmetic.
fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() }).collect()
}

/// Element `v` under selector `sel`: zeros of both signs, then — only when
/// `special` — NaN, ±∞ and subnormals, else `v` itself.
fn element(v: f32, sel: u8, special: bool) -> f32 {
    match sel {
        0..=9 => 0.0,
        10..=13 => -0.0,
        14 => f32::from_bits(1 + v.to_bits() % 0x007f_ffff), // subnormal
        15 if special => f32::NAN,
        16 if special => f32::INFINITY,
        17 if special => f32::NEG_INFINITY,
        _ => v,
    }
}

/// Arbitrary `(A: m×k, B: k×n)` pair over shapes that sweep every kernel
/// path: rows of every count including the 0-row empty and 1-row cases;
/// columns crossing the 64-column tile and every 1–8-vector remainder with
/// its masked last vector (including tail-only and empty widths); `k` from
/// empty up to past the kernels' 256-pair packing buffer; and about 44%
/// zeros of both signs in both operands, so most rows take the packing
/// path and some short ones the plain loop.  Subnormals appear in every
/// case, and NaN and ±∞ in half of them.
fn arb_matmul_operands() -> impl Strategy<Value = (Matrix, Matrix)> {
    // Element vectors are drawn at the maximum size and truncated to the
    // sampled shape (the vendored proptest shim has no `prop_flat_map`).
    const MAX_M: usize = 9;
    const MAX_K: usize = 18;
    const LONG_K: usize = 260;
    const MAX_N: usize = 80;
    const A_LEN: usize = MAX_M * (LONG_K + MAX_K);
    const B_LEN: usize = (LONG_K + MAX_K) * MAX_N;
    (
        (0usize..MAX_M, 0usize..MAX_K, any::<bool>(), 0usize..MAX_N, any::<bool>()),
        (prop::collection::vec(-10.0f32..10.0, A_LEN), prop::collection::vec(0u8..32, A_LEN)),
        (prop::collection::vec(-10.0f32..10.0, B_LEN), prop::collection::vec(0u8..32, B_LEN)),
    )
        .prop_map(|((m, k, long, n, special), (a, a_sel), (b, b_sel))| {
            let k = if long { LONG_K + k } else { k };
            let pick = |v: &[f32], sel: &[u8], len: usize| -> Vec<f32> {
                v.iter().zip(sel).take(len).map(|(&v, &s)| element(v, s, special)).collect()
            };
            (
                Matrix::from_vec(m, k, pick(&a, &a_sel, m * k)),
                Matrix::from_vec(k, n, pick(&b, &b_sel, k * n)),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 120, ..ProptestConfig::default() })]

    #[test]
    fn transpose_is_involution(m in arb_matrix(4, 7)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn products_match_naive_sums(
        a in arb_matrix(3, 5),
        b in arb_matrix(5, 4),
        c in arb_matrix(3, 4),
    ) {
        let naive = |i: usize, j: usize| (0..5).map(|k| a.get(i, k) * b.get(k, j)).sum::<f32>();
        let tier = Tier::detect();
        let (mut skip, mut dense, mut acc) = (Matrix::default(), Matrix::default(), c.clone());
        a.matmul_into_with(tier, &b, &mut skip);
        a.matmul_dense_into_with(tier, &b, &mut dense);
        a.matmul_acc_with(tier, &b, &mut acc);
        for i in 0..3 {
            for j in 0..4 {
                let want = naive(i, j);
                prop_assert!((skip.get(i, j) - want).abs() < 1e-3, "{} vs {want}", skip.get(i, j));
                prop_assert!((dense.get(i, j) - want).abs() < 1e-3);
                prop_assert!((acc.get(i, j) - c.get(i, j) - want).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn matmul_distributes_over_identity(m in arb_matrix(5, 5)) {
        let mut eye = Matrix::zeros(5, 5);
        for i in 0..5 {
            eye.set(i, i, 1.0);
        }
        let out = m.matmul(&eye);
        for (x, y) in out.data().iter().zip(m.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_rows_are_distributions(logits in arb_matrix(6, 21)) {
        let p = loss::softmax_rows(&logits);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn cross_entropy_nonnegative_and_grad_rows_sum_zero(
        logits in arb_matrix(4, 10),
        targets in prop::collection::vec(0usize..10, 4),
    ) {
        let (ce, grad) = loss::softmax_cross_entropy(&logits, &targets, None);
        prop_assert!(ce >= 0.0);
        for r in 0..grad.rows() {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn checkpoint_roundtrip_arbitrary_architecture(
        seed in 0u64..10_000,
        hidden in prop::collection::vec(1usize..20, 0..3),
        input in 1usize..12,
        output in 1usize..12,
    ) {
        let mut dims = vec![input];
        dims.extend(&hidden);
        dims.push(output);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = Mlp::new(&dims, Activation::Relu, &mut rng);
        let ckpt = Checkpoint { net, scaler: Scaler::identity(input) };
        let loaded = load_from_str(&save_to_string(&ckpt)).unwrap();
        let x = Matrix::row_vector(&vec![0.5; input]);
        let a = ckpt.net.forward(&x);
        let b = loaded.net.forward(&x);
        prop_assert_eq!(a.data(), b.data());
    }

    #[test]
    fn matmul_tiers_bit_identical_over_odd_shapes(ab in arb_matmul_operands()) {
        let (a, b) = ab;
        // The cross-tier contract of the kernel family: the scalar-mul_add
        // and both AVX+FMA tiers must agree to the last bit on every shape —
        // non-tile-multiple rows and columns, single-row, empty, tail-only
        // and longer-than-a-packing-buffer matrices included.
        let mut reference = Matrix::zeros(0, 0);
        a.matmul_into_with(Tier::Scalar, &b, &mut reference);
        for tier in supported_tiers() {
            let mut out = Matrix::zeros(0, 0);
            a.matmul_into_with(tier, &b, &mut out);
            prop_assert_eq!(bits(&out), bits(&reference), "tier {:?}", tier);
        }
    }

    #[test]
    fn matmul_dense_tiers_bit_identical_over_odd_shapes(ab in arb_matmul_operands()) {
        let (a, b) = ab;
        // dy·Wᵀ (the input-gradient product, run over Wᵀ): no zero skip.
        let mut reference = Matrix::zeros(0, 0);
        a.matmul_dense_into_with(Tier::Scalar, &b, &mut reference);
        for tier in supported_tiers() {
            let mut out = Matrix::zeros(0, 0);
            a.matmul_dense_into_with(tier, &b, &mut out);
            prop_assert_eq!(bits(&out), bits(&reference), "tier {:?}", tier);
        }
    }

    #[test]
    fn matmul_acc_tiers_bit_identical_over_odd_shapes(ab in arb_matmul_operands()) {
        let (a, b) = ab;
        // xᵀ·dy accumulated onto gw (the weight-gradient product, run over
        // xᵀ): `a` plays xᵀ, and the output starts from nonzero values.
        let init = Matrix::from_vec(
            a.rows(),
            b.cols(),
            (0..a.rows() * b.cols()).map(|i| ((i as f32) * 0.29).sin()).collect(),
        );
        let mut reference = init.clone();
        a.matmul_acc_with(Tier::Scalar, &b, &mut reference);
        for tier in supported_tiers() {
            let mut out = init.clone();
            a.matmul_acc_with(tier, &b, &mut out);
            prop_assert_eq!(bits(&out), bits(&reference), "tier {:?}", tier);
        }
    }

    #[test]
    fn forward_is_deterministic_and_finite(
        seed in 0u64..10_000,
        features in prop::collection::vec(-100.0f32..100.0, 8),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[8, 16, 5], Activation::Tanh, &mut rng);
        let x = Matrix::row_vector(&features);
        let a = net.forward(&x);
        let b = net.forward(&x);
        prop_assert_eq!(a.data(), b.data());
        prop_assert!(a.data().iter().all(|v| v.is_finite()));
    }
}
