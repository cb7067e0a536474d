//! First-order optimizers.
//!
//! The TTP is trained "using stochastic gradient descent" (§4.3); we provide
//! SGD with momentum plus Adam (used for the Pensieve policy-gradient
//! training, where plain SGD is finicky).
//!
//! Optimizers are stateful per parameter tensor.  [`Mlp::step`] calls
//! [`Optimizer::step`] once per tensor with a stable `slot` index, which lets
//! Adam keep its moment estimates without the network knowing about them.
//!
//! [`Mlp::step`]: crate::Mlp::step

/// Update loops use `f32::mul_add` — the training-loss curve is part of the
/// pinned RCT fingerprint, and the fused op is what keeps the element-wise
/// updates bit-identical between the portable bodies and their
/// FMA-compiled twins below.  Without the `#[target_feature(enable =
/// "fma")]` wrappers, `mul_add` would lower to a libm `fmaf` *call* per
/// element (the x86-64 baseline lacks the FMA instruction), which is the
/// difference between the fastest and the slowest way to run the same
/// arithmetic.
///
/// A stateful gradient-descent rule applied tensor-by-tensor.
pub trait Optimizer {
    /// Update `params` in place given `grads`.  `slot` identifies the tensor
    /// (stable across calls) so implementations can keep per-tensor state.
    fn step(&mut self, params: &mut [f32], grads: &[f32], slot: usize);
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd { lr, momentum, velocity: Vec::new() }
    }

    // lint: panic-free — the while loop above extends velocity to cover slot before indexing
    // lint: alloc-free — velocity is created lazily on the first step per net; later epochs reuse it (tests/alloc_gate.rs differences to zero)
    fn slot_state(&mut self, slot: usize, len: usize) -> &mut Vec<f32> {
        while self.velocity.len() <= slot {
            self.velocity.push(Vec::new());
        }
        let v = &mut self.velocity[slot];
        if v.len() != len {
            v.clear();
            v.resize(len, 0.0);
        }
        v
    }
}

/// Portable body of the SGD update.  `#[inline(always)]` so
/// [`sgd_update_fma`] compiles the *same* loop with FMA enabled — identical
/// arithmetic (every `mul_add` is the one correctly-rounded fused op either
/// way), so the dispatch is bitwise unobservable.
#[inline(always)]
fn sgd_update(params: &mut [f32], grads: &[f32], vel: &mut [f32], lr: f32, momentum: f32) {
    for ((p, &g), v) in params.iter_mut().zip(grads).zip(vel.iter_mut()) {
        *v = momentum.mul_add(*v, g);
        *p = (-lr).mul_add(*v, *p);
    }
}

/// [`sgd_update`] compiled with the FMA instruction available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
fn sgd_update_fma(params: &mut [f32], grads: &[f32], vel: &mut [f32], lr: f32, momentum: f32) {
    sgd_update(params, grads, vel, lr, momentum)
}

impl Optimizer for Sgd {
    // lint: panic-free — the entry assert pins params/grads pairing; the update loop zips equal-length slices
    fn step(&mut self, params: &mut [f32], grads: &[f32], slot: usize) {
        assert_eq!(params.len(), grads.len());
        let (lr, momentum) = (self.lr, self.momentum);
        let vel = self.slot_state(slot, params.len());
        #[cfg(target_arch = "x86_64")]
        if crate::matrix::cpu_features().fma {
            // SAFETY: runtime detection found FMA, which is the only
            // feature `sgd_update_fma` enables.
            unsafe { sgd_update_fma(params, grads, vel, lr, momentum) };
            return;
        }
        sgd_update(params, grads, vel, lr, momentum);
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Advance the shared timestep.  Call once per optimization step, before
    /// the per-tensor `step` calls (handled automatically when `slot == 0`).
    // lint: panic-free — the while loop above extends m/v to cover slot before indexing
    // lint: alloc-free — m/v are created lazily on the first step per net; later epochs reuse them (tests/alloc_gate.rs differences to zero)
    fn state(&mut self, slot: usize, len: usize) -> (&mut Vec<f32>, &mut Vec<f32>) {
        while self.m.len() <= slot {
            self.m.push(Vec::new());
            self.v.push(Vec::new());
        }
        if self.m[slot].len() != len {
            self.m[slot].clear();
            self.m[slot].resize(len, 0.0);
            self.v[slot].clear();
            self.v[slot].resize(len, 0.0);
        }
        // Split borrow.
        let (ms, vs) = (&mut self.m, &mut self.v);
        (&mut ms[slot], &mut vs[slot])
    }
}

/// Portable body of the Adam update (see [`sgd_update`] for the
/// inline-always + FMA-twin pattern).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
// lint: panic-free — divisions are f32 (total); bias corrections are nonzero for t >= 1 and vhat.sqrt()+eps > 0
fn adam_update(
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
) {
    for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(m.iter_mut()).zip(v.iter_mut()) {
        *m = b1.mul_add(*m, (1.0 - b1) * g);
        *v = b2.mul_add(*v, (1.0 - b2) * g * g);
        let mhat = *m / bc1;
        let vhat = *v / bc2;
        *p -= lr * mhat / (vhat.sqrt() + eps);
    }
}

/// [`adam_update`] compiled with the FMA instruction available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(clippy::too_many_arguments)]
fn adam_update_fma(
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
) {
    adam_update(params, grads, m, v, lr, b1, b2, eps, bc1, bc2)
}

impl Optimizer for Adam {
    // lint: panic-free — the entry assert pins params/grads pairing; the update loop zips equal-length slices
    fn step(&mut self, params: &mut [f32], grads: &[f32], slot: usize) {
        assert_eq!(params.len(), grads.len());
        if slot == 0 {
            self.t += 1;
        }
        let t = self.t.max(1);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let bc1 = 1.0 - b1.powi(t);
        let bc2 = 1.0 - b2.powi(t);
        let (m, v) = self.state(slot, params.len());
        #[cfg(target_arch = "x86_64")]
        if crate::matrix::cpu_features().fma {
            // SAFETY: runtime detection found FMA, which is the only
            // feature `adam_update_fma` enables.
            unsafe { adam_update_fma(params, grads, m, v, lr, b1, b2, eps, bc1, bc2) };
            return;
        }
        adam_update(params, grads, m, v, lr, b1, b2, eps, bc1, bc2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)² with both optimizers.
    fn minimize<O: Optimizer>(opt: &mut O, steps: usize) -> f32 {
        let mut x = [0.0f32];
        for _ in 0..steps {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g, 0);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0);
        assert!((minimize(&mut opt, 200) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut opt = Sgd::new(0.05, 0.9);
        assert!((minimize(&mut opt, 400) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        assert!((minimize(&mut opt, 500) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn slots_keep_independent_state() {
        let mut opt = Sgd::new(0.1, 0.9);
        let mut a = [0.0f32];
        let mut b = [0.0f32];
        for _ in 0..50 {
            let ga = [2.0 * (a[0] - 1.0)];
            opt.step(&mut a, &ga, 0);
            let gb = [2.0 * (b[0] + 1.0)];
            opt.step(&mut b, &gb, 1);
        }
        assert!((a[0] - 1.0).abs() < 0.05);
        assert!((b[0] + 1.0).abs() < 0.05);
    }
}
