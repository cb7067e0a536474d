//! Row-major `f32` matrices sized for small dense networks.
//!
//! The TTP and Pensieve policy networks are at most a few hundred units wide,
//! but the batched RCT day loop feeds them `(streams · rungs)`-row batches —
//! hundreds of rows per forward pass — and the nightly retrain pushes every
//! minibatch forward and back, so every product runs on one row kernel that
//! dispatches over a small tier hierarchy at runtime:
//!
//! * [`Tier::Avx2Fma`] and [`Tier::Avx`] — `accum_rows_fma`, one output row
//!   at a time: 64-column tiles of eight YMM accumulators held in registers
//!   across the whole `k` loop, then the remaining 1–63 columns in one pass
//!   whose last vector is loaded and stored through a lane mask.  The
//!   hidden layers' inputs are ReLU outputs, about half zeros in no pattern
//!   a branch predictor can learn, so a row is never scanned with a branch
//!   per zero: one vectorized test tells whether it has any zero, a row
//!   without one runs the plain `k` loop, and a row with some first packs
//!   its nonzero `(k, a)` pairs, in ascending `k`, into stack buffers with
//!   no per-element branch — `movemask` plus a `vpermps` left-packing table
//!   on AVX2, unconditional stores and a conditional count on AVX — and the
//!   fused multiply-adds run over the pairs.
//! * [`Tier::Scalar`] — portable `f32::mul_add` loops that branch on each
//!   zero; also what Miri interprets unless CI enables the vector features
//!   at compile time.
//!
//! All tiers are **bit-identical**: every output element sees exactly one
//! *fused* multiply-add per accumulation step (`f32::mul_add` and the
//! hardware `vfmadd` are both the correctly-rounded IEEE 754 fusedMultiplyAdd,
//! so they agree to the last bit), in ascending-`k` order, with the same
//! skip set — `a == 0.0` (±0 skipped, NaN kept) for [`Matrix::matmul_into`]
//! and [`Matrix::matmul_acc_with`], nothing for
//! [`Matrix::matmul_dense_into_with`].  Packing changes which instructions
//! run, never any element's own operation sequence.  The backward pass runs
//! its two products as row kernels over transposed operands for the same
//! reason: `gw += xᵀ·dy` over `xᵀ` and `dx = dy·Wᵀ` over `Wᵀ` keep each
//! gradient element's chain and skip set.  CPUs with AVX but no FMA fall
//! back to [`Tier::Scalar`] — a non-fused vector path (separate multiply
//! and add roundings) could not stay bit-identical to the fused tiers.
//!
//! Feature detection runs once per process and is cached in a [`OnceLock`]
//! ([`cpu_features`]); the per-call cost of [`Tier::detect`] is two relaxed
//! atomic loads, cheap enough for every kernel entry point to re-read it.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Runtime-detected SIMD capabilities, detected once and cached for the
/// lifetime of the process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuFeatures {
    pub avx: bool,
    pub avx2: bool,
    pub fma: bool,
}

static CPU_FEATURES: OnceLock<CpuFeatures> = OnceLock::new();

/// The process-wide cached CPU feature set (one `OnceLock` load per call —
/// detection itself runs exactly once).
pub fn cpu_features() -> CpuFeatures {
    *CPU_FEATURES.get_or_init(detect_features)
}

fn detect_features() -> CpuFeatures {
    // Miri cannot execute `cpuid`; report the *compile-time* target features
    // instead, so `cargo miri test` with
    // `RUSTFLAGS="-C target-feature=+avx2,+fma"` interprets the real vector
    // kernels (the CI Miri job does exactly this) while a plain Miri run
    // interprets the portable scalar tier.
    if cfg!(miri) {
        return CpuFeatures {
            avx: cfg!(target_feature = "avx"),
            avx2: cfg!(target_feature = "avx2"),
            fma: cfg!(target_feature = "fma"),
        };
    }
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            avx: std::arch::is_x86_feature_detected!("avx"),
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            fma: std::arch::is_x86_feature_detected!("fma"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    CpuFeatures::default()
}

/// Kernel dispatch tier.  All tiers produce bit-identical results (module
/// docs); the tier only decides how fast they arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Tier {
    /// Portable `f32::mul_add` loops — correct everywhere, and the only
    /// tier on x86-64 without FMA (a fused scalar op is required to match
    /// the vector tiers bitwise).
    Scalar = 0,
    /// The 8-lane FMA row kernel, packing nonzeros with unconditional
    /// scalar stores (requires AVX *and* FMA).
    Avx = 1,
    /// The same row kernel, packing nonzeros eight lanes at a time with
    /// `movemask` and a `vpermps` table (requires AVX2 and FMA).
    Avx2Fma = 2,
}

/// Test/bench override for [`Tier::detect`]: 0 = auto, else `tier as u8 + 1`.
static TIER_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Force every auto-dispatched kernel onto one tier (`None` restores runtime
/// detection).  For tests and benches that pin cross-tier bit-identity at
/// the experiment level.  Forcing any supported tier is unobservable in
/// results — the tiers are bit-identical — so a concurrently running test
/// can only be made slower, never wrong.
///
/// # Panics
/// Panics if the CPU does not support `tier` (running an AVX2 kernel on a
/// CPU without AVX2 would be undefined behaviour, so it is refused here).
pub fn force_tier(tier: Option<Tier>) {
    let v = match tier {
        None => 0,
        Some(t) => {
            assert!(t.supported(), "cannot force unsupported kernel tier {t:?}");
            t as u8 + 1
        }
    };
    // lint: atomic-ordering — standalone flag, no other data published with it
    TIER_OVERRIDE.store(v, Ordering::Relaxed);
}

impl Tier {
    /// Every tier, slowest first.
    pub const ALL: [Tier; 3] = [Tier::Scalar, Tier::Avx, Tier::Avx2Fma];

    /// The best tier this CPU supports (cached detection), unless a test
    /// override ([`force_tier`]) is active.
    #[inline]
    pub fn detect() -> Tier {
        // lint: atomic-ordering — reads only the flag itself; stale reads are benign
        match TIER_OVERRIDE.load(Ordering::Relaxed) {
            1 => Tier::Scalar,
            2 => Tier::Avx,
            3 => Tier::Avx2Fma,
            _ => {
                let f = cpu_features();
                if f.avx2 && f.fma {
                    Tier::Avx2Fma
                } else if f.avx && f.fma {
                    Tier::Avx
                } else {
                    Tier::Scalar
                }
            }
        }
    }

    /// Whether this CPU can run this tier's kernels.
    pub fn supported(self) -> bool {
        let f = cpu_features();
        match self {
            Tier::Scalar => true,
            Tier::Avx => f.avx && f.fma,
            Tier::Avx2Fma => f.avx2 && f.fma,
        }
    }

    /// Label for bench/test output.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx => "avx",
            Tier::Avx2Fma => "avx2fma",
        }
    }
}

/// `out[j] = a.mul_add(b[j], out[j])` over the overlapping prefix — the
/// fused accumulating inner loop shared by the matmuls and the MLP's
/// shared-prefix forward.  The tier decision is the caller's (hoist one
/// [`Tier::detect`] out of the loop; the tier must be supported).
#[inline]
pub(crate) fn axpy_with(tier: Tier, a: f32, b: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if tier != Tier::Scalar {
        // SAFETY: non-scalar tiers are only constructed when runtime
        // detection (or the asserting `force_tier`) found AVX and FMA.
        unsafe { axpy_fma(a, b, out) };
        return;
    }
    let _ = tier;
    for (o, &bv) in out.iter_mut().zip(b) {
        *o = a.mul_add(bv, *o);
    }
}

/// AVX body of [`axpy_with`]: 8-lane `vfmadd`.  Per element this is the same
/// single correctly-rounded fused multiply-add as the scalar `mul_add`
/// loop, so results are bit-identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
fn axpy_fma(a: f32, b: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let n = out.len().min(b.len());
    let av = _mm256_set1_ps(a);
    let mut j = 0;
    while j + 8 <= n {
        // SAFETY: `j + 8 <= n` and `n` is the shorter of the two slice
        // lengths, so the unaligned 8-lane loads and the store all stay
        // inside `b` and `out`.
        unsafe {
            let bv = _mm256_loadu_ps(b.as_ptr().add(j));
            let ov = _mm256_loadu_ps(out.as_ptr().add(j));
            _mm256_storeu_ps(out.as_mut_ptr().add(j), _mm256_fmadd_ps(av, bv, ov));
        }
        j += 8;
    }
    while j < n {
        // SAFETY: `j < n <= b.len()` and `n <= out.len()`, so both
        // unchecked accesses are in bounds.
        unsafe {
            let o = out.get_unchecked_mut(j);
            *o = a.mul_add(*b.get_unchecked(j), *o);
        }
        j += 1;
    }
}

/// `(k, a)` pairs one packing pass holds.  Rows with more `k` than this —
/// Pensieve's transposed activations are thousands long — run in chunks,
/// and the accumulators go back through the output row between chunks (an
/// exact round trip for `f32`).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const PACK: usize = 256;

/// An all-ones prefix of `live` lanes is the eight lanes starting at
/// `LIVE_LANES[8 - live]` — the mask of a column tail, built without
/// AVX2's integer compare.
#[cfg(target_arch = "x86_64")]
static LIVE_LANES: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// Left-packing controls for [`pack_nonzero_avx2`], one per 8-lane keep
/// mask: output lane `i` takes input lane `(entry >> 3i) & 7` (the kept
/// lanes in ascending order; `vpermps` reads only those three bits of each
/// index lane), and bits 24.. count the kept lanes.
#[cfg(target_arch = "x86_64")]
static COMPRESS: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut mask = 0;
    while mask < 256 {
        let (mut entry, mut kept, mut lane) = (0u32, 0u32, 0u32);
        while lane < 8 {
            if mask & (1 << lane) != 0 {
                entry |= lane << (3 * kept);
                kept += 1;
            }
            lane += 1;
        }
        table[mask] = entry | kept << 24;
        mask += 1;
    }
    table
};

/// The product every tier computes: `out_i += a_i · w` for each row `i` of
/// the row-major `a` (`k` wide) and `out` (`n` wide), with `w` row-major
/// `k × n`.  Per output element this is one fused multiply-add per `k`, in
/// ascending `k`, onto the element's current value, and with `skip_zeros`
/// every `k` with `a_i[k] == 0.0` is skipped (±0 skipped, NaN kept).  The
/// tiers differ only in how fast they get there.
// lint: panic-free — rows come from chunks_exact over the shapes the public entry points assert; the scalar loop slices `w` at rows `kk < k`
fn accum_rows(
    tier: Tier,
    skip_zeros: bool,
    a: &[f32],
    k: usize,
    w: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(w.len(), k * n);
    debug_assert_eq!(a.len() * n, out.len() * k);
    if k == 0 || n == 0 {
        return; // nothing to accumulate, or nothing to accumulate into
    }
    #[cfg(target_arch = "x86_64")]
    if tier != Tier::Scalar {
        // SAFETY: non-scalar tiers only pass `Tier::supported` (asserted by
        // every public entry point) when detection found AVX and FMA, and
        // `Avx2Fma` only when it also found AVX2.
        unsafe { accum_rows_fma(tier == Tier::Avx2Fma, skip_zeros, a, k, w, n, out) };
        return;
    }
    let _ = tier;
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (kk, &x) in a_row.iter().enumerate() {
            if skip_zeros && x == 0.0 {
                continue; // common after ReLU
            }
            axpy_with(Tier::Scalar, x, &w[kk * n..(kk + 1) * n], out_row);
        }
    }
}

/// The AVX tiers' body of [`accum_rows`].  Each row runs in chunks of at
/// most [`PACK`] `k`.  A chunk without zeros — and every chunk when the skip
/// is off — runs the plain `k` loop.  A chunk with zeros first packs its
/// nonzeros and their positions, in ascending `k`, into stack buffers
/// without a branch per element ([`pack_nonzero_avx2`] on AVX2,
/// [`pack_nonzero`] otherwise), so the fused multiply-adds run over the
/// nonzeros only and no branch depends on where the zeros are.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
// lint: panic-free — packing returns `len <= chunk.len() <= PACK`, so the packed prefixes are in bounds
fn accum_rows_fma(
    avx2: bool,
    skip_zeros: bool,
    a: &[f32],
    k: usize,
    w: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let mut pos = [0u32; PACK];
    let mut val = [0.0f32; PACK];
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (c, chunk) in a_row.chunks(PACK).enumerate() {
            let k0 = c * PACK;
            if skip_zeros && has_zero(chunk) {
                let len = if avx2 {
                    // SAFETY: the caller sets `avx2` only on the `Avx2Fma`
                    // tier, whose detection found AVX2.
                    unsafe { pack_nonzero_avx2(chunk, &mut pos, &mut val) }
                } else {
                    pack_nonzero(chunk, 0, &mut pos, &mut val)
                };
                accum_pairs::<false>(&pos[..len], &val[..len], k0, w, n, out_row);
            } else {
                accum_pairs::<true>(&[], chunk, k0, w, n, out_row);
            }
        }
    }
}

/// Whether any element of `chunk` is `== 0.0` (±0, not NaN): one compare
/// per eight lanes, OR-folded, and a single `movemask`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
#[inline]
fn has_zero(chunk: &[f32]) -> bool {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_ps();
    let mut eq = zero;
    let mut octets = chunk.chunks_exact(8);
    for v8 in &mut octets {
        debug_assert_eq!(v8.len(), 8);
        // SAFETY: `chunks_exact(8)` yields slices of exactly eight elements.
        let v = unsafe { _mm256_loadu_ps(v8.as_ptr()) };
        eq = _mm256_or_ps(eq, _mm256_cmp_ps::<_CMP_EQ_OQ>(v, zero));
    }
    let tail = octets.remainder().iter().fold(false, |z, &x| z | (x == 0.0));
    _mm256_movemask_ps(eq) != 0 || tail
}

/// Write `chunk`'s nonzeros and their positions in it, in ascending
/// order, to the front of `val`/`pos` and return how many there are.  No
/// branch per element: each element is stored at the next free slot, and
/// the slot advances only past a nonzero (`x != 0.0`, the complement of
/// the skip predicate — ±0 dropped, NaN kept).  `first` is the position
/// of `chunk[0]`.
#[cfg(target_arch = "x86_64")]
// lint: panic-free — the next free slot never passes the current element, and callers pass buffers at least `chunk.len()` long
fn pack_nonzero(chunk: &[f32], first: usize, pos: &mut [u32], val: &mut [f32]) -> usize {
    debug_assert!(chunk.len() <= pos.len() && chunk.len() <= val.len());
    let mut len = 0;
    for (p, &x) in chunk.iter().enumerate() {
        pos[len] = (first + p) as u32;
        val[len] = x;
        len += usize::from(x != 0.0);
    }
    len
}

/// [`pack_nonzero`] eight lanes at a time: one compare and `movemask` give
/// the lanes to keep, [`COMPRESS`] turns that mask into a `vpermps` control
/// moving them, in order, to the front, and the values and their positions
/// are stored whole at the next free slot, which then advances by the kept
/// count.  The `chunk.len() % 8` tail goes through [`pack_nonzero`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
// lint: panic-free — the next free slot never passes the current element, so `len + 8 <= chunk.len() <= PACK` and the tail slices are in bounds
fn pack_nonzero_avx2(chunk: &[f32], pos: &mut [u32; PACK], val: &mut [f32; PACK]) -> usize {
    use std::arch::x86_64::*;
    debug_assert!(chunk.len() <= PACK);
    let fields = _mm256_setr_epi32(0, 3, 6, 9, 12, 15, 18, 21);
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut len = 0;
    let mut p = 0;
    let mut octets = chunk.chunks_exact(8);
    for v8 in &mut octets {
        debug_assert_eq!(v8.len(), 8);
        // SAFETY: `chunks_exact(8)` yields slices of exactly eight elements.
        let v = unsafe { _mm256_loadu_ps(v8.as_ptr()) };
        // Kept lanes: not equal to zero, or unordered (NaN is kept).
        let keep = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NEQ_UQ>(v, _mm256_setzero_ps()));
        let entry = COMPRESS[(keep & 0xff) as usize];
        let perm = _mm256_srlv_epi32(_mm256_set1_epi32(entry as i32), fields);
        let ps = _mm256_add_epi32(_mm256_set1_epi32(p as i32), lanes);
        debug_assert!(len + 8 <= PACK);
        // SAFETY: `len <= p` and `p + 8 <= chunk.len() <= PACK`, so both
        // eight-lane stores stay inside the buffers.
        unsafe {
            _mm256_storeu_ps(val.as_mut_ptr().add(len), _mm256_permutevar8x32_ps(v, perm));
            _mm256_storeu_si256(
                pos.as_mut_ptr().add(len).cast(),
                _mm256_permutevar8x32_epi32(ps, perm),
            );
        }
        len += (entry >> 24) as usize;
        p += 8;
    }
    len + pack_nonzero(octets.remainder(), p, &mut pos[len..], &mut val[len..])
}

/// `out_row[j] += val[i] · w[k·cols + j]` over a chunk's pairs in order
/// (ascending `k`): 64-column tiles of eight YMM accumulators, then the
/// remaining 1–63 columns in one pass whose last vector is masked — no
/// scalar column tail.  With `DENSE` the pairs are the whole chunk, `k =
/// k0 + i`, and `pos` is unused; otherwise `k = k0 + pos[i]`.  Every `k`
/// must name a row of `w` (`(k + 1)·cols <= w.len()`), and `out_row.len()
/// == cols`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
#[inline]
fn accum_pairs<const DENSE: bool>(
    pos: &[u32],
    val: &[f32],
    k0: usize,
    w: &[f32],
    cols: usize,
    out_row: &mut [f32],
) {
    debug_assert!(DENSE || pos.len() == val.len());
    debug_assert_eq!(out_row.len(), cols);
    let mut j0 = 0;
    while j0 + 64 <= cols {
        accum_cols::<8, false, DENSE>(pos, val, k0, w, cols, j0, out_row);
        j0 += 64;
    }
    // The rest of the row: `T` whole vectors plus one masked vector.
    match (cols - j0).div_ceil(8) {
        0 => {}
        1 => accum_cols::<0, true, DENSE>(pos, val, k0, w, cols, j0, out_row),
        2 => accum_cols::<1, true, DENSE>(pos, val, k0, w, cols, j0, out_row),
        3 => accum_cols::<2, true, DENSE>(pos, val, k0, w, cols, j0, out_row),
        4 => accum_cols::<3, true, DENSE>(pos, val, k0, w, cols, j0, out_row),
        5 => accum_cols::<4, true, DENSE>(pos, val, k0, w, cols, j0, out_row),
        6 => accum_cols::<5, true, DENSE>(pos, val, k0, w, cols, j0, out_row),
        7 => accum_cols::<6, true, DENSE>(pos, val, k0, w, cols, j0, out_row),
        _ => accum_cols::<7, true, DENSE>(pos, val, k0, w, cols, j0, out_row),
    }
}

/// One column tile of [`accum_pairs`]: columns `j0..j0 + 8·T` in `T` YMM
/// accumulators and, when `MASKED`, the rest of the row (1–8 columns) in
/// one more, loaded and stored through a lane mask so that no lane touches
/// memory past the row.  The accumulators stay in registers across every
/// pair, one fused multiply-add per pair and element.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,fma")]
#[inline]
fn accum_cols<const T: usize, const MASKED: bool, const DENSE: bool>(
    pos: &[u32],
    val: &[f32],
    k0: usize,
    w: &[f32],
    cols: usize,
    j0: usize,
    out_row: &mut [f32],
) {
    use std::arch::x86_64::*;
    let tail = j0 + 8 * T; // first column of the masked vector
    let live = if MASKED { cols - tail } else { 0 };
    debug_assert!(tail <= cols && cols == out_row.len());
    debug_assert!(live <= 8 && (MASKED == (live > 0)));
    // SAFETY: `live <= 8`, so lanes `8 - live .. 16 - live` lie inside
    // `LIVE_LANES` (all-zero, an empty mask, when not `MASKED`).
    let mask = unsafe { _mm256_loadu_si256(LIVE_LANES.as_ptr().add(8 - live).cast()) };
    let o = out_row.as_mut_ptr();
    let mut acc = [_mm256_setzero_ps(); T];
    for (t, v) in acc.iter_mut().enumerate() {
        // SAFETY: `j0 + 8t + 8 <= tail <= cols == out_row.len()`.
        *v = unsafe { _mm256_loadu_ps(o.add(j0 + 8 * t)) };
    }
    let mut last = _mm256_setzero_ps();
    if MASKED {
        // SAFETY: the live lanes are columns `tail..cols` of `out_row`;
        // masked-off lanes perform no memory access.
        last = unsafe { _mm256_maskload_ps(o.add(tail), mask) };
    }
    let wp = w.as_ptr();
    for i in 0..val.len() {
        // SAFETY: `i < val.len()`, and `pos.len() == val.len()` unless
        // `DENSE`, when `pos` is not read.
        let (p, a) = unsafe {
            (if DENSE { i } else { *pos.get_unchecked(i) as usize }, *val.get_unchecked(i))
        };
        let k = k0 + p;
        debug_assert!((k + 1) * cols <= w.len());
        // SAFETY: `k` names a row of `w` (the caller's contract), and
        // `j0 <= cols`, so the pointer stays inside that row.
        let row = unsafe { wp.add(k * cols + j0) };
        let av = _mm256_set1_ps(a);
        for (t, v) in acc.iter_mut().enumerate() {
            // SAFETY: columns `j0 + 8t .. j0 + 8t + 8 <= tail <= cols` of
            // row `k`.
            *v = _mm256_fmadd_ps(av, unsafe { _mm256_loadu_ps(row.add(8 * t)) }, *v);
        }
        if MASKED {
            // SAFETY: the live lanes are columns `tail..cols` of row `k`;
            // masked-off lanes perform no memory access.
            last = _mm256_fmadd_ps(av, unsafe { _mm256_maskload_ps(row.add(8 * T), mask) }, last);
        }
    }
    for (t, v) in acc.iter().enumerate() {
        // SAFETY: same bound as this tile's loads of `out_row`.
        unsafe { _mm256_storeu_ps(o.add(j0 + 8 * t), *v) };
    }
    if MASKED {
        // SAFETY: same live lanes as the masked load of `out_row`.
        unsafe { _mm256_maskstore_ps(o.add(tail), mask, last) };
    }
}

/// A dense row-major matrix of `f32`.  The default is the empty 0 × 0
/// matrix, the starting state of every reusable scratch buffer before its
/// first resize.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zeros matrix of the given shape.
    // lint: alloc-free — cold-path constructor: reached only through lazy scratch init that tests/alloc_gate.rs differences to zero
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/buffer mismatch");
        Matrix { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of the flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    // lint: panic-free — the `# Panics` contract: callers index with r/c taken from this matrix's own dims
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    // lint: panic-free — the `# Panics` contract: callers index with rows taken from this matrix's own dims
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    // lint: panic-free — the `# Panics` contract: callers index with rows taken from this matrix's own dims
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshape in place to `rows × cols`, reusing the existing allocation
    /// when it is large enough.  The contents are unspecified afterwards;
    /// callers are expected to overwrite every element.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// `self * other` — (m×k)·(k×n) → m×n — into a caller-owned matrix
    /// (resized to fit), so steady-state inference performs no allocations.
    /// Dispatches to the best kernel tier the CPU supports ([`Tier::detect`]).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_into_with(Tier::detect(), other, out)
    }

    /// [`Matrix::matmul_into`] on an explicit kernel tier — how tests and
    /// benches pin the tiers bit-identical against each other.  Every `k`
    /// with `self[i][k] == 0.0` is skipped for row `i` (the ReLU zeros of a
    /// hidden layer); [`Matrix::matmul_dense_into_with`] keeps them.
    ///
    /// # Panics
    /// Panics if the CPU does not support `tier` (see [`Tier::supported`]).
    // lint-root: panic-free, alloc-free
    pub fn matmul_into_with(&self, tier: Tier, other: &Matrix, out: &mut Matrix) {
        self.product_into(tier, true, other, out);
    }

    /// `self * other` with no zero skip: each output element is the whole
    /// fused multiply-add chain over `k`, ascending from +0, so a zero in
    /// `self` against an infinity or NaN in `other` still makes NaN.  This
    /// is the input-gradient product `dx = dy·Wᵀ` of the backward pass, run
    /// over `Wᵀ` ([`Matrix::transpose_into`]).
    ///
    /// # Panics
    /// Panics on mismatched inner dimensions or an unsupported `tier`.
    pub fn matmul_dense_into_with(&self, tier: Tier, other: &Matrix, out: &mut Matrix) {
        self.product_into(tier, false, other, out);
    }

    // lint: panic-free — entry asserts pin the (m,k)x(k,n) shape; tier kernels index inside it
    // lint: alloc-free — `out` resizes once to m*n; warm calls reuse the buffer (tests/alloc_gate.rs)
    fn product_into(&self, tier: Tier, skip_zeros: bool, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        assert!(tier.supported(), "kernel tier {tier:?} not supported by this CPU");
        out.resize(self.rows, other.cols);
        out.data.fill(0.0);
        accum_rows(tier, skip_zeros, &self.data, self.cols, &other.data, other.cols, &mut out.data);
    }

    /// `out += self * other` into a caller-owned matrix of matching shape,
    /// with [`Matrix::matmul_into_with`]'s zero skip — the weight-gradient
    /// product `gw += xᵀ·dy` of the backward pass, run over `xᵀ` so that
    /// each gradient element is one chain over the batch in ascending row
    /// order, skipping the rows where that input unit is zero.
    ///
    /// # Panics
    /// Panics on mismatched shapes or an unsupported `tier`.
    // lint: panic-free — entry asserts pin the (m,k)x(k,n) += (m,n) shape; tier kernels index inside it
    pub fn matmul_acc_with(&self, tier: Tier, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        assert_eq!((out.rows, out.cols), (self.rows, other.cols), "output shape mismatch");
        assert!(tier.supported(), "kernel tier {tier:?} not supported by this CPU");
        accum_rows(tier, true, &self.data, self.cols, &other.data, other.cols, &mut out.data);
    }

    /// Write `selfᵀ` into a caller-owned matrix (resized to fit), so the
    /// training backward pass transposes its operands without allocating.
    // lint: panic-free — chunks_exact over this matrix's own shape; the output index `c·rows + r` stays below rows·cols
    // lint: alloc-free — `out` resizes once to the transposed shape; warm training epochs reuse it (tests/alloc_gate.rs)
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        if self.cols == 0 {
            return;
        }
        let rows = self.rows;
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (c, &x) in row.iter().enumerate() {
                out.data[c * rows + r] = x;
            }
        }
    }

    /// Add `v` to every row of `self` in place (broadcast bias add).
    // lint: panic-free — the entry assert pins row.len() == cols; the loop indexes inside it
    pub fn add_row_broadcast(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.cols, "bias length must match columns");
        for r in 0..self.rows {
            for (x, &b) in self.row_mut(r).iter_mut().zip(v) {
                *x += b;
            }
        }
    }

    /// Elementwise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Accumulate each column's sum into a caller-owned slice (`out[c] +=
    /// Σ_r self[r][c]`) — the bias-gradient kernel of `Mlp::backward_into`
    /// (`gb += col_sums(dy)` with `gb` pre-zeroed by `zero_grad`).
    // lint: panic-free — the entry assert pins acc.len() == cols; the loop indexes inside it
    pub fn col_sums_acc(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "output length must match columns");
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The tiers this CPU can actually run (always includes `Scalar`).
    fn supported_tiers() -> Vec<Tier> {
        Tier::ALL.into_iter().filter(|t| t.supported()).collect()
    }

    /// Element bits, so that −0.0 differs from +0.0, with every NaN mapped
    /// to one pattern: which elements are NaN is pinned, but not the NaN's
    /// sign or payload, which Rust leaves unspecified for arithmetic (which
    /// operand's NaN an FMA propagates depends on the instruction form, and
    /// Miri picks them at random).
    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| if x.is_nan() { 0x7fc0_0000 } else { x.to_bits() }).collect()
    }

    /// A `rows × cols` matrix of seeded values: half exact zeros (±0) in no
    /// repeating pattern, the rest finite, except that with `special` about
    /// one in twelve is NaN, ±∞ or a subnormal.
    fn operand(rows: usize, cols: usize, seed: u64, special: bool) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| match rng.random::<u32>() % 64 {
                0..=23 => 0.0,
                24..=31 => -0.0,
                32 if special => f32::NAN,
                33 if special => f32::INFINITY,
                34 if special => f32::NEG_INFINITY,
                35..=37 if special => f32::from_bits(1 + rng.random::<u32>() % 0x007f_ffff),
                _ => (rng.random::<f32>() - 0.5) * 8.0,
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Shapes reaching every kernel path: the 64-column tile, remainders of
    /// every 1–8 vectors with a masked last one (1–8 live lanes), rows that
    /// span two or three packing buffers (`k > PACK`), and empty edges.
    const SHAPES: [(usize, usize, usize); 17] = [
        (1, 5, 3),
        (4, 21, 64),
        (10, 64, 21),
        (3, 7, 77),
        (8, 16, 16),
        (5, 3, 29),
        (12, 22, 8),
        (2, 9, 1),
        (2, 5, 40),
        (3, 11, 45),
        (2, 6, 50),
        (3, 40, 63),
        (2, 17, 130),
        (2, PACK + 45, 21),
        (1, 2 * PACK + 3, 70),
        (0, 4, 5),
        (3, 0, 5),
    ];

    /// Every product on every tier, bit for bit against the scalar tier,
    /// on finite operands and on operands with NaN, ±∞ and subnormals.
    #[test]
    fn matmul_tiers_are_bit_identical() {
        for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
            for special in [false, true] {
                let seed = 2 * s as u64;
                let a = operand(m, k, seed, special);
                let b = operand(k, n, seed + 1, special);
                let init = operand(m, n, seed + 7, special);
                let run = |tier: Tier| {
                    let (mut skip, mut dense, mut acc) =
                        (Matrix::default(), Matrix::default(), init.clone());
                    a.matmul_into_with(tier, &b, &mut skip);
                    a.matmul_dense_into_with(tier, &b, &mut dense);
                    a.matmul_acc_with(tier, &b, &mut acc);
                    [bits(&skip), bits(&dense), bits(&acc)]
                };
                let reference = run(Tier::Scalar);
                for tier in supported_tiers() {
                    assert_eq!(
                        run(tier),
                        reference,
                        "shape {m}x{k}x{n}, special {special}, tier {tier:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn transpose_into_reuses_the_buffer() {
        let a = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 0.0, 3.0, 4.0]);
        let mut t = Matrix::zeros(7, 7);
        a.transpose_into(&mut t);
        assert_eq!(t, Matrix::from_vec(3, 2, vec![1.0, 0.0, -2.0, 3.0, 0.5, 4.0]));
        let mut back = Matrix::default();
        t.transpose_into(&mut back);
        assert_eq!(back, a);
    }

    #[test]
    fn skip_and_dense_products_differ_only_where_the_skip_bites() {
        // `dx = dy·Wᵀ` must not skip: 0·∞ is NaN.  And a chain that has
        // underflowed to −0 stays −0 when the next term is skipped, but
        // becomes +0 when it is added (−0 + +0 = +0).
        let dy = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1e-30, 0.0]);
        let w = Matrix::from_vec(2, 2, vec![f32::INFINITY, 2.0, -1e-30, 5.0]);
        let mut wt = Matrix::default();
        w.transpose_into(&mut wt);
        for tier in supported_tiers() {
            let (mut skip, mut dense) = (Matrix::default(), Matrix::default());
            dy.matmul_into_with(tier, &wt, &mut skip);
            dy.matmul_dense_into_with(tier, &wt, &mut dense);
            assert_eq!(skip.data()[0], 2.0, "tier {tier:?}");
            assert!(dense.data()[0].is_nan(), "tier {tier:?}: 0·∞ must reach the output");
            assert_eq!(skip.data()[3].to_bits(), (-0.0f32).to_bits(), "tier {tier:?}");
            assert_eq!(dense.data()[3].to_bits(), 0.0f32.to_bits(), "tier {tier:?}");
        }
    }

    #[test]
    fn matmul_acc_accumulates_onto_out() {
        let a = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.0, 0.5, 3.0, 4.0]);
        let b = Matrix::from_vec(3, 2, vec![2.0, 1.0, -1.0, 0.25, 3.0, -0.5]);
        let mut reference = Matrix::default();
        a.matmul_into(&b, &mut reference);
        for tier in supported_tiers() {
            let mut acc = Matrix::zeros(2, 2);
            a.matmul_acc_with(tier, &b, &mut acc);
            assert_eq!(bits(&acc), bits(&reference), "tier {tier:?}");
            // A second accumulation doubles every element.
            a.matmul_acc_with(tier, &b, &mut acc);
            for (x, r) in acc.data().iter().zip(reference.data()) {
                assert_eq!(*x, 2.0 * r, "tier {tier:?}");
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn pack_tables_keep_nonzeros_in_order() {
        // Every 8-lane keep mask: the COMPRESS entry lists the kept lanes
        // ascending and counts them.
        for (mask, &entry) in COMPRESS.iter().enumerate() {
            let kept: Vec<u32> = (0..8).filter(|l| mask & (1 << l) != 0).collect();
            assert_eq!(entry >> 24, kept.len() as u32, "mask {mask:#010b}");
            for (i, &lane) in kept.iter().enumerate() {
                assert_eq!((entry >> (3 * i)) & 7, lane, "mask {mask:#010b}, slot {i}");
            }
        }
        let chunk = [0.0, 1.0, -0.0, f32::NAN, 2.0, 0.0, 0.0, 3.0, 0.0, 4.0];
        let (mut idx, mut val) = ([0u32; PACK], [0.0f32; PACK]);
        let len = pack_nonzero(&chunk, 0, &mut idx, &mut val);
        assert_eq!(&idx[..len], &[1, 3, 4, 7, 9]);
        assert_eq!(
            val[..len].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            [
                1.0f32.to_bits(),
                f32::NAN.to_bits(),
                2.0f32.to_bits(),
                3.0f32.to_bits(),
                4.0f32.to_bits()
            ]
        );
    }

    #[test]
    fn matmul_into_reuses_the_buffer_across_shapes() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data(), &[19.0, 22.0, 43.0, 50.0]);
        // Reuse with a different (smaller) shape: stale contents must not leak.
        let c = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        c.matmul_into(&b, &mut out);
        assert_eq!(out.data(), &[-2.0, -2.0]);
        assert_eq!((out.rows(), out.cols()), (1, 2));
    }

    #[test]
    fn broadcast_and_colsums() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, -1.0]);
        let mut sums = vec![0.0f32; 2];
        m.col_sums_acc(&mut sums);
        assert_eq!(sums, vec![3.0, -3.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut Matrix::default());
    }

    #[test]
    fn detection_is_cached_and_consistent() {
        let f = cpu_features();
        assert_eq!(f, cpu_features(), "cached detection must be stable");
        let t = Tier::detect();
        assert!(t.supported());
        // AVX2+FMA implies the lower vector tier is also runnable.
        if Tier::Avx2Fma.supported() {
            assert!(Tier::Avx.supported());
        }
    }

    #[test]
    fn force_tier_overrides_detection() {
        // Scalar is supported everywhere, so this test is portable.  It
        // restores auto-detection before returning (other tests in this
        // binary only ever observe a *supported* tier either way).
        force_tier(Some(Tier::Scalar));
        assert_eq!(Tier::detect(), Tier::Scalar);
        force_tier(None);
        assert!(Tier::detect().supported());
    }

    #[test]
    fn axpy_tiers_are_bit_identical() {
        // Odd length exercises the 8-lane body and the scalar tail.
        for n in [1usize, 7, 8, 21, 64, 67] {
            let b: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.61).sin() * 1e3).collect();
            let init: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25 - 3.0).collect();
            let mut reference = init.clone();
            axpy_with(Tier::Scalar, 1.37, &b, &mut reference);
            for tier in supported_tiers() {
                let mut out = init.clone();
                axpy_with(tier, 1.37, &b, &mut out);
                assert_eq!(out, reference, "n = {n}, tier {tier:?}");
            }
        }
    }

    #[test]
    fn col_sums_acc_accumulates() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, -4.0]);
        let mut out = vec![10.0f32, 20.0];
        m.col_sums_acc(&mut out);
        assert_eq!(out, vec![14.0, 18.0]);
    }

    #[test]
    fn resize_changes_shape() {
        let mut m = Matrix::zeros(2, 3);
        m.resize(4, 5);
        assert_eq!((m.rows(), m.cols()), (4, 5));
        assert_eq!(m.data().len(), 20);
    }

    #[test]
    fn row_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.row(1), &[4., 5., 6.]);
        assert_eq!(m.get(0, 2), 3.0);
    }
}
