//! x86_64 vector kernels: one generic implementation per kernel,
//! monomorphised over an [`Isa`] (AVX2+FMA with 8-float lanes, SSE2 with 4),
//! then wrapped in `#[target_feature]` entry points per ISA so the compiler
//! may emit the wide instructions while the crate itself stays buildable for
//! any x86_64 baseline.
//!
//! # Safety argument
//!
//! Every `unsafe` in this module is one of three shapes:
//!
//! 1. **Intrinsic calls.** All `core::arch` intrinsics used here are safe on
//!    any CPU that *has* the instruction; the only precondition is feature
//!    availability. The entry points are only reachable through
//!    [`super::level`], which gates them behind `is_x86_feature_detected!`,
//!    so the precondition holds on every path.
//! 2. **Raw slice pointers.** Kernels walk `as_ptr()`/`as_mut_ptr()` with
//!    manual indices. Every loop is bounded by `i + W <= len` (vector body)
//!    or `i < len` (scalar tail) against the *slice's own* length, checked
//!    `debug_assert!`s tie multi-slice kernels' lengths together, and all
//!    loads/stores are the unaligned variants, so no access can leave the
//!    allocation and no alignment precondition exists.
//! 3. **`#[target_feature]` entry wrappers.** Declared `unsafe fn`; callers
//!    (the dispatch layer in `simd/mod.rs`) discharge the obligation by
//!    reaching them only through a detected [`super::level`].
//!
//! Aligned loads (`loada`) are used only on the GEMM's packed B panels,
//! whose backing store is a 64-byte-aligned [`crate::pool::AlignedBuf`] and
//! whose row stride (`2·W` floats = 64 bytes for AVX2, 32 for SSE2) keeps
//! every panel row on an alignment boundary.
//!
//! # Parity
//!
//! The vector `exp` ([`vexp`]) performs the *same* operation sequence as the
//! scalar [`crate::tensor::fast_exp_lane`] — multiply/add polynomial (never
//! FMA, which would fuse roundings), truncation-based floor, `(i+127)<<23`
//! ldexp, select-based saturation — so it is bit-identical per element for
//! every finite input, and NaN propagates through the clamp (NaN is the
//! second operand of the min/max chain, which x86 min/max returns). Only
//! reduction *groupings* differ from the scalar backend (striped vector
//! accumulators inside a lane or [`SUM_BLOCK`]), which is covered by the
//! 1e-5 parity tolerance and stated in the backend summation contract.

#![allow(unsafe_op_in_unsafe_fn)]

use crate::backend::{AdamHp, SUM_BLOCK};
use crate::tensor::fast_exp_lane;
use core::arch::x86_64::*;

/// One vector instruction set: the minimal op surface the generic kernels
/// need. All methods are `unsafe fn` (feature precondition) and
/// `#[inline(always)]` so they fold into the `#[target_feature]` wrappers.
pub(crate) trait Isa: Copy {
    /// Float vector register type.
    type V: Copy;
    /// Integer vector register type (same width).
    type VI: Copy;
    /// Lanes per vector.
    const W: usize;

    unsafe fn zero() -> Self::V;
    unsafe fn splat(x: f32) -> Self::V;
    unsafe fn loadu(p: *const f32) -> Self::V;
    /// Aligned load: `p` must be aligned to the vector width. Only used on
    /// packed GEMM panels backed by [`crate::pool::AlignedBuf`].
    unsafe fn loada(p: *const f32) -> Self::V;
    unsafe fn storeu(p: *mut f32, v: Self::V);
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn div(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn sqrt(a: Self::V) -> Self::V;
    /// `a*b + c`. A true fused multiply-add on AVX2+FMA, `mul`+`add` on SSE2.
    /// Never used where bit-compatibility with a scalar kernel is required.
    unsafe fn fmadd(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// x86 `maxps` semantics: returns the second operand when either is NaN.
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    /// x86 `minps` semantics: returns the second operand when either is NaN.
    unsafe fn min(a: Self::V, b: Self::V) -> Self::V;
    /// All-ones mask where `a > b` (ordered: NaN compares false).
    unsafe fn cmp_gt(a: Self::V, b: Self::V) -> Self::V;
    /// Per-lane `mask ? a : b`.
    unsafe fn select(mask: Self::V, a: Self::V, b: Self::V) -> Self::V;
    /// Truncating float→int conversion (`cvttps`).
    unsafe fn cvtt(v: Self::V) -> Self::VI;
    /// Int→float conversion.
    unsafe fn itof(v: Self::VI) -> Self::V;
    unsafe fn addi(a: Self::VI, b: Self::VI) -> Self::VI;
    unsafe fn splati(x: i32) -> Self::VI;
    /// Shift each 32-bit lane left by 23 (exponent-field ldexp trick).
    unsafe fn sll23(v: Self::VI) -> Self::VI;
    /// Bit-cast int vector → float vector.
    unsafe fn ibits(v: Self::VI) -> Self::V;
    /// Bit-cast float vector → int vector.
    unsafe fn fbits(v: Self::V) -> Self::VI;
    /// Horizontal sum (fixed shuffle tree — deterministic).
    unsafe fn hsum(v: Self::V) -> f32;
    /// Horizontal max (fixed shuffle tree — deterministic).
    unsafe fn hmax(v: Self::V) -> f32;
    /// Load `W` unsigned byte codes from `p` and widen them to a float
    /// vector (exact: every u8 value is representable in f32). `p` must have
    /// `W` readable bytes; no alignment requirement.
    unsafe fn loadu8(p: *const u8) -> Self::V;
}

/// AVX2 + FMA: 8-float lanes.
#[derive(Clone, Copy)]
pub(crate) struct Avx2;

impl Isa for Avx2 {
    type V = __m256;
    type VI = __m256i;
    const W: usize = 8;

    #[inline(always)]
    unsafe fn zero() -> __m256 {
        _mm256_setzero_ps()
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> __m256 {
        _mm256_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn loadu(p: *const f32) -> __m256 {
        _mm256_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn loada(p: *const f32) -> __m256 {
        _mm256_load_ps(p)
    }
    #[inline(always)]
    unsafe fn storeu(p: *mut f32, v: __m256) {
        _mm256_storeu_ps(p, v)
    }
    #[inline(always)]
    unsafe fn add(a: __m256, b: __m256) -> __m256 {
        _mm256_add_ps(a, b)
    }
    #[inline(always)]
    unsafe fn sub(a: __m256, b: __m256) -> __m256 {
        _mm256_sub_ps(a, b)
    }
    #[inline(always)]
    unsafe fn mul(a: __m256, b: __m256) -> __m256 {
        _mm256_mul_ps(a, b)
    }
    #[inline(always)]
    unsafe fn div(a: __m256, b: __m256) -> __m256 {
        _mm256_div_ps(a, b)
    }
    #[inline(always)]
    unsafe fn sqrt(a: __m256) -> __m256 {
        _mm256_sqrt_ps(a)
    }
    #[inline(always)]
    unsafe fn fmadd(a: __m256, b: __m256, c: __m256) -> __m256 {
        _mm256_fmadd_ps(a, b, c)
    }
    #[inline(always)]
    unsafe fn max(a: __m256, b: __m256) -> __m256 {
        _mm256_max_ps(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: __m256, b: __m256) -> __m256 {
        _mm256_min_ps(a, b)
    }
    #[inline(always)]
    unsafe fn cmp_gt(a: __m256, b: __m256) -> __m256 {
        _mm256_cmp_ps::<_CMP_GT_OQ>(a, b)
    }
    #[inline(always)]
    unsafe fn select(mask: __m256, a: __m256, b: __m256) -> __m256 {
        _mm256_blendv_ps(b, a, mask)
    }
    #[inline(always)]
    unsafe fn cvtt(v: __m256) -> __m256i {
        _mm256_cvttps_epi32(v)
    }
    #[inline(always)]
    unsafe fn itof(v: __m256i) -> __m256 {
        _mm256_cvtepi32_ps(v)
    }
    #[inline(always)]
    unsafe fn addi(a: __m256i, b: __m256i) -> __m256i {
        _mm256_add_epi32(a, b)
    }
    #[inline(always)]
    unsafe fn splati(x: i32) -> __m256i {
        _mm256_set1_epi32(x)
    }
    #[inline(always)]
    unsafe fn sll23(v: __m256i) -> __m256i {
        _mm256_slli_epi32::<23>(v)
    }
    #[inline(always)]
    unsafe fn ibits(v: __m256i) -> __m256 {
        _mm256_castsi256_ps(v)
    }
    #[inline(always)]
    unsafe fn fbits(v: __m256) -> __m256i {
        _mm256_castps_si256(v)
    }
    #[inline(always)]
    unsafe fn hsum(v: __m256) -> f32 {
        let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps::<0b01>(s, s));
        _mm_cvtss_f32(s)
    }
    #[inline(always)]
    unsafe fn hmax(v: __m256) -> f32 {
        let s = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
        let s = _mm_max_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_max_ss(s, _mm_shuffle_ps::<0b01>(s, s));
        _mm_cvtss_f32(s)
    }
    #[inline(always)]
    unsafe fn loadu8(p: *const u8) -> __m256 {
        // 8 bytes → 8 u32 lanes → 8 f32 lanes
        let bytes = _mm_loadl_epi64(p as *const __m128i);
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes))
    }
}

/// SSE2 (x86_64 baseline): 4-float lanes, no FMA, select via bit ops.
#[derive(Clone, Copy)]
pub(crate) struct Sse2;

impl Isa for Sse2 {
    type V = __m128;
    type VI = __m128i;
    const W: usize = 4;

    #[inline(always)]
    unsafe fn zero() -> __m128 {
        _mm_setzero_ps()
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> __m128 {
        _mm_set1_ps(x)
    }
    #[inline(always)]
    unsafe fn loadu(p: *const f32) -> __m128 {
        _mm_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn loada(p: *const f32) -> __m128 {
        _mm_load_ps(p)
    }
    #[inline(always)]
    unsafe fn storeu(p: *mut f32, v: __m128) {
        _mm_storeu_ps(p, v)
    }
    #[inline(always)]
    unsafe fn add(a: __m128, b: __m128) -> __m128 {
        _mm_add_ps(a, b)
    }
    #[inline(always)]
    unsafe fn sub(a: __m128, b: __m128) -> __m128 {
        _mm_sub_ps(a, b)
    }
    #[inline(always)]
    unsafe fn mul(a: __m128, b: __m128) -> __m128 {
        _mm_mul_ps(a, b)
    }
    #[inline(always)]
    unsafe fn div(a: __m128, b: __m128) -> __m128 {
        _mm_div_ps(a, b)
    }
    #[inline(always)]
    unsafe fn sqrt(a: __m128) -> __m128 {
        _mm_sqrt_ps(a)
    }
    #[inline(always)]
    unsafe fn fmadd(a: __m128, b: __m128, c: __m128) -> __m128 {
        _mm_add_ps(_mm_mul_ps(a, b), c)
    }
    #[inline(always)]
    unsafe fn max(a: __m128, b: __m128) -> __m128 {
        _mm_max_ps(a, b)
    }
    #[inline(always)]
    unsafe fn min(a: __m128, b: __m128) -> __m128 {
        _mm_min_ps(a, b)
    }
    #[inline(always)]
    unsafe fn cmp_gt(a: __m128, b: __m128) -> __m128 {
        _mm_cmpgt_ps(a, b)
    }
    #[inline(always)]
    unsafe fn select(mask: __m128, a: __m128, b: __m128) -> __m128 {
        _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b))
    }
    #[inline(always)]
    unsafe fn cvtt(v: __m128) -> __m128i {
        _mm_cvttps_epi32(v)
    }
    #[inline(always)]
    unsafe fn itof(v: __m128i) -> __m128 {
        _mm_cvtepi32_ps(v)
    }
    #[inline(always)]
    unsafe fn addi(a: __m128i, b: __m128i) -> __m128i {
        _mm_add_epi32(a, b)
    }
    #[inline(always)]
    unsafe fn splati(x: i32) -> __m128i {
        _mm_set1_epi32(x)
    }
    #[inline(always)]
    unsafe fn sll23(v: __m128i) -> __m128i {
        _mm_slli_epi32::<23>(v)
    }
    #[inline(always)]
    unsafe fn ibits(v: __m128i) -> __m128 {
        _mm_castsi128_ps(v)
    }
    #[inline(always)]
    unsafe fn fbits(v: __m128) -> __m128i {
        _mm_castps_si128(v)
    }
    #[inline(always)]
    unsafe fn hsum(v: __m128) -> f32 {
        let s = _mm_add_ps(v, _mm_movehl_ps(v, v));
        let s = _mm_add_ss(s, _mm_shuffle_ps::<0b01>(s, s));
        _mm_cvtss_f32(s)
    }
    #[inline(always)]
    unsafe fn hmax(v: __m128) -> f32 {
        let s = _mm_max_ps(v, _mm_movehl_ps(v, v));
        let s = _mm_max_ss(s, _mm_shuffle_ps::<0b01>(s, s));
        _mm_cvtss_f32(s)
    }
    #[inline(always)]
    unsafe fn loadu8(p: *const u8) -> __m128 {
        // SSE2 has no cvtepu8 (SSE4.1): widen 4 bytes by unpacking with
        // zeros (u8 → u16 → u32), then convert. The u32 values fit in i32,
        // so the signed conversion is exact.
        let v = _mm_cvtsi32_si128((p as *const i32).read_unaligned());
        let z = _mm_setzero_si128();
        let w16 = _mm_unpacklo_epi8(v, z);
        let w32 = _mm_unpacklo_epi16(w16, z);
        _mm_cvtepi32_ps(w32)
    }
}

// --------------------------------------------------------------------------
// vectorized exp — bit-identical to `fast_exp_lane` per element
// --------------------------------------------------------------------------

/// Vector [`crate::tensor::fast_exp`]: same operation sequence as the scalar
/// `fast_exp_lane` (multiply+add polynomial — deliberately *not* FMA, which
/// would change rounding — truncation floor, `(i+127)<<23` ldexp, select
/// saturation), so every finite lane is bit-identical to the scalar result
/// and NaN lanes stay NaN (the clamp's min/max return their second — NaN —
/// operand; the ordered compares below return false on NaN so neither
/// saturation select fires).
#[inline(always)]
unsafe fn vexp<I: Isa>(x: I::V) -> I::V {
    let y = I::mul(x, I::splat(std::f32::consts::LOG2_E));
    let yc = I::max(I::splat(-126.0), I::min(I::splat(127.0), y));
    let t = I::cvtt(yc);
    // floor via truncation: subtract 1 where truncation rounded up
    let gt = I::cmp_gt(I::itof(t), yc);
    let i = I::addi(t, I::fbits(gt)); // mask is -1 where gt
    let f = I::sub(yc, I::itof(i));
    // Taylor coefficients of 2^f, degree 6 — identical constants and
    // mul/add association as the scalar kernel
    let p = I::add(I::splat(0.001_333_55), I::mul(I::splat(0.000_154_04), f));
    let p = I::add(I::splat(0.009_618_13), I::mul(p, f));
    let p = I::add(I::splat(0.055_504_11), I::mul(p, f));
    let p = I::add(I::splat(0.240_226_51), I::mul(p, f));
    let p = I::add(I::splat(std::f32::consts::LN_2), I::mul(p, f));
    let p = I::add(I::splat(1.0), I::mul(p, f));
    let scale = I::ibits(I::sll23(I::addi(i, I::splati(127))));
    let r = I::mul(scale, p);
    let r = I::select(I::cmp_gt(y, I::splat(127.0)), I::splat(f32::MAX), r);
    I::select(I::cmp_gt(I::splat(-126.0), y), I::zero(), r)
}

/// Elementwise `fast_exp` over a slice (vector body + `fast_exp_lane` tail).
/// Exposed so tests can assert vexp/scalar bit-compatibility directly.
#[inline(always)]
unsafe fn exp_slice_g<I: Isa>(data: &mut [f32]) {
    let p = data.as_mut_ptr();
    let l = data.len();
    let mut i = 0;
    while i + I::W <= l {
        I::storeu(p.add(i), vexp::<I>(I::loadu(p.add(i))));
        i += I::W;
    }
    while i < l {
        *p.add(i) = fast_exp_lane(*p.add(i));
        i += 1;
    }
}

// --------------------------------------------------------------------------
// lane kernels
// --------------------------------------------------------------------------

/// Vector max of a slice with `f32::max` tail semantics. A lane containing
/// NaN may or may not report NaN here; either way the exp pass poisons the
/// whole lane exactly as the scalar kernel does (see module docs).
#[inline(always)]
unsafe fn vmax_slice<I: Isa>(p: *const f32, l: usize) -> f32 {
    let mut vm = I::splat(f32::NEG_INFINITY);
    let mut i = 0;
    while i + I::W <= l {
        vm = I::max(vm, I::loadu(p.add(i)));
        i += I::W;
    }
    let mut mx = I::hmax(vm);
    while i < l {
        mx = mx.max(*p.add(i));
        i += 1;
    }
    mx
}

/// In-place softmax over one lane: vector max, bit-compatible vector exp with
/// a riding normaliser, then one scale pass.
#[inline(always)]
unsafe fn softmax_lane_v<I: Isa>(lane: &mut [f32]) {
    let l = lane.len();
    let p = lane.as_mut_ptr();
    let mx = vmax_slice::<I>(p, l);
    let vmx = I::splat(mx);
    let mut vz = I::zero();
    let mut i = 0;
    while i + I::W <= l {
        let e = vexp::<I>(I::sub(I::loadu(p.add(i)), vmx));
        I::storeu(p.add(i), e);
        vz = I::add(vz, e);
        i += I::W;
    }
    let mut z = I::hsum(vz);
    while i < l {
        let e = fast_exp_lane(*p.add(i) - mx);
        *p.add(i) = e;
        z += e;
        i += 1;
    }
    let inv = 1.0 / z;
    let vinv = I::splat(inv);
    let mut i = 0;
    while i + I::W <= l {
        I::storeu(p.add(i), I::mul(I::loadu(p.add(i)), vinv));
        i += I::W;
    }
    while i < l {
        *p.add(i) *= inv;
        i += 1;
    }
}

#[inline(always)]
unsafe fn softmax_lanes_g<I: Isa>(data: &mut [f32], lane: usize) {
    for l in data.chunks_mut(lane) {
        softmax_lane_v::<I>(l);
    }
}

/// Striped vector sum of a slice (scalar tail added after the fold).
#[inline(always)]
unsafe fn vsum_slice<I: Isa>(p: *const f32, l: usize) -> f32 {
    let mut acc = I::zero();
    let mut i = 0;
    while i + I::W <= l {
        acc = I::add(acc, I::loadu(p.add(i)));
        i += I::W;
    }
    let mut s = I::hsum(acc);
    while i < l {
        s += *p.add(i);
        i += 1;
    }
    s
}

#[inline(always)]
unsafe fn layer_norm_lane_v<I: Isa>(lane: &mut [f32], eps: f32) {
    let l = lane.len();
    let p = lane.as_mut_ptr();
    let d = l as f32;
    let mean = vsum_slice::<I>(p, l) / d;
    let vmean = I::splat(mean);
    let mut vacc = I::zero();
    let mut i = 0;
    while i + I::W <= l {
        let c = I::sub(I::loadu(p.add(i)), vmean);
        vacc = I::add(vacc, I::mul(c, c));
        i += I::W;
    }
    let mut var = I::hsum(vacc);
    while i < l {
        let c = *p.add(i) - mean;
        var += c * c;
        i += 1;
    }
    var /= d;
    let inv = 1.0 / (var + eps).sqrt();
    let vinv = I::splat(inv);
    let mut i = 0;
    while i + I::W <= l {
        I::storeu(p.add(i), I::mul(I::sub(I::loadu(p.add(i)), vmean), vinv));
        i += I::W;
    }
    while i < l {
        *p.add(i) = (*p.add(i) - mean) * inv;
        i += 1;
    }
}

#[inline(always)]
unsafe fn layer_norm_lanes_g<I: Isa>(data: &mut [f32], lane: usize, eps: f32) {
    for l in data.chunks_mut(lane) {
        layer_norm_lane_v::<I>(l, eps);
    }
}

#[inline(always)]
unsafe fn layer_norm_backward_lane_v<I: Isa>(xs: &[f32], gs: &[f32], os: &mut [f32], eps: f32) {
    let l = xs.len();
    debug_assert_eq!(gs.len(), l);
    debug_assert_eq!(os.len(), l);
    let xp = xs.as_ptr();
    let gp = gs.as_ptr();
    let op = os.as_mut_ptr();
    let d = l as f32;
    let mean = vsum_slice::<I>(xp, l) / d;
    let vmean = I::splat(mean);
    let mut vacc = I::zero();
    let mut i = 0;
    while i + I::W <= l {
        let c = I::sub(I::loadu(xp.add(i)), vmean);
        vacc = I::add(vacc, I::mul(c, c));
        i += I::W;
    }
    let mut var = I::hsum(vacc);
    while i < l {
        let c = *xp.add(i) - mean;
        var += c * c;
        i += 1;
    }
    var /= d;
    let inv = 1.0 / (var + eps).sqrt();
    let vinv = I::splat(inv);
    // g_mean and gy_mean in one pass
    let mut vg = I::zero();
    let mut vgy = I::zero();
    let mut i = 0;
    while i + I::W <= l {
        let g = I::loadu(gp.add(i));
        vg = I::add(vg, g);
        let y = I::mul(I::sub(I::loadu(xp.add(i)), vmean), vinv);
        vgy = I::add(vgy, I::mul(g, y));
        i += I::W;
    }
    let mut g_mean = I::hsum(vg);
    let mut gy_mean = I::hsum(vgy);
    while i < l {
        let g = *gp.add(i);
        g_mean += g;
        gy_mean += g * (*xp.add(i) - mean) * inv;
        i += 1;
    }
    g_mean /= d;
    gy_mean /= d;
    let vgm = I::splat(g_mean);
    let vgym = I::splat(gy_mean);
    let mut i = 0;
    while i + I::W <= l {
        let y = I::mul(I::sub(I::loadu(xp.add(i)), vmean), vinv);
        let o = I::mul(
            vinv,
            I::sub(I::sub(I::loadu(gp.add(i)), vgm), I::mul(y, vgym)),
        );
        I::storeu(op.add(i), o);
        i += I::W;
    }
    while i < l {
        let y = (*xp.add(i) - mean) * inv;
        *op.add(i) = inv * (*gp.add(i) - g_mean - y * gy_mean);
        i += 1;
    }
}

#[inline(always)]
unsafe fn layer_norm_backward_lanes_g<I: Isa>(
    x: &[f32],
    g: &[f32],
    out: &mut [f32],
    lane: usize,
    eps: f32,
) {
    for ((xl, gl), ol) in x.chunks(lane).zip(g.chunks(lane)).zip(out.chunks_mut(lane)) {
        layer_norm_backward_lane_v::<I>(xl, gl, ol, eps);
    }
}

// --------------------------------------------------------------------------
// reductions and Adam
// --------------------------------------------------------------------------

/// One contract block ([`SUM_BLOCK`] elements max), four striped accumulators.
#[inline(always)]
unsafe fn sum_block_v<I: Isa>(c: &[f32]) -> f32 {
    let p = c.as_ptr();
    let l = c.len();
    let (mut a0, mut a1, mut a2, mut a3) = (I::zero(), I::zero(), I::zero(), I::zero());
    let mut i = 0;
    while i + 4 * I::W <= l {
        a0 = I::add(a0, I::loadu(p.add(i)));
        a1 = I::add(a1, I::loadu(p.add(i + I::W)));
        a2 = I::add(a2, I::loadu(p.add(i + 2 * I::W)));
        a3 = I::add(a3, I::loadu(p.add(i + 3 * I::W)));
        i += 4 * I::W;
    }
    let mut acc = I::add(I::add(a0, a1), I::add(a2, a3));
    while i + I::W <= l {
        acc = I::add(acc, I::loadu(p.add(i)));
        i += I::W;
    }
    let mut s = I::hsum(acc);
    while i < l {
        s += *p.add(i);
        i += 1;
    }
    s
}

#[inline(always)]
unsafe fn dot_block_v<I: Isa>(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let l = a.len();
    let (mut a0, mut a1, mut a2, mut a3) = (I::zero(), I::zero(), I::zero(), I::zero());
    let mut i = 0;
    while i + 4 * I::W <= l {
        a0 = I::fmadd(I::loadu(ap.add(i)), I::loadu(bp.add(i)), a0);
        a1 = I::fmadd(I::loadu(ap.add(i + I::W)), I::loadu(bp.add(i + I::W)), a1);
        a2 = I::fmadd(
            I::loadu(ap.add(i + 2 * I::W)),
            I::loadu(bp.add(i + 2 * I::W)),
            a2,
        );
        a3 = I::fmadd(
            I::loadu(ap.add(i + 3 * I::W)),
            I::loadu(bp.add(i + 3 * I::W)),
            a3,
        );
        i += 4 * I::W;
    }
    let mut acc = I::add(I::add(a0, a1), I::add(a2, a3));
    while i + I::W <= l {
        acc = I::fmadd(I::loadu(ap.add(i)), I::loadu(bp.add(i)), acc);
        i += I::W;
    }
    let mut s = I::hsum(acc);
    while i < l {
        s += *ap.add(i) * *bp.add(i);
        i += 1;
    }
    s
}

/// Full-contract sum: fixed [`SUM_BLOCK`] grouping, vector reduce per block.
#[inline(always)]
unsafe fn sum_blocks_g<I: Isa>(xs: &[f32]) -> f32 {
    let mut s = 0.0f32;
    for c in xs.chunks(SUM_BLOCK) {
        s += sum_block_v::<I>(c);
    }
    s
}

#[inline(always)]
unsafe fn dot_blocks_g<I: Isa>(xs: &[f32], ys: &[f32]) -> f32 {
    let mut s = 0.0f32;
    for (a, b) in xs.chunks(SUM_BLOCK).zip(ys.chunks(SUM_BLOCK)) {
        s += dot_block_v::<I>(a, b);
    }
    s
}

/// Raw fused-dequant dot ([`crate::backend::Backend::dot_q8`]): the u8 codes
/// are widened to f32 in registers ([`Isa::loadu8`], exact) and accumulated
/// with the same four-stripe FMA pattern as [`dot_block_v`] — covered by the
/// reassociation tolerance, never used where bit-compatibility with the
/// scalar kernel is required.
#[inline(always)]
unsafe fn dot_q8_v<I: Isa>(a: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(a.len(), codes.len());
    let ap = a.as_ptr();
    let cp = codes.as_ptr();
    let l = a.len();
    let (mut a0, mut a1, mut a2, mut a3) = (I::zero(), I::zero(), I::zero(), I::zero());
    let mut i = 0;
    while i + 4 * I::W <= l {
        a0 = I::fmadd(I::loadu(ap.add(i)), I::loadu8(cp.add(i)), a0);
        a1 = I::fmadd(I::loadu(ap.add(i + I::W)), I::loadu8(cp.add(i + I::W)), a1);
        a2 = I::fmadd(
            I::loadu(ap.add(i + 2 * I::W)),
            I::loadu8(cp.add(i + 2 * I::W)),
            a2,
        );
        a3 = I::fmadd(
            I::loadu(ap.add(i + 3 * I::W)),
            I::loadu8(cp.add(i + 3 * I::W)),
            a3,
        );
        i += 4 * I::W;
    }
    let mut acc = I::add(I::add(a0, a1), I::add(a2, a3));
    while i + I::W <= l {
        acc = I::fmadd(I::loadu(ap.add(i)), I::loadu8(cp.add(i)), acc);
        i += I::W;
    }
    let mut s = I::hsum(acc);
    while i < l {
        s += *ap.add(i) * *cp.add(i) as f32;
        i += 1;
    }
    s
}

/// One [`crate::backend::Backend::gemm_q8_f32`] output strip: one query row
/// (element sum `a_sum`) against `out.len()` quantized rows (`codes`
/// row-major `[out.len(), k]`), per-row affine applied in the epilogue. Each
/// output element consumes its full `k` extent, so strips computed on
/// different threads can never interleave accumulation.
#[inline(always)]
unsafe fn gemm_q8_strip_g<I: Isa>(
    arow: &[f32],
    a_sum: f32,
    codes: &[u8],
    scales: &[f32],
    mins: &[f32],
    out: &mut [f32],
    k: usize,
) {
    debug_assert_eq!(arow.len(), k);
    debug_assert_eq!(codes.len(), out.len() * k);
    debug_assert_eq!(scales.len(), out.len());
    debug_assert_eq!(mins.len(), out.len());
    for (j, o) in out.iter_mut().enumerate() {
        let d = dot_q8_v::<I>(arow, codes.get_unchecked(j * k..(j + 1) * k));
        *o = mins[j] * a_sum + scales[j] * d;
    }
}

#[inline(always)]
unsafe fn adam_g<I: Isa>(x: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], hp: &AdamHp) {
    let l = x.len();
    debug_assert_eq!(g.len(), l);
    debug_assert_eq!(m.len(), l);
    debug_assert_eq!(v.len(), l);
    let xp = x.as_mut_ptr();
    let gp = g.as_ptr();
    let mp = m.as_mut_ptr();
    let vp = v.as_mut_ptr();
    let vb1 = I::splat(hp.beta1);
    let vb2 = I::splat(hp.beta2);
    let vomb1 = I::splat(1.0 - hp.beta1);
    let vomb2 = I::splat(1.0 - hp.beta2);
    let vwd = I::splat(hp.weight_decay);
    let vib1 = I::splat(1.0 / hp.bias1);
    let vib2 = I::splat(1.0 / hp.bias2);
    let vlr = I::splat(hp.lr);
    let veps = I::splat(hp.eps);
    let mut i = 0;
    while i + I::W <= l {
        let xv = I::loadu(xp.add(i));
        let gi = I::fmadd(vwd, xv, I::loadu(gp.add(i)));
        let mv = I::fmadd(vb1, I::loadu(mp.add(i)), I::mul(vomb1, gi));
        let vv = I::fmadd(vb2, I::loadu(vp.add(i)), I::mul(vomb2, I::mul(gi, gi)));
        I::storeu(mp.add(i), mv);
        I::storeu(vp.add(i), vv);
        let mhat = I::mul(mv, vib1);
        let vhat = I::mul(vv, vib2);
        // `sqrtps`/`divps` look like the bottleneck but are not: they issue
        // to the divide unit, which runs concurrently with the FMA ports
        // carrying the rest of the loop. A 12-bit rsqrt/rcp estimate plus
        // Newton-Raphson refinement was measured *slower* here (the NR
        // chain competes with the surrounding arithmetic for the FMA
        // ports), so the denominator stays exact — and bit-closest to the
        // scalar kernel. At the 1M-element benchmark size the loop is
        // DRAM-bound either way (7 streams of 4 MB against a ~37 GB/s
        // single-core streaming floor).
        let step = I::div(I::mul(vlr, mhat), I::add(I::sqrt(vhat), veps));
        I::storeu(xp.add(i), I::sub(xv, step));
        i += I::W;
    }
    while i < l {
        let gi = *gp.add(i) + hp.weight_decay * *xp.add(i);
        let mv = hp.beta1 * *mp.add(i) + (1.0 - hp.beta1) * gi;
        let vv = hp.beta2 * *vp.add(i) + (1.0 - hp.beta2) * gi * gi;
        *mp.add(i) = mv;
        *vp.add(i) = vv;
        let mhat = mv / hp.bias1;
        let vhat = vv / hp.bias2;
        *xp.add(i) -= hp.lr * mhat / (vhat.sqrt() + hp.eps);
        i += 1;
    }
}

// --------------------------------------------------------------------------
// GEMM: register-blocked micro-kernel over (optionally packed) B panels
// --------------------------------------------------------------------------

/// `MR x (2·W)` register micro-kernel: the C tile lives in `MR*2`
/// accumulator registers across the whole `kc` loop; each step broadcasts
/// one A element per row and FMAs two B vectors. `ALIGNED` selects aligned
/// B loads (valid only for packed panels).
#[inline(always)]
unsafe fn micro_kern<I: Isa, const MR: usize, const ALIGNED: bool>(
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
    kc: usize,
) {
    let mut acc = [[I::zero(); 2]; MR];
    for r in 0..MR {
        acc[r][0] = I::loadu(c.add(r * ldc));
        acc[r][1] = I::loadu(c.add(r * ldc + I::W));
    }
    let mut p = 0;
    while p < kc {
        let (b0, b1) = if ALIGNED {
            (I::loada(b.add(p * ldb)), I::loada(b.add(p * ldb + I::W)))
        } else {
            (I::loadu(b.add(p * ldb)), I::loadu(b.add(p * ldb + I::W)))
        };
        for r in 0..MR {
            let av = I::splat(*a.add(r * lda + p));
            acc[r][0] = I::fmadd(av, b0, acc[r][0]);
            acc[r][1] = I::fmadd(av, b1, acc[r][1]);
        }
        p += 1;
    }
    for r in 0..MR {
        I::storeu(c.add(r * ldc), acc[r][0]);
        I::storeu(c.add(r * ldc + I::W), acc[r][1]);
    }
}

/// Run the micro-kernel at the configured row blocking `mr` (const-dispatch
/// so each variant keeps its accumulators in registers).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn run_micro<I: Isa, const ALIGNED: bool>(
    mr: usize,
    a: *const f32,
    lda: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
    kc: usize,
) {
    match mr {
        1 => micro_kern::<I, 1, ALIGNED>(a, lda, b, ldb, c, ldc, kc),
        2 => micro_kern::<I, 2, ALIGNED>(a, lda, b, ldb, c, ldc, kc),
        6 => micro_kern::<I, 6, ALIGNED>(a, lda, b, ldb, c, ldc, kc),
        _ => micro_kern::<I, 4, ALIGNED>(a, lda, b, ldb, c, ldc, kc),
    }
}

/// `out[m,n] += a[m,k]·b[k,n]` with ascending-`k` accumulation per element
/// (`kb` blocks ascending, `p` ascending inside each block and inside the
/// micro-kernel). `pack` must hold at least `kc_cfg * 2 * I::W` floats of
/// 64-byte-aligned scratch; B panels are packed when the row-block reuse
/// (`m`) justifies the copy. Column tail (`n % (2W)`) and row tails fall
/// back to scalar/MR=1 paths. Caller guarantees `n >= 2*I::W`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn matmul_g<I: Isa>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    mr: usize,
    kc_cfg: usize,
    pack: &mut [f32],
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    let tw = 2 * I::W;
    debug_assert!(n >= tw);
    debug_assert!(pack.len() >= kc_cfg * tw);
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let cp = out.as_mut_ptr();
    // pack only when several row blocks reuse the panel
    let do_pack = m >= 4 * mr;
    let mut kb = 0;
    while kb < k {
        let kc = kc_cfg.min(k - kb);
        let mut j0 = 0;
        while j0 + tw <= n {
            let (pb, ldb) = if do_pack {
                let dst = pack.as_mut_ptr();
                for p in 0..kc {
                    std::ptr::copy_nonoverlapping(bp.add((kb + p) * n + j0), dst.add(p * tw), tw);
                }
                (pack.as_ptr(), tw)
            } else {
                (bp.add(kb * n + j0) as *const f32, n)
            };
            let mut i0 = 0;
            while i0 + mr <= m {
                let av = ap.add(i0 * k + kb);
                let cv = cp.add(i0 * n + j0);
                if do_pack {
                    run_micro::<I, true>(mr, av, k, pb, ldb, cv, n, kc);
                } else {
                    run_micro::<I, false>(mr, av, k, pb, ldb, cv, n, kc);
                }
                i0 += mr;
            }
            while i0 < m {
                let av = ap.add(i0 * k + kb);
                let cv = cp.add(i0 * n + j0);
                if do_pack {
                    run_micro::<I, true>(1, av, k, pb, ldb, cv, n, kc);
                } else {
                    run_micro::<I, false>(1, av, k, pb, ldb, cv, n, kc);
                }
                i0 += 1;
            }
            j0 += tw;
        }
        if j0 < n {
            // scalar column tail, same ascending-k order
            for i in 0..m {
                for p in kb..kb + kc {
                    let av = *ap.add(i * k + p);
                    if av == 0.0 {
                        continue;
                    }
                    for j in j0..n {
                        *cp.add(i * n + j) += av * *bp.add(p * n + j);
                    }
                }
            }
        }
        kb += kc;
    }
}

// --------------------------------------------------------------------------
// fused attention rows (shared by taped and tape-free entry points)
// --------------------------------------------------------------------------

/// Contract one softmaxed row into the output row: `orow += srow · v[k,n]`,
/// vectorized over `n` when wide enough, scalar otherwise; `n == 1` takes a
/// vector dot over `k`.
#[inline(always)]
unsafe fn contract_row<I: Isa>(srow: &[f32], v: &[f32], orow: &mut [f32], k: usize, n: usize) {
    let sp = srow.as_ptr();
    if n == 1 {
        let vp = v.as_ptr();
        let mut acc = I::zero();
        let mut i = 0;
        while i + I::W <= k {
            acc = I::fmadd(I::loadu(sp.add(i)), I::loadu(vp.add(i)), acc);
            i += I::W;
        }
        let mut o = I::hsum(acc);
        while i < k {
            o += *sp.add(i) * *vp.add(i);
            i += 1;
        }
        orow[0] += o;
        return;
    }
    let op = orow.as_mut_ptr();
    if n >= I::W {
        for j in 0..k {
            let vw = I::splat(*sp.add(j));
            let vrow = v.as_ptr().add(j * n);
            let mut t = 0;
            while t + I::W <= n {
                I::storeu(
                    op.add(t),
                    I::fmadd(vw, I::loadu(vrow.add(t)), I::loadu(op.add(t))),
                );
                t += I::W;
            }
            while t < n {
                *op.add(t) += *sp.add(j) * *vrow.add(t);
                t += 1;
            }
        }
    } else {
        for j in 0..k {
            let w = *sp.add(j);
            let vrow = &v[j * n..(j + 1) * n];
            for (o, &x) in orow.iter_mut().zip(vrow) {
                *o += w * x;
            }
        }
    }
}

/// One outer-attention row: build scores `ars·c[j]` into `srow` with a riding
/// vector max, exponentiate (bit-compatible vexp) with a riding normaliser,
/// normalise `srow` in place, and contract into `orow`. Taped and tape-free
/// entry points both run exactly this function — the only difference is
/// whether `srow` is a persistent buffer row or reused scratch — so taped and
/// tape-free results are bit-identical under this backend by construction.
#[inline(always)]
unsafe fn oa_row<I: Isa>(
    ars: f32,
    c: &[f32],
    v: &[f32],
    srow: &mut [f32],
    orow: &mut [f32],
    k: usize,
    n: usize,
) {
    debug_assert_eq!(srow.len(), k);
    debug_assert_eq!(c.len(), k);
    let sp = srow.as_mut_ptr();
    let cjp = c.as_ptr();
    let va = I::splat(ars);
    let mut vm = I::splat(f32::NEG_INFINITY);
    let mut i = 0;
    while i + I::W <= k {
        let sc = I::mul(va, I::loadu(cjp.add(i)));
        I::storeu(sp.add(i), sc);
        vm = I::max(vm, sc);
        i += I::W;
    }
    let mut mx = I::hmax(vm);
    while i < k {
        let sc = ars * *cjp.add(i);
        *sp.add(i) = sc;
        mx = mx.max(sc);
        i += 1;
    }
    let vmx = I::splat(mx);
    let mut vz = I::zero();
    let mut i = 0;
    while i + I::W <= k {
        let e = vexp::<I>(I::sub(I::loadu(sp.add(i)), vmx));
        I::storeu(sp.add(i), e);
        vz = I::add(vz, e);
        i += I::W;
    }
    let mut z = I::hsum(vz);
    while i < k {
        let e = fast_exp_lane(*sp.add(i) - mx);
        *sp.add(i) = e;
        z += e;
        i += 1;
    }
    let inv_z = 1.0 / z;
    let vinv = I::splat(inv_z);
    let mut i = 0;
    while i + I::W <= k {
        I::storeu(sp.add(i), I::mul(I::loadu(sp.add(i)), vinv));
        i += I::W;
    }
    while i < k {
        *sp.add(i) *= inv_z;
        i += 1;
    }
    contract_row::<I>(srow, v, orow, k, n);
}

/// One batch entry of the fused outer attention (taped: `soft` persists).
#[inline(always)]
unsafe fn outer_attention_block_g<I: Isa>(
    a: &[f32],
    c: &[f32],
    v: &[f32],
    tau: f32,
    soft: &mut [f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for r in 0..m {
        oa_row::<I>(
            a[r] / tau,
            c,
            v,
            &mut soft[r * k..(r + 1) * k],
            &mut out[r * n..(r + 1) * n],
            k,
            n,
        );
    }
}

/// One batch entry of the forward-only outer attention: same [`oa_row`] with
/// `row` scratch in place of a persistent softmax row (bit-identical).
#[inline(always)]
unsafe fn outer_attention_fwd_block_g<I: Isa>(
    a: &[f32],
    c: &[f32],
    v: &[f32],
    tau: f32,
    row: &mut [f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for r in 0..m {
        oa_row::<I>(a[r] / tau, c, v, row, &mut out[r * n..(r + 1) * n], k, n);
    }
}

/// One softmax×matmul row: copy the scores row into `srow`, softmax it with
/// the vector lane kernel, contract. Shared by taped and tape-free entries.
#[inline(always)]
unsafe fn sm_row<I: Isa>(
    scores_row: &[f32],
    v: &[f32],
    srow: &mut [f32],
    orow: &mut [f32],
    k: usize,
    n: usize,
) {
    srow.copy_from_slice(scores_row);
    softmax_lane_v::<I>(srow);
    contract_row::<I>(srow, v, orow, k, n);
}

/// One batch entry of the fused softmax×matmul (taped).
#[inline(always)]
unsafe fn softmax_matmul_block_g<I: Isa>(
    scores: &[f32],
    v: &[f32],
    soft: &mut [f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for r in 0..m {
        sm_row::<I>(
            &scores[r * k..(r + 1) * k],
            v,
            &mut soft[r * k..(r + 1) * k],
            &mut out[r * n..(r + 1) * n],
            k,
            n,
        );
    }
}

/// One batch entry of the forward-only softmax×matmul (scratch `row`).
#[inline(always)]
unsafe fn softmax_matmul_fwd_block_g<I: Isa>(
    scores: &[f32],
    v: &[f32],
    row: &mut [f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for r in 0..m {
        sm_row::<I>(
            &scores[r * k..(r + 1) * k],
            v,
            row,
            &mut out[r * n..(r + 1) * n],
            k,
            n,
        );
    }
}

/// One batch entry of the outer-attention backward, specialised for the TCA
/// hot case `n == 1` (the dispatch layer guards this); returns the entry's
/// τ-gradient contribution. Same math as the scalar
/// `outer_attention_backward_block` with both `k`-loops vectorized.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn outer_attention_backward_block1_g<I: Isa>(
    a: &[f32],
    c: &[f32],
    v: &[f32],
    soft: &[f32],
    gout: &[f32],
    tau: f32,
    ga: &mut [f32],
    gc: &mut [f32],
    gv: &mut [f32],
    scratch: &mut [f32],
    m: usize,
    k: usize,
) -> f32 {
    debug_assert_eq!(v.len(), k);
    debug_assert_eq!(gv.len(), k);
    debug_assert_eq!(gc.len(), k);
    debug_assert!(scratch.len() >= k);
    let inv = 1.0 / tau;
    let cp = c.as_ptr();
    let vp = v.as_ptr();
    let gvp = gv.as_mut_ptr();
    let gcp = gc.as_mut_ptr();
    let scp = scratch.as_mut_ptr();
    let mut gtau = 0.0f32;
    for r in 0..m {
        let srow = &soft[r * k..(r + 1) * k];
        let sp = srow.as_ptr();
        let go = gout[r];
        let vgo = I::splat(go);
        // pass 1: gsoft = go·v into scratch, gv += soft·go, dot = Σ gsoft⊙soft
        let mut vdot = I::zero();
        let mut i = 0;
        while i + I::W <= k {
            let w = I::loadu(sp.add(i));
            let acc = I::mul(vgo, I::loadu(vp.add(i)));
            I::storeu(scp.add(i), acc);
            I::storeu(gvp.add(i), I::fmadd(w, vgo, I::loadu(gvp.add(i))));
            vdot = I::fmadd(acc, w, vdot);
            i += I::W;
        }
        let mut dot = I::hsum(vdot);
        while i < k {
            let w = *sp.add(i);
            let acc = go * *vp.add(i);
            *scp.add(i) = acc;
            *gvp.add(i) += w * go;
            dot += acc * w;
            i += 1;
        }
        // pass 2: gs = (gsoft − dot)·soft; gc += gs·(a/τ); row_c_dot = Σ gs·c
        let ar = a[r];
        let ar_inv = ar * inv;
        let vd = I::splat(dot);
        let vai = I::splat(ar_inv);
        let mut vrc = I::zero();
        let mut i = 0;
        while i + I::W <= k {
            let gs = I::mul(I::sub(I::loadu(scp.add(i)), vd), I::loadu(sp.add(i)));
            vrc = I::fmadd(gs, I::loadu(cp.add(i)), vrc);
            I::storeu(gcp.add(i), I::fmadd(gs, vai, I::loadu(gcp.add(i))));
            i += I::W;
        }
        let mut row_c_dot = I::hsum(vrc);
        while i < k {
            let gs = (*scp.add(i) - dot) * *sp.add(i);
            row_c_dot += gs * *cp.add(i);
            *gcp.add(i) += gs * ar_inv;
            i += 1;
        }
        ga[r] += row_c_dot * inv;
        gtau -= ar * row_c_dot * inv * inv;
    }
    gtau
}

// --------------------------------------------------------------------------
// #[target_feature] entry points, one module per ISA
// --------------------------------------------------------------------------

macro_rules! isa_entries {
    ($mod_name:ident, $isa:ty, $features:literal) => {
        pub(crate) mod $mod_name {
            use super::*;

            #[target_feature(enable = $features)]
            pub(crate) unsafe fn softmax_lanes(data: &mut [f32], lane: usize) {
                softmax_lanes_g::<$isa>(data, lane)
            }

            #[target_feature(enable = $features)]
            pub(crate) unsafe fn layer_norm_lanes(data: &mut [f32], lane: usize, eps: f32) {
                layer_norm_lanes_g::<$isa>(data, lane, eps)
            }

            #[target_feature(enable = $features)]
            pub(crate) unsafe fn layer_norm_backward_lanes(
                x: &[f32],
                g: &[f32],
                out: &mut [f32],
                lane: usize,
                eps: f32,
            ) {
                layer_norm_backward_lanes_g::<$isa>(x, g, out, lane, eps)
            }

            #[target_feature(enable = $features)]
            pub(crate) unsafe fn adam_update(
                x: &mut [f32],
                g: &[f32],
                m: &mut [f32],
                v: &mut [f32],
                hp: &AdamHp,
            ) {
                adam_g::<$isa>(x, g, m, v, hp)
            }

            #[target_feature(enable = $features)]
            pub(crate) unsafe fn sum_blocks(xs: &[f32]) -> f32 {
                sum_blocks_g::<$isa>(xs)
            }

            #[target_feature(enable = $features)]
            pub(crate) unsafe fn dot_blocks(xs: &[f32], ys: &[f32]) -> f32 {
                dot_blocks_g::<$isa>(xs, ys)
            }

            #[target_feature(enable = $features)]
            pub(crate) unsafe fn dot_q8(a: &[f32], codes: &[u8]) -> f32 {
                dot_q8_v::<$isa>(a, codes)
            }

            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn gemm_q8_strip(
                arow: &[f32],
                a_sum: f32,
                codes: &[u8],
                scales: &[f32],
                mins: &[f32],
                out: &mut [f32],
                k: usize,
            ) {
                gemm_q8_strip_g::<$isa>(arow, a_sum, codes, scales, mins, out, k)
            }

            #[target_feature(enable = $features)]
            pub(crate) unsafe fn exp_slice(data: &mut [f32]) {
                exp_slice_g::<$isa>(data)
            }

            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn matmul(
                a: &[f32],
                b: &[f32],
                out: &mut [f32],
                m: usize,
                k: usize,
                n: usize,
                mr: usize,
                kc: usize,
                pack: &mut [f32],
            ) {
                matmul_g::<$isa>(a, b, out, m, k, n, mr, kc, pack)
            }

            #[target_feature(enable = $features)]
            pub(crate) unsafe fn softmax_matmul_block(
                scores: &[f32],
                v: &[f32],
                soft: &mut [f32],
                out: &mut [f32],
                m: usize,
                k: usize,
                n: usize,
            ) {
                softmax_matmul_block_g::<$isa>(scores, v, soft, out, m, k, n)
            }

            #[target_feature(enable = $features)]
            pub(crate) unsafe fn softmax_matmul_fwd_block(
                scores: &[f32],
                v: &[f32],
                row: &mut [f32],
                out: &mut [f32],
                m: usize,
                k: usize,
                n: usize,
            ) {
                softmax_matmul_fwd_block_g::<$isa>(scores, v, row, out, m, k, n)
            }

            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn outer_attention_block(
                a: &[f32],
                c: &[f32],
                v: &[f32],
                tau: f32,
                soft: &mut [f32],
                out: &mut [f32],
                m: usize,
                k: usize,
                n: usize,
            ) {
                outer_attention_block_g::<$isa>(a, c, v, tau, soft, out, m, k, n)
            }

            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn outer_attention_fwd_block(
                a: &[f32],
                c: &[f32],
                v: &[f32],
                tau: f32,
                row: &mut [f32],
                out: &mut [f32],
                m: usize,
                k: usize,
                n: usize,
            ) {
                outer_attention_fwd_block_g::<$isa>(a, c, v, tau, row, out, m, k, n)
            }

            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = $features)]
            pub(crate) unsafe fn outer_attention_backward_block1(
                a: &[f32],
                c: &[f32],
                v: &[f32],
                soft: &[f32],
                gout: &[f32],
                tau: f32,
                ga: &mut [f32],
                gc: &mut [f32],
                gv: &mut [f32],
                scratch: &mut [f32],
                m: usize,
                k: usize,
            ) -> f32 {
                outer_attention_backward_block1_g::<$isa>(
                    a, c, v, soft, gout, tau, ga, gc, gv, scratch, m, k,
                )
            }
        }
    };
}

isa_entries!(avx2, Avx2, "avx2,fma");
isa_entries!(sse2, Sse2, "sse2");
