//! Pluggable kernel backends: the dispatch seam for every hot tensor op.
//!
//! All dense kernels the stack spends wall-clock in — GEMM (plain, batched,
//! and the im2col GEMMs inside conv2d), rowwise softmax / layer-norm, and the
//! elementwise map / zip / reduce drivers — are routed through the [`Backend`]
//! trait. Two implementations ship:
//!
//! - [`ScalarBackend`]: the original single-threaded reference loops.
//!   Bitwise-stable semantics; the oracle every parity test compares against.
//! - [`SimdBackend`]: the threaded backend. Each kernel's fan-out (run
//!   inline, or cut into fixed blocks for a `std::thread::scope`
//!   work-stealing pool sized by [`std::thread::available_parallelism`]) is
//!   written once; inside each block it runs the explicit `std::arch` x86_64
//!   kernel (AVX2+FMA or SSE2, chosen once at runtime via
//!   `is_x86_feature_detected!`) when the shape is wide enough, else the
//!   portable block kernel. [`SimdBackend::portable`] pins the portable
//!   kernels on any host. See the [`simd`] module docs for the safety
//!   argument.
//!
//! The active backend is a process-wide setting: [`set_backend`] selects one
//! programmatically, the `CAME_BACKEND` environment variable (`scalar` |
//! `simd`) selects one at launch, and the default is `simd`. Thread count
//! follows `available_parallelism`, overridable with `CAME_THREADS`.
//!
//! Elementwise ops keep their inner loops monomorphised: callers hand the
//! backend a *chunk* closure (`&dyn Fn(&[f32], &mut [f32])`), so the dynamic
//! dispatch cost is paid once per cache-sized chunk, not once per element.
//!
//! # Summation-order contract
//!
//! Floating-point addition is not associative, so reductions (`sum`, `dot`)
//! pin one canonical grouping that every backend follows: the input is cut
//! into fixed [`SUM_BLOCK`]-element blocks at deterministic offsets
//! (`0..4096`, `4096..8192`, …), each block is reduced independently, and the
//! per-block partials are folded left-to-right in block order. The block
//! partition depends only on the input length — never on thread count, chunk
//! grain, or backend — so:
//!
//! - scalar and portable-kernel reductions are **bitwise equal** (both reduce
//!   inside a block in ascending element order);
//! - the vector kernels reduce inside a block with striped vector
//!   accumulators (a different intra-block association), which agrees with
//!   the scalar grouping to well within the 1e-5 parity tolerance but not
//!   bit-for-bit;
//! - results are reproducible run-to-run on every backend, because no
//!   grouping decision is made dynamically.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

mod parallel;
mod scalar;
pub mod simd;

pub(crate) use parallel::q8_strip_for;
pub use parallel::{num_threads, run_tasks, run_tasks_min_work, shard_width};
pub use scalar::ScalarBackend;
pub use simd::SimdBackend;

/// Which backend implementation to dispatch through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Reference single-threaded loops.
    Scalar,
    /// The threaded backend: vector kernels where the host and shape allow,
    /// portable block kernels elsewhere.
    Simd,
}

impl BackendKind {
    /// Parse `"scalar"` / `"simd"` (case-insensitive).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(BackendKind::Scalar),
            "simd" => Some(BackendKind::Simd),
            _ => None,
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BackendKind::parse(s).ok_or_else(|| format!("unknown backend {s:?}"))
    }
}

/// Adam update hyper-parameters plus the step's bias corrections, packed so
/// the fused optimiser kernel has one argument.
#[derive(Clone, Copy, Debug)]
pub struct AdamHp {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Decoupled L2 weight decay.
    pub weight_decay: f32,
    /// `1 - beta1^t` for the current step `t`.
    pub bias1: f32,
    /// `1 - beta2^t` for the current step `t`.
    pub bias2: f32,
}

/// Elementwise activation applied by the fused GEMM epilogue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// No activation (plain GEMM + optional bias).
    Identity,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
}

impl Activation {
    /// Apply the activation to one value. Uses the same scalar functions as
    /// the unfused graph ops, so fused and composed results are identical.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Sigmoid => crate::graph::sigmoid(x),
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
        }
    }
}

/// The kernel dispatch trait. `out` GEMM buffers are *accumulated into*
/// (`C += A·B`); pass zeros for a plain product. Lane kernels treat their
/// buffer as contiguous rows of length `lane`.
pub trait Backend: Send + Sync {
    /// Canonical backend name.
    fn name(&self) -> &'static str;

    /// `out[m,n] += a[m,k] · b[k,n]`, row-major.
    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// Batched `out[i] += a[i] · b[i]` over `batch` independent `[m,k]x[k,n]`
    /// products stored contiguously.
    fn matmul_batched(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..batch {
            self.matmul(
                &a[i * m * k..(i + 1) * m * k],
                &b[i * k * n..(i + 1) * k * n],
                &mut out[i * m * n..(i + 1) * m * n],
                m,
                k,
                n,
            );
        }
    }

    /// In-place stabilised softmax over each contiguous lane of length `lane`.
    fn softmax_lanes(&self, data: &mut [f32], lane: usize);

    /// In-place layer normalisation (no affine) over contiguous lanes.
    fn layer_norm_lanes(&self, data: &mut [f32], lane: usize, eps: f32);

    /// Backward of [`Backend::layer_norm_lanes`]: writes `d loss/d x` into
    /// `out` given input `x` and upstream gradient `g`.
    fn layer_norm_backward_lanes(
        &self,
        x: &[f32],
        g: &[f32],
        out: &mut [f32],
        lane: usize,
        eps: f32,
    );

    /// Elementwise driver over one mutable buffer. `body` is invoked on
    /// cache-sized chunks (the whole buffer under the scalar backend).
    fn run1(&self, data: &mut [f32], body: &(dyn Fn(&mut [f32]) + Sync));

    /// Elementwise driver `src -> dst` (equal lengths, chunked in lockstep).
    fn run2(&self, src: &[f32], dst: &mut [f32], body: &(dyn Fn(&[f32], &mut [f32]) + Sync));

    /// Elementwise driver `(a, b) -> dst` (equal lengths, chunked in lockstep).
    fn run3(
        &self,
        a: &[f32],
        b: &[f32],
        dst: &mut [f32],
        body: &(dyn Fn(&[f32], &[f32], &mut [f32]) + Sync),
    );

    /// Deterministic sum of all elements, following the module-level
    /// summation-order contract (fixed [`SUM_BLOCK`] grouping).
    fn sum(&self, xs: &[f32]) -> f32;

    /// Deterministic dot product (`xs.len() == ys.len()`), following the
    /// module-level summation-order contract.
    fn dot(&self, xs: &[f32], ys: &[f32]) -> f32;

    /// Fused Adam step over one parameter tensor's buffers.
    fn adam_update(&self, x: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], hp: &AdamHp);

    /// Fused `out = act(out + a·b + bias)`: GEMM accumulation followed by a
    /// row-broadcast bias add and elementwise activation in one pass while
    /// the output panel is cache-hot. `bias` has length `n` when present.
    /// With zeroed `out` this equals the composed
    /// `act(matmul(a, b) + bias)` bit-for-bit.
    #[allow(clippy::too_many_arguments)]
    fn gemm_bias_act(
        &self,
        a: &[f32],
        b: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        act: Activation,
    ) {
        self.matmul(a, b, out, m, k, n);
        bias_act_rows(out, bias, n, act);
    }

    /// Fused attention-weight application: for each of `batch` independent
    /// problems, row-softmax `scores[m,k]` into `soft` and immediately
    /// accumulate `out[m,n] += softmax(scores)·v[k,n]`. The softmax result
    /// lands in the caller-provided `soft` scratch (needed for backward)
    /// instead of becoming a separate tape node. Equals the composed
    /// softmax-then-batched-matmul bit-for-bit.
    #[allow(clippy::too_many_arguments)]
    fn softmax_matmul(
        &self,
        scores: &[f32],
        v: &[f32],
        soft: &mut [f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        if m * k == 0 {
            return;
        }
        for i in 0..batch {
            softmax_matmul_block(
                &scores[i * m * k..(i + 1) * m * k],
                &v[i * k * n..(i + 1) * k * n],
                &mut soft[i * m * k..(i + 1) * m * k],
                &mut out[i * m * n..(i + 1) * m * n],
                m,
                k,
                n,
            );
        }
    }

    /// Fully fused scaled-outer-product attention, the TCA hot path: for each
    /// batch entry, score row `i` is built on the fly as `a[i]·c[j]/τ`
    /// directly inside `soft`, row-softmaxed in place, and accumulated into
    /// `out[m,n] += soft·v[k,n]`. The `[m,k]` score matrix never exists as a
    /// tensor — only the softmax survives (the backward pass needs it). With
    /// zeroed `out` this agrees with the composed outer-product → divide-by-τ
    /// → softmax → matmul chain to float rounding (the `/τ` is hoisted per
    /// row), within the 1e-5 parity budget.
    #[allow(clippy::too_many_arguments)]
    fn outer_attention(
        &self,
        a: &[f32],
        c: &[f32],
        v: &[f32],
        tau: f32,
        soft: &mut [f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        if m * k == 0 {
            return;
        }
        for i in 0..batch {
            outer_attention_block(
                &a[i * m..(i + 1) * m],
                &c[i * k..(i + 1) * k],
                &v[i * k * n..(i + 1) * k * n],
                tau,
                &mut soft[i * m * k..(i + 1) * m * k],
                &mut out[i * m * n..(i + 1) * m * n],
                m,
                k,
                n,
            );
        }
    }

    /// Forward-only [`Backend::softmax_matmul`]: identical per-row math and
    /// accumulation order, but the softmax lives in a pooled `k`-float row
    /// that is recycled immediately instead of a `[batch,m,k]` tensor the
    /// backward pass would read. Tape-free inference calls this.
    fn softmax_matmul_fwd(
        &self,
        scores: &[f32],
        v: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        if m * k == 0 {
            return;
        }
        let mut row = crate::pool::alloc_uninit(k);
        for i in 0..batch {
            softmax_matmul_fwd_block(
                &scores[i * m * k..(i + 1) * m * k],
                &v[i * k * n..(i + 1) * k * n],
                &mut row,
                &mut out[i * m * n..(i + 1) * m * n],
                m,
                k,
                n,
            );
        }
        crate::pool::recycle(row);
    }

    /// Forward-only [`Backend::outer_attention`]: same fused score build,
    /// softmax, and ascending-`k` contraction, bit-equal to the
    /// tape-recording kernel. The attention case `n == 1` takes the
    /// column-major lane-parallel path ([`outer_attention_fwd_col_block`]);
    /// other shapes reuse the row walk with a pooled `k`-float softmax row.
    #[allow(clippy::too_many_arguments)]
    fn outer_attention_fwd(
        &self,
        a: &[f32],
        c: &[f32],
        v: &[f32],
        tau: f32,
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        if m * k == 0 {
            return;
        }
        if n == 1 {
            let mut u = crate::pool::alloc_uninit(m * k);
            let mut lanes = crate::pool::alloc_uninit(3 * m);
            for i in 0..batch {
                outer_attention_fwd_col_block(
                    &a[i * m..(i + 1) * m],
                    &c[i * k..(i + 1) * k],
                    &v[i * k..(i + 1) * k],
                    tau,
                    &mut u,
                    &mut lanes,
                    &mut out[i * m..(i + 1) * m],
                    m,
                    k,
                );
            }
            crate::pool::recycle(lanes);
            crate::pool::recycle(u);
            return;
        }
        let mut row = crate::pool::alloc_uninit(k);
        for i in 0..batch {
            outer_attention_fwd_block(
                &a[i * m..(i + 1) * m],
                &c[i * k..(i + 1) * k],
                &v[i * k * n..(i + 1) * k * n],
                tau,
                &mut row,
                &mut out[i * m * n..(i + 1) * m * n],
                m,
                k,
                n,
            );
        }
        crate::pool::recycle(row);
    }

    /// Backward of [`Backend::outer_attention`]: reads the saved row softmax
    /// and the upstream gradient `gout [batch,m,n]`, accumulates into
    /// `ga [batch,m]`, `gc [batch,k]`, `gv [batch,k,n]`, and returns the
    /// scalar gradient wrt `τ`. Needs no `[m,k]`-sized scratch — every row is
    /// reduced in a `k`-float buffer while it is cache-hot.
    #[allow(clippy::too_many_arguments)]
    fn outer_attention_backward(
        &self,
        a: &[f32],
        c: &[f32],
        v: &[f32],
        soft: &[f32],
        gout: &[f32],
        tau: f32,
        ga: &mut [f32],
        gc: &mut [f32],
        gv: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) -> f32 {
        if m * k == 0 {
            return 0.0;
        }
        let mut scratch = crate::pool::alloc_uninit(k);
        let mut gtau = 0.0f32;
        for i in 0..batch {
            gtau += outer_attention_backward_block(
                &a[i * m..(i + 1) * m],
                &c[i * k..(i + 1) * k],
                &v[i * k * n..(i + 1) * k * n],
                &soft[i * m * k..(i + 1) * m * k],
                &gout[i * m * n..(i + 1) * m * n],
                tau,
                &mut ga[i * m..(i + 1) * m],
                &mut gc[i * k..(i + 1) * k],
                &mut gv[i * k * n..(i + 1) * k * n],
                &mut scratch,
                m,
                k,
                n,
            );
        }
        crate::pool::recycle(scratch);
        gtau
    }

    /// Fused-dequant dot product over one quantized row: the *raw* weighted
    /// code sum `Σ_t a[t] · codes[t]` with the u8 codes widened to f32 in
    /// registers — the caller applies the per-row affine
    /// (`min · Σa + scale · dot_q8`) so no dequantized f32 row is ever
    /// materialized. Accumulation is in ascending element order (rows are
    /// embedding-dim sized, far below [`SUM_BLOCK`], so no block grouping);
    /// scalar and portable kernels are bitwise identical, vector kernels are
    /// allowed the usual reassociation tolerance.
    ///
    /// # Panics
    /// Panics (debug) if `a.len() != codes.len()`.
    fn dot_q8(&self, a: &[f32], codes: &[u8]) -> f32 {
        dot_q8_block(a, codes)
    }

    /// Fused dequant-scoring GEMM over per-row affine-quantized u8 rows:
    ///
    /// ```text
    /// out[i*n + j] = mins[j] * a_sums[i]
    ///              + scales[j] * Σ_t a[i*k + t] · codes[j*k + t]
    /// ```
    ///
    /// with `a` the row-major `[m, k]` query block, `a_sums[i]` the
    /// precomputed element sum of query row `i`, and `codes` the row-major
    /// `[n, k]` u8 code block with per-row `scales` / `mins`. Every output
    /// element consumes its full `k` extent in one fixed ascending pass, so
    /// scalar and portable results are bitwise identical regardless of task
    /// decomposition; vector kernels get the reassociation tolerance.
    ///
    /// # Panics
    /// Panics (debug) on slice-length mismatches against `m`/`k`/`n`.
    #[allow(clippy::too_many_arguments)]
    fn gemm_q8_f32(
        &self,
        a: &[f32],
        a_sums: &[f32],
        codes: &[u8],
        scales: &[f32],
        mins: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        check_q8_shapes(a, a_sums, codes, scales, mins, out, m, k, n);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            gemm_q8_strip(arow, a_sums[i], codes, scales, mins, orow, k);
        }
    }
}

// --------------------------------------------------------------------------
// shared reduction blocks (the summation-order contract's unit of grouping)
// --------------------------------------------------------------------------

/// Fixed reduction block: reductions group their input into `SUM_BLOCK`-sized
/// blocks at deterministic offsets regardless of backend or thread count (see
/// the module-level summation-order contract).
pub(crate) const SUM_BLOCK: usize = 4096;

/// Reduce one contract block in ascending element order.
#[inline]
pub(crate) fn sum_block(c: &[f32]) -> f32 {
    c.iter().sum()
}

/// Reduce one contract dot-product block in ascending element order.
#[inline]
pub(crate) fn dot_block(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Raw weighted code sum for [`Backend::dot_q8`]: ascending element order,
/// codes widened `u8 → f32` per element. The reference every backend's
/// scalar/portable path must match bitwise.
#[inline]
pub(crate) fn dot_q8_block(a: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(a.len(), codes.len(), "dot_q8 length mismatch");
    a.iter().zip(codes).map(|(&x, &c)| x * c as f32).sum()
}

/// One output strip of [`Backend::gemm_q8_f32`]: query row `arow` (sum
/// `a_sum`) against quantized rows `codes [strip, k]` with per-row affine
/// `scales` / `mins`, written to `out[j]` in the fixed per-element order the
/// trait documents. Shared by the scalar default and the portable kernel so
/// their task decompositions stay bitwise identical.
#[inline]
pub(crate) fn gemm_q8_strip(
    arow: &[f32],
    a_sum: f32,
    codes: &[u8],
    scales: &[f32],
    mins: &[f32],
    out: &mut [f32],
    k: usize,
) {
    for (j, o) in out.iter_mut().enumerate() {
        let crow = &codes[j * k..(j + 1) * k];
        *o = mins[j] * a_sum + scales[j] * dot_q8_block(arow, crow);
    }
}

/// Debug-time shape contract for [`Backend::gemm_q8_f32`].
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_q8_shapes(
    a: &[f32],
    a_sums: &[f32],
    codes: &[u8],
    scales: &[f32],
    mins: &[f32],
    out: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(a.len(), m * k, "gemm_q8 a shape");
    debug_assert_eq!(a_sums.len(), m, "gemm_q8 a_sums shape");
    debug_assert_eq!(codes.len(), n * k, "gemm_q8 codes shape");
    debug_assert_eq!(scales.len(), n, "gemm_q8 scales shape");
    debug_assert_eq!(mins.len(), n, "gemm_q8 mins shape");
    debug_assert_eq!(out.len(), m * n, "gemm_q8 out shape");
}

// --------------------------------------------------------------------------
// shared lane kernels (per-lane math identical across backends)
// --------------------------------------------------------------------------

#[inline]
pub(crate) fn softmax_one_lane(lane: &mut [f32]) {
    let mut mx = f32::NEG_INFINITY;
    for &v in lane.iter() {
        mx = mx.max(v);
    }
    let mut z = 0.0;
    for v in lane.iter_mut() {
        let e = crate::tensor::fast_exp(*v - mx);
        *v = e;
        z += e;
    }
    let inv = 1.0 / z;
    for v in lane.iter_mut() {
        *v *= inv;
    }
}

#[inline]
pub(crate) fn layer_norm_one_lane(lane: &mut [f32], eps: f32) {
    let d = lane.len() as f32;
    let mean = lane.iter().sum::<f32>() / d;
    let var = lane.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d;
    let inv = 1.0 / (var + eps).sqrt();
    for v in lane.iter_mut() {
        *v = (*v - mean) * inv;
    }
}

#[inline]
pub(crate) fn layer_norm_backward_one_lane(xs: &[f32], gs: &[f32], os: &mut [f32], eps: f32) {
    let d = xs.len() as f32;
    let mean = xs.iter().sum::<f32>() / d;
    let var = xs.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d;
    let inv = 1.0 / (var + eps).sqrt();
    let mut g_mean = 0.0f32;
    let mut gy_mean = 0.0f32;
    for (&g, &x) in gs.iter().zip(xs) {
        g_mean += g;
        gy_mean += g * (x - mean) * inv;
    }
    g_mean /= d;
    gy_mean /= d;
    for ((o, &g), &x) in os.iter_mut().zip(gs).zip(xs) {
        let y = (x - mean) * inv;
        *o = inv * (g - g_mean - y * gy_mean);
    }
}

#[inline]
pub(crate) fn adam_chunk(x: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], hp: &AdamHp) {
    for i in 0..x.len() {
        let gi = g[i] + hp.weight_decay * x[i];
        m[i] = hp.beta1 * m[i] + (1.0 - hp.beta1) * gi;
        v[i] = hp.beta2 * v[i] + (1.0 - hp.beta2) * gi * gi;
        let mhat = m[i] / hp.bias1;
        let vhat = v[i] / hp.bias2;
        x[i] -= hp.lr * mhat / (vhat.sqrt() + hp.eps);
    }
}

/// Fused-GEMM epilogue: add the row-broadcast bias and apply the activation
/// over rows of length `n`.
#[inline]
pub(crate) fn bias_act_rows(out: &mut [f32], bias: Option<&[f32]>, n: usize, act: Activation) {
    match bias {
        Some(b) => {
            debug_assert_eq!(b.len(), n);
            for row in out.chunks_mut(n.max(1)) {
                for (o, &bv) in row.iter_mut().zip(b) {
                    *o = act.apply(*o + bv);
                }
            }
        }
        None => {
            if act != Activation::Identity {
                for o in out.iter_mut() {
                    *o = act.apply(*o);
                }
            }
        }
    }
}

/// One batch entry of the fused softmax×matmul: row-softmax `scores[m,k]`
/// into `soft`, then `out[m,n] += soft·v[k,n]`. The accumulation over `k` is
/// ascending, matching both GEMM kernels, so results are bitwise equal to
/// the composed ops.
#[inline]
pub(crate) fn softmax_matmul_block(
    scores: &[f32],
    v: &[f32],
    soft: &mut [f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for r in 0..m {
        let srow = &mut soft[r * k..(r + 1) * k];
        srow.copy_from_slice(&scores[r * k..(r + 1) * k]);
        softmax_one_lane(srow);
        let orow = &mut out[r * n..(r + 1) * n];
        for (p, &w) in srow.iter().enumerate() {
            let vrow = &v[p * n..(p + 1) * n];
            for (o, &x) in orow.iter_mut().zip(vrow) {
                *o += w * x;
            }
        }
    }
}

/// One batch entry of the fused outer-product attention: score row `i` is
/// `(a[i]/τ)·c[j]` built straight in its `soft` row, softmaxed, then
/// `out[i,:] += soft_row·v` with ascending-`k` accumulation. Three passes per
/// row instead of the composed path's five: the row max rides along with the
/// score generation and the normalisation rides along with the contraction.
/// Hoisting the `/τ` out of the inner loop trades millions of per-element
/// divisions for one per row (agrees with the composed mul-then-div ordering
/// to float rounding, within the 1e-5 parity budget).
#[inline]
pub(crate) fn outer_attention_block(
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
        let srow = &mut soft[r * k..(r + 1) * k];
        let ars = a[r] / tau;
        let mut mx = f32::NEG_INFINITY;
        for (s, &cj) in srow.iter_mut().zip(c) {
            let sc = ars * cj;
            *s = sc;
            mx = mx.max(sc);
        }
        let mut z = 0.0;
        for s in srow.iter_mut() {
            let e = crate::tensor::fast_exp(*s - mx);
            *s = e;
            z += e;
        }
        let inv_z = 1.0 / z;
        let orow = &mut out[r * n..(r + 1) * n];
        for (p, s) in srow.iter_mut().enumerate() {
            *s *= inv_z;
            let w = *s;
            let vrow = &v[p * n..(p + 1) * n];
            for (o, &x) in orow.iter_mut().zip(vrow) {
                *o += w * x;
            }
        }
    }
}

/// One batch entry of the forward-only softmax×matmul: per row the softmax
/// lands in the caller's `k`-float `row` scratch (reused across rows) and is
/// contracted ascending-`k`, matching [`softmax_matmul_block`] bit-for-bit.
#[inline]
pub(crate) fn softmax_matmul_fwd_block(
    scores: &[f32],
    v: &[f32],
    row: &mut [f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for r in 0..m {
        row.copy_from_slice(&scores[r * k..(r + 1) * k]);
        softmax_one_lane(row);
        let orow = &mut out[r * n..(r + 1) * n];
        for (p, &w) in row.iter().enumerate() {
            let vrow = &v[p * n..(p + 1) * n];
            for (o, &x) in orow.iter_mut().zip(vrow) {
                *o += w * x;
            }
        }
    }
}

/// One batch entry of the forward-only outer-product attention: the same
/// three passes as [`outer_attention_block`] with the softmax confined to the
/// caller's reused `k`-float `row` scratch.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn outer_attention_fwd_block(
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
    debug_assert_eq!(row.len(), k, "scratch must span the attention lane");
    for r in 0..m {
        let ars = a[r] / tau;
        let mut mx = f32::NEG_INFINITY;
        for (s, &cj) in row.iter_mut().zip(c) {
            let sc = ars * cj;
            *s = sc;
            mx = mx.max(sc);
        }
        let mut z = 0.0;
        for s in row.iter_mut() {
            let e = crate::tensor::fast_exp(*s - mx);
            *s = e;
            z += e;
        }
        let inv_z = 1.0 / z;
        let orow = &mut out[r * n..(r + 1) * n];
        for (p, s) in row.iter_mut().enumerate() {
            *s *= inv_z;
            let w = *s;
            let vrow = &v[p * n..(p + 1) * n];
            for (o, &x) in orow.iter_mut().zip(vrow) {
                *o += w * x;
            }
        }
    }
}

/// One batch entry of the forward-only outer attention, specialised for the
/// TCA case `n == 1` and laid out column-major so the *rows* become SIMD
/// lanes. Every per-row reduction (running max, softmax normaliser, weighted
/// contraction) advances in ascending-`j` lock-step across all rows, i.e. in
/// exactly the order [`outer_attention_block`] walks each row — the result is
/// bit-identical to the taped kernel — but each pass is a contiguous
/// element-wise loop over `m`-float row-lanes that the compiler vectorises
/// (the row-serial form is latency-bound on its per-row accumulator chains
/// and its branchy scalar `exp`). Only reachable from tape-free inference;
/// the taped kernel keeps the row layout its backward pass reads.
///
/// `u` is a `[k, m]` column-major scratch holding scores then exponentials;
/// `lanes` is `3·m` floats of per-row state (`a/τ` | running max | softmax
/// normaliser, the last reused for its reciprocal).
pub(crate) fn outer_attention_fwd_col_block(
    a: &[f32],
    c: &[f32],
    v: &[f32],
    tau: f32,
    u: &mut [f32],
    lanes: &mut [f32],
    out: &mut [f32],
    m: usize,
    k: usize,
) {
    debug_assert_eq!(u.len(), m * k, "column scratch must span the score block");
    debug_assert_eq!(lanes.len(), 3 * m, "lane scratch holds three m-vectors");
    let (ars, rest) = lanes.split_at_mut(m);
    let (mx, z) = rest.split_at_mut(m);
    for (s, &ar) in ars.iter_mut().zip(a) {
        *s = ar / tau;
    }
    mx.fill(f32::NEG_INFINITY);
    z.fill(0.0);
    // scores + running row max, ascending j
    for (j, &cj) in c.iter().enumerate() {
        let col = &mut u[j * m..(j + 1) * m];
        for ((s, &ar), m_r) in col.iter_mut().zip(ars.iter()).zip(mx.iter_mut()) {
            let sc = ar * cj;
            *s = sc;
            *m_r = m_r.max(sc);
        }
    }
    // exponentials + normaliser, ascending j per row
    for j in 0..k {
        let col = &mut u[j * m..(j + 1) * m];
        for ((s, &m_r), z_r) in col.iter_mut().zip(mx.iter()).zip(z.iter_mut()) {
            let e = crate::tensor::fast_exp_lane(*s - m_r);
            *s = e;
            *z_r += e;
        }
    }
    for z_r in z.iter_mut() {
        *z_r = 1.0 / *z_r;
    }
    // normalised weight times v, ascending j per row
    for (j, &vj) in v.iter().enumerate() {
        let col = &u[j * m..(j + 1) * m];
        for ((o, &e), &inv_z) in out.iter_mut().zip(col).zip(z.iter()) {
            *o += e * inv_z * vj;
        }
    }
}

/// One batch entry of the outer-attention backward; returns this entry's
/// contribution to the τ gradient. `scratch` is a caller-provided `k`-float
/// buffer: per row it first holds `∂L/∂soft`, then is transformed in place
/// into the softmax-backward `∂L/∂u` (u = scaled scores) for the final
/// reductions onto `ga`, `gc`, and τ.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn outer_attention_backward_block(
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
    n: usize,
) -> f32 {
    let inv = 1.0 / tau;
    let mut gtau = 0.0f32;
    for r in 0..m {
        let srow = &soft[r * k..(r + 1) * k];
        let grow = &gout[r * n..(r + 1) * n];
        // gsoft_row[j] = gout_row · v[j,:]; gv[j,:] += soft_row[j] * gout_row
        let mut dot = 0.0f32;
        for j in 0..k {
            let vrow = &v[j * n..(j + 1) * n];
            let gvrow = &mut gv[j * n..(j + 1) * n];
            let w = srow[j];
            let mut acc = 0.0f32;
            for ((gv_o, &go), &vx) in gvrow.iter_mut().zip(grow).zip(vrow) {
                acc += go * vx;
                *gv_o += w * go;
            }
            scratch[j] = acc;
            dot += acc * w;
        }
        // softmax backward: ∂L/∂u = (gsoft − Σ gsoft⊙soft) ⊙ soft
        let ar = a[r];
        let ar_inv = ar * inv;
        let mut row_c_dot = 0.0f32;
        for j in 0..k {
            let gs = (scratch[j] - dot) * srow[j];
            row_c_dot += gs * c[j];
            gc[j] += gs * ar_inv;
        }
        ga[r] += row_c_dot * inv;
        // u = a·c/τ ⇒ ∂u/∂τ = −a·c/τ²
        gtau -= ar * row_c_dot * inv * inv;
    }
    gtau
}

// --------------------------------------------------------------------------
// global selection
// --------------------------------------------------------------------------

static SCALAR: ScalarBackend = ScalarBackend;

const KIND_UNSET: u8 = u8::MAX;
static ACTIVE: AtomicU8 = AtomicU8::new(KIND_UNSET);

fn kind_from_env() -> BackendKind {
    match std::env::var("CAME_BACKEND") {
        Ok(s) => BackendKind::parse(&s).unwrap_or_else(|| {
            eprintln!(
                "[came-tensor] unknown CAME_BACKEND={s:?} (expected \"scalar\" or \
                 \"simd\"); using simd"
            );
            BackendKind::Simd
        }),
        Err(_) => BackendKind::Simd,
    }
}

/// Select the process-wide backend programmatically (overrides any earlier
/// choice, including `CAME_BACKEND`).
pub fn set_backend(kind: BackendKind) {
    ACTIVE.store(kind as u8, Ordering::SeqCst);
}

/// Re-read `CAME_BACKEND` and make it the active backend (auto-detected when
/// the variable is unset or unrecognised). Binaries call this at startup so
/// the environment wins over any backend a library default left behind.
pub fn init_from_env() -> BackendKind {
    let k = kind_from_env();
    set_backend(k);
    k
}

/// The active [`BackendKind`], initialising from `CAME_BACKEND` on first use.
pub fn kind() -> BackendKind {
    match ACTIVE.load(Ordering::SeqCst) {
        0 => BackendKind::Scalar,
        1 => BackendKind::Simd,
        _ => init_from_env(),
    }
}

/// The active backend implementation.
///
/// When observability is on ([`came_obs::enabled`]), dispatch goes through a
/// [`TimedBackend`] wrapper that records per-kernel call counts and wall ns
/// into `kernel.*` histograms; otherwise the raw backend is returned and the
/// only cost is one relaxed atomic load.
pub fn active() -> &'static dyn Backend {
    let k = kind();
    if came_obs::enabled() {
        timed(k)
    } else {
        of(k)
    }
}

/// A specific backend implementation by kind (used by benches and parity
/// tests to address both sides without mutating the global selection).
/// Never wrapped in kernel timing, so parity harnesses measure raw kernels.
pub fn of(kind: BackendKind) -> &'static dyn Backend {
    static SIMD: OnceLock<SimdBackend> = OnceLock::new();
    match kind {
        BackendKind::Scalar => &SCALAR,
        BackendKind::Simd => SIMD.get_or_init(SimdBackend::detected),
    }
}

// --------------------------------------------------------------------------
// kernel-dispatch instrumentation
// --------------------------------------------------------------------------

/// The timing wrapper around [`of`]`(kind)`.
fn timed(kind: BackendKind) -> &'static TimedBackend {
    static TIMED: OnceLock<[TimedBackend; 2]> = OnceLock::new();
    let all = TIMED.get_or_init(|| {
        [BackendKind::Scalar, BackendKind::Simd].map(|k| TimedBackend { inner: of(k) })
    });
    &all[kind as usize]
}

/// Decorator that forwards every kernel to `inner` and records the call's
/// wall time into the `kernel.<method>` histogram (count + ns live in the
/// same histogram: `count()` is calls, `sum()` is total ns). Every trait
/// method is overridden — including the ones with default bodies — so
/// composite kernels (`matmul_batched`, the fused attention paths) are timed
/// once at the dispatch boundary rather than once per inner GEMM.
struct TimedBackend {
    inner: &'static dyn Backend,
}

impl TimedBackend {
    #[inline]
    fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = std::time::Instant::now();
        let r = f();
        came_obs::record_ns(name, t0.elapsed().as_nanos() as u64);
        r
    }
}

impl Backend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        self.timed("kernel.matmul", || self.inner.matmul(a, b, out, m, k, n))
    }

    fn matmul_batched(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        self.timed("kernel.matmul_batched", || {
            self.inner.matmul_batched(a, b, out, batch, m, k, n)
        })
    }

    fn softmax_lanes(&self, data: &mut [f32], lane: usize) {
        self.timed("kernel.softmax_lanes", || {
            self.inner.softmax_lanes(data, lane)
        })
    }

    fn layer_norm_lanes(&self, data: &mut [f32], lane: usize, eps: f32) {
        self.timed("kernel.layer_norm_lanes", || {
            self.inner.layer_norm_lanes(data, lane, eps)
        })
    }

    fn layer_norm_backward_lanes(
        &self,
        x: &[f32],
        g: &[f32],
        out: &mut [f32],
        lane: usize,
        eps: f32,
    ) {
        self.timed("kernel.layer_norm_backward_lanes", || {
            self.inner.layer_norm_backward_lanes(x, g, out, lane, eps)
        })
    }

    fn run1(&self, data: &mut [f32], body: &(dyn Fn(&mut [f32]) + Sync)) {
        self.timed("kernel.run1", || self.inner.run1(data, body))
    }

    fn run2(&self, src: &[f32], dst: &mut [f32], body: &(dyn Fn(&[f32], &mut [f32]) + Sync)) {
        self.timed("kernel.run2", || self.inner.run2(src, dst, body))
    }

    fn run3(
        &self,
        a: &[f32],
        b: &[f32],
        dst: &mut [f32],
        body: &(dyn Fn(&[f32], &[f32], &mut [f32]) + Sync),
    ) {
        self.timed("kernel.run3", || self.inner.run3(a, b, dst, body))
    }

    fn sum(&self, xs: &[f32]) -> f32 {
        self.timed("kernel.sum", || self.inner.sum(xs))
    }

    fn dot(&self, xs: &[f32], ys: &[f32]) -> f32 {
        self.timed("kernel.dot", || self.inner.dot(xs, ys))
    }

    fn dot_q8(&self, a: &[f32], codes: &[u8]) -> f32 {
        self.timed("kernel.dot_q8", || self.inner.dot_q8(a, codes))
    }

    #[allow(clippy::too_many_arguments)]
    fn gemm_q8_f32(
        &self,
        a: &[f32],
        a_sums: &[f32],
        codes: &[u8],
        scales: &[f32],
        mins: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        self.timed("kernel.gemm_q8_f32", || {
            self.inner
                .gemm_q8_f32(a, a_sums, codes, scales, mins, out, m, k, n)
        })
    }

    fn adam_update(&self, x: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], hp: &AdamHp) {
        self.timed("kernel.adam_update", || {
            self.inner.adam_update(x, g, m, v, hp)
        })
    }

    fn gemm_bias_act(
        &self,
        a: &[f32],
        b: &[f32],
        bias: Option<&[f32]>,
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        act: Activation,
    ) {
        self.timed("kernel.gemm_bias_act", || {
            self.inner.gemm_bias_act(a, b, bias, out, m, k, n, act)
        })
    }

    fn softmax_matmul(
        &self,
        scores: &[f32],
        v: &[f32],
        soft: &mut [f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        self.timed("kernel.softmax_matmul", || {
            self.inner
                .softmax_matmul(scores, v, soft, out, batch, m, k, n)
        })
    }

    fn outer_attention(
        &self,
        a: &[f32],
        c: &[f32],
        v: &[f32],
        tau: f32,
        soft: &mut [f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        self.timed("kernel.outer_attention", || {
            self.inner
                .outer_attention(a, c, v, tau, soft, out, batch, m, k, n)
        })
    }

    fn softmax_matmul_fwd(
        &self,
        scores: &[f32],
        v: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        self.timed("kernel.softmax_matmul_fwd", || {
            self.inner
                .softmax_matmul_fwd(scores, v, out, batch, m, k, n)
        })
    }

    fn outer_attention_fwd(
        &self,
        a: &[f32],
        c: &[f32],
        v: &[f32],
        tau: f32,
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        self.timed("kernel.outer_attention_fwd", || {
            self.inner
                .outer_attention_fwd(a, c, v, tau, out, batch, m, k, n)
        })
    }

    fn outer_attention_backward(
        &self,
        a: &[f32],
        c: &[f32],
        v: &[f32],
        soft: &[f32],
        gout: &[f32],
        tau: f32,
        ga: &mut [f32],
        gc: &mut [f32],
        gv: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) -> f32 {
        self.timed("kernel.outer_attention_backward", || {
            self.inner
                .outer_attention_backward(a, c, v, soft, gout, tau, ga, gc, gv, batch, m, k, n)
        })
    }
}

// Fusion switch: u8::MAX = uninitialised (read CAME_FUSION once).
static FUSION: AtomicU8 = AtomicU8::new(u8::MAX);

/// Whether [`crate::graph::Graph`] routes `gemm_bias_act` / `softmax_matmul`
/// through the fused kernels (default) or falls back to the composed unfused
/// ops. `CAME_FUSION=0` disables at launch; the micro-bench flips this to
/// measure fused vs unfused step times.
pub fn fusion_enabled() -> bool {
    match FUSION.load(Ordering::SeqCst) {
        0 => false,
        1 => true,
        _ => {
            let on = !matches!(
                std::env::var("CAME_FUSION").as_deref(),
                Ok("0") | Ok("off") | Ok("false")
            );
            set_fusion(on);
            on
        }
    }
}

/// Enable or disable kernel fusion process-wide (see [`fusion_enabled`]).
pub fn set_fusion(on: bool) {
    FUSION.store(on as u8, Ordering::SeqCst);
}

// Tape-free inference switch: u8::MAX = uninitialised (read CAME_INFER once).
static INFER: AtomicU8 = AtomicU8::new(u8::MAX);

/// Whether [`crate::graph::Graph::inference`] runs tape-free (default): no op
/// payloads recorded, no softmax retention, forward-only fused kernels.
/// `CAME_INFER=0` at launch falls back to the taped inference graph; the
/// micro-bench flips this to A/B the two modes.
pub fn infer_tape_free() -> bool {
    match INFER.load(Ordering::SeqCst) {
        0 => false,
        1 => true,
        _ => {
            let on = !matches!(
                std::env::var("CAME_INFER").as_deref(),
                Ok("0") | Ok("off") | Ok("false")
            );
            set_infer_tape_free(on);
            on
        }
    }
}

/// Enable or disable tape-free inference process-wide (see
/// [`infer_tape_free`]).
pub fn set_infer_tape_free(on: bool) {
    INFER.store(on as u8, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::parallel::{gemm_tile, steal_tasks};
    use super::*;
    use crate::rng::Prng;

    fn randv(n: usize, rng: &mut Prng) -> Vec<f32> {
        (0..n).map(|_| rng.normal_in(0.0, 1.0)).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn gemm_tile_matches_reference_on_odd_shapes() {
        let mut rng = Prng::new(0);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 4, 4), (13, 17, 9), (65, 33, 130)] {
            let a = randv(m * k, &mut rng);
            let b = randv(k * n, &mut rng);
            let mut got = vec![0.0; m * n];
            let mut want = vec![0.0; m * n];
            gemm_tile(&a, &b, &mut got, m, k, n);
            crate::tensor::matmul_kernel(&a, &b, &mut want, m, k, n);
            assert_close(&got, &want, 1e-6, &format!("gemm {m}x{k}x{n}"));
        }
    }

    /// The threaded fan-out with the portable block kernels.
    const PORTABLE: SimdBackend = SimdBackend::portable();

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn parallel_matmul_matches_scalar_above_thread_threshold() {
        let mut rng = Prng::new(1);
        let (m, k, n) = (70, 40, 50); // > PAR_MIN_FLOPS, m > PANEL_ROWS
        assert!(m * k * n >= parallel::PAR_MIN_FLOPS && m > parallel::PANEL_ROWS);
        let a = randv(m * k, &mut rng);
        let b = randv(k * n, &mut rng);
        let mut got = vec![0.0; m * n];
        let mut want = vec![0.0; m * n];
        PORTABLE.matmul(&a, &b, &mut got, m, k, n);
        ScalarBackend.matmul(&a, &b, &mut want, m, k, n);
        assert_eq!(
            bits(&got),
            bits(&want),
            "portable matmul must be bitwise scalar"
        );
    }

    #[test]
    fn empty_dims_are_noops() {
        PORTABLE.matmul(&[], &[], &mut [], 0, 3, 0);
        let mut out = vec![1.0, 2.0];
        // k == 0: accumulate nothing, out untouched
        PORTABLE.matmul(&[], &[], &mut out, 1, 0, 2);
        assert_eq!(out, vec![1.0, 2.0]);
        PORTABLE.softmax_lanes(&mut [], 4);
        ScalarBackend.softmax_lanes(&mut [], 0);
        SimdBackend::detected().matmul(&[], &[], &mut out, 1, 0, 2);
        assert_eq!(out, vec![1.0, 2.0]);
        SimdBackend::detected().softmax_lanes(&mut [], 4);
    }

    #[test]
    fn blocked_sum_deterministic_and_accurate() {
        let mut rng = Prng::new(2);
        let xs = randv(100_000, &mut rng);
        let a = PORTABLE.sum(&xs);
        let b = PORTABLE.sum(&xs);
        assert_eq!(a, b, "sum must be deterministic");
        let want: f64 = xs.iter().map(|&v| v as f64).sum();
        assert!((a as f64 - want).abs() < 0.05, "{a} vs {want}");
    }

    #[test]
    fn scalar_and_parallel_sums_follow_the_same_block_grouping() {
        // the summation-order contract: the scalar backend and the portable
        // threaded kernels group at SUM_BLOCK boundaries, so results are
        // bitwise equal for any input length, threaded split included
        let mut rng = Prng::new(7);
        for &len in &[
            1usize,
            100,
            SUM_BLOCK - 1,
            SUM_BLOCK,
            SUM_BLOCK + 1,
            parallel::PAR_MIN_ELEMS,
            100_000,
        ] {
            let xs = randv(len, &mut rng);
            let ys = randv(len, &mut rng);
            assert_eq!(
                ScalarBackend.sum(&xs).to_bits(),
                PORTABLE.sum(&xs).to_bits(),
                "sum grouping mismatch at len {len}"
            );
            assert_eq!(
                ScalarBackend.dot(&xs, &ys).to_bits(),
                PORTABLE.dot(&xs, &ys).to_bits(),
                "dot grouping mismatch at len {len}"
            );
        }
    }

    #[test]
    fn steal_tasks_covers_every_task_exactly_once() {
        let mut flags = vec![0u8; 257];
        let tasks: Vec<(usize, &mut u8)> = flags.iter_mut().enumerate().collect();
        steal_tasks(tasks, |(_i, f)| *f += 1);
        assert!(flags.iter().all(|&f| f == 1));
    }

    #[test]
    fn run_tasks_min_work_small_batches_stay_sequential() {
        // under the threshold the guard must still run every task
        let mut flags = vec![0u8; 37];
        let tasks: Vec<&mut u8> = flags.iter_mut().collect();
        run_tasks_min_work(tasks, 37, |f| *f += 1);
        assert!(flags.iter().all(|&f| f == 1));
    }

    #[test]
    fn kind_parsing() {
        assert_eq!(BackendKind::parse("Scalar"), Some(BackendKind::Scalar));
        assert_eq!(BackendKind::parse("simd"), Some(BackendKind::Simd));
        assert_eq!(BackendKind::parse("gpu"), None);
        for retired in ["parallel", "par", "ref", "avx"] {
            assert_eq!(BackendKind::parse(retired), None, "{retired}");
        }
        assert_eq!("SIMD".parse::<BackendKind>(), Ok(BackendKind::Simd));
        assert_eq!(BackendKind::Scalar.name(), "scalar");
        assert_eq!(BackendKind::Simd.name(), "simd");
    }

    #[test]
    fn timed_backend_records_kernel_metrics_and_matches_raw() {
        let _guard = crate::obs_test_guard();
        let mut rng = Prng::new(99);
        let (m, k, n) = (7, 5, 6);
        let a = randv(m * k, &mut rng);
        let b = randv(k * n, &mut rng);
        let mut raw = vec![0.0; m * n];
        SCALAR.matmul(&a, &b, &mut raw, m, k, n);

        let calls_before = came_obs::registry().histogram("kernel.matmul").count();
        came_obs::set_enabled(true);
        let timed: &dyn Backend = timed(BackendKind::Scalar);
        assert_eq!(timed.name(), "scalar");
        let mut out = vec![0.0; m * n];
        timed.matmul(&a, &b, &mut out, m, k, n);
        let s = timed.sum(&out);
        came_obs::set_enabled(false);

        assert_eq!(out, raw, "timing wrapper must not change results");
        assert!((s - SCALAR.sum(&raw)).abs() < 1e-6);
        let h = came_obs::registry().histogram("kernel.matmul");
        assert!(h.count() > calls_before, "kernel call not recorded");
        assert!(h.sum() > 0, "kernel ns not recorded");
    }
}
