//! The threaded backend: every kernel's fan-out written once, with the block
//! kernel inside each task picked by what the backend can observe.
//!
//! Two axes, kept apart:
//!
//! - **Execution.** Each kernel decides from its shape alone whether to run
//!   on the calling thread or cut the work into fixed blocks (GEMM row
//!   panels, batch entries, lane-aligned chunks, [`SUM_BLOCK`] reduction
//!   blocks, q8 output strips) for the work-stealing pool in
//!   [`super::parallel`].
//! - **Kernel.** Inside each block, [`SimdBackend`] runs the `std::arch`
//!   x86_64 kernel in [`x86`] when its level is AVX2+FMA (8-float vectors,
//!   fused multiply-add) or SSE2 (4-float vectors) and the shape is wide
//!   enough to vectorise (for GEMM, `n` of at least one column tile);
//!   otherwise the portable block kernel: [`gemm_tile`], the shared lane
//!   kernels in the parent module, and the column-major `n == 1` tape-free
//!   attention block.
//!
//! The level is detected **once** per process (`is_x86_feature_detected!`)
//! and stored in the backend value. [`SimdBackend::detected`] is the backend
//! every binary runs; [`SimdBackend::portable`] pins the portable kernels on
//! any host. Non-x86_64 targets compile the same crate with the [`x86`]
//! module cfg'd out, where the detected level is the portable one.
//!
//! # Safety
//!
//! All `unsafe` lives in [`x86`]; see its module docs for the full argument.
//! The obligation discharged *here* is the `#[target_feature]` call
//! precondition: the `level` field is private and only ever holds a vector
//! level that [`detect`] observed on this host (AVX2 entry points only after
//! `is_x86_feature_detected!("avx2")`/`("fma")` returned true, SSE2 ones only
//! on x86_64, where SSE2 is architecturally guaranteed), and `dispatch!`
//! reaches an entry point only through that field.
//!
//! # Parity
//!
//! The portable kernels share the scalar backend's per-element order, so
//! [`SimdBackend::portable`] matches [`super::ScalarBackend`] bit-for-bit on
//! GEMM, reductions and the q8 kernels, whatever the thread count. The vector
//! `exp` is bit-identical per element to the scalar `fast_exp_lane`.
//! Taped and tape-free attention keep one per-row order at each level (the
//! vector levels share one row kernel; the portable column walk follows the
//! portable row kernel's order), so tape vs tape-free inference stays
//! bit-identical. Vector reductions keep
//! the fixed [`SUM_BLOCK`] grouping but stripe accumulators *inside* a block,
//! so `sum`/`dot` agree with the scalar backend to the 1e-5 parity budget
//! rather than bitwise.
//!
//! # Autotuning
//!
//! The vector GEMM micro-kernel's row blocking (`MR`) and k-block (`KC`)
//! default to `(4, 256)`; [`set_tile`] installs another pair, and
//! [`autotune`] sweeps a small grid on a representative square GEMM and
//! installs the fastest pair process-wide (the micro-bench records the
//! chosen tile in its provenance block).

use super::parallel::{
    elem_chunk, entries, fan_out, gemm_tile, lane_chunk, num_threads, q8_strip_for, steal_tasks,
    PANEL_ROWS, PAR_MIN_ELEMS, PAR_MIN_FLOPS,
};
use super::{
    adam_chunk, bias_act_rows, check_q8_shapes, dot_block, dot_q8_block, gemm_q8_strip,
    layer_norm_backward_one_lane, layer_norm_one_lane, outer_attention_backward_block,
    outer_attention_block, outer_attention_fwd_block, outer_attention_fwd_col_block,
    softmax_matmul_block, softmax_matmul_fwd_block, softmax_one_lane, sum_block, Activation,
    AdamHp, Backend, SUM_BLOCK,
};
use crate::pool::{alloc_uninit, recycle, AlignedBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86;

/// The block kernels a [`SimdBackend`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    /// AVX2 + FMA: 8-float vectors, fused multiply-add.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// SSE2 (the x86_64 baseline): 4-float vectors.
    #[cfg(target_arch = "x86_64")]
    Sse2,
    /// The portable block kernels (no vector unit this module targets).
    Portable,
}

fn detect() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            Level::Avx2Fma
        } else {
            Level::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Level::Portable
    }
}

/// The cached instruction level (detected once per process).
fn level() -> Level {
    static L: OnceLock<Level> = OnceLock::new();
    *L.get_or_init(detect)
}

/// Whether this host has a vector unit the x86 kernels target. `false` means
/// the detected backend runs the portable block kernels.
pub fn supported() -> bool {
    level() != Level::Portable
}

/// Human-readable name of the detected instruction level
/// (`"avx2+fma"` / `"sse2"` / `"portable"`), for bench provenance.
pub fn level_name() -> &'static str {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx2Fma => "avx2+fma",
        #[cfg(target_arch = "x86_64")]
        Level::Sse2 => "sse2",
        Level::Portable => "portable",
    }
}

/// Run the `#[target_feature]` entry `$fn` for a vector `$level`, or the
/// `$portable` expression. The vector arms only exist on x86_64.
macro_rules! dispatch {
    ($level:expr, $fn:ident($($arg:expr),* $(,)?), $portable:expr) => {
        match $level {
            // SAFETY: a vector level is only ever produced by `detect`, after
            // `is_x86_feature_detected!` confirmed AVX2 and FMA on this host.
            #[cfg(target_arch = "x86_64")]
            Level::Avx2Fma => unsafe { x86::avx2::$fn($($arg),*) },
            // SAFETY: SSE2 is part of the x86_64 baseline.
            #[cfg(target_arch = "x86_64")]
            Level::Sse2 => unsafe { x86::sse2::$fn($($arg),*) },
            Level::Portable => $portable,
        }
    };
}

// --------------------------------------------------------------------------
// GEMM tile configuration
// --------------------------------------------------------------------------

static TILE_MR: AtomicUsize = AtomicUsize::new(4);
static TILE_KC: AtomicUsize = AtomicUsize::new(256);

/// The vector GEMM micro-kernel tile `(mr, kc)` in effect: `(4, 256)` unless
/// [`set_tile`] / [`autotune`] installed another.
pub fn tile() -> (usize, usize) {
    (
        TILE_MR.load(Ordering::Relaxed),
        TILE_KC.load(Ordering::Relaxed),
    )
}

/// Install a GEMM tile `(mr, kc)` process-wide. `mr` snaps to the nearest
/// compiled variant (1/2/4/6); `kc` is clamped to a sane cache-block range.
pub fn set_tile(mr: usize, kc: usize) {
    let mr = match mr {
        0 | 1 => 1,
        2 | 3 => 2,
        4 | 5 => 4,
        _ => 6,
    };
    TILE_MR.store(mr, Ordering::Relaxed);
    TILE_KC.store(kc.clamp(16, 4096), Ordering::Relaxed);
}

/// Measure the GEMM tile grid on this host (a small `MR x KC` sweep over a
/// representative square product), install the fastest pair via [`set_tile`],
/// and return it. No-op (returns the current tile) without a vector unit.
pub fn autotune() -> (usize, usize) {
    const DIM: usize = 192;
    let be = SimdBackend::detected();
    if be.tw() == 0 {
        return tile();
    }
    // deterministic pseudo-data; values irrelevant, only timing matters
    let a: Vec<f32> = (0..DIM * DIM)
        .map(|i| (i % 13) as f32 * 0.13 - 0.7)
        .collect();
    let b: Vec<f32> = (0..DIM * DIM)
        .map(|i| (i % 7) as f32 * 0.21 - 0.6)
        .collect();
    let mut out = vec![0.0f32; DIM * DIM];
    let mut best = (4usize, 256usize);
    let mut best_ns = u64::MAX;
    for &mr in &[2usize, 4, 6] {
        for &kc in &[128usize, 256, 512] {
            // warm-up, then best-of-3
            out.fill(0.0);
            be.gemm_block(Some((mr, kc)), &a, &b, &mut out, DIM, DIM, DIM);
            let mut ns = u64::MAX;
            for _ in 0..3 {
                out.fill(0.0);
                let t0 = std::time::Instant::now();
                be.gemm_block(Some((mr, kc)), &a, &b, &mut out, DIM, DIM, DIM);
                ns = ns.min(t0.elapsed().as_nanos() as u64);
            }
            if ns < best_ns {
                best_ns = ns;
                best = (mr, kc);
            }
        }
    }
    set_tile(best.0, best.1);
    best
}

/// One-line description of the active SIMD configuration for bench
/// provenance, e.g. `"avx2+fma mr=4 kc=256"`.
pub fn descr() -> String {
    let (mr, kc) = tile();
    format!("{} mr={mr} kc={kc}", level_name())
}

/// Elementwise `fast_exp` over a slice through the vectorized exp (scalar
/// `fast_exp_lane` on the portable level). Bit-identical to mapping
/// `fast_exp_lane`; exposed so tests can assert that directly.
pub fn exp_inplace(data: &mut [f32]) {
    dispatch!(
        level(),
        exp_slice(data),
        for v in data.iter_mut() {
            *v = crate::tensor::fast_exp_lane(*v);
        }
    )
}

// --------------------------------------------------------------------------
// the backend
// --------------------------------------------------------------------------

/// The threaded backend (see module docs).
#[derive(Clone, Copy, Debug)]
pub struct SimdBackend {
    level: Level,
}

impl Default for SimdBackend {
    fn default() -> Self {
        SimdBackend::detected()
    }
}

impl SimdBackend {
    /// The backend at the vector level detected on this host: what
    /// `BackendKind::Simd` dispatches to.
    pub fn detected() -> SimdBackend {
        SimdBackend { level: level() }
    }

    /// The same threaded fan-out with the portable block kernels in every
    /// task, whatever the host supports. It is the only path non-x86_64
    /// hosts run, and it matches [`super::ScalarBackend`] bit-for-bit on
    /// GEMM, reductions and the q8 kernels.
    pub const fn portable() -> SimdBackend {
        SimdBackend {
            level: Level::Portable,
        }
    }

    /// Vector GEMM column-tile width in floats (two vectors); 0 on the
    /// portable level.
    fn tw(&self) -> usize {
        match self.level {
            #[cfg(target_arch = "x86_64")]
            Level::Avx2Fma => 16,
            #[cfg(target_arch = "x86_64")]
            Level::Sse2 => 8,
            Level::Portable => 0,
        }
    }

    /// The vector GEMM tile `(mr, kc)` for an `n`-wide product, read once per
    /// call so every block of one product uses the same tile; `None` selects
    /// the portable [`gemm_tile`] (no vector level, or narrower than one
    /// column tile, which would be all scalar column tail).
    fn gemm_plan(&self, n: usize) -> Option<(usize, usize)> {
        let tw = self.tw();
        (tw != 0 && n >= tw).then(tile)
    }

    /// One GEMM block `out[m,n] += a·b` through the kernel `plan` picked.
    #[allow(clippy::too_many_arguments)]
    fn gemm_block(
        &self,
        plan: Option<(usize, usize)>,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let Some((mr, kc)) = plan else {
            return gemm_tile(a, b, out, m, k, n);
        };
        let mut pack = AlignedBuf::alloc(kc * self.tw());
        dispatch!(
            self.level,
            matmul(a, b, out, m, k, n, mr, kc, &mut pack),
            gemm_tile(a, b, out, m, k, n)
        )
    }

    /// Row-panel GEMM fan-out shared by `matmul` and `gemm_bias_act`:
    /// `epilogue` runs on each finished panel while it is cache-hot.
    #[allow(clippy::too_many_arguments)]
    fn gemm_panels(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        epilogue: impl Fn(&mut [f32]) + Sync,
    ) {
        let plan = self.gemm_plan(n);
        let block = |a: &[f32], panel: &mut [f32], rows: usize| {
            if k > 0 {
                self.gemm_block(plan, a, b, panel, rows, k, n);
            }
            epilogue(panel);
        };
        if m * n * k < PAR_MIN_FLOPS || num_threads() == 1 || m <= PANEL_ROWS {
            return block(a, out, m);
        }
        let tasks: Vec<(usize, &mut [f32])> = out.chunks_mut(PANEL_ROWS * n).enumerate().collect();
        steal_tasks(tasks, |(pi, panel)| {
            let i0 = pi * PANEL_ROWS;
            let rows = panel.len() / n;
            block(&a[i0 * k..(i0 + rows) * k], panel, rows);
        });
    }

    /// Sum of `xs` as [`SUM_BLOCK`] partials folded left to right.
    fn sum_blocks(&self, xs: &[f32]) -> f32 {
        dispatch!(
            self.level,
            sum_blocks(xs),
            xs.chunks(SUM_BLOCK).map(sum_block).sum()
        )
    }

    /// Dot product as [`SUM_BLOCK`] partials folded left to right.
    fn dot_blocks(&self, xs: &[f32], ys: &[f32]) -> f32 {
        dispatch!(
            self.level,
            dot_blocks(xs, ys),
            xs.chunks(SUM_BLOCK)
                .zip(ys.chunks(SUM_BLOCK))
                .map(|(a, b)| dot_block(a, b))
                .sum()
        )
    }
}

impl Backend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), m * n);
        if m * n == 0 || k == 0 {
            return; // nothing to accumulate
        }
        self.gemm_panels(a, b, out, m, k, n, |_| {});
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
        if batch == 0 || m * n == 0 || k == 0 {
            return;
        }
        let plan = self.gemm_plan(n);
        let threaded = batch * m * n * k >= PAR_MIN_FLOPS;
        let tasks: Vec<(usize, &mut [f32])> = entries(out, batch).enumerate().collect();
        fan_out(threaded, tasks, |(i, o)| {
            let (a, b) = (
                &a[i * m * k..(i + 1) * m * k],
                &b[i * k * n..(i + 1) * k * n],
            );
            self.gemm_block(plan, a, b, o, m, k, n);
        });
    }

    fn softmax_lanes(&self, data: &mut [f32], lane: usize) {
        if lane == 0 || data.is_empty() {
            return;
        }
        let g = lane_chunk(data.len(), lane);
        steal_tasks(data.chunks_mut(g).collect(), |chunk: &mut [f32]| {
            dispatch!(
                self.level,
                softmax_lanes(chunk, lane),
                chunk.chunks_mut(lane).for_each(softmax_one_lane)
            )
        });
    }

    fn layer_norm_lanes(&self, data: &mut [f32], lane: usize, eps: f32) {
        if lane == 0 || data.is_empty() {
            return;
        }
        let g = lane_chunk(data.len(), lane);
        steal_tasks(data.chunks_mut(g).collect(), |chunk: &mut [f32]| {
            dispatch!(
                self.level,
                layer_norm_lanes(chunk, lane, eps),
                for l in chunk.chunks_mut(lane) {
                    layer_norm_one_lane(l, eps);
                }
            )
        });
    }

    fn layer_norm_backward_lanes(
        &self,
        x: &[f32],
        g: &[f32],
        out: &mut [f32],
        lane: usize,
        eps: f32,
    ) {
        if lane == 0 || x.is_empty() {
            return;
        }
        let gr = lane_chunk(x.len(), lane);
        let tasks: Vec<((&[f32], &[f32]), &mut [f32])> = x
            .chunks(gr)
            .zip(g.chunks(gr))
            .zip(out.chunks_mut(gr))
            .collect();
        steal_tasks(tasks, |((xs, gs), os)| {
            dispatch!(
                self.level,
                layer_norm_backward_lanes(xs, gs, os, lane, eps),
                for ((xl, gl), ol) in xs
                    .chunks(lane)
                    .zip(gs.chunks(lane))
                    .zip(os.chunks_mut(lane))
                {
                    layer_norm_backward_one_lane(xl, gl, ol, eps);
                }
            )
        });
    }

    // The chunked elementwise drivers execute caller closures: nothing to
    // vectorise at this layer, only the fan-out.

    fn run1(&self, data: &mut [f32], body: &(dyn Fn(&mut [f32]) + Sync)) {
        let g = elem_chunk(data.len());
        steal_tasks(data.chunks_mut(g).collect(), |chunk: &mut [f32]| {
            body(chunk)
        });
    }

    fn run2(&self, src: &[f32], dst: &mut [f32], body: &(dyn Fn(&[f32], &mut [f32]) + Sync)) {
        debug_assert_eq!(src.len(), dst.len());
        let g = elem_chunk(src.len());
        let tasks: Vec<(&[f32], &mut [f32])> = src.chunks(g).zip(dst.chunks_mut(g)).collect();
        steal_tasks(tasks, |(s, d)| body(s, d));
    }

    fn run3(
        &self,
        a: &[f32],
        b: &[f32],
        dst: &mut [f32],
        body: &(dyn Fn(&[f32], &[f32], &mut [f32]) + Sync),
    ) {
        debug_assert_eq!(a.len(), dst.len());
        debug_assert_eq!(b.len(), dst.len());
        let g = elem_chunk(a.len());
        let tasks: Vec<((&[f32], &[f32]), &mut [f32])> = a
            .chunks(g)
            .zip(b.chunks(g))
            .zip(dst.chunks_mut(g))
            .collect();
        steal_tasks(tasks, |((x, y), d)| body(x, y, d));
    }

    fn sum(&self, xs: &[f32]) -> f32 {
        if xs.len() < PAR_MIN_ELEMS || num_threads() == 1 {
            return self.sum_blocks(xs);
        }
        let mut partials = vec![0.0f32; xs.len().div_ceil(SUM_BLOCK)];
        let tasks: Vec<(&[f32], &mut f32)> =
            xs.chunks(SUM_BLOCK).zip(partials.iter_mut()).collect();
        steal_tasks(tasks, |(c, slot)| *slot = self.sum_blocks(c));
        partials.iter().sum()
    }

    fn dot(&self, xs: &[f32], ys: &[f32]) -> f32 {
        debug_assert_eq!(xs.len(), ys.len());
        if xs.len() < PAR_MIN_ELEMS || num_threads() == 1 {
            return self.dot_blocks(xs, ys);
        }
        let mut partials = vec![0.0f32; xs.len().div_ceil(SUM_BLOCK)];
        let tasks: Vec<((&[f32], &[f32]), &mut f32)> = xs
            .chunks(SUM_BLOCK)
            .zip(ys.chunks(SUM_BLOCK))
            .zip(partials.iter_mut())
            .collect();
        steal_tasks(tasks, |((a, b), slot)| *slot = self.dot_blocks(a, b));
        partials.iter().sum()
    }

    fn dot_q8(&self, a: &[f32], codes: &[u8]) -> f32 {
        debug_assert_eq!(a.len(), codes.len());
        dispatch!(self.level, dot_q8(a, codes), dot_q8_block(a, codes))
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
        check_q8_shapes(a, a_sums, codes, scales, mins, out, m, k, n);
        if m * n == 0 {
            return;
        }
        // One task per (query row × candidate strip): each output element
        // consumes its full k extent in one fixed order, so the split is
        // invisible in the result.
        let threaded = m * n * k >= PAR_MIN_FLOPS;
        let strip = if threaded { q8_strip_for(k) } else { n };
        let tasks: Vec<(usize, usize, &mut [f32])> = out
            .chunks_mut(n)
            .enumerate()
            .flat_map(|(i, orow)| {
                orow.chunks_mut(strip)
                    .enumerate()
                    .map(move |(s, oseg)| (i, s * strip, oseg))
            })
            .collect();
        fan_out(threaded, tasks, |(i, j0, oseg)| {
            let arow = &a[i * k..(i + 1) * k];
            let w = oseg.len();
            let (codes, scales, mins) = (
                &codes[j0 * k..(j0 + w) * k],
                &scales[j0..j0 + w],
                &mins[j0..j0 + w],
            );
            dispatch!(
                self.level,
                gemm_q8_strip(arow, a_sums[i], codes, scales, mins, oseg, k),
                gemm_q8_strip(arow, a_sums[i], codes, scales, mins, oseg, k)
            )
        });
    }

    fn adam_update(&self, x: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], hp: &AdamHp) {
        let gr = elem_chunk(x.len());
        let tasks: Vec<(((&mut [f32], &[f32]), &mut [f32]), &mut [f32])> = x
            .chunks_mut(gr)
            .zip(g.chunks(gr))
            .zip(m.chunks_mut(gr))
            .zip(v.chunks_mut(gr))
            .collect();
        steal_tasks(tasks, |(((xs, gs), ms), vs)| {
            dispatch!(
                self.level,
                adam_update(xs, gs, ms, vs, hp),
                adam_chunk(xs, gs, ms, vs, hp)
            )
        });
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
        if m * n == 0 {
            return;
        }
        self.gemm_panels(a, b, out, m, k, n, |panel| {
            bias_act_rows(panel, bias, n, act)
        });
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
        if batch * m * k == 0 {
            return;
        }
        let threaded = batch > 1 && n > 0 && batch * m * k * (n + 1) >= PAR_MIN_FLOPS;
        let tasks: Vec<(usize, (&mut [f32], &mut [f32]))> = entries(soft, batch)
            .zip(entries(out, batch))
            .enumerate()
            .collect();
        fan_out(threaded, tasks, |(i, (s, o))| {
            let (sc, v) = (
                &scores[i * m * k..(i + 1) * m * k],
                &v[i * k * n..(i + 1) * k * n],
            );
            dispatch!(
                self.level,
                softmax_matmul_block(sc, v, s, o, m, k, n),
                softmax_matmul_block(sc, v, s, o, m, k, n)
            )
        });
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
        if batch * m * k == 0 {
            return;
        }
        let threaded = batch > 1 && n > 0 && batch * m * k * (n + 1) >= PAR_MIN_FLOPS;
        let tasks: Vec<(usize, (&mut [f32], &mut [f32]))> = entries(soft, batch)
            .zip(entries(out, batch))
            .enumerate()
            .collect();
        fan_out(threaded, tasks, |(i, (s, o))| {
            let (a, c) = (&a[i * m..(i + 1) * m], &c[i * k..(i + 1) * k]);
            let v = &v[i * k * n..(i + 1) * k * n];
            dispatch!(
                self.level,
                outer_attention_block(a, c, v, tau, s, o, m, k, n),
                outer_attention_block(a, c, v, tau, s, o, m, k, n)
            )
        });
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
        if batch * m * k == 0 {
            return;
        }
        let threaded = batch > 1 && n > 0 && batch * m * k * (n + 1) >= PAR_MIN_FLOPS;
        let tasks: Vec<(usize, &mut [f32])> = entries(out, batch).enumerate().collect();
        fan_out(threaded, tasks, |(i, o)| {
            let (sc, v) = (
                &scores[i * m * k..(i + 1) * m * k],
                &v[i * k * n..(i + 1) * k * n],
            );
            let mut row = alloc_uninit(k);
            dispatch!(
                self.level,
                softmax_matmul_fwd_block(sc, v, &mut row, o, m, k, n),
                softmax_matmul_fwd_block(sc, v, &mut row, o, m, k, n)
            );
            recycle(row);
        });
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
        if batch * m * k == 0 {
            return;
        }
        let threaded = batch > 1 && n > 0 && batch * m * k * (n + 1) >= PAR_MIN_FLOPS;
        let tasks: Vec<(usize, &mut [f32])> = entries(out, batch).enumerate().collect();
        fan_out(threaded, tasks, |(i, o)| {
            let (a, c) = (&a[i * m..(i + 1) * m], &c[i * k..(i + 1) * k]);
            let v = &v[i * k * n..(i + 1) * k * n];
            // The portable level takes the column-major lane walk for the TCA
            // case n == 1. The vector levels keep the row kernel: it is
            // explicitly vectorized and shares its code path with the taped
            // kernel, keeping taped and tape-free results bit-identical.
            if n == 1 && self.level == Level::Portable {
                let mut u = alloc_uninit(m * k);
                let mut lanes = alloc_uninit(3 * m);
                outer_attention_fwd_col_block(a, c, v, tau, &mut u, &mut lanes, o, m, k);
                recycle(lanes);
                recycle(u);
                return;
            }
            let mut row = alloc_uninit(k);
            dispatch!(
                self.level,
                outer_attention_fwd_block(a, c, v, tau, &mut row, o, m, k, n),
                outer_attention_fwd_block(a, c, v, tau, &mut row, o, m, k, n)
            );
            recycle(row);
        });
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
        if batch * m * k == 0 {
            return 0.0;
        }
        let threaded = batch > 1 && batch * m * k * (n + 2) >= PAR_MIN_FLOPS;
        // per-batch gradient slices are disjoint; τ partials land in
        // per-entry slots so the final fold is deterministic
        let mut gtau_parts = vec![0.0f32; batch];
        let tasks: Vec<(usize, (((&mut [f32], &mut [f32]), &mut [f32]), &mut f32))> =
            entries(ga, batch)
                .zip(entries(gc, batch))
                .zip(entries(gv, batch))
                .zip(gtau_parts.iter_mut())
                .enumerate()
                .collect();
        fan_out(threaded, tasks, |(i, (((ga, gc), gv), slot))| {
            let (a, c) = (&a[i * m..(i + 1) * m], &c[i * k..(i + 1) * k]);
            let v = &v[i * k * n..(i + 1) * k * n];
            let soft = &soft[i * m * k..(i + 1) * m * k];
            let gout = &gout[i * m * n..(i + 1) * m * n];
            let mut scratch = alloc_uninit(k);
            let portable = |ga: &mut [f32], gc: &mut [f32], gv: &mut [f32], s: &mut [f32]| {
                outer_attention_backward_block(a, c, v, soft, gout, tau, ga, gc, gv, s, m, k, n)
            };
            // only the TCA hot case n == 1 has a vector kernel
            *slot = if n == 1 {
                dispatch!(
                    self.level,
                    outer_attention_backward_block1(
                        a,
                        c,
                        v,
                        soft,
                        gout,
                        tau,
                        ga,
                        gc,
                        gv,
                        &mut scratch,
                        m,
                        k
                    ),
                    portable(ga, gc, gv, &mut scratch)
                )
            } else {
                portable(ga, gc, gv, &mut scratch)
            };
            recycle(scratch);
        });
        gtau_parts.iter().sum()
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::backend::ScalarBackend;
    use crate::rng::Prng;
    use crate::tensor::fast_exp_lane;

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

    // The integration parity suite exercises whatever level the host
    // detects (AVX2 on CI). These unit tests reach the SSE2 entries
    // directly — architecturally guaranteed on any x86_64 — so the
    // narrow-vector code paths stay covered on wide-vector hosts.

    #[test]
    fn sse2_entries_match_scalar_reference() {
        let mut rng = Prng::new(11);
        // softmax + layer_norm on an odd lane (tail coverage)
        for &lane in &[1usize, 3, 4, 7, 32, 33] {
            let rows = 5;
            let base = randv(rows * lane, &mut rng);
            let mut got = base.clone();
            let mut want = base.clone();
            unsafe { x86::sse2::softmax_lanes(&mut got, lane) };
            ScalarBackend.softmax_lanes(&mut want, lane);
            assert_close(&got, &want, 1e-5, &format!("sse2 softmax lane {lane}"));
            let mut got = base.clone();
            let mut want = base;
            unsafe { x86::sse2::layer_norm_lanes(&mut got, lane, 1e-5) };
            ScalarBackend.layer_norm_lanes(&mut want, lane, 1e-5);
            assert_close(&got, &want, 1e-5, &format!("sse2 layer_norm lane {lane}"));
        }
        // sum / dot against the scalar contract blocks
        let xs = randv(10_000, &mut rng);
        let ys = randv(10_000, &mut rng);
        let s = unsafe { x86::sse2::sum_blocks(&xs) };
        let d = unsafe { x86::sse2::dot_blocks(&xs, &ys) };
        assert!((s - ScalarBackend.sum(&xs)).abs() < 1e-2, "sse2 sum");
        assert!((d - ScalarBackend.dot(&xs, &ys)).abs() < 1e-2, "sse2 dot");
        // GEMM at each compiled row blocking
        let (m, k, n) = (13, 21, 17);
        let a = randv(m * k, &mut rng);
        let b = randv(k * n, &mut rng);
        let mut want = vec![0.0; m * n];
        ScalarBackend.matmul(&a, &b, &mut want, m, k, n);
        for &mr in &[1usize, 2, 4, 6] {
            let mut got = vec![0.0; m * n];
            let mut pack = crate::pool::AlignedBuf::alloc(64 * 8);
            unsafe { x86::sse2::matmul(&a, &b, &mut got, m, k, n, mr, 64, &mut pack) };
            assert_close(&got, &want, 1e-5, &format!("sse2 gemm mr={mr}"));
        }
    }

    #[test]
    fn sse2_q8_entries_match_scalar_reference() {
        let mut rng = Prng::new(13);
        // dot_q8: lengths straddling the 4-float vector and its 4x unroll
        for &k in &[0usize, 1, 3, 4, 7, 15, 16, 17, 64, 257] {
            let a = randv(k, &mut rng);
            let codes: Vec<u8> = (0..k).map(|i| (i * 37 % 256) as u8).collect();
            let want = ScalarBackend.dot_q8(&a, &codes);
            let got = unsafe { x86::sse2::dot_q8(&a, &codes) };
            assert!(
                (got - want).abs() <= 1e-4 * (1.0 + want.abs()),
                "sse2 dot_q8 k={k}: {got} vs {want}"
            );
        }
        // one gemm strip: a query row against affine-quantized rows
        let (k, n) = (29, 11);
        let arow = randv(k, &mut rng);
        let a_sum: f32 = arow.iter().sum();
        let codes: Vec<u8> = (0..n * k).map(|i| (i * 53 % 256) as u8).collect();
        let scales: Vec<f32> = (0..n).map(|j| 0.01 + j as f32 * 1e-3).collect();
        let mins = randv(n, &mut rng);
        let mut want = vec![0.0f32; n];
        ScalarBackend.gemm_q8_f32(&arow, &[a_sum], &codes, &scales, &mins, &mut want, 1, k, n);
        let mut got = vec![0.0f32; n];
        unsafe { x86::sse2::gemm_q8_strip(&arow, a_sum, &codes, &scales, &mins, &mut got, k) };
        assert_close(&got, &want, 1e-4, "sse2 gemm_q8_strip");
    }

    #[test]
    fn vector_exp_is_bit_identical_to_fast_exp_lane() {
        // dense grid over the interesting range plus the saturation edges
        let mut xs: Vec<f32> = (-2000..=2000).map(|i| i as f32 * 0.047).collect();
        xs.extend_from_slice(&[
            0.0,
            -0.0,
            87.3,
            -87.3,
            88.0,
            -88.0,
            100.0,
            -100.0,
            1e-30,
            -1e-30,
            f32::MIN_POSITIVE,
        ]);
        let want: Vec<f32> = xs.iter().map(|&x| fast_exp_lane(x)).collect();
        for sse in [false, true] {
            let mut got = xs.clone();
            if sse {
                unsafe { x86::sse2::exp_slice(&mut got) };
            } else {
                if level() != Level::Avx2Fma {
                    continue;
                }
                unsafe { x86::avx2::exp_slice(&mut got) };
            }
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "exp[{i}] (x={}) diverges (sse={sse}): {g} vs {w}",
                    xs[i]
                );
            }
        }
    }

    #[test]
    fn vector_exp_propagates_nan_and_saturates_inf() {
        let mut v = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0];
        exp_inplace(&mut v);
        assert!(v[0].is_nan(), "NaN must stay NaN");
        assert_eq!(v[1], f32::MAX, "+inf saturates like fast_exp_lane");
        assert_eq!(v[2], 0.0, "-inf flushes to zero");
        assert_eq!(v[3].to_bits(), fast_exp_lane(1.0).to_bits());
    }

    #[test]
    fn autotune_installs_a_compiled_tile() {
        let (mr, kc) = autotune();
        assert!(matches!(mr, 1 | 2 | 4 | 6), "mr={mr}");
        assert!((16..=4096).contains(&kc), "kc={kc}");
        assert_eq!(tile(), (mr, kc));
        assert!(descr().contains(&format!("mr={mr}")));
    }
}
