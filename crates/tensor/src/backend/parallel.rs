//! Execution machinery for the threaded backend: the scoped-thread
//! work-stealing pool, the thresholds that decide when a kernel fans out, and
//! the portable register-tiled GEMM block.
//!
//! [`gemm_tile`] keeps the scalar kernel's ascending-`k` accumulation order
//! inside every output element, so GEMM blocks match the reference
//! bit-for-bit. How a kernel's work is cut into tasks depends only on its
//! shape and the thread count, never on which block kernel runs.

use super::BackendKind;
use std::sync::{Mutex, OnceLock};

/// Minimum elements before elementwise work is fanned out to threads.
pub(crate) const PAR_MIN_ELEMS: usize = 16 * 1024;
/// Minimum multiply-adds before a GEMM is fanned out to threads.
pub(crate) const PAR_MIN_FLOPS: usize = 64 * 1024;
/// Rows per GEMM work-stealing panel.
pub(crate) const PANEL_ROWS: usize = 32;
/// k-dimension cache block: `KC * n` floats of `b` stay hot in L1/L2 while a
/// panel of `a` rows streams past.
const KC: usize = 256;
/// Elementwise chunk grain (floats) handed to each stolen task.
const GRAIN: usize = 32 * 1024;
/// Minimum elements before the *lane* kernels (softmax / layer-norm) fan
/// out. These are memory-bound few-pass kernels, so the scoped-thread spawn
/// cost is only recovered on much larger buffers than the generic
/// elementwise threshold — 512×512 buffers regressed to 0.935x under the old
/// [`PAR_MIN_ELEMS`] guard.
pub(crate) const PAR_MIN_LANE_ELEMS: usize = 512 * 1024;

/// Threads to use: `CAME_THREADS` override, else `available_parallelism`.
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        if let Ok(s) = std::env::var("CAME_THREADS") {
            if let Ok(n) = s.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// Work-stealing task pool: spawns scoped workers that pull tasks off a
/// shared queue until it drains. Falls back to a plain loop for one thread or
/// a single task. Task order of *execution* is nondeterministic but each task
/// owns its output exclusively, so results are deterministic.
pub(crate) fn steal_tasks<T: Send>(tasks: Vec<T>, f: impl Fn(T) + Sync) {
    let nt = num_threads().min(tasks.len());
    if nt <= 1 {
        for t in tasks {
            f(t);
        }
        return;
    }
    let queue = Mutex::new(tasks.into_iter());
    std::thread::scope(|s| {
        for _ in 0..nt {
            s.spawn(|| loop {
                let next = queue.lock().unwrap().next();
                match next {
                    Some(t) => f(t),
                    None => break,
                }
            });
        }
    });
}

/// Run `f` over `tasks`: on the work-stealing pool when `threaded`, else in
/// order on the calling thread.
pub(crate) fn fan_out<T: Send>(threaded: bool, tasks: Vec<T>, f: impl Fn(T) + Sync) {
    if threaded {
        steal_tasks(tasks, f);
    } else {
        tasks.into_iter().for_each(f);
    }
}

/// Run `f` over `tasks` through the *active* backend's execution policy:
/// sequential under [`ScalarBackend`](super::ScalarBackend), work-stealing
/// threads under the SIMD backend. This is the hook the upper layers
/// (filtered ranking, per-query scoring) use to shard coarse-grained work
/// without depending on `std::thread` details.
pub fn run_tasks<T: Send>(tasks: Vec<T>, f: impl Fn(T) + Sync) {
    fan_out(super::kind() == BackendKind::Simd, tasks, f);
}

/// Shard width for splitting `n` items into [`run_tasks`] tasks: one shard
/// under the scalar backend, else about one shard per thread and never
/// narrower than 512 items, so no task is too small to pay for its spawn.
/// Never zero, so it is always a valid `chunks_mut` width.
pub fn shard_width(n: usize) -> usize {
    match super::kind() {
        BackendKind::Scalar => n.max(1),
        BackendKind::Simd => n.div_ceil(num_threads()).max(512),
    }
}

/// [`run_tasks`] with a min-work guard: stays sequential unless the total
/// work (caller-estimated, in elements touched) clears the same crossover
/// threshold the lane kernels use. Spawning scoped threads costs tens of
/// microseconds; batches of small tasks (e.g. filtered ranking over a few
/// hundred candidates per triple) regressed to 0.935x when fanned out
/// unconditionally.
pub fn run_tasks_min_work<T: Send>(tasks: Vec<T>, total_work: usize, f: impl Fn(T) + Sync) {
    let threaded = total_work >= PAR_MIN_LANE_ELEMS && super::kind() == BackendKind::Simd;
    fan_out(threaded, tasks, f);
}

/// Register-tiled accumulating GEMM block: processes 4 output rows at a time
/// (4 independent accumulator streams, `b` row traffic quartered) with the
/// k loop blocked at [`KC`]. The per-element accumulation order over `k` is
/// ascending — identical to the scalar kernel — so results are bitwise equal
/// on finite inputs.
pub(crate) fn gemm_tile(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    let mut kb = 0;
    while kb < k {
        let kend = (kb + KC).min(k);
        let mut i = 0;
        while i + 4 <= m {
            let rows = &mut out[i * n..(i + 4) * n];
            let (r0, rest) = rows.split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, r3) = rest.split_at_mut(n);
            let (a0, a1, a2) = (&a[i * k..], &a[(i + 1) * k..], &a[(i + 2) * k..]);
            let a3 = &a[(i + 3) * k..];
            for p in kb..kend {
                let bro = &b[p * n..(p + 1) * n];
                let (x0, x1, x2, x3) = (a0[p], a1[p], a2[p], a3[p]);
                for j in 0..n {
                    let bv = bro[j];
                    r0[j] += x0 * bv;
                    r1[j] += x1 * bv;
                    r2[j] += x2 * bv;
                    r3[j] += x3 * bv;
                }
            }
            i += 4;
        }
        while i < m {
            let row = &mut out[i * n..(i + 1) * n];
            for p in kb..kend {
                let x = a[i * k + p];
                let bro = &b[p * n..(p + 1) * n];
                for (o, &bv) in row.iter_mut().zip(bro) {
                    *o += x * bv;
                }
            }
            i += 1;
        }
        kb = kend;
    }
}

/// Chunk width for the rowwise lane kernels (softmax / layer-norm): the
/// whole buffer (one task, run inline) unless the buffer is large and has
/// enough rows to give every thread at least two, else [`GRAIN`]-sized
/// chunks aligned to `lane`.
pub(crate) fn lane_chunk(len: usize, lane: usize) -> usize {
    let threaded =
        len >= PAR_MIN_LANE_ELEMS && num_threads() > 1 && len / lane.max(1) >= 2 * num_threads();
    chunk_for(len, lane, threaded)
}

/// Chunk width for the elementwise kernels: the whole buffer below
/// [`PAR_MIN_ELEMS`] or on one thread, else [`GRAIN`]-sized chunks.
pub(crate) fn elem_chunk(len: usize) -> usize {
    chunk_for(len, 1, len >= PAR_MIN_ELEMS && num_threads() > 1)
}

/// At most [`GRAIN`] elements per chunk, aligned to `lane` boundaries, when
/// `threaded`; the whole (non-empty) buffer otherwise.
fn chunk_for(total: usize, lane: usize, threaded: bool) -> usize {
    let lane = lane.max(1);
    let g = if threaded {
        (GRAIN / lane).max(1) * lane
    } else {
        total
    };
    g.min(total).max(1)
}

/// Output-strip width for the fused q8 GEMM work-stealing decomposition:
/// roughly [`GRAIN`] multiply-adds per stolen task, never narrower than a
/// GEMM panel.
pub(crate) fn q8_strip_for(k: usize) -> usize {
    (GRAIN / k.max(1)).max(PANEL_ROWS)
}

/// `buf` cut into `batch` equal contiguous per-entry slices. Unlike
/// `chunks_mut`, an empty `buf` yields `batch` empty slices, so batched
/// kernels with a zero-width output still visit every entry.
pub(crate) fn entries(buf: &mut [f32], batch: usize) -> impl Iterator<Item = &mut [f32]> {
    let w = buf.len() / batch.max(1);
    let mut rest = buf;
    (0..batch).map(move |_| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(w);
        rest = tail;
        head
    })
}
