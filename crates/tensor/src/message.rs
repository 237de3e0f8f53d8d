//! Fused relational message passing over a fixed edge list.
//!
//! A composition-based GNN layer (CompGCN) aggregates, for every node `v`,
//! `norm[v] · Σ_{e: dst_e = v} φ(x[src_e], z[rel_e])`. Composed from
//! primitive ops that is two row gathers, an elementwise composition and a
//! scatter-add, and each intermediate is an `[E, d]` tensor. The fused op
//! ([`crate::Graph::message_pass`]) walks an [`EdgeIndex`] instead, so the
//! only buffers it allocates are `[N, d]` outputs and gradients.
//!
//! # Edge-order contract
//!
//! Every reduction (each output row in the forward, each `dx` source row and
//! each `dz` relation row in the backward) starts at `+0.0` and adds its
//! edges in their original list order, vectorised only across `d`. That is
//! the order the composed scatter-add and gather-backward use, so the fused
//! forward is bit-equal to the composed chain on every backend and for any
//! thread count: a row is only ever reduced by the one task that owns it.

use std::fmt;

use crate::backend;

/// Entity-relation composition operator `φ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Composition {
    /// Subtraction: `φ(x, z) = x - z` (TransE-inspired).
    Sub,
    /// Hadamard product: `φ(x, z) = x ∘ z` (DistMult-inspired).
    Mult,
}

/// Most rows handed to one task; the work-stealing pool balances the
/// uneven per-row edge counts across these blocks.
const MAX_ROWS_PER_TASK: usize = 256;

/// One stable counting sort of the edge list: the edges grouped by a key
/// column, in original order inside each group, with the two other
/// columns carried along.
struct Csr {
    /// `offsets[k]..offsets[k + 1]` indexes the edges whose key is `k`.
    offsets: Vec<usize>,
    a: Vec<u32>,
    b: Vec<u32>,
}

impl Csr {
    fn build(rows: usize, key: &[u32], a: &[u32], b: &[u32]) -> Csr {
        let mut offsets = vec![0usize; rows + 1];
        for &k in key {
            offsets[k as usize + 1] += 1;
        }
        for k in 0..rows {
            offsets[k + 1] += offsets[k];
        }
        let mut next = offsets[..rows].to_vec();
        let (mut sa, mut sb) = (vec![0u32; key.len()], vec![0u32; key.len()]);
        for ((&k, &ea), &eb) in key.iter().zip(a).zip(b) {
            let slot = &mut next[k as usize];
            sa[*slot] = ea;
            sb[*slot] = eb;
            *slot += 1;
        }
        Csr {
            offsets,
            a: sa,
            b: sb,
        }
    }

    fn row(&self, k: usize) -> (&[u32], &[u32]) {
        let span = self.offsets[k]..self.offsets[k + 1];
        (&self.a[span.clone()], &self.b[span])
    }
}

/// A relational edge list `(src, rel, dst)` over `num_nodes` nodes and
/// `num_rels` relations, indexed once for [`crate::Graph::message_pass`]:
/// grouped by destination for the forward, and by source and by relation
/// for the two gradient reductions. Each grouping is a stable sort, so
/// edges keep their original order inside a group. Takes `6E + O(N + R)`
/// words; share it with `Arc` so a tape never copies it.
pub struct EdgeIndex {
    num_nodes: usize,
    num_rels: usize,
    /// Rows = destination; columns `(src, rel)`.
    by_dst: Csr,
    /// Rows = source; columns `(dst, rel)`.
    by_src: Csr,
    /// Rows = relation; columns `(src, dst)`.
    by_rel: Csr,
}

impl fmt::Debug for EdgeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeIndex")
            .field("num_nodes", &self.num_nodes)
            .field("num_rels", &self.num_rels)
            .field("num_edges", &self.by_dst.a.len())
            .finish()
    }
}

impl EdgeIndex {
    /// Index the edges `src[e] --rel[e]--> dst[e]`.
    ///
    /// # Panics
    /// Panics if the three columns differ in length, a node id is
    /// `>= num_nodes` or a relation id is `>= num_rels`.
    pub fn new(src: &[u32], rel: &[u32], dst: &[u32], num_nodes: usize, num_rels: usize) -> Self {
        assert!(
            src.len() == rel.len() && rel.len() == dst.len(),
            "edge columns differ in length"
        );
        assert!(
            src.iter().chain(dst).all(|&v| (v as usize) < num_nodes),
            "edge node id out of {num_nodes}"
        );
        assert!(
            rel.iter().all(|&r| (r as usize) < num_rels),
            "edge relation id out of {num_rels}"
        );
        EdgeIndex {
            num_nodes,
            num_rels,
            by_dst: Csr::build(num_nodes, dst, src, rel),
            by_src: Csr::build(num_nodes, src, dst, rel),
            by_rel: Csr::build(num_rels, rel, src, dst),
        }
    }

    /// Number of nodes (rows of `x` and of the output).
    pub(crate) fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of relations (rows of `z`).
    pub(crate) fn num_rels(&self) -> usize {
        self.num_rels
    }

    /// Number of edges arriving at node `v`.
    pub fn in_degree(&self, v: usize) -> usize {
        self.by_dst.offsets[v + 1] - self.by_dst.offsets[v]
    }
}

/// `acc += φ(x, z)` elementwise.
#[inline]
fn add_composed(acc: &mut [f32], x: &[f32], z: &[f32], comp: Composition) {
    match comp {
        Composition::Sub => {
            for ((a, &xv), &zv) in acc.iter_mut().zip(x).zip(z) {
                *a += xv - zv;
            }
        }
        Composition::Mult => {
            for ((a, &xv), &zv) in acc.iter_mut().zip(x).zip(z) {
                *a += xv * zv;
            }
        }
    }
}

/// Reduce each row of `out` (`d` wide, rows of `csr`) with `per_row(row,
/// acc, cols_a, cols_b)`, fanning row blocks out over the backend's pool.
fn reduce_rows(
    out: &mut [f32],
    d: usize,
    csr: &Csr,
    per_row: impl Fn(usize, &mut [f32], &[u32], &[u32]) + Sync,
) {
    if d == 0 {
        return;
    }
    let work = csr.a.len() * d + out.len();
    // at least 64 blocks, so the few relation rows still spread over threads
    let rows_per_task = (out.len() / d).div_ceil(64).clamp(1, MAX_ROWS_PER_TASK);
    let tasks: Vec<(usize, &mut [f32])> = out
        .chunks_mut(rows_per_task * d)
        .enumerate()
        .map(|(i, block)| (i * rows_per_task, block))
        .collect();
    backend::run_tasks_min_work(tasks, work, |(row0, block)| {
        for (i, acc) in block.chunks_exact_mut(d).enumerate() {
            let (a, b) = csr.row(row0 + i);
            per_row(row0 + i, acc, a, b);
        }
    });
}

/// Forward: `out[v] = norm[v] · Σ_{e: dst_e = v} φ(x[src_e], z[rel_e])`.
/// `out` must be zeroed.
pub(crate) fn forward(
    index: &EdgeIndex,
    x: &[f32],
    z: &[f32],
    norm: &[f32],
    comp: Composition,
    d: usize,
    out: &mut [f32],
) {
    reduce_rows(out, d, &index.by_dst, |v, acc, srcs, rels| {
        for (&s, &r) in srcs.iter().zip(rels) {
            let (s, r) = (s as usize * d, r as usize * d);
            add_composed(acc, &x[s..s + d], &z[r..r + d], comp);
        }
        let scale = norm[v];
        for a in acc.iter_mut() {
            *a *= scale;
        }
    });
}

/// Backward of [`forward`] for output gradient `g`, recomputing each
/// edge's message from `x` and `z` instead of reading a stored one.
/// `dx` and `dz` must be zeroed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward(
    index: &EdgeIndex,
    x: &[f32],
    z: &[f32],
    norm: &[f32],
    comp: Composition,
    d: usize,
    g: &[f32],
    dx: &mut [f32],
    dz: &mut [f32],
) {
    if d == 0 {
        return;
    }
    // gradient of the aggregate before normalisation, one row per node
    let mut gn = crate::pool::alloc_uninit(g.len());
    for ((gn_row, g_row), &s) in gn.chunks_exact_mut(d).zip(g.chunks_exact(d)).zip(norm) {
        for (o, &gv) in gn_row.iter_mut().zip(g_row) {
            *o = gv * s;
        }
    }
    // dφ/dx is 1 (Sub) or z (Mult); dφ/dz is -1 (Sub) or x (Mult)
    reduce_rows(dx, d, &index.by_src, |_, acc, dsts, rels| {
        for (&t, &r) in dsts.iter().zip(rels) {
            let (t, r) = (t as usize * d, r as usize * d);
            let gt = &gn[t..t + d];
            match comp {
                Composition::Sub => {
                    for (a, &gv) in acc.iter_mut().zip(gt) {
                        *a += gv;
                    }
                }
                Composition::Mult => add_composed(acc, gt, &z[r..r + d], Composition::Mult),
            }
        }
    });
    reduce_rows(dz, d, &index.by_rel, |_, acc, srcs, dsts| {
        for (&s, &t) in srcs.iter().zip(dsts) {
            let (s, t) = (s as usize * d, t as usize * d);
            let gt = &gn[t..t + d];
            match comp {
                Composition::Sub => {
                    for (a, &gv) in acc.iter_mut().zip(gt) {
                        *a += -gv;
                    }
                }
                Composition::Mult => add_composed(acc, gt, &x[s..s + d], Composition::Mult),
            }
        }
    });
    crate::pool::recycle(gn);
}
