//! Reference single-threaded backend: the seed repo's original loops.
//!
//! Bitwise-stable semantics; the oracle every parity test compares against.
//! Reductions follow the fixed-block summation contract documented on
//! [`Backend::sum`](super::Backend::sum), so scalar and portable threaded
//! results are bit-equal for any thread count.

use super::{
    adam_chunk, dot_block, layer_norm_backward_one_lane, layer_norm_one_lane, softmax_one_lane,
    sum_block, AdamHp, Backend, SUM_BLOCK,
};

/// Reference single-threaded backend: the seed repo's original loops.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalarBackend;

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        crate::tensor::matmul_kernel(a, b, out, m, k, n);
    }

    fn softmax_lanes(&self, data: &mut [f32], lane: usize) {
        if lane == 0 {
            return;
        }
        for l in data.chunks_mut(lane) {
            softmax_one_lane(l);
        }
    }

    fn layer_norm_lanes(&self, data: &mut [f32], lane: usize, eps: f32) {
        if lane == 0 {
            return;
        }
        for l in data.chunks_mut(lane) {
            layer_norm_one_lane(l, eps);
        }
    }

    fn layer_norm_backward_lanes(
        &self,
        x: &[f32],
        g: &[f32],
        out: &mut [f32],
        lane: usize,
        eps: f32,
    ) {
        if lane == 0 {
            return;
        }
        for ((xs, gs), os) in x.chunks(lane).zip(g.chunks(lane)).zip(out.chunks_mut(lane)) {
            layer_norm_backward_one_lane(xs, gs, os, eps);
        }
    }

    fn run1(&self, data: &mut [f32], body: &(dyn Fn(&mut [f32]) + Sync)) {
        body(data);
    }

    fn run2(&self, src: &[f32], dst: &mut [f32], body: &(dyn Fn(&[f32], &mut [f32]) + Sync)) {
        body(src, dst);
    }

    fn run3(
        &self,
        a: &[f32],
        b: &[f32],
        dst: &mut [f32],
        body: &(dyn Fn(&[f32], &[f32], &mut [f32]) + Sync),
    ) {
        body(a, b, dst);
    }

    fn sum(&self, xs: &[f32]) -> f32 {
        // fixed-block fold (see the summation contract on `Backend::sum`):
        // bit-equal to the portable threaded kernels for any thread count
        xs.chunks(SUM_BLOCK).map(sum_block).sum()
    }

    fn dot(&self, xs: &[f32], ys: &[f32]) -> f32 {
        debug_assert_eq!(xs.len(), ys.len());
        xs.chunks(SUM_BLOCK)
            .zip(ys.chunks(SUM_BLOCK))
            .map(|(a, b)| dot_block(a, b))
            .sum()
    }

    fn adam_update(&self, x: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], hp: &AdamHp) {
        adam_chunk(x, g, m, v, hp);
    }
}
