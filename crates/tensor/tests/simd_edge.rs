//! SIMD edge cases: remainder lanes (lengths not divisible by the 4/8-float
//! vector width), unaligned slice heads (the kernels use unaligned loads —
//! any offset must work), NaN/±inf propagation through the vectorized
//! softmax/exp, and bit-identity between the taped and tape-free fused
//! attention entries under the SIMD backend.

use came_tensor::backend::{simd, Backend};
use came_tensor::{Prng, ScalarBackend, SimdBackend};

const TOL: f32 = 1e-5;

fn randv(n: usize, rng: &mut Prng) -> Vec<f32> {
    (0..n).map(|_| rng.normal_in(0.0, 1.0)).collect()
}

fn assert_close(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= TOL * (1.0 + x.abs().max(y.abs())),
            "{what}[{i}]: {x} vs {y}"
        );
    }
}

/// Every lane length from 1 to a few vectors' worth: the vector body handles
/// `len / W` vectors, the scalar tail the rest; both must agree with the
/// scalar backend at every remainder.
#[test]
fn remainder_lanes_cover_every_tail_length() {
    let mut rng = Prng::new(0x51D0);
    for lane in 1usize..=36 {
        let rows = 3;
        let base = randv(rows * lane, &mut rng);
        let mut want = base.clone();
        let mut got = base.clone();
        ScalarBackend.softmax_lanes(&mut want, lane);
        SimdBackend::detected().softmax_lanes(&mut got, lane);
        assert_close(&got, &want, &format!("softmax lane={lane}"));

        let mut want = base.clone();
        let mut got = base.clone();
        ScalarBackend.layer_norm_lanes(&mut want, lane, 1e-5);
        SimdBackend::detected().layer_norm_lanes(&mut got, lane, 1e-5);
        assert_close(&got, &want, &format!("layer_norm lane={lane}"));

        let ss = ScalarBackend.sum(&base[..lane]);
        let ps = SimdBackend::detected().sum(&base[..lane]);
        assert!(
            (ss - ps).abs() <= TOL * (1.0 + ss.abs()),
            "sum len={lane}: {ss} vs {ps}"
        );
    }
}

/// The kernels take arbitrary sub-slices: start offsets 0..=7 shift the data
/// off any 16/32/64-byte boundary. Results must not depend on alignment.
#[test]
fn unaligned_slice_heads_match_scalar() {
    let mut rng = Prng::new(0x51D1);
    let lane = 24;
    let buf = randv(8 + 5 * lane, &mut rng);
    let buf2 = randv(8 + 5 * lane, &mut rng);
    for off in 0usize..8 {
        let view = &buf[off..off + 5 * lane];
        let mut want = view.to_vec();
        ScalarBackend.softmax_lanes(&mut want, lane);
        // operate directly on the offset view in a copied buffer so the
        // kernel really sees the unaligned address
        let mut work = buf.clone();
        SimdBackend::detected().softmax_lanes(&mut work[off..off + 5 * lane], lane);
        assert_close(
            &work[off..off + 5 * lane],
            &want,
            &format!("softmax off={off}"),
        );

        let a = &buf[off..off + 4 * lane];
        let b = &buf2[off..off + 4 * lane];
        let sd = ScalarBackend.dot(a, b);
        let pd = SimdBackend::detected().dot(a, b);
        assert!(
            (sd - pd).abs() <= TOL * (1.0 + sd.abs()) * 10.0,
            "dot off={off}: {sd} vs {pd}"
        );

        let mut want = a.to_vec();
        let mut got = a.to_vec();
        for x in &mut want {
            *x = came_tensor::tensor::fast_exp_lane(*x);
        }
        simd::exp_inplace(&mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "exp off={off}[{i}]: {g} vs {w}");
        }
    }
}

/// A NaN anywhere in a softmax lane poisons the normaliser, so the whole
/// lane must come out NaN — on both backends. `+inf` behaves the same way
/// (`inf - inf = NaN` in the shift). `-inf` is an ordinary "weight zero"
/// entry and the rest of the lane must still match the scalar result.
#[test]
fn nan_and_inf_propagate_identically_through_softmax() {
    let lane = 13; // vector body + scalar tail
    let mk = |poison: f32, at: usize| {
        let mut v: Vec<f32> = (0..2 * lane).map(|i| (i as f32) * 0.3 - 2.0).collect();
        v[at] = poison;
        v
    };
    for (poison, expect_nan) in [
        (f32::NAN, true),
        (f32::INFINITY, true),
        (f32::NEG_INFINITY, false),
    ] {
        for at in [0usize, 5, lane - 1] {
            let mut want = mk(poison, at);
            let mut got = want.clone();
            ScalarBackend.softmax_lanes(&mut want, lane);
            SimdBackend::detected().softmax_lanes(&mut got, lane);
            // first lane is poisoned, second lane untouched by the poison
            for i in 0..lane {
                assert_eq!(
                    got[i].is_nan(),
                    want[i].is_nan(),
                    "poison={poison} at={at} [{i}]: {} vs {}",
                    got[i],
                    want[i]
                );
                if expect_nan {
                    assert!(got[i].is_nan(), "poison={poison} must flood the lane");
                }
            }
            assert_close(
                &got[lane..],
                &want[lane..],
                &format!("clean lane after poison={poison}"),
            );
        }
    }
    // exp saturation edges propagate identically too
    let mut v = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 90.0, -90.0];
    simd::exp_inplace(&mut v);
    assert!(v[0].is_nan());
    assert_eq!(v[1], f32::MAX);
    assert_eq!(v[2], 0.0);
    assert_eq!(v[3], f32::MAX);
    assert_eq!(v[4], 0.0);
}

/// The taped (`outer_attention` / `softmax_matmul`) and tape-free (`_fwd`)
/// entries are bit-identical at every kernel level: the vector levels share
/// one row kernel, and the portable level's column-major `n == 1` walk keeps
/// the row kernel's per-row order. The last shape crosses the threading
/// threshold, so the batch fan-out runs too.
#[test]
fn taped_and_tape_free_attention_are_bit_identical_under_simd() {
    let mut rng = Prng::new(0x51D2);
    for &(batch, m, k, n) in &[
        (1usize, 4usize, 33usize, 1usize),
        (3, 8, 21, 1),
        (2, 5, 19, 7),
        (16, 32, 64, 1),
    ] {
        let a = randv(batch * m, &mut rng);
        let c = randv(batch * k, &mut rng);
        let v = randv(batch * k * n, &mut rng);
        let scores = randv(batch * m * k, &mut rng);
        let tau = 0.83;

        for (name, be) in [
            ("simd", SimdBackend::detected()),
            ("portable", SimdBackend::portable()),
        ] {
            let what = format!("{name} {batch}x{m}x{k}x{n}");
            let mut soft = vec![0.0; batch * m * k];
            let mut taped = vec![0.0; batch * m * n];
            be.outer_attention(&a, &c, &v, tau, &mut soft, &mut taped, batch, m, k, n);
            let mut fwd = vec![0.0; batch * m * n];
            be.outer_attention_fwd(&a, &c, &v, tau, &mut fwd, batch, m, k, n);
            for (i, (t, f)) in taped.iter().zip(&fwd).enumerate() {
                assert_eq!(
                    t.to_bits(),
                    f.to_bits(),
                    "{what} outer_attention [{i}]: {t} vs {f}"
                );
            }

            let mut sm_soft = vec![0.0; batch * m * k];
            let mut sm_taped = vec![0.0; batch * m * n];
            be.softmax_matmul(&scores, &v, &mut sm_soft, &mut sm_taped, batch, m, k, n);
            let mut sm_fwd = vec![0.0; batch * m * n];
            be.softmax_matmul_fwd(&scores, &v, &mut sm_fwd, batch, m, k, n);
            for (i, (t, f)) in sm_taped.iter().zip(&sm_fwd).enumerate() {
                assert_eq!(
                    t.to_bits(),
                    f.to_bits(),
                    "{what} softmax_matmul [{i}]: {t} vs {f}"
                );
            }
        }
    }
}
