//! Backend parity: every kernel of [`SimdBackend`], at the host's detected
//! vector level and on its portable block kernels, must match
//! [`ScalarBackend`] within 1e-5 on randomized shapes — including sizes that
//! are not multiples of the GEMM tile or the vector width, batch = 1, and
//! empty dims — and the autograd backward pass must agree across both
//! backends. The portable kernels are further held to bit-for-bit equality
//! with the scalar oracle at shapes that cross the threading thresholds.
//!
//! Kernel tests address the implementations *directly* (no global backend
//! mutation), so they are safe under the multithreaded test harness. The
//! cross-backend gradient checks flip the process-global backend and are
//! serialised behind a mutex.

use came_tensor::backend::{self, AdamHp, Backend};
use came_tensor::{
    BackendKind, Graph, ParamStore, Prng, ScalarBackend, Shape, SimdBackend, Tensor,
};
use std::sync::Mutex;

const TOL: f32 = 1e-5;

/// The threaded backend with the portable block kernels on every host.
static PORTABLE: SimdBackend = SimdBackend::portable();

/// The backends checked against the scalar oracle.
fn others() -> [(&'static str, &'static dyn Backend); 2] {
    [
        ("portable", &PORTABLE),
        ("simd", backend::of(BackendKind::Simd)),
    ]
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

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

/// Shapes chosen to straddle the 4-row micro-kernel, the 32-row panel, the
/// 256-wide k block, the 8/16-float vector tiles, and the threading
/// thresholds; includes batch=1 and 0-dims.
const GEMM_SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (4, 4, 4),
    (5, 3, 2),     // remainder row path
    (7, 19, 11),   // nothing divides the tiles
    (33, 40, 31),  // one past the panel size
    (64, 300, 17), // k crosses the 256 block boundary
    (97, 43, 129),
    (25, 30, 16), // exactly one AVX2 column tile
    (26, 31, 15), // one short of the SSE2-wide tile
    (3, 9, 40),   // fewer rows than any MR block
    (0, 5, 3),    // m == 0
    (3, 0, 5),    // k == 0: pure accumulate-nothing
    (3, 5, 0),    // n == 0
];

#[test]
fn matmul_parity_on_randomized_shapes() {
    let mut rng = Prng::new(0x9A71);
    for &(m, k, n) in GEMM_SHAPES {
        let a = randv(m * k, &mut rng);
        let b = randv(k * n, &mut rng);
        // accumulate into a non-zero C so the += contract is exercised too
        let init = randv(m * n, &mut rng);
        let mut scalar = init.clone();
        ScalarBackend.matmul(&a, &b, &mut scalar, m, k, n);
        for (name, be) in others() {
            let mut got = init.clone();
            be.matmul(&a, &b, &mut got, m, k, n);
            assert_close(&got, &scalar, &format!("{name} matmul {m}x{k}x{n}"));
        }
    }
}

#[test]
fn matmul_batched_parity_including_batch_one() {
    let mut rng = Prng::new(0x9A72);
    for &(batch, m, k, n) in &[
        (1usize, 5usize, 7usize, 3usize),
        (4, 9, 13, 6),
        (16, 6, 6, 6),
        (2, 10, 12, 20),
        (3, 0, 4, 2),
    ] {
        let a = randv(batch * m * k, &mut rng);
        let b = randv(batch * k * n, &mut rng);
        let mut scalar = vec![0.0; batch * m * n];
        ScalarBackend.matmul_batched(&a, &b, &mut scalar, batch, m, k, n);
        for (name, be) in others() {
            let mut got = vec![0.0; batch * m * n];
            be.matmul_batched(&a, &b, &mut got, batch, m, k, n);
            assert_close(
                &got,
                &scalar,
                &format!("{name} batched {batch}x{m}x{k}x{n}"),
            );
        }
    }
}

#[test]
fn softmax_parity() {
    let mut rng = Prng::new(0x9A73);
    for &(rows, lane) in &[
        (1usize, 1usize),
        (3, 7),
        (200, 33),
        (1000, 40),
        (5, 1),
        (4, 8),
        (4, 19),
    ] {
        let base = randv(rows * lane, &mut rng);
        let mut scalar = base.clone();
        ScalarBackend.softmax_lanes(&mut scalar, lane);
        for (name, be) in others() {
            let mut got = base.clone();
            be.softmax_lanes(&mut got, lane);
            assert_close(&got, &scalar, &format!("{name} softmax {rows}x{lane}"));
        }
    }
    // empty buffer / zero lane are no-ops on all backends
    ScalarBackend.softmax_lanes(&mut [], 4);
    PORTABLE.softmax_lanes(&mut [], 0);
    SimdBackend::detected().softmax_lanes(&mut [], 0);
}

#[test]
fn layer_norm_parity_forward_and_backward() {
    let mut rng = Prng::new(0x9A74);
    for &(rows, lane) in &[(1usize, 2usize), (7, 5), (300, 64), (2048, 16), (9, 21)] {
        let x = randv(rows * lane, &mut rng);
        let g = randv(rows * lane, &mut rng);
        let mut fs = x.clone();
        ScalarBackend.layer_norm_lanes(&mut fs, lane, 1e-6);
        let mut bs = vec![0.0; rows * lane];
        ScalarBackend.layer_norm_backward_lanes(&x, &g, &mut bs, lane, 1e-6);
        for (name, be) in others() {
            let mut fp = x.clone();
            be.layer_norm_lanes(&mut fp, lane, 1e-6);
            assert_close(&fp, &fs, &format!("{name} ln fwd {rows}x{lane}"));
            let mut bp = vec![0.0; rows * lane];
            be.layer_norm_backward_lanes(&x, &g, &mut bp, lane, 1e-6);
            assert_close(&bp, &bs, &format!("{name} ln bwd {rows}x{lane}"));
        }
    }
}

#[test]
fn elementwise_driver_parity() {
    let mut rng = Prng::new(0x9A75);
    for &n in &[0usize, 1, 100, 50_000] {
        let a = randv(n, &mut rng);
        let b = randv(n, &mut rng);
        let relu = |chunk: &mut [f32]| {
            for x in chunk {
                *x = x.max(0.0);
            }
        };
        let tanh = |src: &[f32], dst: &mut [f32]| {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s.tanh();
            }
        };
        let mul = |x: &[f32], y: &[f32], dst: &mut [f32]| {
            for ((d, &a), &b) in dst.iter_mut().zip(x).zip(y) {
                *d = a * b;
            }
        };
        let mut s1 = a.clone();
        ScalarBackend.run1(&mut s1, &relu);
        let mut s2 = vec![0.0; n];
        ScalarBackend.run2(&a, &mut s2, &tanh);
        let mut s3 = vec![0.0; n];
        ScalarBackend.run3(&a, &b, &mut s3, &mul);
        for (name, be) in others() {
            let mut p1 = a.clone();
            be.run1(&mut p1, &relu);
            assert_close(&p1, &s1, &format!("{name} run1 n={n}"));
            let mut p2 = vec![0.0; n];
            be.run2(&a, &mut p2, &tanh);
            assert_close(&p2, &s2, &format!("{name} run2 n={n}"));
            let mut p3 = vec![0.0; n];
            be.run3(&a, &b, &mut p3, &mul);
            assert_close(&p3, &s3, &format!("{name} run3 n={n}"));
        }
    }
}

#[test]
fn reduction_parity() {
    let mut rng = Prng::new(0x9A76);
    for &n in &[0usize, 1, 31, 4095, 4096, 4097, 120_000] {
        let a = randv(n, &mut rng);
        let b = randv(n, &mut rng);
        let ss = ScalarBackend.sum(&a);
        let sd = ScalarBackend.dot(&a, &b);
        for (name, be) in others() {
            let ps = be.sum(&a);
            assert!(
                (ss - ps).abs() <= TOL * (1.0 + ss.abs()),
                "{name} sum n={n}: {ss} vs {ps}"
            );
            let pd = be.dot(&a, &b);
            assert!(
                (sd - pd).abs() <= TOL * (1.0 + sd.abs()) * 10.0,
                "{name} dot n={n}: {sd} vs {pd}"
            );
        }
    }
}

#[test]
fn adam_update_parity() {
    let mut rng = Prng::new(0x9A77);
    let hp = AdamHp {
        lr: 1e-2,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
        weight_decay: 0.01,
        bias1: 0.1,
        bias2: 0.001,
    };
    for &n in &[1usize, 37, 70_000] {
        let g = randv(n, &mut rng);
        let x0 = randv(n, &mut rng);
        let m0 = randv(n, &mut rng);
        let v0: Vec<f32> = randv(n, &mut rng).iter().map(|v| v.abs()).collect();
        let (mut xs, mut ms, mut vs) = (x0.clone(), m0.clone(), v0.clone());
        ScalarBackend.adam_update(&mut xs, &g, &mut ms, &mut vs, &hp);
        for (name, be) in others() {
            let (mut xp, mut mp, mut vp) = (x0.clone(), m0.clone(), v0.clone());
            be.adam_update(&mut xp, &g, &mut mp, &mut vp, &hp);
            assert_close(&xp, &xs, &format!("{name} adam x n={n}"));
            assert_close(&mp, &ms, &format!("{name} adam m n={n}"));
            assert_close(&vp, &vs, &format!("{name} adam v n={n}"));
        }
    }
}

#[test]
fn fused_attention_kernel_parity() {
    let mut rng = Prng::new(0x9A78);
    // (batch, m, k, n): n == 1 is the TCA hot path with its own simd code
    for &(batch, m, k, n) in &[
        (1usize, 3usize, 5usize, 1usize),
        (4, 8, 33, 1),
        (2, 6, 64, 1),
        (3, 4, 10, 6),
        (2, 5, 17, 3),
        (1, 2, 40, 24),
    ] {
        let a = randv(batch * m, &mut rng);
        let c = randv(batch * k, &mut rng);
        let v = randv(batch * k * n, &mut rng);
        let scores = randv(batch * m * k, &mut rng);
        let gout = randv(batch * m * n, &mut rng);
        let tau = 1.37;

        let mut soft_s = vec![0.0; batch * m * k];
        let mut out_s = vec![0.0; batch * m * n];
        ScalarBackend.outer_attention(&a, &c, &v, tau, &mut soft_s, &mut out_s, batch, m, k, n);
        let mut fwd_s = vec![0.0; batch * m * n];
        ScalarBackend.outer_attention_fwd(&a, &c, &v, tau, &mut fwd_s, batch, m, k, n);
        let mut sm_soft_s = vec![0.0; batch * m * k];
        let mut sm_out_s = vec![0.0; batch * m * n];
        ScalarBackend.softmax_matmul(&scores, &v, &mut sm_soft_s, &mut sm_out_s, batch, m, k, n);
        let mut sm_fwd_s = vec![0.0; batch * m * n];
        ScalarBackend.softmax_matmul_fwd(&scores, &v, &mut sm_fwd_s, batch, m, k, n);
        let mut ga_s = vec![0.0; batch * m];
        let mut gc_s = vec![0.0; batch * k];
        let mut gv_s = vec![0.0; batch * k * n];
        let gtau_s = ScalarBackend.outer_attention_backward(
            &a, &c, &v, &soft_s, &gout, tau, &mut ga_s, &mut gc_s, &mut gv_s, batch, m, k, n,
        );

        for (name, be) in others() {
            let what = format!("{name} {batch}x{m}x{k}x{n}");
            let mut soft = vec![0.0; batch * m * k];
            let mut out = vec![0.0; batch * m * n];
            be.outer_attention(&a, &c, &v, tau, &mut soft, &mut out, batch, m, k, n);
            assert_close(&soft, &soft_s, &format!("{what} oa soft"));
            assert_close(&out, &out_s, &format!("{what} oa out"));
            let mut fwd = vec![0.0; batch * m * n];
            be.outer_attention_fwd(&a, &c, &v, tau, &mut fwd, batch, m, k, n);
            assert_close(&fwd, &fwd_s, &format!("{what} oa fwd"));
            let mut sm_soft = vec![0.0; batch * m * k];
            let mut sm_out = vec![0.0; batch * m * n];
            be.softmax_matmul(&scores, &v, &mut sm_soft, &mut sm_out, batch, m, k, n);
            assert_close(&sm_soft, &sm_soft_s, &format!("{what} sm soft"));
            assert_close(&sm_out, &sm_out_s, &format!("{what} sm out"));
            let mut sm_fwd = vec![0.0; batch * m * n];
            be.softmax_matmul_fwd(&scores, &v, &mut sm_fwd, batch, m, k, n);
            assert_close(&sm_fwd, &sm_fwd_s, &format!("{what} sm fwd"));
            let mut ga = vec![0.0; batch * m];
            let mut gc = vec![0.0; batch * k];
            let mut gv = vec![0.0; batch * k * n];
            let gtau = be.outer_attention_backward(
                &a, &c, &v, &soft_s, &gout, tau, &mut ga, &mut gc, &mut gv, batch, m, k, n,
            );
            assert_close(&ga, &ga_s, &format!("{what} oa bwd ga"));
            assert_close(&gc, &gc_s, &format!("{what} oa bwd gc"));
            assert_close(&gv, &gv_s, &format!("{what} oa bwd gv"));
            assert!(
                (gtau - gtau_s).abs() <= TOL * (1.0 + gtau_s.abs()) * 10.0,
                "{what} gtau: {gtau} vs {gtau_s}"
            );
        }
    }
}

/// k values straddling the q8 strip width, the vector tiles, and the
/// degenerate sizes; paired with m/n that exercise empty outputs.
const Q8_KS: &[usize] = &[0, 1, 3, 8, 31, 64, 257];

fn randcodes(n: usize, rng: &mut Prng) -> Vec<u8> {
    (0..n)
        .map(|_| (rng.normal_in(128.0, 50.0).clamp(0.0, 255.0)) as u8)
        .collect()
}

#[test]
fn dot_q8_parity_and_scalar_reference() {
    let mut rng = Prng::new(0x9A79);
    for &k in Q8_KS {
        let a = randv(k, &mut rng);
        let codes = randcodes(k, &mut rng);
        let reference: f32 = a.iter().zip(&codes).map(|(&x, &c)| x * c as f32).sum();
        let s = ScalarBackend.dot_q8(&a, &codes);
        assert!(
            (s - reference).abs() <= TOL * (1.0 + reference.abs()) * 10.0,
            "scalar dot_q8 k={k}: {s} vs {reference}"
        );
        // the portable kernel shares the scalar strip reduction: bitwise
        assert_eq!(
            PORTABLE.dot_q8(&a, &codes).to_bits(),
            s.to_bits(),
            "portable dot_q8 k={k} must be bitwise scalar"
        );
        let v = SimdBackend::detected().dot_q8(&a, &codes);
        assert!(
            (v - s).abs() <= TOL * (1.0 + s.abs()) * 10.0,
            "simd dot_q8 k={k}: {v} vs {s}"
        );
    }
}

#[test]
fn gemm_q8_f32_parity_on_randomized_shapes() {
    let mut rng = Prng::new(0x9A7A);
    for &(m, n) in &[(1usize, 1usize), (3, 7), (8, 33), (16, 100), (0, 5), (5, 0)] {
        for &k in Q8_KS {
            let a = randv(m * k, &mut rng);
            let a_sums: Vec<f32> = a.chunks(k.max(1)).map(|r| r.iter().sum()).collect();
            let a_sums = if k == 0 { vec![0.0; m] } else { a_sums };
            let codes = randcodes(n * k, &mut rng);
            let scales = randv(n, &mut rng)
                .iter()
                .map(|s| s.abs() * 0.01)
                .collect::<Vec<_>>();
            let mins = randv(n, &mut rng);
            // plain-loop reference for the fused affine-dequant contract
            let mut reference = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let dot: f32 = (0..k).map(|t| a[i * k + t] * codes[j * k + t] as f32).sum();
                    reference[i * n + j] = mins[j] * a_sums[i] + scales[j] * dot;
                }
            }
            let mut s = vec![0.0f32; m * n];
            ScalarBackend.gemm_q8_f32(&a, &a_sums, &codes, &scales, &mins, &mut s, m, k, n);
            assert_close(&s, &reference, &format!("scalar gemm_q8 {m}x{k}x{n}"));
            let mut p = vec![0.0f32; m * n];
            PORTABLE.gemm_q8_f32(&a, &a_sums, &codes, &scales, &mins, &mut p, m, k, n);
            assert_eq!(
                bits(&s),
                bits(&p),
                "portable gemm_q8 {m}x{k}x{n} must be bitwise scalar"
            );
            let mut v = vec![0.0f32; m * n];
            SimdBackend::detected()
                .gemm_q8_f32(&a, &a_sums, &codes, &scales, &mins, &mut v, m, k, n);
            // long-k reductions group differently under simd: same 10x slack
            // as the dot/sum parity checks
            for (i, (x, y)) in v.iter().zip(&s).enumerate() {
                assert!(
                    (x - y).abs() <= TOL * (1.0 + x.abs().max(y.abs())) * 10.0,
                    "simd gemm_q8 {m}x{k}x{n}[{i}]: {x} vs {y}"
                );
            }
        }
    }
}

/// The portable threaded path against the scalar oracle, bit for bit, at
/// shapes large enough that every kernel takes its threaded split (row
/// panels, batch entries, `SUM_BLOCK` partials, q8 output strips) whenever
/// the host has more than one thread.
#[test]
fn portable_threaded_path_is_bitwise_scalar_above_thresholds() {
    const PAR_MIN_FLOPS: usize = 64 * 1024;
    const PAR_MIN_ELEMS: usize = 16 * 1024;
    let mut rng = Prng::new(0x9A7C);

    // matmul: m past several 32-row panels, n both narrower and wider than
    // a vector column tile
    for &(m, k, n) in &[(130usize, 70usize, 9usize), (97, 300, 40)] {
        assert!(m * k * n >= PAR_MIN_FLOPS);
        let a = randv(m * k, &mut rng);
        let b = randv(k * n, &mut rng);
        let init = randv(m * n, &mut rng);
        let (mut s, mut p) = (init.clone(), init);
        ScalarBackend.matmul(&a, &b, &mut s, m, k, n);
        PORTABLE.matmul(&a, &b, &mut p, m, k, n);
        assert_eq!(bits(&s), bits(&p), "portable matmul {m}x{k}x{n}");
    }

    // matmul_batched: one task per batch entry
    let (batch, m, k, n) = (12usize, 17usize, 33usize, 20usize);
    assert!(batch * m * k * n >= PAR_MIN_FLOPS);
    let a = randv(batch * m * k, &mut rng);
    let b = randv(batch * k * n, &mut rng);
    let (mut s, mut p) = (vec![0.0; batch * m * n], vec![0.0; batch * m * n]);
    ScalarBackend.matmul_batched(&a, &b, &mut s, batch, m, k, n);
    PORTABLE.matmul_batched(&a, &b, &mut p, batch, m, k, n);
    assert_eq!(bits(&s), bits(&p), "portable matmul_batched");

    // sum / dot: many SUM_BLOCK partials, ragged last block
    let len = 5 * PAR_MIN_ELEMS + 123;
    let xs = randv(len, &mut rng);
    let ys = randv(len, &mut rng);
    assert_eq!(
        ScalarBackend.sum(&xs).to_bits(),
        PORTABLE.sum(&xs).to_bits(),
        "portable sum"
    );
    assert_eq!(
        ScalarBackend.dot(&xs, &ys).to_bits(),
        PORTABLE.dot(&xs, &ys).to_bits(),
        "portable dot"
    );

    // dot_q8 on a long row, gemm_q8_f32 with several strips per query row
    let k = 64;
    let codes_row = randcodes(len, &mut rng);
    assert_eq!(
        ScalarBackend.dot_q8(&xs, &codes_row).to_bits(),
        PORTABLE.dot_q8(&xs, &codes_row).to_bits(),
        "portable dot_q8"
    );
    let (m, n) = (5usize, 1500usize);
    assert!(m * n * k >= PAR_MIN_FLOPS);
    let a = randv(m * k, &mut rng);
    let a_sums: Vec<f32> = a.chunks(k).map(|r| r.iter().sum()).collect();
    let codes = randcodes(n * k, &mut rng);
    let scales: Vec<f32> = randv(n, &mut rng).iter().map(|s| s.abs() * 0.01).collect();
    let mins = randv(n, &mut rng);
    let (mut s, mut p) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
    ScalarBackend.gemm_q8_f32(&a, &a_sums, &codes, &scales, &mins, &mut s, m, k, n);
    PORTABLE.gemm_q8_f32(&a, &a_sums, &codes, &scales, &mins, &mut p, m, k, n);
    assert_eq!(bits(&s), bits(&p), "portable gemm_q8_f32");
}

#[test]
fn store_variants_agree_under_every_backend() {
    use came_tensor::{build_store, StoreKind};
    let mut rng = Prng::new(0x9A7B);
    let (n, d, m) = (67, 23, 5);
    let rows = randv(n * d, &mut rng);
    let queries = randv(m * d, &mut rng);
    // f32 store scored under the scalar backend is the oracle
    let f32_store = build_store(StoreKind::F32, &rows, n, d).unwrap();
    let mut oracle = vec![0.0f32; m * n];
    with_backend(BackendKind::Scalar, || {
        f32_store.score_range_into(&queries, m, 0, n, &mut oracle);
    });
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        with_backend(kind, || {
            let stores = [
                build_store(StoreKind::F32, &rows, n, d).unwrap(),
                build_store(StoreKind::Q8, &rows, n, d).unwrap(),
            ];
            for st in &stores {
                // full range and an interior sub-range against the oracle
                let mut full = vec![0.0f32; m * n];
                st.score_range_into(&queries, m, 0, n, &mut full);
                let what = format!("{kind:?} {:?}", st.kind());
                // q8 dequant error: half-step per element, d elements
                let budget = if st.kind() == StoreKind::F32 {
                    TOL
                } else {
                    0.05
                };
                for (i, (got, want)) in full.iter().zip(&oracle).enumerate() {
                    assert!(
                        (got - want).abs() <= budget * (1.0 + want.abs()),
                        "{what}[{i}]: {got} vs {want}"
                    );
                }
                let (lo, hi) = (n / 3, n - 2);
                let mut sub = vec![0.0f32; m * (hi - lo)];
                st.score_range_into(&queries, m, lo, hi, &mut sub);
                for i in 0..m {
                    for j in lo..hi {
                        assert_eq!(
                            sub[i * (hi - lo) + (j - lo)].to_bits(),
                            full[i * n + j].to_bits(),
                            "{what}: sub-range must be a bitwise slice of the full range"
                        );
                    }
                }
            }
        });
    }
}

/// Guards the process-global backend selection for the cross-backend
/// gradient checks below.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` under the given global backend, restoring the previous selection.
fn with_backend<T>(kind: BackendKind, f: impl FnOnce() -> T) -> T {
    let _guard = BACKEND_LOCK.lock().unwrap();
    let prev = backend::kind();
    came_tensor::set_backend(kind);
    let out = f();
    came_tensor::set_backend(prev);
    out
}

/// A small end-to-end model (matmul → layer-norm → conv-free softmax head →
/// BCE) whose forward value and parameter gradients are computed under one
/// backend.
fn grads_under(kind: BackendKind, seed: u64) -> (f32, Vec<Vec<f32>>) {
    with_backend(kind, || {
        let mut rng = Prng::new(seed);
        let mut store = ParamStore::new();
        let w1 = store.add("w1", Tensor::randn(Shape::d2(6, 9), 0.5, &mut rng));
        let w2 = store.add("w2", Tensor::randn(Shape::d2(9, 5), 0.5, &mut rng));
        let x = Tensor::randn(Shape::d2(11, 6), 1.0, &mut rng);
        let targets = Tensor::rand_uniform(Shape::d2(11, 5), 0.0, 1.0, &mut rng).map(|v| {
            if v > 0.5 {
                1.0
            } else {
                0.0
            }
        });

        let g = Graph::new();
        let xv = g.input(x);
        let h = g.matmul(xv, g.param(&store, w1));
        let h = g.layer_norm(h, 1e-6);
        let h = g.tanh(h);
        let logits = g.matmul(h, g.param(&store, w2));
        let sm = g.softmax(logits, 1);
        let logits2 = g.add(logits, sm);
        let loss = g.bce_with_logits(logits2, &targets);
        let lv = g.value(loss).item();
        g.backward(loss, &mut store);
        let grads = vec![
            store.grad(w1).data().to_vec(),
            store.grad(w2).data().to_vec(),
        ];
        (lv, grads)
    })
}

#[test]
fn backward_pass_agrees_across_backends() {
    for seed in [3u64, 17, 99] {
        let (loss_s, grads_s) = grads_under(BackendKind::Scalar, seed);
        let kind = BackendKind::Simd;
        let (loss_p, grads_p) = grads_under(kind, seed);
        assert!(
            (loss_s - loss_p).abs() <= TOL * (1.0 + loss_s.abs()),
            "seed {seed} {kind:?}: loss {loss_s} vs {loss_p}"
        );
        for (i, (gs, gp)) in grads_s.iter().zip(&grads_p).enumerate() {
            assert_close(gp, gs, &format!("seed {seed} {kind:?}: grad[{i}]"));
        }
    }
}

#[test]
fn conv_forward_and_backward_agree_across_backends() {
    let run = |kind: BackendKind| {
        with_backend(kind, || {
            let mut rng = Prng::new(0xC0);
            let x = Tensor::randn(Shape::d4(2, 3, 8, 7), 1.0, &mut rng);
            let w = Tensor::randn(Shape::d4(5, 3, 3, 3), 0.5, &mut rng);
            let b = Tensor::randn(Shape::d1(5), 0.5, &mut rng);
            let y = came_tensor::conv::conv2d_forward(&x, &w, Some(&b));
            let gout = Tensor::randn(y.shape(), 1.0, &mut rng);
            let (gx, gw, gb) = came_tensor::conv::conv2d_backward(&x, &w, &gout);
            (y, gx, gw, gb)
        })
    };
    let (ys, gxs, gws, gbs) = run(BackendKind::Scalar);
    let kind = BackendKind::Simd;
    let (yp, gxp, gwp, gbp) = run(kind);
    assert_close(yp.data(), ys.data(), &format!("{kind:?} conv fwd"));
    assert_close(gxp.data(), gxs.data(), &format!("{kind:?} conv gx"));
    assert_close(gwp.data(), gws.data(), &format!("{kind:?} conv gw"));
    assert_close(gbp.data(), gbs.data(), &format!("{kind:?} conv gb"));
}
