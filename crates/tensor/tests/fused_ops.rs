//! Fused-kernel correctness: `gemm_bias_act`, `softmax_matmul`, and
//! `outer_attention` must match their composed unfused counterparts in
//! forward value and gradients, and pass finite-difference gradient checks,
//! on both backends.
//!
//! The composed references are built from the primitive graph ops directly
//! (matmul / add / sigmoid / softmax), so they exercise the unfused code path
//! without touching the process-global fusion switch.

use came_tensor::{Activation, BackendKind, Graph, ParamStore, Prng, Shape, Tensor, Var};
use std::sync::Mutex;

const TOL: f32 = 1e-5;

static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn with_backend<T>(kind: BackendKind, f: impl FnOnce() -> T) -> T {
    let _guard = BACKEND_LOCK.lock().unwrap();
    let prev = came_tensor::backend::kind();
    came_tensor::set_backend(kind);
    let out = f();
    came_tensor::set_backend(prev);
    out
}

fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{what}[{i}]: {x} vs {y}"
        );
    }
}

/// Central-difference numeric gradient of scalar-valued `f` w.r.t. `x`.
fn numeric_grad(f: impl Fn(&Tensor) -> f32, x: &Tensor, eps: f32) -> Tensor {
    let mut g = Tensor::zeros(x.shape());
    for i in 0..x.numel() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        g.data_mut()[i] = (f(&xp) - f(&xm)) / (2.0 * eps);
    }
    g
}

/// Composed reference for `act(x·w + b)` from primitive ops only.
fn composed(g: &Graph, x: Var, w: Var, b: Option<Var>, act: Activation) -> Var {
    let y = g.matmul(x, w);
    let y = match b {
        Some(bv) => g.add(y, bv),
        None => y,
    };
    match act {
        Activation::Identity => y,
        Activation::Sigmoid => g.sigmoid(y),
        Activation::Tanh => g.tanh(y),
        Activation::Relu => g.relu(y),
    }
}

const ACTS: [Activation; 4] = [
    Activation::Identity,
    Activation::Sigmoid,
    Activation::Tanh,
    Activation::Relu,
];

/// Forward + gradient agreement between the fused node and the composed
/// reference, for one (x, w, b) triple under the active backend.
fn check_gemm_bias_act(x: &Tensor, w: &Tensor, b: Option<&Tensor>, what: &str) {
    for act in ACTS {
        let run = |fused: bool| {
            let g = Graph::new();
            let xv = g.input(x.clone());
            let wv = g.input(w.clone());
            let bv = b.map(|t| g.input(t.clone()));
            let y = if fused {
                g.gemm_bias_act(xv, wv, bv, act)
            } else {
                composed(&g, xv, wv, bv, act)
            };
            let loss = g.sum_all(g.mul(y, y));
            let mut store = ParamStore::new();
            g.backward(loss, &mut store);
            let grads = [
                g.grad(xv).data().to_vec(),
                g.grad(wv).data().to_vec(),
                bv.map(|v| g.grad(v).data().to_vec()).unwrap_or_default(),
            ];
            (g.value(y).data().to_vec(), grads)
        };
        let (yf, gf) = run(true);
        let (yu, gu) = run(false);
        let name = format!("{what} {act:?}");
        assert_close(&yf, &yu, TOL, &format!("{name}: forward"));
        assert_close(&gf[0], &gu[0], TOL, &format!("{name}: gx"));
        assert_close(&gf[1], &gu[1], TOL, &format!("{name}: gw"));
        assert_close(&gf[2], &gu[2], TOL, &format!("{name}: gb"));
    }
}

#[test]
fn gemm_bias_act_matches_composed_on_both_backends() {
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        with_backend(kind, || {
            let mut rng = Prng::new(0xF0);
            // 2-D with bias, odd sizes straddling the tile boundaries
            let x = Tensor::randn(Shape::d2(7, 5), 1.0, &mut rng);
            let w = Tensor::randn(Shape::d2(5, 9), 0.7, &mut rng);
            let b = Tensor::randn(Shape::d1(9), 0.5, &mut rng);
            check_gemm_bias_act(&x, &w, Some(&b), &format!("{kind:?} 2d+bias"));
            // 2-D without bias
            check_gemm_bias_act(&x, &w, None, &format!("{kind:?} 2d"));
            // 3-D (batched rows share the weight), larger so the parallel
            // panel path engages
            let x3 = Tensor::randn(Shape::d3(4, 37, 12), 1.0, &mut rng);
            let w3 = Tensor::randn(Shape::d2(12, 33), 0.5, &mut rng);
            let b3 = Tensor::randn(Shape::d1(33), 0.5, &mut rng);
            check_gemm_bias_act(&x3, &w3, Some(&b3), &format!("{kind:?} 3d+bias"));
        });
    }
}

#[test]
fn gemm_bias_act_finite_difference() {
    let mut rng = Prng::new(0xF1);
    let w = Tensor::randn(Shape::d2(4, 6), 0.7, &mut rng);
    let b = Tensor::randn(Shape::d1(6), 0.5, &mut rng);
    let x = Tensor::randn(Shape::d2(3, 4), 1.0, &mut rng);
    for act in [Activation::Sigmoid, Activation::Tanh, Activation::Identity] {
        let g = Graph::new();
        let xv = g.input(x.clone());
        let wv = g.input(w.clone());
        let bv = g.input(b.clone());
        let loss = g.sum_all(g.gemm_bias_act(xv, wv, Some(bv), act));
        let mut store = ParamStore::new();
        g.backward(loss, &mut store);
        let (wc, bc) = (w.clone(), b.clone());
        let num = numeric_grad(
            move |t| {
                let g2 = Graph::new();
                let xv2 = g2.input(t.clone());
                let wv2 = g2.input(wc.clone());
                let bv2 = g2.input(bc.clone());
                g2.with_value(
                    g2.sum_all(g2.gemm_bias_act(xv2, wv2, Some(bv2), act)),
                    |v| v.item(),
                )
            },
            &x,
            1e-2,
        );
        assert_close(
            g.grad(xv).data(),
            num.data(),
            2e-2,
            &format!("fd gx {act:?}"),
        );
    }
}

#[test]
fn softmax_matmul_matches_composed_on_both_backends() {
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        with_backend(kind, || {
            let mut rng = Prng::new(0xF2);
            for &(batch, m, k, n) in &[
                (1usize, 1usize, 4usize, 1usize),
                (3, 5, 7, 4),
                (8, 16, 16, 8),
            ] {
                let s = Tensor::randn(Shape::d3(batch, m, k), 1.0, &mut rng);
                let v = Tensor::randn(Shape::d3(batch, k, n), 1.0, &mut rng);
                let run = |fused: bool| {
                    let g = Graph::new();
                    let sv = g.input(s.clone());
                    let vv = g.input(v.clone());
                    let y = if fused {
                        g.softmax_matmul(sv, vv)
                    } else {
                        let soft = g.softmax(sv, 2);
                        g.matmul(soft, vv)
                    };
                    let loss = g.sum_all(g.mul(y, y));
                    let mut store = ParamStore::new();
                    g.backward(loss, &mut store);
                    (
                        g.value(y).data().to_vec(),
                        g.grad(sv).data().to_vec(),
                        g.grad(vv).data().to_vec(),
                    )
                };
                let (yf, gsf, gvf) = run(true);
                let (yu, gsu, gvu) = run(false);
                let name = format!("{kind:?} softmax_matmul {batch}x{m}x{k}x{n}");
                assert_close(&yf, &yu, TOL, &format!("{name}: forward"));
                assert_close(&gsf, &gsu, TOL, &format!("{name}: gscores"));
                assert_close(&gvf, &gvu, TOL, &format!("{name}: gv"));
            }
        });
    }
}

/// Composed reference for `softmax((a ⊗ c)/τ, last) · v` from primitive ops
/// only: explicit outer product, division, softmax, and matmul.
fn composed_outer_attention(g: &Graph, a: Var, c: Var, v: Var, tau: Var) -> Var {
    let (b, m) = {
        let s = g.shape(a);
        (s.at(0), s.at(1))
    };
    let k = g.shape(c).at(1);
    let col = g.reshape(a, Shape::d3(b, m, 1));
    let row = g.reshape(c, Shape::d3(b, 1, k));
    let scores = g.div(g.mul(col, row), tau);
    g.matmul(g.softmax(scores, 2), v)
}

#[test]
fn outer_attention_matches_composed_on_both_backends() {
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        with_backend(kind, || {
            let mut rng = Prng::new(0xF4);
            for &(batch, m, k, n) in &[
                (1usize, 1usize, 3usize, 1usize),
                (3, 5, 7, 4),
                (8, 32, 32, 1),
            ] {
                let a = Tensor::randn(Shape::d2(batch, m), 1.0, &mut rng);
                let c = Tensor::randn(Shape::d2(batch, k), 1.0, &mut rng);
                let v = Tensor::randn(Shape::d3(batch, k, n), 1.0, &mut rng);
                let run = |fused: bool| {
                    let g = Graph::new();
                    let av = g.input(a.clone());
                    let cv = g.input(c.clone());
                    let vv = g.input(v.clone());
                    let tv = g.input(Tensor::scalar(0.7));
                    let y = if fused {
                        g.outer_attention(av, cv, vv, tv)
                    } else {
                        composed_outer_attention(&g, av, cv, vv, tv)
                    };
                    let loss = g.sum_all(g.mul(y, y));
                    let mut store = ParamStore::new();
                    g.backward(loss, &mut store);
                    let grads = [
                        g.grad(av).data().to_vec(),
                        g.grad(cv).data().to_vec(),
                        g.grad(vv).data().to_vec(),
                        g.grad(tv).data().to_vec(),
                    ];
                    (g.value(y).data().to_vec(), grads)
                };
                let (yf, gf) = run(true);
                let (yu, gu) = run(false);
                let name = format!("{kind:?} outer_attention {batch}x{m}x{k}x{n}");
                assert_close(&yf, &yu, TOL, &format!("{name}: forward"));
                assert_close(&gf[0], &gu[0], TOL, &format!("{name}: ga"));
                assert_close(&gf[1], &gu[1], TOL, &format!("{name}: gc"));
                assert_close(&gf[2], &gu[2], TOL, &format!("{name}: gv"));
                assert_close(&gf[3], &gu[3], TOL, &format!("{name}: gtau"));
            }
        });
    }
}

#[test]
fn outer_attention_finite_difference() {
    let mut rng = Prng::new(0xF5);
    let a = Tensor::randn(Shape::d2(2, 3), 1.0, &mut rng);
    let c = Tensor::randn(Shape::d2(2, 5), 1.0, &mut rng);
    let v = Tensor::randn(Shape::d3(2, 5, 4), 1.0, &mut rng);
    let tau = Tensor::scalar(0.8);
    let probe = Tensor::randn(Shape::d3(2, 3, 4), 1.0, &mut rng);
    let build = |g: &Graph, at: &Tensor, ct: &Tensor, vt: &Tensor, tt: &Tensor| {
        let av = g.input(at.clone());
        let cv = g.input(ct.clone());
        let vv = g.input(vt.clone());
        let tv = g.input(tt.clone());
        let y = g.outer_attention(av, cv, vv, tv);
        let p = g.input(probe.clone());
        ([av, cv, vv, tv], g.sum_all(g.mul(y, p)))
    };
    let g = Graph::new();
    let (vars, loss) = build(&g, &a, &c, &v, &tau);
    let mut store = ParamStore::new();
    g.backward(loss, &mut store);
    let eval = |at: &Tensor, ct: &Tensor, vt: &Tensor, tt: &Tensor| {
        let g2 = Graph::new();
        let (_, l) = build(&g2, at, ct, vt, tt);
        g2.with_value(l, |t| t.item())
    };
    let num_a = numeric_grad(|t| eval(t, &c, &v, &tau), &a, 1e-2);
    let num_c = numeric_grad(|t| eval(&a, t, &v, &tau), &c, 1e-2);
    let num_v = numeric_grad(|t| eval(&a, &c, t, &tau), &v, 1e-2);
    let num_t = numeric_grad(|t| eval(&a, &c, &v, t), &tau, 1e-3);
    assert_close(g.grad(vars[0]).data(), num_a.data(), 3e-2, "fd ga");
    assert_close(g.grad(vars[1]).data(), num_c.data(), 3e-2, "fd gc");
    assert_close(g.grad(vars[2]).data(), num_v.data(), 2e-2, "fd gv");
    assert_close(g.grad(vars[3]).data(), num_t.data(), 3e-2, "fd gtau");
}

#[test]
fn softmax_matmul_finite_difference() {
    let mut rng = Prng::new(0xF3);
    let s = Tensor::randn(Shape::d3(2, 3, 5), 1.0, &mut rng);
    let v = Tensor::randn(Shape::d3(2, 5, 4), 1.0, &mut rng);
    let probe = Tensor::randn(Shape::d3(2, 3, 4), 1.0, &mut rng);
    let build = |g: &Graph, st: &Tensor, vt: &Tensor| {
        let sv = g.input(st.clone());
        let vv = g.input(vt.clone());
        let y = g.softmax_matmul(sv, vv);
        let p = g.input(probe.clone());
        (sv, vv, g.sum_all(g.mul(y, p)))
    };
    let g = Graph::new();
    let (sv, vv, loss) = build(&g, &s, &v);
    let mut store = ParamStore::new();
    g.backward(loss, &mut store);
    let (sc, vc) = (s.clone(), v.clone());
    let num_s = numeric_grad(
        |t| {
            let g2 = Graph::new();
            let (_, _, l) = build(&g2, t, &vc);
            g2.with_value(l, |v| v.item())
        },
        &s,
        1e-2,
    );
    let num_v = numeric_grad(
        |t| {
            let g2 = Graph::new();
            let (_, _, l) = build(&g2, &sc, t);
            g2.with_value(l, |v| v.item())
        },
        &v,
        1e-2,
    );
    assert_close(g.grad(sv).data(), num_s.data(), 3e-2, "fd gscores");
    assert_close(g.grad(vv).data(), num_v.data(), 2e-2, "fd gv");
}
