//! Fused-kernel correctness: `gemm_bias_act`, `softmax_matmul`,
//! `outer_attention` and `message_pass` must match their composed unfused
//! counterparts in forward value and gradients, and pass finite-difference
//! gradient checks, on both backends.
//!
//! The composed references are built from the primitive graph ops directly
//! (matmul / add / sigmoid / softmax), so they exercise the unfused code path
//! without touching the process-global fusion switch.

use came_tensor::{
    Activation, BackendKind, Composition, EdgeIndex, Graph, ParamStore, Prng, Shape, Tensor, Var,
};
use std::sync::{Arc, Mutex};

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

// ----- message passing ------------------------------------------------------

/// A seeded relational edge list over `n` nodes and `r` relations with
/// `e` random edges, plus the shapes the index must get right: node `n - 1`
/// has no in-edges, edge 0 appears twice, and node 1 has a self-loop.
fn edge_list(n: usize, r: usize, e: usize, rng: &mut Prng) -> [Vec<u32>; 3] {
    let (mut src, mut rel, mut dst) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..e {
        src.push(rng.below(n) as u32);
        rel.push(rng.below(r) as u32);
        dst.push(rng.below(n - 1) as u32);
    }
    let (s0, r0, d0) = (src[0], rel[0], dst[0]);
    src.extend([s0, 1]);
    rel.extend([r0, (r - 1) as u32]);
    dst.extend([d0, 1]);
    [src, rel, dst]
}

/// The composed oracle for [`Graph::message_pass`] from primitive ops:
/// gather both endpoints' rows, compose, scatter-add by destination, scale.
fn composed_message_pass(
    g: &Graph,
    x: Var,
    z: Var,
    [src, rel, dst]: &[Vec<u32>; 3],
    norm: Var,
    comp: Composition,
) -> Var {
    let xs = g.gather(x, src);
    let zr = g.gather(z, rel);
    let msg = match comp {
        Composition::Sub => g.sub(xs, zr),
        Composition::Mult => g.mul(xs, zr),
    };
    let n = g.shape(x).at(0);
    g.mul(g.scatter_sum(msg, dst, n), norm)
}

/// One message-passing case: values of every layer's aggregate and the
/// final output, plus gradients of `x`, `z` and each layer's weights.
type MpRun = (Vec<Vec<f32>>, Vec<Vec<f32>>);

/// A CompGCN-shaped stack of `layers` message-passing layers, fused or
/// composed: `x ← tanh(agg·W + x·W_loop)`, `z ← z·W_rel`.
fn run_message_stack(
    edges: &[Vec<u32>; 3],
    x: &Tensor,
    z: &Tensor,
    norm: &[f32],
    weights: &[[Tensor; 3]],
    comp: Composition,
    fused: bool,
) -> MpRun {
    let n = x.shape().at(0);
    let index = Arc::new(EdgeIndex::new(
        &edges[0],
        &edges[1],
        &edges[2],
        n,
        z.shape().at(0),
    ));
    let norm_arc: Arc<[f32]> = norm.into();
    let g = Graph::new();
    let (x0, z0) = (g.input(x.clone()), g.input(z.clone()));
    let norm_var = g.input(Tensor::from_vec(Shape::d2(n, 1), norm.to_vec()));
    let (mut xv, mut zv) = (x0, z0);
    let mut values = Vec::new();
    let mut wvars = Vec::new();
    for [w_dir, w_loop, w_rel] in weights {
        let agg = if fused {
            g.message_pass(xv, zv, &index, &norm_arc, comp)
        } else {
            composed_message_pass(&g, xv, zv, edges, norm_var, comp)
        };
        values.push(g.value(agg).data().to_vec());
        let ws = [w_dir, w_loop, w_rel].map(|w| g.input(w.clone()));
        xv = g.tanh(g.add(g.matmul(agg, ws[0]), g.matmul(xv, ws[1])));
        zv = g.matmul(zv, ws[2]);
        wvars.extend(ws);
    }
    values.push(g.value(xv).data().to_vec());
    let loss = g.add(g.sum_all(g.mul(xv, xv)), g.sum_all(zv));
    let mut store = ParamStore::new();
    g.backward(loss, &mut store);
    let grads = [x0, z0]
        .into_iter()
        .chain(wvars)
        .map(|v| g.grad(v).data().to_vec())
        .collect();
    (values, grads)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// The fused op reads no `Backend` kernel, so the portable and detected
/// SIMD levels run the same code; the two backend kinds differ in the
/// fan-out policy (one thread vs the work-stealing pool) and in the GEMMs
/// around it. Bit equality must hold under each.
#[test]
fn message_pass_is_bit_equal_to_composed_and_gradients_match() {
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        with_backend(kind, || {
            let mut rng = Prng::new(0xF6);
            // the last case clears the fan-out threshold, so the simd
            // backend reduces rows on several threads
            for &(n, r, e, d) in &[
                (6usize, 2usize, 9usize, 3usize),
                (40, 5, 200, 8),
                (3000, 7, 40_000, 16),
            ] {
                let edges = edge_list(n, r, e, &mut rng);
                let x = Tensor::randn(Shape::d2(n, d), 1.0, &mut rng);
                let z = Tensor::randn(Shape::d2(r, d), 1.0, &mut rng);
                let norm: Vec<f32> = (0..n).map(|_| rng.uniform() as f32 + 0.1).collect();
                let weights: Vec<[Tensor; 3]> = (0..2)
                    .map(|_| [(); 3].map(|_| Tensor::randn(Shape::d2(d, d), 0.4, &mut rng)))
                    .collect();
                for comp in [Composition::Sub, Composition::Mult] {
                    for layers in [1, 2] {
                        let ws = &weights[..layers];
                        let (vf, gf) = run_message_stack(&edges, &x, &z, &norm, ws, comp, true);
                        let (vu, gu) = run_message_stack(&edges, &x, &z, &norm, ws, comp, false);
                        let name = format!("{kind:?} {comp:?} n={n} e={e} d={d} layers={layers}");
                        for (i, (a, b)) in vf.iter().zip(&vu).enumerate() {
                            assert_eq!(bits(a), bits(b), "{name}: forward value {i} differs");
                        }
                        for (i, (a, b)) in gf.iter().zip(&gu).enumerate() {
                            assert_close(a, b, TOL, &format!("{name}: grad {i}"));
                        }
                        // a row with no in-edges aggregates to exactly +0.0
                        let last = &vf[0][(n - 1) * d..];
                        assert!(last.iter().all(|v| v.to_bits() == 0), "{name}: empty row");
                    }
                }
            }
        });
    }
}

#[test]
fn message_pass_finite_difference() {
    let mut rng = Prng::new(0xF7);
    let (n, r, d) = (5, 3, 3);
    let edges = edge_list(n, r, 8, &mut rng);
    let index = Arc::new(EdgeIndex::new(&edges[0], &edges[1], &edges[2], n, r));
    let norm: Arc<[f32]> = (0..n).map(|v| 1.0 / (1.0 + v as f32)).collect();
    let x = Tensor::randn(Shape::d2(n, d), 1.0, &mut rng);
    let z = Tensor::randn(Shape::d2(r, d), 1.0, &mut rng);
    let probe = Tensor::randn(Shape::d2(n, d), 1.0, &mut rng);
    for comp in [Composition::Sub, Composition::Mult] {
        let build = |g: &Graph, xt: &Tensor, zt: &Tensor| {
            let (xv, zv) = (g.input(xt.clone()), g.input(zt.clone()));
            let y = g.message_pass(xv, zv, &index, &norm, comp);
            let p = g.input(probe.clone());
            (xv, zv, g.sum_all(g.mul(y, p)))
        };
        let g = Graph::new();
        let (xv, zv, loss) = build(&g, &x, &z);
        let mut store = ParamStore::new();
        g.backward(loss, &mut store);
        let eval = |xt: &Tensor, zt: &Tensor| {
            let g2 = Graph::new();
            let (_, _, l) = build(&g2, xt, zt);
            g2.with_value(l, |t| t.item())
        };
        let num_x = numeric_grad(|t| eval(t, &z), &x, 1e-2);
        let num_z = numeric_grad(|t| eval(&x, t), &z, 1e-2);
        assert_close(
            g.grad(xv).data(),
            num_x.data(),
            2e-2,
            &format!("fd gx {comp:?}"),
        );
        assert_close(
            g.grad(zv).data(),
            num_z.data(),
            2e-2,
            &format!("fd gz {comp:?}"),
        );
    }
}
