//! Buffer-pool behaviour over repeated training steps: after a warm-up
//! cycle the thread-local pool must serve every tape allocation (zero new
//! heap allocations in steady state), and pooled runs must be bit-identical
//! to fresh-allocation runs — including gradients — on both backends.
//!
//! Each `#[test]` runs on its own thread, so the thread-local pool state is
//! naturally isolated per test. Tests that flip the process-global backend
//! are serialised behind a mutex.

use came_tensor::{pool, BackendKind, Graph, ParamId, ParamStore, Prng, Shape, Tensor};
use std::sync::Mutex;

const CYCLES: usize = 100;
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

/// One training step of a small but representative model (embedding gather,
/// matmul, layer norm, tanh, softmax residual, BCE) on a reused graph.
/// Returns the loss and both parameter gradients.
fn step(
    g: &mut Graph,
    store: &mut ParamStore,
    ids: (ParamId, ParamId, ParamId),
    x: &Tensor,
    targets: &Tensor,
) -> (f32, Vec<Vec<f32>>) {
    g.reset();
    store.zero_grad();
    let (w1, w2, emb) = ids;
    let xv = g.input(x.clone());
    let e = g.embedding(store, emb, &[2, 0, 1, 2, 0, 1, 0, 2, 1, 0, 1]);
    let h = g.matmul(g.add(xv, e), g.param(store, w1));
    let h = g.layer_norm(h, 1e-6);
    let h = g.tanh(h);
    let logits = g.matmul(h, g.param(store, w2));
    let sm = g.softmax(logits, 1);
    let logits2 = g.add(logits, sm);
    let loss = g.bce_with_logits(logits2, targets);
    let lv = g.with_value(loss, |t| t.item());
    g.backward(loss, store);
    (
        lv,
        vec![
            store.grad(w1).data().to_vec(),
            store.grad(w2).data().to_vec(),
        ],
    )
}

fn fixtures(seed: u64) -> (ParamStore, (ParamId, ParamId, ParamId), Tensor, Tensor) {
    let mut rng = Prng::new(seed);
    let mut store = ParamStore::new();
    let w1 = store.add("w1", Tensor::randn(Shape::d2(6, 9), 0.5, &mut rng));
    let w2 = store.add("w2", Tensor::randn(Shape::d2(9, 5), 0.5, &mut rng));
    let emb = store.add("emb", Tensor::randn(Shape::d2(3, 6), 0.5, &mut rng));
    let x = Tensor::randn(Shape::d2(11, 6), 1.0, &mut rng);
    let targets = Tensor::rand_uniform(Shape::d2(11, 5), 0.0, 1.0, &mut rng).map(|v| {
        if v > 0.5 {
            1.0
        } else {
            0.0
        }
    });
    (store, (w1, w2, emb), x, targets)
}

/// Run `CYCLES` steps with the pool in the given state, returning every
/// (loss, grads) pair.
fn run_cycles(pooled: bool, seed: u64) -> Vec<(f32, Vec<Vec<f32>>)> {
    pool::set_enabled(pooled);
    pool::clear();
    let (mut store, ids, x, targets) = fixtures(seed);
    let mut g = Graph::new();
    let out = (0..CYCLES)
        .map(|_| step(&mut g, &mut store, ids, &x, &targets))
        .collect();
    pool::set_enabled(true);
    out
}

#[test]
fn steady_state_steps_allocate_nothing() {
    pool::set_enabled(true);
    pool::clear();
    let (mut store, ids, x, targets) = fixtures(0xB00);
    let mut g = Graph::new();
    // warm-up: the first cycles populate the free lists
    for _ in 0..3 {
        step(&mut g, &mut store, ids, &x, &targets);
    }
    pool::reset_stats();
    for _ in 0..CYCLES {
        step(&mut g, &mut store, ids, &x, &targets);
    }
    let s = pool::stats();
    assert_eq!(
        s.misses, 0,
        "steady-state steps must be 100% pool hits, got {s:?}"
    );
    assert!(s.hits > 0, "steps must actually exercise the pool: {s:?}");
    assert_eq!(s.hit_rate(), 1.0);
}

#[test]
fn pooled_run_is_bit_identical_to_fresh_allocations() {
    let pooled = run_cycles(true, 0xB01);
    let fresh = run_cycles(false, 0xB01);
    for (i, ((lp, gp), (lf, gf))) in pooled.iter().zip(&fresh).enumerate() {
        assert_eq!(
            lp.to_bits(),
            lf.to_bits(),
            "cycle {i}: loss must be bit-identical"
        );
        assert_eq!(gp, gf, "cycle {i}: gradients must be bit-identical");
    }
}

#[test]
fn pooled_gradients_match_across_backends() {
    let scalar = with_backend(BackendKind::Scalar, || run_cycles(true, 0xB02));
    let kind = BackendKind::Simd;
    let other = with_backend(kind, || run_cycles(true, 0xB02));
    for (i, ((ls, gs), (lp, gp))) in scalar.iter().zip(&other).enumerate() {
        assert!(
            (ls - lp).abs() <= TOL * (1.0 + ls.abs()),
            "{kind:?} cycle {i}: loss {ls} vs {lp}"
        );
        for (which, (a, b)) in gs.iter().zip(gp).enumerate() {
            for (j, (x, y)) in a.iter().zip(b).enumerate() {
                assert!(
                    (x - y).abs() <= TOL * (1.0 + x.abs().max(y.abs())),
                    "{kind:?} cycle {i} grad[{which}][{j}]: {x} vs {y}"
                );
            }
        }
    }
}
