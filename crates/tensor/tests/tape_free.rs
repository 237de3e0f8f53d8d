//! Tape-free inference mode: `Graph::inference` with the `CAME_INFER` switch
//! on must produce bit-identical forward values to the recording graph while
//! storing no op payloads, and `backward` must refuse to run on it.

use came_tensor::{Activation, BackendKind, Graph, ParamStore, Prng, Shape, Tensor};
use std::sync::Mutex;

// The infer/backend switches are process-global; serialise tests that flip
// them so parallel test threads never observe a foreign setting.
static SWITCH_LOCK: Mutex<()> = Mutex::new(());

fn with_modes<T>(kind: BackendKind, f: impl FnOnce() -> T) -> T {
    let _guard = SWITCH_LOCK.lock().unwrap();
    let prev = came_tensor::backend::kind();
    came_tensor::set_backend(kind);
    came_tensor::set_infer_tape_free(true);
    let out = f();
    came_tensor::set_backend(prev);
    out
}

/// A forward pass exercising every fused op plus embeddings, concat, and
/// dropout, returning the final value under the given graph.
fn forward(g: &Graph, store: &ParamStore, ids: &[u32], rng_seed: u64) -> Vec<f32> {
    let mut rng = Prng::new(rng_seed);
    let mut pids = store.ids();
    let table = pids.next().unwrap();
    let w = pids.next().unwrap();
    drop(pids);
    let e = g.embedding(store, table, ids); // [4, 6]
    let e = g.dropout(e, 0.3, &mut rng); // identity at inference
    let h = g.gemm_bias_act(e, g.param(store, w), None, Activation::Tanh); // [4, 6]
    let a = g.input(Tensor::randn(Shape::d2(2, 3), 1.0, &mut Prng::new(5)));
    let c = g.input(Tensor::randn(Shape::d2(2, 4), 1.0, &mut Prng::new(6)));
    let v = g.input(Tensor::randn(Shape::d3(2, 4, 3), 1.0, &mut Prng::new(7)));
    let att = g.outer_attention(a, c, v, g.constant(0.9)); // [2, 3, 3]
    let s = g.reshape(h, Shape::d3(2, 3, 4));
    let sm = g.softmax_matmul(att, s); // [2, 3, 4]
    let flat = g.reshape(sm, Shape::d2(2, 12));
    let out = g.concat(&[flat, g.input(Tensor::zeros(Shape::d2(2, 2)))], 1);
    g.with_value(out, |t| t.data().to_vec())
}

fn demo_store(rng: &mut Prng) -> ParamStore {
    let mut store = ParamStore::new();
    store.add("table", Tensor::randn(Shape::d2(10, 6), 1.0, rng));
    store.add("w", Tensor::randn(Shape::d2(6, 6), 0.7, rng));
    store
}

#[test]
fn tape_free_forward_is_bit_identical_on_both_backends() {
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        with_modes(kind, || {
            let mut rng = Prng::new(0x7A9E);
            let store = demo_store(&mut rng);
            let ids = [0u32, 3, 7, 9];

            let taped = Graph::inference();
            came_tensor::set_infer_tape_free(true);
            let free = Graph::inference();
            assert!(!free.records_tape());
            came_tensor::set_infer_tape_free(false);
            let recorded = Graph::inference();
            assert!(recorded.records_tape());
            came_tensor::set_infer_tape_free(true);
            assert!(!taped.records_tape());

            let want = forward(&recorded, &store, &ids, 1);
            let got = forward(&free, &store, &ids, 1);
            assert_eq!(got, want, "{kind:?}: tape-free forward must be bit-equal");
        });
    }
}

#[test]
fn tape_free_graph_records_no_parents() {
    with_modes(BackendKind::Scalar, || {
        let mut rng = Prng::new(0x7A9F);
        let store = demo_store(&mut rng);
        let g = Graph::inference();
        assert!(!g.records_tape());
        let _ = forward(&g, &store, &[1, 2, 3, 4], 2);
        // values are still addressable node by node
        assert!(!g.is_empty());
    });
}

#[test]
fn backward_panics_on_tape_free_graph() {
    with_modes(BackendKind::Scalar, || {
        let g = Graph::inference();
        let x = g.input(Tensor::scalar(2.0));
        let y = g.square(x);
        let mut store = ParamStore::new();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.backward(y, &mut store);
        }));
        assert!(err.is_err(), "backward must refuse a tape-free graph");
    });
}

#[test]
fn runtime_switch_restores_taped_inference() {
    with_modes(BackendKind::Scalar, || {
        came_tensor::set_infer_tape_free(false);
        let g = Graph::inference();
        assert!(g.records_tape(), "CAME_INFER off: inference keeps the tape");
        let x = g.input(Tensor::scalar(3.0));
        let y = g.square(x);
        let mut store = ParamStore::new();
        g.backward(y, &mut store); // legal again
        assert_eq!(g.grad(x).item(), 6.0);
        came_tensor::set_infer_tape_free(true);
    });
}
