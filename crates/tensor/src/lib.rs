//! # came-tensor
//!
//! A from-scratch deep-learning substrate for the CamE reproduction: dense
//! `f32` tensors, reverse-mode automatic differentiation, common neural-net
//! layers, and the Adam optimiser.
//!
//! The paper trains CamE and thirteen baselines on a GPU framework; this
//! crate replaces that stack with a deterministic, dependency-free CPU
//! implementation that supports exactly the operations the paper's equations
//! require:
//!
//! - batched matrix products and outer products (co-affinity matrices, Eqn. 1)
//! - axis softmax with temperature scaling (Eqns. 2, 5, 8)
//! - sigmoid / tanh / Hadamard products (low-rank bilinear fusion, Eqn. 13)
//! - layer normalisation (exchanging fusion, Eqns. 10–11)
//! - valid 2-D convolution (scoring function, Eqn. 15)
//! - binary cross-entropy with logits over 1-N targets (Eqn. 16)
//!
//! ## Quick example
//!
//! ```
//! use came_tensor::{Graph, ParamStore, Tensor, Shape, Prng, Adam};
//!
//! let mut rng = Prng::new(0);
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::randn(Shape::d2(4, 1), 0.1, &mut rng));
//!
//! // one gradient step of least squares
//! let g = Graph::new();
//! let x = g.input(Tensor::randn(Shape::d2(8, 4), 1.0, &mut rng));
//! let y = g.input(Tensor::randn(Shape::d2(8, 1), 1.0, &mut rng));
//! let wv = g.param(&store, w);
//! let pred = g.matmul(x, wv);
//! let err = g.sub(pred, y);
//! let loss = g.mean_all(g.square(err));
//! g.backward(loss, &mut store);
//! store.adam_step(&Adam::with_lr(1e-2));
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod conv;
pub mod graph;
pub mod message;
pub mod nn;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod store;
pub mod tensor;

/// Serialises tests that toggle the process-global `came_obs` switch.
#[cfg(test)]
pub(crate) fn obs_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

pub use backend::{
    fusion_enabled, infer_tape_free, set_backend, set_fusion, set_infer_tape_free, Activation,
    Backend, BackendKind, ScalarBackend, SimdBackend,
};
pub use graph::{sigmoid, Graph, UnaryKind, Var};
pub use message::{Composition, EdgeIndex};
pub use nn::{Adam, Conv2dLayer, EmbeddingTable, Linear, ParamId, ParamStateView, ParamStore};
pub use rng::Prng;
pub use shape::{Shape, MAX_NDIM};
pub use store::{
    build_store, store_from_blob, DenseF32Store, EmbeddingStore, EntityHead, QuantError,
    QuantizedStore, StoreKind,
};
pub use tensor::Tensor;
