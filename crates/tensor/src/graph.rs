//! Reverse-mode automatic differentiation.
//!
//! The engine is define-by-run: each training step builds a fresh [`Graph`]
//! of [`Node`]s, computes forward values eagerly, and [`Graph::backward`]
//! walks the tape in reverse accumulating gradients. Model parameters live
//! outside the graph in a [`crate::nn::ParamStore`]; `backward` scatters
//! parameter gradients straight into the store so the optimiser can step.

use std::cell::RefCell;
use std::sync::Arc;

use crate::backend::Activation;
use crate::conv;
use crate::message::{self, Composition, EdgeIndex};
use crate::nn::{ParamId, ParamStore};
use crate::pool::IdBuf;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Handle to a node in a [`Graph`]. Cheap to copy; only valid for the graph
/// that created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Elementwise unary operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnaryKind {
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// Negation.
    Neg,
    /// Elementwise square.
    Square,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
}

#[derive(Clone, Debug)]
enum Op {
    /// Constant input; may still receive a gradient (retrievable via
    /// [`Graph::grad`]) but has no parents.
    Input,
    /// A parameter leaf: gradient is scattered into the [`ParamStore`].
    Param(ParamId),
    /// Row gather from an embedding table parameter.
    Embedding {
        table: ParamId,
        ids: IdBuf,
    },
    /// Scatter-add of rows: `out[ids[i]] += x[i]` over `n` output rows
    /// (message aggregation in graph neural networks).
    ScatterSum {
        x: Var,
        ids: IdBuf,
    },
    /// Row gather from a *computed* 2-D node: `out[i] = x[ids[i]]`.
    Gather {
        x: Var,
        ids: IdBuf,
    },
    /// Fused relational message passing (see [`crate::message`]); the edge
    /// index and normaliser are shared, not copied onto the tape.
    MessagePass {
        x: Var,
        z: Var,
        index: Arc<EdgeIndex>,
        norm: Arc<[f32]>,
        comp: Composition,
    },
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Div(Var, Var),
    Matmul(Var, Var),
    /// Fused `act(x·w + b)` computed by the backend in one pass.
    GemmBiasAct {
        x: Var,
        w: Var,
        b: Option<Var>,
        act: Activation,
    },
    /// Fused row-softmax × value product. `soft` keeps the softmax output
    /// for the backward pass without materialising it as a tape node.
    SoftmaxMatmul {
        scores: Var,
        v: Var,
        soft: Tensor,
    },
    /// Fully fused scaled-outer-product attention
    /// `softmax_rows(a ⊗ c / τ) · v`: neither the score matrix nor the
    /// softmax become tape nodes — only the softmax survives in `soft` for
    /// the backward pass.
    OuterAttention {
        a: Var,
        c: Var,
        v: Var,
        tau: Var,
        soft: Tensor,
    },
    Unary {
        x: Var,
        kind: UnaryKind,
    },
    /// `scale * x + shift` was applied elementwise; only the scale matters
    /// for the backward pass.
    Affine {
        x: Var,
        scale: f32,
    },
    Softmax {
        x: Var,
        axis: usize,
    },
    SumAxis {
        x: Var,
        axis: usize,
        keepdim: bool,
    },
    SumAll {
        x: Var,
    },
    MeanAll {
        x: Var,
    },
    Reshape {
        x: Var,
    },
    Transpose {
        x: Var,
        a: usize,
        b: usize,
    },
    Concat {
        xs: Vec<Var>,
        axis: usize,
    },
    Narrow {
        x: Var,
        axis: usize,
        start: usize,
    },
    Conv2d {
        x: Var,
        w: Var,
        b: Option<Var>,
    },
    /// Layer normalisation over the last axis, no affine parameters.
    LayerNorm {
        x: Var,
        eps: f32,
    },
    /// Dropout; the saved mask already includes the `1/keep` scale.
    Dropout {
        x: Var,
        mask: Tensor,
    },
    /// Mean binary cross-entropy against fixed (multi-hot) targets, applied
    /// to raw logits for numerical stability. Optional per-element weights
    /// (e.g. a 0/1 mask for sampled negatives) rescale each term; the loss is
    /// normalised by the total weight.
    BceWithLogits {
        logits: Var,
        targets: Tensor,
        weights: Option<Tensor>,
    },
}

struct Node {
    value: Tensor,
    op: Op,
}

/// A single-use autodiff tape.
pub struct Graph {
    nodes: RefCell<Vec<Node>>,
    grads: RefCell<Vec<Option<Tensor>>>,
    training: bool,
    /// When false the graph is a pure forward evaluator: node values are
    /// still kept (later ops read their parents by [`Var`] index) but every
    /// op is recorded as a parentless [`Op::Input`], so no id buffers,
    /// target clones, or softmax scratch survive and `backward` is illegal.
    record: bool,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Fresh empty graph in training mode.
    pub fn new() -> Self {
        Graph {
            nodes: RefCell::new(Vec::new()),
            grads: RefCell::new(Vec::new()),
            training: true,
            record: true,
        }
    }

    /// Fresh graph in inference mode: dropout becomes identity and — unless
    /// [`crate::backend::infer_tape_free`] is switched off via `CAME_INFER=0`
    /// — the tape is not recorded (forward values only, no backward).
    pub fn inference() -> Self {
        Graph {
            training: false,
            record: !crate::backend::infer_tape_free(),
            ..Self::new()
        }
    }

    /// Whether dropout and other train-only behaviour is active.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Whether this graph records the backward tape ([`Graph::backward`]
    /// panics when false).
    pub fn records_tape(&self) -> bool {
        self.record
    }

    /// Clear the tape so the graph can be reused for the next step. Dropped
    /// node values and gradients park their buffers in the thread-local
    /// [`crate::pool`], so the next step's allocations become pool hits.
    /// All [`Var`] handles from before the reset are invalidated.
    pub fn reset(&mut self) {
        self.nodes.borrow_mut().clear();
        self.grads.borrow_mut().clear();
    }

    fn push(&self, value: Tensor, op: Op) -> Var {
        debug_assert!(
            !value.has_non_finite(),
            "non-finite values produced by {op:?}"
        );
        let op = if self.record { op } else { Op::Input };
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op });
        Var(nodes.len() - 1)
    }

    /// Build `op` only on a recording graph; tape-free graphs store a
    /// parentless [`Op::Input`] instead, skipping the payload construction
    /// (id-buffer copies, target clones) entirely.
    #[inline]
    fn op_if_recording(&self, op: impl FnOnce() -> Op) -> Op {
        if self.record {
            op()
        } else {
            Op::Input
        }
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True if no nodes have been created.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> Shape {
        self.nodes.borrow()[v.0].value.shape()
    }

    /// Clone of a node's forward value. Prefer [`Graph::with_value`] on hot
    /// paths that only need to read the tensor.
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.0].value.clone()
    }

    /// Borrow a node's forward value without cloning it. The closure must
    /// not create nodes on this graph (the tape is borrowed for its
    /// duration); build any derived nodes outside the closure.
    pub fn with_value<R>(&self, v: Var, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.nodes.borrow()[v.0].value)
    }

    /// Gradient of the last [`Graph::backward`] loss w.r.t. node `v`
    /// (zeros if the node did not participate).
    pub fn grad(&self, v: Var) -> Tensor {
        let grads = self.grads.borrow();
        match grads.get(v.0).and_then(|g| g.clone()) {
            Some(g) => g,
            None => Tensor::zeros(self.shape(v)),
        }
    }

    // ----- leaves --------------------------------------------------------

    /// Insert a constant tensor.
    pub fn input(&self, t: Tensor) -> Var {
        self.push(t, Op::Input)
    }

    /// Insert a scalar constant.
    pub fn constant(&self, v: f32) -> Var {
        self.input(Tensor::scalar(v))
    }

    /// Bring a parameter into the graph (clones its current value).
    pub fn param(&self, store: &ParamStore, id: ParamId) -> Var {
        self.push(store.value(id).clone(), Op::Param(id))
    }

    /// Gather rows `ids` from a 2-D embedding-table parameter; result is
    /// `[ids.len(), d]`.
    pub fn embedding(&self, store: &ParamStore, table: ParamId, ids: &[u32]) -> Var {
        let t = store.value(table);
        assert_eq!(t.shape().ndim(), 2, "embedding table must be 2-D");
        let (n, d) = (t.shape().at(0), t.shape().at(1));
        // every output row is copied below, so the buffer may start stale
        let mut out = Tensor::uninit(Shape::d2(ids.len(), d));
        for (i, &id) in ids.iter().enumerate() {
            let id = id as usize;
            assert!(id < n, "embedding id {id} out of table size {n}");
            out.data_mut()[i * d..(i + 1) * d].copy_from_slice(&t.data()[id * d..(id + 1) * d]);
        }
        self.push(
            out,
            self.op_if_recording(|| Op::Embedding {
                table,
                ids: IdBuf::from_slice(ids),
            }),
        )
    }

    /// Scatter-add rows of `x: [E, d]` into an `[n, d]` output:
    /// `out[ids[i], :] += x[i, :]`. The aggregation step of a composed
    /// message-passing layer; CompGCN uses the fused
    /// [`Graph::message_pass`], which this op serves as a test oracle for.
    ///
    /// # Panics
    /// Panics if `x` is not 2-D, `ids.len() != E`, or an id is `>= n`.
    pub fn scatter_sum(&self, x: Var, ids: &[u32], n: usize) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let t = &nodes[x.0].value;
            assert_eq!(t.shape().ndim(), 2, "scatter_sum input must be 2-D");
            let (e, d) = (t.shape().at(0), t.shape().at(1));
            assert_eq!(ids.len(), e, "scatter_sum ids length mismatch");
            let mut out = Tensor::zeros(Shape::d2(n, d));
            for (row, &id) in ids.iter().enumerate() {
                assert!((id as usize) < n, "scatter id {id} out of {n}");
                let dst = &mut out.data_mut()[id as usize * d..(id as usize + 1) * d];
                let src = &t.data()[row * d..(row + 1) * d];
                for (a, b) in dst.iter_mut().zip(src) {
                    *a += b;
                }
            }
            out
        };
        self.push(
            v,
            self.op_if_recording(|| Op::ScatterSum {
                x,
                ids: IdBuf::from_slice(ids),
            }),
        )
    }

    /// Gather rows of a computed 2-D value: `out[i, :] = x[ids[i], :]`.
    /// (For parameter tables prefer [`Graph::embedding`], which skips
    /// materialising the full table on the tape.)
    ///
    /// # Panics
    /// Panics if `x` is not 2-D or an id is out of range.
    pub fn gather(&self, x: Var, ids: &[u32]) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let t = &nodes[x.0].value;
            assert_eq!(t.shape().ndim(), 2, "gather input must be 2-D");
            let (n, d) = (t.shape().at(0), t.shape().at(1));
            // every output row is copied below, so the buffer may start stale
            let mut out = Tensor::uninit(Shape::d2(ids.len(), d));
            for (row, &id) in ids.iter().enumerate() {
                assert!((id as usize) < n, "gather id {id} out of {n}");
                out.data_mut()[row * d..(row + 1) * d]
                    .copy_from_slice(&t.data()[id as usize * d..(id as usize + 1) * d]);
            }
            out
        };
        self.push(
            v,
            self.op_if_recording(|| Op::Gather {
                x,
                ids: IdBuf::from_slice(ids),
            }),
        )
    }

    /// Fused message passing over `index`:
    /// `out[v] = norm[v] · Σ_{e: dst_e = v} φ(x[src_e], z[rel_e])` for node
    /// features `x: [N, d]` and relation features `z: [R, d]`, where `φ` is
    /// `comp`. No `[E, d]` tensor is built, forward or backward: the
    /// backward recomputes each edge's message. The value is bit-equal to
    /// the composed `gather` → compose → [`Graph::scatter_sum`] → `mul(norm)`
    /// chain (see the edge-order contract in [`crate::message`]).
    ///
    /// # Panics
    /// Panics if `x` or `z` is not 2-D with `index`'s row counts and a
    /// shared width, or `norm` does not have one entry per node.
    pub fn message_pass(
        &self,
        x: Var,
        z: Var,
        index: &Arc<EdgeIndex>,
        norm: &Arc<[f32]>,
        comp: Composition,
    ) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let (xv, zv) = (&nodes[x.0].value, &nodes[z.0].value);
            let (n, d) = check_message_shapes(xv, zv, index, norm);
            let mut out = Tensor::zeros(Shape::d2(n, d));
            message::forward(index, xv.data(), zv.data(), norm, comp, d, out.data_mut());
            out
        };
        self.push(
            v,
            self.op_if_recording(|| Op::MessagePass {
                x,
                z,
                index: Arc::clone(index),
                norm: Arc::clone(norm),
                comp,
            }),
        )
    }

    // ----- binary elementwise (broadcasting) ------------------------------

    /// Elementwise sum with broadcasting.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0]
                .value
                .zip_broadcast(&nodes[b.0].value, |x, y| x + y)
        };
        self.push(v, Op::Add(a, b))
    }

    /// Elementwise difference with broadcasting.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0]
                .value
                .zip_broadcast(&nodes[b.0].value, |x, y| x - y)
        };
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise (Hadamard) product with broadcasting.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0]
                .value
                .zip_broadcast(&nodes[b.0].value, |x, y| x * y)
        };
        self.push(v, Op::Mul(a, b))
    }

    /// Elementwise quotient with broadcasting.
    pub fn div(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0]
                .value
                .zip_broadcast(&nodes[b.0].value, |x, y| x / y)
        };
        self.push(v, Op::Div(a, b))
    }

    // ----- unary ----------------------------------------------------------

    fn unary(&self, x: Var, kind: UnaryKind) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let t = &nodes[x.0].value;
            match kind {
                UnaryKind::Sigmoid => t.map(sigmoid),
                UnaryKind::Tanh => t.map(f32::tanh),
                UnaryKind::Relu => t.map(|v| v.max(0.0)),
                UnaryKind::Exp => t.map(f32::exp),
                UnaryKind::Ln => t.map(f32::ln),
                UnaryKind::Sqrt => t.map(f32::sqrt),
                UnaryKind::Abs => t.map(f32::abs),
                UnaryKind::Neg => t.map(|v| -v),
                UnaryKind::Square => t.map(|v| v * v),
                UnaryKind::Sin => t.map(f32::sin),
                UnaryKind::Cos => t.map(f32::cos),
            }
        };
        self.push(v, Op::Unary { x, kind })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self, x: Var) -> Var {
        self.unary(x, UnaryKind::Sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, x: Var) -> Var {
        self.unary(x, UnaryKind::Tanh)
    }

    /// Rectified linear unit.
    pub fn relu(&self, x: Var) -> Var {
        self.unary(x, UnaryKind::Relu)
    }

    /// Elementwise exponential.
    pub fn exp(&self, x: Var) -> Var {
        self.unary(x, UnaryKind::Exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self, x: Var) -> Var {
        self.unary(x, UnaryKind::Ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self, x: Var) -> Var {
        self.unary(x, UnaryKind::Sqrt)
    }

    /// Elementwise absolute value.
    pub fn abs(&self, x: Var) -> Var {
        self.unary(x, UnaryKind::Abs)
    }

    /// Elementwise negation.
    pub fn neg(&self, x: Var) -> Var {
        self.unary(x, UnaryKind::Neg)
    }

    /// Elementwise square.
    pub fn square(&self, x: Var) -> Var {
        self.unary(x, UnaryKind::Square)
    }

    /// Elementwise sine.
    pub fn sin(&self, x: Var) -> Var {
        self.unary(x, UnaryKind::Sin)
    }

    /// Elementwise cosine.
    pub fn cos(&self, x: Var) -> Var {
        self.unary(x, UnaryKind::Cos)
    }

    /// `scale * x + shift` with scalar constants.
    pub fn affine(&self, x: Var, scale: f32, shift: f32) -> Var {
        let v = self.nodes.borrow()[x.0].value.map(|v| scale * v + shift);
        self.push(v, Op::Affine { x, scale })
    }

    /// Multiply by a scalar constant.
    pub fn scale(&self, x: Var, s: f32) -> Var {
        self.affine(x, s, 0.0)
    }

    // ----- structural -----------------------------------------------------

    /// Reshape to an equal-element-count shape.
    pub fn reshape(&self, x: Var, shape: Shape) -> Var {
        let v = self.nodes.borrow()[x.0].value.reshape(shape);
        self.push(v, Op::Reshape { x })
    }

    /// Swap two axes.
    pub fn transpose(&self, x: Var, a: usize, b: usize) -> Var {
        let v = self.nodes.borrow()[x.0].value.transpose(a, b);
        self.push(v, Op::Transpose { x, a, b })
    }

    /// Concatenate along `axis`.
    pub fn concat(&self, xs: &[Var], axis: usize) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let parts: Vec<&Tensor> = xs.iter().map(|v| &nodes[v.0].value).collect();
            Tensor::concat(&parts, axis)
        };
        self.push(
            v,
            self.op_if_recording(|| Op::Concat {
                xs: xs.to_vec(),
                axis,
            }),
        )
    }

    /// Slice `len` entries from `start` along `axis`.
    pub fn narrow(&self, x: Var, axis: usize, start: usize, len: usize) -> Var {
        let v = self.nodes.borrow()[x.0].value.narrow(axis, start, len);
        self.push(v, Op::Narrow { x, axis, start })
    }

    // ----- linear algebra ---------------------------------------------------

    /// Matrix multiply (see [`Tensor::matmul`] for supported rank pairs).
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            nodes[a.0].value.matmul(&nodes[b.0].value)
        };
        self.push(v, Op::Matmul(a, b))
    }

    /// Softmax along `axis`.
    pub fn softmax(&self, x: Var, axis: usize) -> Var {
        let v = self.nodes.borrow()[x.0].value.softmax_axis(axis);
        self.push(v, Op::Softmax { x, axis })
    }

    /// Fused `act(x·w + b)`: GEMM, bias add, and activation in one backend
    /// pass (one tape node instead of three). `x` is `[m, k]` or `[B, m, k]`,
    /// `w` is `[k, n]`, and `b` — when present — has `n` elements. Falls back
    /// to the composed unfused ops when [`crate::backend::fusion_enabled`]
    /// is off; both paths produce bit-identical values and gradients.
    pub fn gemm_bias_act(&self, x: Var, w: Var, b: Option<Var>, act: Activation) -> Var {
        if !crate::backend::fusion_enabled() {
            let y = self.matmul(x, w);
            let y = match b {
                Some(bv) => self.add(y, bv),
                None => y,
            };
            return match act {
                Activation::Identity => y,
                Activation::Sigmoid => self.sigmoid(y),
                Activation::Tanh => self.tanh(y),
                Activation::Relu => self.relu(y),
            };
        }
        let v = {
            let nodes = self.nodes.borrow();
            let xv = &nodes[x.0].value;
            let wv = &nodes[w.0].value;
            assert_eq!(wv.shape().ndim(), 2, "gemm_bias_act weight must be 2-D");
            let (k, n) = (wv.shape().at(0), wv.shape().at(1));
            let out_shape = match xv.shape().ndim() {
                2 => {
                    assert_eq!(xv.shape().at(1), k, "gemm_bias_act inner dim mismatch");
                    Shape::d2(xv.shape().at(0), n)
                }
                3 => {
                    assert_eq!(xv.shape().at(2), k, "gemm_bias_act inner dim mismatch");
                    Shape::d3(xv.shape().at(0), xv.shape().at(1), n)
                }
                _ => panic!("gemm_bias_act input must be 2-D or 3-D"),
            };
            let m = if k == 0 { 0 } else { xv.numel() / k };
            let bias = b.map(|bv| &nodes[bv.0].value);
            if let Some(bt) = bias {
                assert_eq!(bt.numel(), n, "gemm_bias_act bias must have n elements");
            }
            let mut out = Tensor::zeros(out_shape);
            crate::backend::active().gemm_bias_act(
                xv.data(),
                wv.data(),
                bias.map(|t| t.data()),
                out.data_mut(),
                m,
                k,
                n,
                act,
            );
            out
        };
        self.push(v, Op::GemmBiasAct { x, w, b, act })
    }

    /// Fused attention application `softmax(scores, axis=2) · v` for 3-D
    /// `scores: [B, m, k]` and `v: [B, k, n]`. The softmax output never
    /// materialises as a tape node — the backend writes it into pooled
    /// scratch saved for the backward pass. Falls back to composed
    /// softmax + matmul when [`crate::backend::fusion_enabled`] is off;
    /// both paths produce bit-identical values and gradients.
    pub fn softmax_matmul(&self, scores: Var, v: Var) -> Var {
        if !crate::backend::fusion_enabled() {
            let soft = self.softmax(scores, 2);
            return self.matmul(soft, v);
        }
        let (out, soft) = {
            let nodes = self.nodes.borrow();
            let sv = &nodes[scores.0].value;
            let vv = &nodes[v.0].value;
            assert_eq!(sv.shape().ndim(), 3, "softmax_matmul scores must be 3-D");
            assert_eq!(vv.shape().ndim(), 3, "softmax_matmul values must be 3-D");
            let (batch, m, k) = (sv.shape().at(0), sv.shape().at(1), sv.shape().at(2));
            assert_eq!(vv.shape().at(0), batch, "softmax_matmul batch mismatch");
            assert_eq!(vv.shape().at(1), k, "softmax_matmul inner dim mismatch");
            let n = vv.shape().at(2);
            let mut out = Tensor::zeros(Shape::d3(batch, m, n));
            if !self.record {
                // tape-free: the softmax lives in a recycled per-row scratch
                crate::backend::active().softmax_matmul_fwd(
                    sv.data(),
                    vv.data(),
                    out.data_mut(),
                    batch,
                    m,
                    k,
                    n,
                );
                (out, None)
            } else {
                // every soft row is written by the kernel before use
                let mut soft = Tensor::uninit(sv.shape());
                crate::backend::active().softmax_matmul(
                    sv.data(),
                    vv.data(),
                    soft.data_mut(),
                    out.data_mut(),
                    batch,
                    m,
                    k,
                    n,
                );
                (out, Some(soft))
            }
        };
        match soft {
            Some(soft) => self.push(out, Op::SoftmaxMatmul { scores, v, soft }),
            None => self.push(out, Op::Input),
        }
    }

    /// Fully fused TCA attention term `softmax_rows(a ⊗ c / τ) · v` for
    /// `a: [B, m]`, `c: [B, k]`, `v: [B, k, n]` and a scalar temperature
    /// node `tau`. The `[B, m, k]` outer-product score matrix is built row
    /// by row inside the kernel and never materialises; gradients flow to
    /// all four inputs, including the learnable `τ`. Falls back to the
    /// composed outer-product → divide → softmax → matmul chain when
    /// [`crate::backend::fusion_enabled`] is off; the two paths agree to
    /// float rounding (the kernel hoists the `/τ` out of the inner loop),
    /// within the 1e-5 budget `tests/fused_ops.rs` pins.
    pub fn outer_attention(&self, a: Var, c: Var, v: Var, tau: Var) -> Var {
        if !crate::backend::fusion_enabled() {
            let (b, m) = {
                let s = self.shape(a);
                (s.at(0), s.at(1))
            };
            let k = self.shape(c).at(1);
            let col = self.reshape(a, Shape::d3(b, m, 1));
            let row = self.reshape(c, Shape::d3(b, 1, k));
            let scores = self.div(self.mul(col, row), tau);
            return self.softmax_matmul(scores, v);
        }
        let (out, soft) = {
            let nodes = self.nodes.borrow();
            let av = &nodes[a.0].value;
            let cv = &nodes[c.0].value;
            let vv = &nodes[v.0].value;
            let tv = &nodes[tau.0].value;
            assert_eq!(av.shape().ndim(), 2, "outer_attention a must be 2-D");
            assert_eq!(cv.shape().ndim(), 2, "outer_attention c must be 2-D");
            assert_eq!(vv.shape().ndim(), 3, "outer_attention v must be 3-D");
            assert_eq!(tv.numel(), 1, "outer_attention tau must be scalar");
            let (batch, m) = (av.shape().at(0), av.shape().at(1));
            let k = cv.shape().at(1);
            assert_eq!(cv.shape().at(0), batch, "outer_attention batch mismatch");
            assert_eq!(vv.shape().at(0), batch, "outer_attention batch mismatch");
            assert_eq!(vv.shape().at(1), k, "outer_attention inner dim mismatch");
            let n = vv.shape().at(2);
            let mut out = Tensor::zeros(Shape::d3(batch, m, n));
            if !self.record {
                // tape-free: the softmax lives in a recycled per-row scratch
                crate::backend::active().outer_attention_fwd(
                    av.data(),
                    cv.data(),
                    vv.data(),
                    tv.data()[0],
                    out.data_mut(),
                    batch,
                    m,
                    k,
                    n,
                );
                (out, None)
            } else {
                // every soft row is written by the kernel before use
                let mut soft = Tensor::uninit(Shape::d3(batch, m, k));
                crate::backend::active().outer_attention(
                    av.data(),
                    cv.data(),
                    vv.data(),
                    tv.data()[0],
                    soft.data_mut(),
                    out.data_mut(),
                    batch,
                    m,
                    k,
                    n,
                );
                (out, Some(soft))
            }
        };
        match soft {
            Some(soft) => self.push(out, Op::OuterAttention { a, c, v, tau, soft }),
            None => self.push(out, Op::Input),
        }
    }

    // ----- reductions -------------------------------------------------------

    /// Sum along an axis.
    pub fn sum_axis(&self, x: Var, axis: usize, keepdim: bool) -> Var {
        let v = self.nodes.borrow()[x.0].value.sum_axis(axis, keepdim);
        self.push(v, Op::SumAxis { x, axis, keepdim })
    }

    /// Sum of all elements (scalar node).
    pub fn sum_all(&self, x: Var) -> Var {
        let v = Tensor::scalar(self.nodes.borrow()[x.0].value.sum());
        self.push(v, Op::SumAll { x })
    }

    /// Mean of all elements (scalar node).
    pub fn mean_all(&self, x: Var) -> Var {
        let v = Tensor::scalar(self.nodes.borrow()[x.0].value.mean());
        self.push(v, Op::MeanAll { x })
    }

    // ----- neural-net specific ------------------------------------------------

    /// Valid (unpadded) stride-1 2-D convolution. `x: [B,C,H,W]`,
    /// `w: [F,C,kh,kw]`, optional bias `[F]`.
    pub fn conv2d(&self, x: Var, w: Var, b: Option<Var>) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            conv::conv2d_forward(
                &nodes[x.0].value,
                &nodes[w.0].value,
                b.map(|bv| nodes[bv.0].value.clone()).as_ref(),
            )
        };
        self.push(v, Op::Conv2d { x, w, b })
    }

    /// Layer normalisation over the last axis (no affine parameters).
    pub fn layer_norm(&self, x: Var, eps: f32) -> Var {
        let v = layer_norm_forward(&self.nodes.borrow()[x.0].value, eps);
        self.push(v, Op::LayerNorm { x, eps })
    }

    /// Inverted dropout with keep-probability `1 - p`. Identity in inference
    /// graphs or when `p == 0`.
    pub fn dropout(&self, x: Var, p: f32, rng: &mut crate::rng::Prng) -> Var {
        if !self.training || p <= 0.0 {
            return x;
        }
        assert!(p < 1.0, "dropout probability must be < 1");
        let shape = self.shape(x);
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        // every element is assigned below
        let mut mask = Tensor::uninit(shape);
        for m in mask.data_mut() {
            *m = if rng.chance(keep as f64) { scale } else { 0.0 };
        }
        let v = {
            let nodes = self.nodes.borrow();
            nodes[x.0].value.zip_broadcast(&mask, |a, b| a * b)
        };
        self.push(v, Op::Dropout { x, mask })
    }

    /// Mean binary cross-entropy with logits against fixed targets of the
    /// same shape. Numerically stable: never materialises `sigmoid(z)` inside
    /// a logarithm.
    pub fn bce_with_logits(&self, logits: Var, targets: &Tensor) -> Var {
        self.bce_impl(logits, targets, None)
    }

    /// Weighted binary cross-entropy with logits: each element's loss is
    /// multiplied by `weights` and the total is normalised by `sum(weights)`.
    /// A 0/1 mask implements the paper's 1-to-k sampled negative scoring.
    ///
    /// # Panics
    /// Panics if all weights are zero or shapes mismatch.
    pub fn bce_with_logits_weighted(&self, logits: Var, targets: &Tensor, weights: &Tensor) -> Var {
        self.bce_impl(logits, targets, Some(weights.clone()))
    }

    fn bce_impl(&self, logits: Var, targets: &Tensor, weights: Option<Tensor>) -> Var {
        let v = {
            let nodes = self.nodes.borrow();
            let z = &nodes[logits.0].value;
            assert_eq!(z.shape(), targets.shape(), "bce target shape mismatch");
            if let Some(w) = &weights {
                assert_eq!(z.shape(), w.shape(), "bce weight shape mismatch");
            }
            let be = crate::backend::active();
            // elementwise loss, then a weighted (dot) or plain (sum) fold;
            // the scratch is fully overwritten, so a stale pooled buffer is fine
            let mut elem = crate::pool::alloc_uninit(z.numel());
            be.run3(z.data(), targets.data(), &mut elem, &|zs, ys, dst| {
                for ((o, &zi), &yi) in dst.iter_mut().zip(zs).zip(ys) {
                    *o = zi.max(0.0) - zi * yi + (-zi.abs()).exp().ln_1p();
                }
            });
            let (total, denom) = match &weights {
                Some(w) => (be.dot(&elem, w.data()), be.sum(w.data())),
                None => (be.sum(&elem), z.numel() as f32),
            };
            crate::pool::recycle(elem);
            assert!(denom > 0.0, "bce weights sum to zero");
            Tensor::scalar(total / denom)
        };
        self.push(
            v,
            self.op_if_recording(|| Op::BceWithLogits {
                logits,
                targets: targets.clone(),
                weights,
            }),
        )
    }

    // ----- backward ------------------------------------------------------------

    /// Reverse pass from scalar `loss`. Parameter gradients accumulate into
    /// `store`; other node gradients are retrievable via [`Graph::grad`].
    ///
    /// # Panics
    /// Panics if `loss` is not a scalar node, or if the graph was built
    /// tape-free (see [`Graph::inference`]).
    pub fn backward(&self, loss: Var, store: &mut ParamStore) {
        assert!(
            self.record,
            "backward on a tape-free inference graph; use Graph::new() (or \
             set CAME_INFER=0 / came_tensor::set_infer_tape_free(false))"
        );
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[loss.0].value.numel(),
            1,
            "backward must start from a scalar loss"
        );
        // Reuse the grads storage across backward calls; Tensors dropped by
        // clear() park their buffers in the pool for this pass to reclaim.
        let mut grads = self.grads.borrow_mut();
        grads.clear();
        grads.resize_with(nodes.len(), || None);
        grads[loss.0] = Some(Tensor::scalar(1.0));

        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            let node = &nodes[i];
            match &node.op {
                Op::Input => {
                    grads[i] = Some(g);
                    continue;
                }
                Op::Param(pid) => {
                    store.grad_mut(*pid).add_assign(&g);
                }
                Op::Embedding { table, ids } => {
                    let d = node.value.shape().at(1);
                    let gt = store.grad_mut(*table);
                    for (row, &id) in ids.iter().enumerate() {
                        let dst = &mut gt.data_mut()[id as usize * d..(id as usize + 1) * d];
                        let src = &g.data()[row * d..(row + 1) * d];
                        for (a, b) in dst.iter_mut().zip(src) {
                            *a += b;
                        }
                    }
                }
                Op::ScatterSum { x, ids } => {
                    // gradient gathers back the scattered rows
                    let d = node.value.shape().at(1);
                    let mut gx = Tensor::zeros(nodes[x.0].value.shape());
                    for (row, &id) in ids.iter().enumerate() {
                        let src = &g.data()[id as usize * d..(id as usize + 1) * d];
                        gx.data_mut()[row * d..(row + 1) * d].copy_from_slice(src);
                    }
                    accum(&mut grads, *x, gx);
                }
                Op::Gather { x, ids } => {
                    let d = node.value.shape().at(1);
                    let mut gx = Tensor::zeros(nodes[x.0].value.shape());
                    for (row, &id) in ids.iter().enumerate() {
                        let dst = &mut gx.data_mut()[id as usize * d..(id as usize + 1) * d];
                        let src = &g.data()[row * d..(row + 1) * d];
                        for (a, b) in dst.iter_mut().zip(src) {
                            *a += b;
                        }
                    }
                    accum(&mut grads, *x, gx);
                }
                Op::MessagePass {
                    x,
                    z,
                    index,
                    norm,
                    comp,
                } => {
                    let (xv, zv) = (&nodes[x.0].value, &nodes[z.0].value);
                    let d = xv.shape().at(1);
                    let mut gx = Tensor::zeros(xv.shape());
                    let mut gz = Tensor::zeros(zv.shape());
                    message::backward(
                        index,
                        xv.data(),
                        zv.data(),
                        norm,
                        *comp,
                        d,
                        g.data(),
                        gx.data_mut(),
                        gz.data_mut(),
                    );
                    accum(&mut grads, *z, gz);
                    accum(&mut grads, *x, gx);
                }
                Op::Add(a, b) => {
                    accum(&mut grads, *a, g.sum_to(nodes[a.0].value.shape()));
                    accum(&mut grads, *b, g.sum_to(nodes[b.0].value.shape()));
                }
                Op::Sub(a, b) => {
                    accum(&mut grads, *a, g.sum_to(nodes[a.0].value.shape()));
                    accum(
                        &mut grads,
                        *b,
                        g.map(|v| -v).sum_to(nodes[b.0].value.shape()),
                    );
                }
                Op::Mul(a, b) => {
                    let ga = g.zip_broadcast(&nodes[b.0].value, |x, y| x * y);
                    let gb = g.zip_broadcast(&nodes[a.0].value, |x, y| x * y);
                    accum(&mut grads, *a, ga.sum_to(nodes[a.0].value.shape()));
                    accum(&mut grads, *b, gb.sum_to(nodes[b.0].value.shape()));
                }
                Op::Div(a, b) => {
                    let bv = &nodes[b.0].value;
                    let ga = g.zip_broadcast(bv, |x, y| x / y);
                    // db = -g * a / b^2
                    let gb = g
                        .zip_broadcast(&nodes[a.0].value, |x, y| x * y)
                        .zip_broadcast(bv, |x, y| -x / (y * y));
                    accum(&mut grads, *a, ga.sum_to(nodes[a.0].value.shape()));
                    accum(&mut grads, *b, gb.sum_to(nodes[b.0].value.shape()));
                }
                Op::Matmul(a, b) => {
                    let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
                    let (ga, gb) = matmul_backward(av, bv, &g);
                    accum(&mut grads, *a, ga);
                    accum(&mut grads, *b, gb);
                }
                Op::GemmBiasAct { x, w, b, act } => {
                    // activation backward via the saved post-activation value,
                    // then the plain matmul/bias backward on the pre-act grad
                    let y = &node.value;
                    let gz = match act {
                        Activation::Identity => g.clone(),
                        Activation::Sigmoid => g.zip_broadcast(y, |go, y| go * y * (1.0 - y)),
                        Activation::Tanh => g.zip_broadcast(y, |go, y| go * (1.0 - y * y)),
                        Activation::Relu => {
                            // y > 0 iff pre-activation > 0
                            g.zip_broadcast(y, |go, y| if y > 0.0 { go } else { 0.0 })
                        }
                    };
                    if let Some(bv) = b {
                        accum(&mut grads, *bv, gz.sum_to(nodes[bv.0].value.shape()));
                    }
                    let (gx, gw) = matmul_backward(&nodes[x.0].value, &nodes[w.0].value, &gz);
                    accum(&mut grads, *x, gx);
                    accum(&mut grads, *w, gw);
                }
                Op::SoftmaxMatmul { scores, v, soft } => {
                    // identical to composed softmax(axis=2) + matmul backward,
                    // reading the softmax output from the saved scratch
                    let vv = &nodes[v.0].value;
                    let gv = soft.transpose(1, 2).matmul(&g);
                    let gsoft = g.matmul(&vv.transpose(1, 2));
                    let gy = gsoft.zip_broadcast(soft, |a, b| a * b);
                    let s = gy.sum_axis(2, true);
                    let gs = gsoft
                        .zip_broadcast(&s, |a, b| a - b)
                        .zip_broadcast(soft, |a, b| a * b);
                    accum(&mut grads, *scores, gs);
                    accum(&mut grads, *v, gv);
                }
                Op::OuterAttention { a, c, v, tau, soft } => {
                    let av = &nodes[a.0].value;
                    let cv = &nodes[c.0].value;
                    let vv = &nodes[v.0].value;
                    let (batch, m) = (av.shape().at(0), av.shape().at(1));
                    let k = cv.shape().at(1);
                    let n = vv.shape().at(2);
                    let mut ga = Tensor::zeros(av.shape());
                    let mut gc = Tensor::zeros(cv.shape());
                    let mut gv = Tensor::zeros(vv.shape());
                    let gtau = crate::backend::active().outer_attention_backward(
                        av.data(),
                        cv.data(),
                        vv.data(),
                        soft.data(),
                        g.data(),
                        nodes[tau.0].value.data()[0],
                        ga.data_mut(),
                        gc.data_mut(),
                        gv.data_mut(),
                        batch,
                        m,
                        k,
                        n,
                    );
                    accum(&mut grads, *a, ga);
                    accum(&mut grads, *c, gc);
                    accum(&mut grads, *v, gv);
                    accum(
                        &mut grads,
                        *tau,
                        Tensor::full(nodes[tau.0].value.shape(), gtau),
                    );
                }
                Op::Unary { x, kind } => {
                    let xv = &nodes[x.0].value;
                    let yv = &node.value;
                    let gx = match kind {
                        UnaryKind::Sigmoid => g.zip_broadcast(yv, |go, y| go * y * (1.0 - y)),
                        UnaryKind::Tanh => g.zip_broadcast(yv, |go, y| go * (1.0 - y * y)),
                        UnaryKind::Relu => {
                            g.zip_broadcast(xv, |go, x| if x > 0.0 { go } else { 0.0 })
                        }
                        UnaryKind::Exp => g.zip_broadcast(yv, |go, y| go * y),
                        UnaryKind::Ln => g.zip_broadcast(xv, |go, x| go / x),
                        UnaryKind::Sqrt => g.zip_broadcast(yv, |go, y| go * 0.5 / y),
                        UnaryKind::Abs => g.zip_broadcast(xv, |go, x| go * x.signum()),
                        UnaryKind::Neg => g.map(|v| -v),
                        UnaryKind::Square => g.zip_broadcast(xv, |go, x| go * 2.0 * x),
                        UnaryKind::Sin => g.zip_broadcast(xv, |go, x| go * x.cos()),
                        UnaryKind::Cos => g.zip_broadcast(xv, |go, x| -go * x.sin()),
                    };
                    accum(&mut grads, *x, gx);
                }
                Op::Affine { x, scale } => {
                    accum(&mut grads, *x, g.map(|v| v * scale));
                }
                Op::Softmax { x, axis } => {
                    // dx = y * (g - sum(g*y, axis))
                    let y = &node.value;
                    let gy = g.zip_broadcast(y, |a, b| a * b);
                    let s = gy.sum_axis(*axis, true);
                    let gx = g
                        .zip_broadcast(&s, |a, b| a - b)
                        .zip_broadcast(y, |a, b| a * b);
                    accum(&mut grads, *x, gx);
                }
                Op::SumAxis { x, axis, keepdim } => {
                    let xs = nodes[x.0].value.shape();
                    let gk = if *keepdim {
                        g.clone()
                    } else {
                        g.reshape(xs.reduce(*axis, true))
                    };
                    let gx = gk.zip_broadcast(&Tensor::zeros(xs), |a, _| a);
                    accum(&mut grads, *x, gx);
                }
                Op::SumAll { x } => {
                    let gx = Tensor::full(nodes[x.0].value.shape(), g.item());
                    accum(&mut grads, *x, gx);
                }
                Op::MeanAll { x } => {
                    let n = nodes[x.0].value.numel() as f32;
                    let gx = Tensor::full(nodes[x.0].value.shape(), g.item() / n);
                    accum(&mut grads, *x, gx);
                }
                Op::Reshape { x } => {
                    accum(&mut grads, *x, g.reshape(nodes[x.0].value.shape()));
                }
                Op::Transpose { x, a, b } => {
                    accum(&mut grads, *x, g.transpose(*a, *b));
                }
                Op::Concat { xs, axis } => {
                    let mut start = 0;
                    for part in xs {
                        let len = nodes[part.0].value.shape().at(*axis);
                        accum(&mut grads, *part, g.narrow(*axis, start, len));
                        start += len;
                    }
                }
                Op::Narrow { x, axis, start } => {
                    let mut gx = Tensor::zeros(nodes[x.0].value.shape());
                    gx.narrow_add_assign(*axis, *start, &g);
                    accum(&mut grads, *x, gx);
                }
                Op::Conv2d { x, w, b } => {
                    let (gx, gw, gb) =
                        conv::conv2d_backward(&nodes[x.0].value, &nodes[w.0].value, &g);
                    accum(&mut grads, *x, gx);
                    accum(&mut grads, *w, gw);
                    if let Some(bv) = b {
                        accum(&mut grads, *bv, gb);
                    }
                }
                Op::LayerNorm { x, eps } => {
                    let gx = layer_norm_backward(&nodes[x.0].value, &g, *eps);
                    accum(&mut grads, *x, gx);
                }
                Op::Dropout { x, mask } => {
                    accum(&mut grads, *x, g.zip_broadcast(mask, |a, b| a * b));
                }
                Op::BceWithLogits {
                    logits,
                    targets,
                    weights,
                } => {
                    let z = &nodes[logits.0].value;
                    let denom = weights
                        .as_ref()
                        .map_or(z.numel() as f32, |w| w.data().iter().sum());
                    let scale = g.item() / denom;
                    let mut gz = z.zip_broadcast(targets, move |z, y| scale * (sigmoid(z) - y));
                    if let Some(w) = weights {
                        gz = gz.zip_broadcast(w, |a, b| a * b);
                    }
                    accum(&mut grads, *logits, gz);
                }
            }
        }
    }
}

/// Validate [`Graph::message_pass`] operands; returns `(nodes, width)`.
fn check_message_shapes(x: &Tensor, z: &Tensor, index: &EdgeIndex, norm: &[f32]) -> (usize, usize) {
    assert_eq!(x.shape().ndim(), 2, "message_pass x must be 2-D");
    assert_eq!(z.shape().ndim(), 2, "message_pass z must be 2-D");
    let (n, d) = (x.shape().at(0), x.shape().at(1));
    assert_eq!(n, index.num_nodes(), "message_pass x rows != index nodes");
    assert_eq!(
        z.shape().at(0),
        index.num_rels(),
        "message_pass z rows != index relations"
    );
    assert_eq!(z.shape().at(1), d, "message_pass x/z width mismatch");
    assert_eq!(norm.len(), n, "message_pass norm needs one entry per node");
    (n, d)
}

fn accum(grads: &mut [Option<Tensor>], v: Var, g: Tensor) {
    match &mut grads[v.0] {
        Some(acc) => acc.add_assign(&g),
        slot => *slot = Some(g),
    }
}

/// Logistic sigmoid (numerically stable for large |x|).
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

fn matmul_backward(a: &Tensor, b: &Tensor, g: &Tensor) -> (Tensor, Tensor) {
    match (a.shape().ndim(), b.shape().ndim()) {
        (2, 2) => {
            let ga = g.matmul(&b.transpose(0, 1));
            let gb = a.transpose(0, 1).matmul(g);
            (ga, gb)
        }
        (3, 3) => {
            let ga = g.matmul(&b.transpose(1, 2));
            let gb = a.transpose(1, 2).matmul(g);
            (ga, gb)
        }
        (3, 2) => {
            // a: [B,m,k], b: [k,n], g: [B,m,n]
            let (bsz, m, k) = (a.shape().at(0), a.shape().at(1), a.shape().at(2));
            let n = b.shape().at(1);
            let ga = g.matmul(&b.transpose(0, 1)); // [B,m,n] x [n,k]
            let a2 = a.reshape(Shape::d2(bsz * m, k));
            let g2 = g.reshape(Shape::d2(bsz * m, n));
            let gb = a2.transpose(0, 1).matmul(&g2);
            (ga, gb)
        }
        _ => unreachable!("forward rejected these ranks"),
    }
}

fn layer_norm_forward(x: &Tensor, eps: f32) -> Tensor {
    let shape = x.shape();
    let d = shape.at(shape.ndim() - 1);
    let mut out = x.clone();
    crate::backend::active().layer_norm_lanes(out.data_mut(), d, eps);
    out
}

fn layer_norm_backward(x: &Tensor, g: &Tensor, eps: f32) -> Tensor {
    let shape = x.shape();
    let d = shape.at(shape.ndim() - 1);
    let mut out = Tensor::zeros(shape);
    crate::backend::active().layer_norm_backward_lanes(x.data(), g.data(), out.data_mut(), d, eps);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::ParamStore;
    use crate::rng::Prng;

    /// Central-difference numeric gradient of `f` w.r.t. one input tensor.
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

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    /// Generic gradient check: builds the graph twice, once for autograd and
    /// per-perturbation for numeric differentiation.
    fn grad_check(build: impl Fn(&Graph, Var) -> Var, x: Tensor, tol: f32, what: &str) {
        let g = Graph::new();
        let xv = g.input(x.clone());
        let y = build(&g, xv);
        let loss = g.sum_all(y);
        let mut store = ParamStore::new();
        g.backward(loss, &mut store);
        let auto = g.grad(xv);
        let num = numeric_grad(
            |t| {
                let g2 = Graph::new();
                let xv2 = g2.input(t.clone());
                let y2 = build(&g2, xv2);
                g2.value(g2.sum_all(y2)).item()
            },
            &x,
            1e-2,
        );
        assert_close(&auto, &num, tol, what);
    }

    #[test]
    fn grad_sigmoid() {
        let mut rng = Prng::new(0);
        grad_check(
            |g, x| g.sigmoid(x),
            Tensor::randn(Shape::d2(3, 4), 1.0, &mut rng),
            2e-2,
            "sigmoid",
        );
    }

    #[test]
    fn grad_tanh_exp_sqrt_abs() {
        let mut rng = Prng::new(1);
        grad_check(
            |g, x| g.tanh(x),
            Tensor::randn(Shape::d1(6), 1.0, &mut rng),
            2e-2,
            "tanh",
        );
        grad_check(
            |g, x| g.exp(x),
            Tensor::randn(Shape::d1(6), 0.5, &mut rng),
            2e-2,
            "exp",
        );
        grad_check(
            |g, x| g.sqrt(x),
            Tensor::rand_uniform(Shape::d1(6), 0.5, 2.0, &mut rng),
            2e-2,
            "sqrt",
        );
        grad_check(
            |g, x| g.abs(x),
            Tensor::rand_uniform(Shape::d1(6), 0.5, 2.0, &mut rng),
            2e-2,
            "abs",
        );
    }

    #[test]
    fn grad_sin_cos() {
        let mut rng = Prng::new(20);
        grad_check(
            |g, x| g.sin(x),
            Tensor::randn(Shape::d1(8), 1.0, &mut rng),
            2e-2,
            "sin",
        );
        grad_check(
            |g, x| g.cos(x),
            Tensor::randn(Shape::d1(8), 1.0, &mut rng),
            2e-2,
            "cos",
        );
    }

    #[test]
    fn grad_matmul_2d() {
        let mut rng = Prng::new(2);
        let w = Tensor::randn(Shape::d2(4, 5), 1.0, &mut rng);
        let wc = w.clone();
        grad_check(
            move |g, x| {
                let wv = g.input(wc.clone());
                g.matmul(x, wv)
            },
            Tensor::randn(Shape::d2(3, 4), 1.0, &mut rng),
            2e-2,
            "matmul-left",
        );
        let a = Tensor::randn(Shape::d2(3, 4), 1.0, &mut rng);
        grad_check(
            move |g, x| {
                let av = g.input(a.clone());
                g.matmul(av, x)
            },
            w,
            2e-2,
            "matmul-right",
        );
    }

    #[test]
    fn grad_matmul_batched() {
        let mut rng = Prng::new(3);
        let b = Tensor::randn(Shape::d3(2, 4, 3), 1.0, &mut rng);
        grad_check(
            move |g, x| {
                let bv = g.input(b.clone());
                g.matmul(x, bv)
            },
            Tensor::randn(Shape::d3(2, 3, 4), 1.0, &mut rng),
            2e-2,
            "bmm-left",
        );
        let a = Tensor::randn(Shape::d3(2, 3, 4), 1.0, &mut rng);
        grad_check(
            move |g, x| {
                let av = g.input(a.clone());
                g.matmul(av, x)
            },
            Tensor::randn(Shape::d3(2, 4, 3), 1.0, &mut rng),
            2e-2,
            "bmm-right",
        );
    }

    #[test]
    fn grad_matmul_broadcast_weight() {
        let mut rng = Prng::new(4);
        let w = Tensor::randn(Shape::d2(4, 5), 1.0, &mut rng);
        let wc = w.clone();
        grad_check(
            move |g, x| {
                let wv = g.input(wc.clone());
                g.matmul(x, wv)
            },
            Tensor::randn(Shape::d3(2, 3, 4), 1.0, &mut rng),
            2e-2,
            "bmm-shared-left",
        );
        let a = Tensor::randn(Shape::d3(2, 3, 4), 1.0, &mut rng);
        grad_check(
            move |g, x| {
                let av = g.input(a.clone());
                g.matmul(av, x)
            },
            w,
            2e-2,
            "bmm-shared-right",
        );
    }

    #[test]
    fn grad_softmax() {
        let mut rng = Prng::new(5);
        let probe = Tensor::randn(Shape::d2(3, 4), 1.0, &mut rng);
        let pc = probe.clone();
        grad_check(
            move |g, x| {
                let s = g.softmax(x, 1);
                let p = g.input(pc.clone());
                g.mul(s, p)
            },
            Tensor::randn(Shape::d2(3, 4), 1.0, &mut rng),
            3e-2,
            "softmax-rows",
        );
        let probe2 = Tensor::randn(Shape::d3(2, 3, 4), 1.0, &mut rng);
        grad_check(
            move |g, x| {
                let s = g.softmax(x, 1);
                let p = g.input(probe2.clone());
                g.mul(s, p)
            },
            Tensor::randn(Shape::d3(2, 3, 4), 1.0, &mut rng),
            3e-2,
            "softmax-axis1-3d",
        );
    }

    #[test]
    fn grad_broadcast_ops() {
        let mut rng = Prng::new(6);
        let v = Tensor::randn(Shape::d1(4), 1.0, &mut rng);
        let vc = v.clone();
        grad_check(
            move |g, x| {
                let vv = g.input(vc.clone());
                g.mul(x, vv)
            },
            Tensor::randn(Shape::d2(3, 4), 1.0, &mut rng),
            2e-2,
            "mul-broadcast-big",
        );
        let a = Tensor::randn(Shape::d2(3, 4), 1.0, &mut rng);
        grad_check(
            move |g, x| {
                let av = g.input(a.clone());
                g.mul(av, x)
            },
            v,
            2e-2,
            "mul-broadcast-small",
        );
    }

    #[test]
    fn grad_div() {
        let mut rng = Prng::new(7);
        let b = Tensor::rand_uniform(Shape::d2(3, 4), 0.5, 2.0, &mut rng);
        let bc = b.clone();
        grad_check(
            move |g, x| {
                let bv = g.input(bc.clone());
                g.div(x, bv)
            },
            Tensor::randn(Shape::d2(3, 4), 1.0, &mut rng),
            2e-2,
            "div-num",
        );
        let a = Tensor::randn(Shape::d2(3, 4), 1.0, &mut rng);
        grad_check(
            move |g, x| {
                let av = g.input(a.clone());
                g.div(av, x)
            },
            b,
            3e-2,
            "div-den",
        );
    }

    #[test]
    fn grad_structural_ops() {
        let mut rng = Prng::new(8);
        grad_check(
            |g, x| {
                let r = g.reshape(x, Shape::d2(2, 6));
                g.transpose(r, 0, 1)
            },
            Tensor::randn(Shape::d3(2, 2, 3), 1.0, &mut rng),
            2e-2,
            "reshape-transpose",
        );
        grad_check(
            |g, x| {
                let a = g.narrow(x, 1, 0, 2);
                let b = g.narrow(x, 1, 2, 2);
                g.concat(&[&[b, a][..]].concat(), 1)
            },
            Tensor::randn(Shape::d2(3, 4), 1.0, &mut rng),
            2e-2,
            "narrow-concat",
        );
    }

    #[test]
    fn grad_layer_norm() {
        let mut rng = Prng::new(9);
        let probe = Tensor::randn(Shape::d2(3, 8), 1.0, &mut rng);
        grad_check(
            move |g, x| {
                let y = g.layer_norm(x, 1e-5);
                let p = g.input(probe.clone());
                g.mul(y, p)
            },
            Tensor::randn(Shape::d2(3, 8), 1.0, &mut rng),
            5e-2,
            "layer-norm",
        );
    }

    #[test]
    fn grad_sum_ops() {
        let mut rng = Prng::new(10);
        grad_check(
            |g, x| g.sum_axis(x, 1, false),
            Tensor::randn(Shape::d3(2, 3, 4), 1.0, &mut rng),
            2e-2,
            "sum-axis",
        );
        grad_check(
            |g, x| g.mean_all(x),
            Tensor::randn(Shape::d2(3, 4), 1.0, &mut rng),
            2e-2,
            "mean-all",
        );
    }

    #[test]
    fn grad_bce_with_logits() {
        let mut rng = Prng::new(11);
        let mut targets = Tensor::zeros(Shape::d2(3, 5));
        for t in targets.data_mut() {
            *t = if rng.chance(0.3) { 1.0 } else { 0.0 };
        }
        let x = Tensor::randn(Shape::d2(3, 5), 1.0, &mut rng);
        let g = Graph::new();
        let xv = g.input(x.clone());
        let loss = g.bce_with_logits(xv, &targets);
        let mut store = ParamStore::new();
        g.backward(loss, &mut store);
        let auto = g.grad(xv);
        let tc = targets.clone();
        let num = numeric_grad(
            |t| {
                let g2 = Graph::new();
                let xv2 = g2.input(t.clone());
                g2.value(g2.bce_with_logits(xv2, &tc)).item()
            },
            &x,
            1e-2,
        );
        assert_close(&auto, &num, 2e-2, "bce");
    }

    #[test]
    fn bce_matches_naive_formula() {
        let g = Graph::new();
        let z = g.input(Tensor::from_slice(&[0.3, -1.2, 2.0, 0.0]));
        let y = Tensor::from_slice(&[1.0, 0.0, 1.0, 0.0]);
        let loss = g.value(g.bce_with_logits(z, &y)).item();
        let naive: f32 = [0.3f32, -1.2, 2.0, 0.0]
            .iter()
            .zip([1.0f32, 0.0, 1.0, 0.0])
            .map(|(&z, y)| {
                let p = sigmoid(z);
                -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
            })
            .sum::<f32>()
            / 4.0;
        assert!((loss - naive).abs() < 1e-5, "{loss} vs {naive}");
    }

    #[test]
    fn param_gradients_accumulate_in_store() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_slice(&[2.0, 3.0]));
        let g = Graph::new();
        let wv = g.param(&store, w);
        let y = g.mul(wv, wv); // y = w^2, dy/dw = 2w
        let loss = g.sum_all(y);
        g.backward(loss, &mut store);
        assert_eq!(store.grad(w).data(), &[4.0, 6.0]);
    }

    #[test]
    fn embedding_gather_and_scatter() {
        let mut store = ParamStore::new();
        let table = store.add(
            "emb",
            Tensor::from_vec(Shape::d2(3, 2), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        );
        let g = Graph::new();
        let e = g.embedding(&store, table, &[2, 0, 2]);
        assert_eq!(g.value(e).data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let loss = g.sum_all(e);
        g.backward(loss, &mut store);
        // row 2 used twice, row 0 once, row 1 never
        assert_eq!(store.grad(table).data(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn scatter_sum_forward_and_backward() {
        let g = Graph::new();
        let x = g.input(Tensor::from_vec(
            Shape::d2(3, 2),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        ));
        let y = g.scatter_sum(x, &[1, 1, 0], 3);
        assert_eq!(g.value(y).data(), &[5.0, 6.0, 4.0, 6.0, 0.0, 0.0]);
        // weight row 0 of output by 10, others by 1 => grads gather weights
        let probe = g.input(Tensor::from_vec(
            Shape::d2(3, 2),
            vec![10.0, 10.0, 1.0, 1.0, 1.0, 1.0],
        ));
        let loss = g.sum_all(g.mul(y, probe));
        let mut store = ParamStore::new();
        g.backward(loss, &mut store);
        assert_eq!(g.grad(x).data(), &[1.0, 1.0, 1.0, 1.0, 10.0, 10.0]);
    }

    #[test]
    fn gather_forward_and_backward() {
        let g = Graph::new();
        let x = g.input(Tensor::from_vec(
            Shape::d2(3, 2),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        ));
        let y = g.gather(x, &[2, 0, 2]);
        assert_eq!(g.value(y).data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let loss = g.sum_all(y);
        let mut store = ParamStore::new();
        g.backward(loss, &mut store);
        assert_eq!(g.grad(x).data(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn dropout_identity_at_inference() {
        let g = Graph::inference();
        let x = g.input(Tensor::from_slice(&[1.0, 2.0, 3.0]));
        let mut rng = Prng::new(0);
        let y = g.dropout(x, 0.5, &mut rng);
        assert_eq!(g.value(y).data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let g = Graph::new();
        let x = g.input(Tensor::ones(Shape::d1(10_000)));
        let mut rng = Prng::new(1);
        let y = g.dropout(x, 0.3, &mut rng);
        let m = g.value(y).mean();
        assert!((m - 1.0).abs() < 0.05, "dropout mean {m}");
    }

    #[test]
    fn diamond_graph_accumulates_both_paths() {
        // z = x*x + x  => dz/dx = 2x + 1
        let g = Graph::new();
        let x = g.input(Tensor::from_slice(&[3.0]));
        let sq = g.mul(x, x);
        let z = g.add(sq, x);
        let loss = g.sum_all(z);
        let mut store = ParamStore::new();
        g.backward(loss, &mut store);
        assert_eq!(g.grad(x).data(), &[7.0]);
    }

    #[test]
    fn grad_layer_norm_shift_invariant_zero() {
        // LayerNorm output is invariant to adding a constant, so the gradient
        // of sum(ln(x)) w.r.t. a constant shift must be ~0 in each lane.
        let mut rng = Prng::new(12);
        let x = Tensor::randn(Shape::d2(2, 6), 1.0, &mut rng);
        let g = Graph::new();
        let xv = g.input(x);
        let y = g.layer_norm(xv, 1e-5);
        let loss = g.sum_all(y);
        let mut store = ParamStore::new();
        g.backward(loss, &mut store);
        let gx = g.grad(xv);
        for lane in gx.data().chunks(6) {
            let s: f32 = lane.iter().sum();
            assert!(s.abs() < 1e-4, "lane grad sum {s}");
        }
    }
}
