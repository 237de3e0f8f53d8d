//! Dense, row-major `f32` tensors and the raw (non-autograd) compute kernels.
//!
//! [`Tensor`] is a plain value type: a `Vec<f32>` plus a [`Shape`]. The
//! autograd layer in [`crate::graph`] builds on these kernels for both its
//! forward and backward passes.

use crate::rng::Prng;
use crate::shape::Shape;

/// A dense row-major `f32` tensor.
///
/// Storage is recycled through the thread-local [`crate::pool`]: `Drop`
/// parks the backing buffer and the constructors / `Clone` pop matching
/// buffers back, so steady-state training steps allocate (near) nothing.
#[derive(PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            data: crate::pool::alloc_copy(&self.data),
            shape: self.shape,
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        crate::pool::recycle(std::mem::take(&mut self.data));
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(
            f,
            "Tensor{}{:?}{}",
            self.shape,
            preview,
            if self.data.len() > 8 { "…" } else { "" }
        )
    }
}

impl Tensor {
    // ----- constructors -------------------------------------------------

    /// Tensor of zeros.
    pub fn zeros(shape: Shape) -> Self {
        Tensor {
            data: crate::pool::alloc_zeroed(shape.numel()),
            shape,
        }
    }

    /// Tensor with unspecified (stale recycled) contents; the caller must
    /// overwrite every element before the value escapes.
    pub(crate) fn uninit(shape: Shape) -> Self {
        Tensor {
            data: crate::pool::alloc_uninit(shape.numel()),
            shape,
        }
    }

    /// Tensor filled with `v`.
    pub fn full(shape: Shape, v: f32) -> Self {
        Tensor {
            data: crate::pool::alloc_filled(shape.numel(), v),
            shape,
        }
    }

    /// Tensor of ones.
    pub fn ones(shape: Shape) -> Self {
        Self::full(shape, 1.0)
    }

    /// Scalar tensor (shape `[1]`).
    pub fn scalar(v: f32) -> Self {
        Self::full(Shape::d1(1), v)
    }

    /// Build from existing data.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { data, shape }
    }

    /// 1-D tensor from a slice.
    pub fn from_slice(xs: &[f32]) -> Self {
        Tensor::from_vec(Shape::d1(xs.len()), crate::pool::alloc_copy(xs))
    }

    /// I.i.d. normal entries with the given std.
    pub fn randn(shape: Shape, std: f32, rng: &mut Prng) -> Self {
        let data = (0..shape.numel())
            .map(|_| rng.normal_in(0.0, std))
            .collect();
        Tensor { data, shape }
    }

    /// Uniform entries in `[lo, hi)`.
    pub fn rand_uniform(shape: Shape, lo: f32, hi: f32, rng: &mut Prng) -> Self {
        let data = (0..shape.numel()).map(|_| rng.uniform_in(lo, hi)).collect();
        Tensor { data, shape }
    }

    /// Xavier/Glorot normal initialisation for a 2-D weight `[fan_in, fan_out]`
    /// (also accepts higher-rank shapes, using the first and last dims).
    pub fn xavier(shape: Shape, rng: &mut Prng) -> Self {
        let fan_in = shape.at(0) as f32;
        let fan_out = shape.at(shape.ndim() - 1) as f32;
        let std = (2.0 / (fan_in + fan_out)).sqrt();
        Self::randn(shape, std, rng)
    }

    // ----- accessors -----------------------------------------------------

    /// The shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable data slice (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable data slice (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing vector.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Value of a scalar tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on non-scalar {:?}", self.shape);
        self.data[0]
    }

    /// Element at a multi-index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        assert_eq!(idx.len(), self.shape.ndim());
        let strides = self.shape.strides();
        let mut off = 0;
        for (i, &j) in idx.iter().enumerate() {
            assert!(
                j < self.shape.at(i),
                "index {j} out of axis {i} in {}",
                self.shape
            );
            off += j * strides[i];
        }
        self.data[off]
    }

    /// Reinterpret with a new shape of equal element count.
    pub fn reshape(&self, shape: Shape) -> Tensor {
        assert_eq!(
            self.numel(),
            shape.numel(),
            "reshape {} -> {shape} changes element count",
            self.shape
        );
        Tensor {
            data: crate::pool::alloc_copy(&self.data),
            shape,
        }
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    // ----- elementwise ---------------------------------------------------

    /// Apply `f` elementwise, producing a new tensor.
    ///
    /// Dispatched through the active [`crate::backend::Backend`]; `f` runs on
    /// whole cache-sized chunks so the inner loop stays monomorphised.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut out = Tensor::uninit(self.shape);
        crate::backend::active().run2(&self.data, &mut out.data, &|src, dst| {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = f(s);
            }
        });
        out
    }

    /// In-place elementwise update.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        crate::backend::active().run1(&mut self.data, &|chunk| {
            for x in chunk {
                *x = f(*x);
            }
        });
    }

    /// `self[i] += other[i]` (same shape).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        crate::backend::active().run2(&other.data, &mut self.data, &|src, dst| {
            for (a, &b) in dst.iter_mut().zip(src) {
                *a += b;
            }
        });
    }

    /// `self[i] += s * other[i]` (same shape).
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        crate::backend::active().run2(&other.data, &mut self.data, &|src, dst| {
            for (a, &b) in dst.iter_mut().zip(src) {
                *a += s * b;
            }
        });
    }

    /// Elementwise binary op with numpy broadcasting.
    ///
    /// Hot path of the whole training loop (every affinity-matrix op in TCA
    /// lands here): same-shape and scalar operands take direct loops, and the
    /// general case walks the output with an incremental multi-index plus a
    /// tight stride-(0|1) inner loop — no per-element division.
    ///
    /// # Panics
    /// Panics if the shapes do not broadcast.
    pub fn zip_broadcast(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        if self.shape == other.shape {
            let mut out = Tensor::uninit(self.shape);
            crate::backend::active().run3(&self.data, &other.data, &mut out.data, &|a, b, dst| {
                for ((o, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                    *o = f(x, y);
                }
            });
            return out;
        }
        if other.numel() == 1 {
            let b = other.data[0];
            return self.map(|a| f(a, b));
        }
        if self.numel() == 1 {
            let a = self.data[0];
            return other.map(|b| f(a, b));
        }
        let out_shape = Shape::broadcast(self.shape, other.shape).unwrap_or_else(|| {
            panic!("shapes {} and {} do not broadcast", self.shape, other.shape)
        });
        let n = out_shape.ndim();
        let a_sh = self.shape.pad_left(n);
        let b_sh = other.shape.pad_left(n);
        let a_str = a_sh.strides();
        let b_str = b_sh.strides();
        let mut eff_a = [0usize; crate::shape::MAX_NDIM];
        let mut eff_b = [0usize; crate::shape::MAX_NDIM];
        let mut dims = [1usize; crate::shape::MAX_NDIM];
        for i in 0..n {
            eff_a[i] = if a_sh.at(i) == 1 { 0 } else { a_str[i] };
            eff_b[i] = if b_sh.at(i) == 1 { 0 } else { b_str[i] };
            dims[i] = out_shape.at(i);
        }
        // every output lane is written below, so a stale buffer is safe
        let mut out = Tensor::uninit(out_shape);
        let inner = dims[n - 1];
        let (sa, sb) = (eff_a[n - 1], eff_b[n - 1]);
        let lanes = out_shape.numel() / inner;
        let mut idx = [0usize; crate::shape::MAX_NDIM];
        let (mut ia, mut ib) = (0usize, 0usize);
        let out_data = &mut out.data;
        for lane in 0..lanes {
            let base = lane * inner;
            let dst = &mut out_data[base..base + inner];
            if sa == 1 && sb == 1 {
                let aa = &self.data[ia..ia + inner];
                let bb = &other.data[ib..ib + inner];
                for ((o, &x), &y) in dst.iter_mut().zip(aa).zip(bb) {
                    *o = f(x, y);
                }
            } else if sa == 1 && sb == 0 {
                let aa = &self.data[ia..ia + inner];
                let y = other.data[ib];
                for (o, &x) in dst.iter_mut().zip(aa) {
                    *o = f(x, y);
                }
            } else if sa == 0 && sb == 1 {
                let x = self.data[ia];
                let bb = &other.data[ib..ib + inner];
                for (o, &y) in dst.iter_mut().zip(bb) {
                    *o = f(x, y);
                }
            } else {
                for (j, o) in dst.iter_mut().enumerate() {
                    *o = f(self.data[ia + j * sa], other.data[ib + j * sb]);
                }
            }
            // advance the outer multi-index (axes n-2 .. 0)
            if n >= 2 {
                let mut ax = n - 1;
                while ax > 0 {
                    ax -= 1;
                    idx[ax] += 1;
                    ia += eff_a[ax];
                    ib += eff_b[ax];
                    if idx[ax] < dims[ax] {
                        break;
                    }
                    ia -= eff_a[ax] * dims[ax];
                    ib -= eff_b[ax] * dims[ax];
                    idx[ax] = 0;
                }
            }
        }
        out
    }

    /// Sum-reduce `self` so that its shape becomes `target` (inverse of a
    /// broadcast). Used by autograd to fold gradients of broadcast operands.
    pub fn sum_to(&self, target: Shape) -> Tensor {
        if self.shape == target {
            return self.clone();
        }
        assert!(
            target.broadcasts_to(self.shape),
            "{target} does not broadcast to {}; cannot sum_to",
            self.shape
        );
        let n = self.shape.ndim();
        let t_pad = target.pad_left(n);
        let t_str = t_pad.strides();
        let mut eff = [0usize; crate::shape::MAX_NDIM];
        let mut dims = [1usize; crate::shape::MAX_NDIM];
        for i in 0..n {
            eff[i] = if t_pad.at(i) == 1 { 0 } else { t_str[i] };
            dims[i] = self.shape.at(i);
        }
        let mut out = Tensor::zeros(t_pad);
        let inner = dims[n - 1];
        let s_in = eff[n - 1];
        let lanes = self.numel() / inner;
        let mut idx = [0usize; crate::shape::MAX_NDIM];
        let mut it = 0usize;
        for lane in 0..lanes {
            let src = &self.data[lane * inner..(lane + 1) * inner];
            if s_in == 1 {
                let dst = &mut out.data[it..it + inner];
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d += v;
                }
            } else {
                // whole lane folds into one slot
                out.data[it] += src.iter().sum::<f32>();
            }
            if n >= 2 {
                let mut ax = n - 1;
                while ax > 0 {
                    ax -= 1;
                    idx[ax] += 1;
                    it += eff[ax];
                    if idx[ax] < dims[ax] {
                        break;
                    }
                    it -= eff[ax] * dims[ax];
                    idx[ax] = 0;
                }
            }
        }
        out.reshape(target)
    }

    // ----- reductions ----------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        crate::backend::active().sum(&self.data)
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.numel() as f32
    }

    /// Maximum element.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Sum along `axis`.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let out_shape = self.shape.reduce(axis, keepdim);
        // each output slot is assigned exactly once below
        let mut out = Tensor::uninit(self.shape.reduce(axis, true));
        let lanes = LaneIter::new(self.shape, axis);
        let stride = lanes.stride;
        let len = lanes.len;
        for (k, base) in lanes.enumerate() {
            let mut acc = 0.0;
            for j in 0..len {
                acc += self.data[base + j * stride];
            }
            out.data[k] = acc;
        }
        out.reshape(out_shape)
    }

    /// L2 norm of all elements.
    pub fn norm2(&self) -> f32 {
        crate::backend::active().dot(&self.data, &self.data).sqrt()
    }

    // ----- linear algebra --------------------------------------------------

    /// Matrix product with optional batching.
    ///
    /// Supported input ranks:
    /// - `[m,k] x [k,n] -> [m,n]`
    /// - `[B,m,k] x [B,k,n] -> [B,m,n]`
    /// - `[B,m,k] x [k,n] -> [B,m,n]` (shared right operand)
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        match (self.shape.ndim(), other.shape.ndim()) {
            (2, 2) => {
                let (m, k) = (self.shape.at(0), self.shape.at(1));
                let (k2, n) = (other.shape.at(0), other.shape.at(1));
                assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
                let mut out = Tensor::zeros(Shape::d2(m, n));
                crate::backend::active().matmul(&self.data, &other.data, &mut out.data, m, k, n);
                out
            }
            (3, 3) => {
                let (b, m, k) = (self.shape.at(0), self.shape.at(1), self.shape.at(2));
                let (b2, k2, n) = (other.shape.at(0), other.shape.at(1), other.shape.at(2));
                assert_eq!(b, b2, "batched matmul batch dims {b} vs {b2}");
                assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
                let mut out = Tensor::zeros(Shape::d3(b, m, n));
                crate::backend::active().matmul_batched(
                    &self.data,
                    &other.data,
                    &mut out.data,
                    b,
                    m,
                    k,
                    n,
                );
                out
            }
            (3, 2) => {
                let (b, m, k) = (self.shape.at(0), self.shape.at(1), self.shape.at(2));
                let (k2, n) = (other.shape.at(0), other.shape.at(1));
                assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
                let mut out = Tensor::zeros(Shape::d3(b, m, n));
                // One flat [B*m, k] x [k, n] product.
                crate::backend::active().matmul(
                    &self.data,
                    &other.data,
                    &mut out.data,
                    b * m,
                    k,
                    n,
                );
                out
            }
            (a, b) => panic!("unsupported matmul ranks {a} x {b}"),
        }
    }

    /// Swap two axes (materialises a copy).
    pub fn transpose(&self, a: usize, b: usize) -> Tensor {
        let nd = self.shape.ndim();
        assert!(a < nd && b < nd, "transpose axes out of range");
        if a == b {
            return self.clone();
        }
        let mut dims: Vec<usize> = self.shape.dims().to_vec();
        dims.swap(a, b);
        let out_shape = Shape::new(&dims);
        let in_str = self.shape.strides();
        let mut perm_str = [0usize; crate::shape::MAX_NDIM];
        for i in 0..nd {
            perm_str[i] = in_str[i];
        }
        perm_str.swap(a, b);
        let mut out_dims = [1usize; crate::shape::MAX_NDIM];
        for (i, &d) in dims.iter().enumerate() {
            out_dims[i] = d;
        }
        let mut out = Tensor::uninit(out_shape);
        // incremental multi-index walk: output is linear, source offset is
        // maintained by carries (no per-element division)
        let mut idx = [0usize; crate::shape::MAX_NDIM];
        let mut src = 0usize;
        let inner = out_dims[nd - 1];
        let s_in = perm_str[nd - 1];
        let lanes = out.numel() / inner;
        for lane in 0..lanes {
            let dst = &mut out.data[lane * inner..(lane + 1) * inner];
            if s_in == 1 {
                dst.copy_from_slice(&self.data[src..src + inner]);
            } else {
                for (j, o) in dst.iter_mut().enumerate() {
                    *o = self.data[src + j * s_in];
                }
            }
            if nd >= 2 {
                let mut ax = nd - 1;
                while ax > 0 {
                    ax -= 1;
                    idx[ax] += 1;
                    src += perm_str[ax];
                    if idx[ax] < out_dims[ax] {
                        break;
                    }
                    src -= perm_str[ax] * out_dims[ax];
                    idx[ax] = 0;
                }
            }
        }
        out
    }

    /// Softmax along `axis` (numerically stabilised).
    ///
    /// Uses [`fast_exp`] — a ~1e-5-relative-accuracy polynomial exp — because
    /// the TCA affinity softmaxes are the single hottest kernel in CamE
    /// training and `libm` exp does not vectorise.
    pub fn softmax_axis(&self, axis: usize) -> Tensor {
        let mut out = self.clone();
        let lanes = LaneIter::new(self.shape, axis);
        let stride = lanes.stride;
        let len = lanes.len;
        if stride == 1 {
            // contiguous lanes (axis is innermost): backend-dispatched kernel
            crate::backend::active().softmax_lanes(&mut out.data, len);
            return out;
        }
        for base in lanes {
            let mut mx = f32::NEG_INFINITY;
            for j in 0..len {
                mx = mx.max(out.data[base + j * stride]);
            }
            let mut z = 0.0;
            for j in 0..len {
                let e = fast_exp(out.data[base + j * stride] - mx);
                out.data[base + j * stride] = e;
                z += e;
            }
            let inv = 1.0 / z;
            for j in 0..len {
                out.data[base + j * stride] *= inv;
            }
        }
        out
    }

    /// Concatenate tensors along `axis`. All other dims must match.
    pub fn concat(parts: &[&Tensor], axis: usize) -> Tensor {
        assert!(!parts.is_empty(), "concat of zero tensors");
        let nd = parts[0].shape.ndim();
        assert!(axis < nd, "concat axis out of range");
        let mut dims: Vec<usize> = parts[0].shape.dims().to_vec();
        let mut total = 0;
        for p in parts {
            assert_eq!(p.shape.ndim(), nd, "concat rank mismatch");
            for i in 0..nd {
                if i != axis {
                    assert_eq!(p.shape.at(i), dims[i], "concat dim {i} mismatch");
                }
            }
            total += p.shape.at(axis);
        }
        dims[axis] = total;
        let out_shape = Shape::new(&dims);
        // every slice of the output is copied into below
        let mut out = Tensor::uninit(out_shape);
        // outer = product of dims before axis; inner = product after.
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        let out_row = total * inner;
        let mut off_in_row = 0;
        for p in parts {
            let p_axis = p.shape.at(axis);
            let p_row = p_axis * inner;
            for o in 0..outer {
                let src = &p.data[o * p_row..(o + 1) * p_row];
                let dst_start = o * out_row + off_in_row;
                out.data[dst_start..dst_start + p_row].copy_from_slice(src);
            }
            off_in_row += p_row;
        }
        out
    }

    /// Slice `len` entries starting at `start` along `axis`.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Tensor {
        let nd = self.shape.ndim();
        assert!(axis < nd, "narrow axis out of range");
        assert!(
            start + len <= self.shape.at(axis),
            "narrow [{start}, {start}+{len}) out of axis size {}",
            self.shape.at(axis)
        );
        let mut dims: Vec<usize> = self.shape.dims().to_vec();
        dims[axis] = len;
        let out_shape = Shape::new(&dims);
        let outer: usize = self.shape.dims()[..axis].iter().product();
        let inner: usize = self.shape.dims()[axis + 1..].iter().product();
        let in_row = self.shape.at(axis) * inner;
        let out_row = len * inner;
        let mut out = Tensor::uninit(out_shape);
        for o in 0..outer {
            let src = &self.data[o * in_row + start * inner..o * in_row + (start + len) * inner];
            out.data[o * out_row..(o + 1) * out_row].copy_from_slice(src);
        }
        out
    }

    /// Add `other` into the `[start, start+len)` slice of `self` along `axis`
    /// (inverse of [`Tensor::narrow`], used by autograd).
    pub fn narrow_add_assign(&mut self, axis: usize, start: usize, other: &Tensor) {
        let len = other.shape.at(axis);
        assert!(start + len <= self.shape.at(axis));
        let outer: usize = self.shape.dims()[..axis].iter().product();
        let inner: usize = self.shape.dims()[axis + 1..].iter().product();
        let in_row = self.shape.at(axis) * inner;
        let out_row = len * inner;
        for o in 0..outer {
            let dst =
                &mut self.data[o * in_row + start * inner..o * in_row + (start + len) * inner];
            let src = &other.data[o * out_row..(o + 1) * out_row];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
    }
}

/// Iterator over "lanes" of an axis: yields, for each combination of the other
/// indices, the base offset of a lane whose elements sit at
/// `base + j * stride` for `j in 0..len`.
pub struct LaneIter {
    /// Offset step within a lane.
    pub stride: usize,
    /// Lane length (= dims\[axis\]).
    pub len: usize,
    outer: usize,
    inner: usize,
    i: usize,
}

impl LaneIter {
    /// Lanes of `shape` along `axis`.
    pub fn new(shape: Shape, axis: usize) -> Self {
        assert!(axis < shape.ndim(), "axis {axis} out of range for {shape}");
        let dims = shape.dims();
        let outer: usize = dims[..axis].iter().product();
        let inner: usize = dims[axis + 1..].iter().product();
        LaneIter {
            stride: inner,
            len: dims[axis],
            outer,
            inner,
            i: 0,
        }
    }
}

impl Iterator for LaneIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.i >= self.outer * self.inner {
            return None;
        }
        let o = self.i / self.inner;
        let r = self.i % self.inner;
        self.i += 1;
        Some(o * self.len * self.inner + r)
    }
}

/// Fast `e^x` via range reduction to `2^i · 2^f` with a degree-4 minimax
/// polynomial for `2^f`, `f ∈ [0,1)`. Relative error < 2e-5 across the
/// finite range; inputs below the subnormal cutoff flush to 0 and large
/// inputs saturate to `f32::MAX` (softmax always calls it with `x ≤ 0`).
#[inline]
pub fn fast_exp(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    let y = x * LOG2E;
    if y < -126.0 {
        return 0.0;
    }
    if y > 127.0 {
        return f32::MAX;
    }
    // floor via truncation: `y as i32` rounds toward zero (one cvttss2si on
    // x86), minus one when that rounded up — `f32::floor` lowers to a branchy
    // libm routine on baseline targets and dominates softmax-heavy kernels
    let t = y as i32;
    let i = t - i32::from(t as f32 > y);
    let f = y - i as f32;
    // Taylor coefficients of 2^f = e^{f·ln2}, degree 6 (rel err < 1e-5 on [0,1))
    let p = 1.0
        + f * (std::f32::consts::LN_2
            + f * (0.240_226_51
                + f * (0.055_504_11 + f * (0.009_618_13 + f * (0.001_333_55 + f * 0.000_154_04)))));
    let bits = ((i + 127) as u32) << 23;
    f32::from_bits(bits) * p
}

/// Branch-free [`fast_exp`]: bit-identical output for every finite input, but
/// the range guards are selects instead of early returns so the compiler can
/// vectorise element-wise loops over it (the branchy form defeats SLP/loop
/// vectorisation and keeps softmax lanes scalar).
#[inline(always)]
pub fn fast_exp_lane(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    let y = x * LOG2E;
    // clamp only feeds the bit trick; out-of-range inputs are overridden by
    // the selects below, in-range inputs pass through the clamp untouched,
    // so every surviving value is computed exactly as `fast_exp` computes it
    let yc = y.clamp(-126.0, 127.0);
    let t = yc as i32;
    let i = t - i32::from(t as f32 > yc);
    let f = yc - i as f32;
    let p = 1.0
        + f * (std::f32::consts::LN_2
            + f * (0.240_226_51
                + f * (0.055_504_11 + f * (0.009_618_13 + f * (0.001_333_55 + f * 0.000_154_04)))));
    let r = f32::from_bits(((i + 127) as u32) << 23) * p;
    let r = if y > 127.0 { f32::MAX } else { r };
    if y < -126.0 {
        0.0
    } else {
        r
    }
}

/// Row-major `[m,k] x [k,n] -> [m,n]` with i-k-j loop order (streams `b` rows,
/// auto-vectorises well).
pub fn matmul_kernel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(rows: &[&[f32]]) -> Tensor {
        let m = rows.len();
        let n = rows[0].len();
        let mut data = Vec::with_capacity(m * n);
        for r in rows {
            data.extend_from_slice(r);
        }
        Tensor::from_vec(Shape::d2(m, n), data)
    }

    #[test]
    fn matmul_2d_matches_hand_result() {
        let a = t2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = t2(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_batched_matches_per_slice() {
        let mut rng = Prng::new(0);
        let a = Tensor::randn(Shape::d3(3, 2, 4), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d3(3, 4, 5), 1.0, &mut rng);
        let c = a.matmul(&b);
        for i in 0..3 {
            let ai = a.narrow(0, i, 1).reshape(Shape::d2(2, 4));
            let bi = b.narrow(0, i, 1).reshape(Shape::d2(4, 5));
            let ci = c.narrow(0, i, 1).reshape(Shape::d2(2, 5));
            let expect = ai.matmul(&bi);
            for (x, y) in ci.data().iter().zip(expect.data()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn matmul_broadcast_weight() {
        let mut rng = Prng::new(1);
        let a = Tensor::randn(Shape::d3(2, 3, 4), 1.0, &mut rng);
        let w = Tensor::randn(Shape::d2(4, 6), 1.0, &mut rng);
        let c = a.matmul(&w);
        assert_eq!(c.shape(), Shape::d3(2, 3, 6));
        let a0 = a.narrow(0, 1, 1).reshape(Shape::d2(3, 4));
        let c0 = c.narrow(0, 1, 1).reshape(Shape::d2(3, 6));
        let e = a0.matmul(&w);
        for (x, y) in c0.data().iter().zip(e.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_2d() {
        let a = t2(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let at = a.transpose(0, 1);
        assert_eq!(at.shape(), Shape::d2(3, 2));
        assert_eq!(at.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Prng::new(2);
        let a = Tensor::randn(Shape::d3(2, 3, 4), 1.0, &mut rng);
        let b = a.transpose(1, 2).transpose(1, 2);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Prng::new(3);
        let a = Tensor::randn(Shape::d2(5, 7), 3.0, &mut rng);
        let s = a.softmax_axis(1);
        for i in 0..5 {
            let row_sum: f32 = (0..7).map(|j| s.at(&[i, j])).sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        let s0 = a.softmax_axis(0);
        for j in 0..7 {
            let col_sum: f32 = (0..5).map(|i| s0.at(&[i, j])).sum();
            assert!((col_sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]).reshape(Shape::d2(1, 3));
        let b = a.map(|x| x + 100.0);
        let (sa, sb) = (a.softmax_axis(1), b.softmax_axis(1));
        for (x, y) in sa.data().iter().zip(sb.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn fast_exp_accuracy() {
        for i in -2000..=200 {
            let x = i as f32 * 0.05; // [-100, 10]
            let approx = fast_exp(x);
            let exact = x.exp();
            if exact > 1e-30 && exact.is_finite() {
                let rel = ((approx - exact) / exact).abs();
                assert!(rel < 5e-5, "fast_exp({x}) rel err {rel}");
            }
        }
        assert_eq!(fast_exp(-200.0), 0.0);
        assert!(fast_exp(100.0).is_finite());
    }

    #[test]
    fn fast_exp_linear_coefficient_is_the_old_literal() {
        // the degree-1 Taylor coefficient was the literal 0.693_147_18; the
        // named constant must round to the same f32, so outputs are unchanged
        assert_eq!(std::f32::consts::LN_2.to_bits(), 0x3f31_7218);
    }

    #[test]
    fn fast_exp_lane_is_bit_identical() {
        // the lane variant must agree bit for bit, including the flush-to-zero
        // and saturation regions and the exact range-guard boundaries
        for i in -40000..=40000 {
            let x = i as f32 * 0.01; // [-400, 400]
            assert_eq!(
                fast_exp(x).to_bits(),
                fast_exp_lane(x).to_bits(),
                "fast_exp_lane({x}) diverged"
            );
        }
        for x in [-126.0f32, 127.0, -87.336, 88.029, 0.0, -0.0] {
            let x = x / std::f32::consts::LOG2_E;
            assert_eq!(fast_exp(x).to_bits(), fast_exp_lane(x).to_bits());
        }
    }

    #[test]
    fn broadcast_add_matrix_vector() {
        let a = t2(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = Tensor::from_slice(&[10.0, 20.0]);
        let c = a.zip_broadcast(&v, |x, y| x + y);
        assert_eq!(c.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn broadcast_outer_product_shape() {
        let col = Tensor::from_vec(Shape::d2(3, 1), vec![1.0, 2.0, 3.0]);
        let row = Tensor::from_vec(Shape::d2(1, 2), vec![4.0, 5.0]);
        let c = col.zip_broadcast(&row, |x, y| x * y);
        assert_eq!(c.shape(), Shape::d2(3, 2));
        assert_eq!(c.data(), &[4.0, 5.0, 8.0, 10.0, 12.0, 15.0]);
    }

    #[test]
    fn sum_to_inverts_broadcast() {
        let v = Tensor::from_slice(&[1.0, 2.0]);
        let big = v.zip_broadcast(&Tensor::zeros(Shape::d3(4, 3, 2)), |x, _| x);
        assert_eq!(big.shape(), Shape::d3(4, 3, 2));
        let folded = big.sum_to(Shape::d1(2));
        assert_eq!(folded.data(), &[12.0, 24.0]);
    }

    #[test]
    fn sum_axis_values() {
        let a = t2(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.sum_axis(0, false).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.sum_axis(1, false).data(), &[6.0, 15.0]);
        assert_eq!(a.sum_axis(1, true).shape(), Shape::d2(2, 1));
    }

    #[test]
    fn concat_and_narrow_roundtrip() {
        let mut rng = Prng::new(4);
        let a = Tensor::randn(Shape::d3(2, 3, 4), 1.0, &mut rng);
        let b = Tensor::randn(Shape::d3(2, 5, 4), 1.0, &mut rng);
        let c = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c.shape(), Shape::d3(2, 8, 4));
        assert_eq!(c.narrow(1, 0, 3).data(), a.data());
        assert_eq!(c.narrow(1, 3, 5).data(), b.data());
    }

    #[test]
    fn narrow_add_assign_scatter() {
        let mut base = Tensor::zeros(Shape::d2(2, 5));
        let part = Tensor::ones(Shape::d2(2, 2));
        base.narrow_add_assign(1, 1, &part);
        assert_eq!(
            base.data(),
            &[0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]
        );
    }

    #[test]
    fn xavier_std_matches_formula() {
        let mut rng = Prng::new(5);
        let w = Tensor::xavier(Shape::d2(100, 300), &mut rng);
        let std_expect = (2.0f32 / 400.0).sqrt();
        let mean = w.mean();
        let var = w
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / w.numel() as f32;
        assert!((var.sqrt() - std_expect).abs() < 0.005);
    }

    #[test]
    fn lane_iter_covers_all_offsets() {
        let shape = Shape::d3(2, 3, 4);
        // axis 1: lanes vary middle index; 2*4 lanes of length 3 stride 4.
        let lanes: Vec<usize> = LaneIter::new(shape, 1).collect();
        assert_eq!(lanes.len(), 8);
        let mut all: Vec<usize> = lanes
            .iter()
            .flat_map(|&b| (0..3).map(move |j| b + j * 4))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..24).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor::from_vec(Shape::d2(2, 2), vec![1.0; 3]);
    }
}
