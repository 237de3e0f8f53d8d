//! Entity-row embedding stores: one trait, two row layouts.
//!
//! Serving scores a handful of query rows against *every* entity row, so the
//! entity table dominates the serving tier's memory footprint.
//! [`EmbeddingStore`] puts that data path behind one trait with two
//! resident implementations:
//!
//! * [`DenseF32Store`] — flat row-major f32 rows: row gathers are straight
//!   `memcpy`s and scoring is the plain f32 dot, bit-identical to the dense
//!   in-graph path.
//! * [`QuantizedStore`] — per-row affine u8 quantization
//!   (`x ≈ min + scale·code`, `scale = (max−min)/255`), quantized once at
//!   freeze time. Scoring never materializes f32 rows: the affine identity
//!   `dot(q, deq_row) = min·Σq + scale·dot(q, codes)` routes through the
//!   fused [`Backend::dot_q8`] / [`Backend::gemm_q8_f32`] kernels with the
//!   per-query sums precomputed once per batch.
//!
//! Store selection is environment-driven ([`StoreKind::from_env`], knob
//! `CAME_EMBED_STORE=f32|q8`, default `f32`). Quantization rejects
//! non-finite rows with the typed [`QuantError::NonFinite`]; constant rows
//! (including all-zero) get `scale = 0` and reproduce exactly. Checkpoint
//! blobs ([`store_from_blob`], [`EntityHead::from_blob`]) are outside input:
//! every length in them is checked against the bytes actually present
//! before anything is allocated, and a malformed blob is a
//! [`QuantError::Blob`], never a panic.

use crate::backend;

/// Which row layout an [`EmbeddingStore`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreKind {
    /// Resident f32 rows (the historical layout; the default).
    F32,
    /// Resident per-row affine u8 rows.
    Q8,
}

impl StoreKind {
    /// Parse a `CAME_EMBED_STORE` value.
    pub fn parse(s: &str) -> Option<StoreKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "f32" => Some(StoreKind::F32),
            "q8" | "int8" => Some(StoreKind::Q8),
            _ => None,
        }
    }

    /// The layout selected by `CAME_EMBED_STORE` (default [`StoreKind::F32`];
    /// unknown values warn once to stderr and fall back to the default).
    pub fn from_env() -> StoreKind {
        match std::env::var("CAME_EMBED_STORE") {
            Ok(v) => StoreKind::parse(&v).unwrap_or_else(|| {
                eprintln!("came-tensor: unknown CAME_EMBED_STORE={v:?}, using f32");
                StoreKind::F32
            }),
            Err(_) => StoreKind::F32,
        }
    }

    /// Stable lower-case name (env value / report key).
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::F32 => "f32",
            StoreKind::Q8 => "q8",
        }
    }
}

/// Typed failure building or decoding a store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuantError {
    /// A source row contains NaN or ±inf: affine code assignment is
    /// undefined, so the row is rejected instead of silently clamped.
    NonFinite {
        /// Index of the first offending row.
        row: usize,
    },
    /// The flat source buffer does not factor as `rows × dim`.
    Misaligned {
        /// Length of the buffer actually supplied.
        len: usize,
        /// Declared row count.
        rows: usize,
        /// Declared row width.
        dim: usize,
    },
    /// A checkpoint blob is truncated, oversized, or declares a geometry
    /// its payload cannot hold.
    Blob(String),
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::NonFinite { row } => {
                write!(
                    f,
                    "embedding row {row} contains NaN or infinity; refusing to quantize"
                )
            }
            QuantError::Misaligned { len, rows, dim } => {
                write!(
                    f,
                    "embedding buffer of {len} floats is not {rows} rows x {dim} dims"
                )
            }
            QuantError::Blob(msg) => write!(f, "malformed store blob: {msg}"),
        }
    }
}

impl std::error::Error for QuantError {}

/// `Ok(())` when a flat buffer of `len` elements factors as `n × d`.
fn check_factors(len: usize, n: usize, d: usize) -> Result<(), QuantError> {
    if n.checked_mul(d) == Some(len) {
        Ok(())
    } else {
        Err(QuantError::Misaligned {
            len,
            rows: n,
            dim: d,
        })
    }
}

/// One entity-row store: `len()` rows of `dim()` f32-valued features, however
/// they are laid out physically. All scoring entry points are `&self` and
/// thread-safe — the serving tier calls them from shard workers concurrently.
pub trait EmbeddingStore: Send + Sync {
    /// The physical layout.
    fn kind(&self) -> StoreKind;

    /// Number of rows.
    fn len(&self) -> usize;

    /// True when the store holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row width.
    fn dim(&self) -> usize;

    /// Dequantize rows `ids` into the row-major `[ids.len(), dim]` buffer
    /// `out`.
    ///
    /// # Panics
    /// Panics if `out.len() != ids.len() * dim()` or any id is out of range.
    fn gather_into(&self, ids: &[u32], out: &mut [f32]);

    /// Fused range scoring: `out[i*(hi-lo) + j] = dot(queries row i, row
    /// lo+j)` for the row-major `[m, dim]` query block, without
    /// materializing f32 rows when the layout is quantized.
    ///
    /// # Panics
    /// Panics if `lo > hi`, `hi > len()`, or buffer sizes mismatch.
    fn score_range_into(&self, queries: &[f32], m: usize, lo: usize, hi: usize, out: &mut [f32]);

    /// Bytes of row payload resident in RAM (rows, codes and affine).
    fn resident_bytes(&self) -> usize;

    /// Serialize the rows for checkpoints: kind tag, geometry, payload.
    /// Restored by [`store_from_blob`] to a store scoring bit-identically.
    fn to_blob(&self) -> Vec<u8>;
}

fn check_score_args(
    queries: &[f32],
    m: usize,
    lo: usize,
    hi: usize,
    out: &[f32],
    n: usize,
    d: usize,
) {
    assert!(
        lo <= hi && hi <= n,
        "score range [{lo}, {hi}) out of bounds for {n} rows"
    );
    assert_eq!(queries.len(), m * d, "query buffer size mismatch");
    assert_eq!(out.len(), m * (hi - lo), "score buffer size mismatch");
}

// --------------------------------------------------------------------------
// resident f32
// --------------------------------------------------------------------------

/// The historical resident layout: flat row-major f32 rows. Gathers are
/// `memcpy`s and scoring is the plain dot product — bit-identical to the
/// pre-[`EmbeddingStore`] code path under every backend.
pub struct DenseF32Store {
    data: Vec<f32>,
    n: usize,
    d: usize,
}

impl DenseF32Store {
    /// Wrap a flat row-major `[n, d]` buffer. Values are taken as-is (the
    /// dense layout represents anything f32 can, so nothing is rejected).
    pub fn from_rows(data: Vec<f32>, n: usize, d: usize) -> Result<DenseF32Store, QuantError> {
        check_factors(data.len(), n, d)?;
        Ok(DenseF32Store { data, n, d })
    }

    /// Borrow the flat row buffer.
    pub fn rows(&self) -> &[f32] {
        &self.data
    }
}

impl EmbeddingStore for DenseF32Store {
    fn kind(&self) -> StoreKind {
        StoreKind::F32
    }

    fn len(&self) -> usize {
        self.n
    }

    fn dim(&self) -> usize {
        self.d
    }

    fn gather_into(&self, ids: &[u32], out: &mut [f32]) {
        assert_eq!(out.len(), ids.len() * self.d, "gather buffer size mismatch");
        for (slot, &id) in out.chunks_mut(self.d.max(1)).zip(ids) {
            let at = id as usize * self.d;
            slot.copy_from_slice(&self.data[at..at + self.d]);
        }
    }

    fn score_range_into(&self, queries: &[f32], m: usize, lo: usize, hi: usize, out: &mut [f32]) {
        check_score_args(queries, m, lo, hi, out, self.n, self.d);
        let (d, w) = (self.d, hi - lo);
        let b = backend::active();
        let tasks: Vec<(usize, usize, &mut [f32])> = strip_tasks(out, w, d);
        backend::run_tasks_min_work(tasks, m * w * d, |(i, j0, oseg)| {
            let q = &queries[i * d..(i + 1) * d];
            for (jj, o) in oseg.iter_mut().enumerate() {
                let at = (lo + j0 + jj) * d;
                *o = b.dot(q, &self.data[at..at + d]);
            }
        });
    }

    fn resident_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    fn to_blob(&self) -> Vec<u8> {
        let mut out = blob_header(StoreKind::F32, self.n, self.d);
        for &x in &self.data {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }
}

/// Decompose a row-major `[m, w]` output buffer into disjoint
/// `(query row, strip offset, strip)` tasks with roughly equal `k`-weighted
/// work, matching the backend's own q8 decomposition.
fn strip_tasks(out: &mut [f32], w: usize, k: usize) -> Vec<(usize, usize, &mut [f32])> {
    let strip = backend::q8_strip_for(k);
    out.chunks_mut(w.max(1))
        .enumerate()
        .flat_map(|(i, orow)| {
            orow.chunks_mut(strip)
                .enumerate()
                .map(move |(s, oseg)| (i, s * strip, oseg))
        })
        .collect()
}

// --------------------------------------------------------------------------
// resident u8
// --------------------------------------------------------------------------

/// Per-row affine u8 rows, quantized once at freeze time:
/// `x ≈ min + scale·code` with `scale = (max−min)/255`. Constant rows —
/// all-zero included — get `scale = 0` and round-trip exactly; rows with
/// NaN/±inf (or a value range that overflows f32) are rejected with
/// [`QuantError::NonFinite`]. Scoring goes through the fused
/// [`Backend::gemm_q8_f32`] kernel and never materializes f32 rows.
pub struct QuantizedStore {
    n: usize,
    d: usize,
    codes: Vec<u8>,
    scales: Vec<f32>,
    mins: Vec<f32>,
}

impl QuantizedStore {
    /// Quantize a flat row-major `[n, d]` f32 buffer.
    pub fn from_rows(rows: &[f32], n: usize, d: usize) -> Result<QuantizedStore, QuantError> {
        check_factors(rows.len(), n, d)?;
        let mut codes = vec![0u8; n * d];
        let mut scales = vec![0.0f32; n];
        let mut mins = vec![0.0f32; n];
        for (r, row) in rows.chunks(d.max(1)).enumerate().take(n) {
            quantize_row(
                row,
                r,
                &mut codes[r * d..(r + 1) * d],
                &mut scales[r],
                &mut mins[r],
            )?;
        }
        Ok(QuantizedStore {
            n,
            d,
            codes,
            scales,
            mins,
        })
    }

    /// Rebuild from the parallel arrays a blob carries, checking that they
    /// describe exactly `n` rows of width `d`.
    fn from_parts(
        n: usize,
        d: usize,
        codes: Vec<u8>,
        scales: Vec<f32>,
        mins: Vec<f32>,
    ) -> Result<QuantizedStore, QuantError> {
        check_factors(codes.len(), n, d)?;
        check_factors(scales.len(), n, 1)?;
        check_factors(mins.len(), n, 1)?;
        Ok(QuantizedStore {
            n,
            d,
            codes,
            scales,
            mins,
        })
    }

    /// Dequantize one element (tests / spot checks).
    pub fn dequant(&self, row: usize, t: usize) -> f32 {
        self.mins[row] + self.scales[row] * self.codes[row * self.d + t] as f32
    }
}

/// Quantize one row into `codes`/`scale`/`min`.
fn quantize_row(
    row: &[f32],
    r: usize,
    codes: &mut [u8],
    scale: &mut f32,
    min: &mut f32,
) -> Result<(), QuantError> {
    if row.iter().any(|x| !x.is_finite()) {
        return Err(QuantError::NonFinite { row: r });
    }
    if row.is_empty() {
        return Ok(());
    }
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in row {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    // A row whose value range overflows f32 (e.g. [-3e38, 3e38]) has no
    // representable affine: `scale·code` would reach infinity during
    // dequant. Reject it like a non-finite row — the affine itself is what
    // is non-finite.
    let range = hi - lo;
    if !range.is_finite() {
        return Err(QuantError::NonFinite { row: r });
    }
    let s = range / 255.0;
    *min = lo;
    *scale = s;
    if s == 0.0 {
        // constant row (all-zero included): every code is 0, dequant == min
        codes.fill(0);
        return Ok(());
    }
    for (c, &x) in codes.iter_mut().zip(row) {
        let q = ((x - lo) / s).round();
        *c = q.clamp(0.0, 255.0) as u8;
    }
    Ok(())
}

/// Per-query element sums for the affine identity, ascending element order.
fn query_sums(queries: &[f32], m: usize, d: usize) -> Vec<f32> {
    (0..m)
        .map(|i| queries[i * d..(i + 1) * d].iter().sum())
        .collect()
}

impl EmbeddingStore for QuantizedStore {
    fn kind(&self) -> StoreKind {
        StoreKind::Q8
    }

    fn len(&self) -> usize {
        self.n
    }

    fn dim(&self) -> usize {
        self.d
    }

    fn gather_into(&self, ids: &[u32], out: &mut [f32]) {
        assert_eq!(out.len(), ids.len() * self.d, "gather buffer size mismatch");
        for (slot, &id) in out.chunks_mut(self.d.max(1)).zip(ids) {
            let r = id as usize;
            assert!(r < self.n, "row {r} out of range for {} rows", self.n);
            let (scale, min) = (self.scales[r], self.mins[r]);
            for (o, &c) in slot
                .iter_mut()
                .zip(&self.codes[r * self.d..(r + 1) * self.d])
            {
                *o = min + scale * c as f32;
            }
        }
    }

    fn score_range_into(&self, queries: &[f32], m: usize, lo: usize, hi: usize, out: &mut [f32]) {
        check_score_args(queries, m, lo, hi, out, self.n, self.d);
        let a_sums = query_sums(queries, m, self.d);
        backend::active().gemm_q8_f32(
            queries,
            &a_sums,
            &self.codes[lo * self.d..hi * self.d],
            &self.scales[lo..hi],
            &self.mins[lo..hi],
            out,
            m,
            self.d,
            hi - lo,
        );
    }

    fn resident_bytes(&self) -> usize {
        self.codes.len() + (self.scales.len() + self.mins.len()) * std::mem::size_of::<f32>()
    }

    fn to_blob(&self) -> Vec<u8> {
        let mut out = blob_header(StoreKind::Q8, self.n, self.d);
        push_affine(&mut out, &self.scales, &self.mins);
        out.extend_from_slice(&self.codes);
        out
    }
}

// --------------------------------------------------------------------------
// construction / serialization
// --------------------------------------------------------------------------

/// Build a store of `kind` from flat row-major `[n, d]` f32 rows.
pub fn build_store(
    kind: StoreKind,
    rows: &[f32],
    n: usize,
    d: usize,
) -> Result<Box<dyn EmbeddingStore>, QuantError> {
    Ok(match kind {
        StoreKind::F32 => Box::new(DenseF32Store::from_rows(rows.to_vec(), n, d)?),
        StoreKind::Q8 => Box::new(QuantizedStore::from_rows(rows, n, d)?),
    })
}

const BLOB_MAGIC: &[u8; 4] = b"CEST";
/// Magic, kind tag, then `n` and `d` as u64-LE.
const BLOB_HEADER_BYTES: usize = 4 + 1 + 8 + 8;
const TAG_F32: u8 = 0;
const TAG_Q8: u8 = 1;
/// Written by a since-removed file-backed layout whose payload is byte for
/// byte a q8 payload; such blobs decode as a resident [`QuantizedStore`]
/// and score bit-identically to the store they captured.
const TAG_Q8_FILE: u8 = 2;

fn blob_header(kind: StoreKind, n: usize, d: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(BLOB_HEADER_BYTES);
    out.extend_from_slice(BLOB_MAGIC);
    out.push(match kind {
        StoreKind::F32 => TAG_F32,
        StoreKind::Q8 => TAG_Q8,
    });
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(d as u64).to_le_bytes());
    out
}

fn push_affine(out: &mut Vec<u8>, scales: &[f32], mins: &[f32]) {
    for &s in scales {
        out.extend_from_slice(&s.to_le_bytes());
    }
    for &m in mins {
        out.extend_from_slice(&m.to_le_bytes());
    }
}

fn blob_err(msg: impl Into<String>) -> QuantError {
    QuantError::Blob(msg.into())
}

/// The u64-LE length field at `bytes[at..at + 8]`; the caller has checked
/// that those bytes exist.
fn read_len(bytes: &[u8], at: usize) -> Result<usize, QuantError> {
    let raw = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte field"));
    usize::try_from(raw).map_err(|_| blob_err(format!("length {raw} exceeds the address space")))
}

/// `a · b`, or a blob error naming `what` when the product overflows.
fn blob_mul(a: usize, b: usize, what: &str) -> Result<usize, QuantError> {
    a.checked_mul(b)
        .ok_or_else(|| blob_err(format!("{what} size overflows")))
}

fn f32s_le(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

/// Rebuild a store from [`EmbeddingStore::to_blob`] bytes; scores are
/// bit-identical to the captured store. The payload must be exactly the
/// size the header's geometry implies — checked before anything is
/// allocated, so no blob can make the decoder allocate more than its own
/// length.
pub fn store_from_blob(bytes: &[u8]) -> Result<Box<dyn EmbeddingStore>, QuantError> {
    if bytes.len() < BLOB_HEADER_BYTES || &bytes[0..4] != BLOB_MAGIC {
        return Err(blob_err("bad magic or truncated header"));
    }
    let (tag, n, d) = (bytes[4], read_len(bytes, 5)?, read_len(bytes, 13)?);
    let body = &bytes[BLOB_HEADER_BYTES..];
    let cells = blob_mul(n, d, "rows x dim")?;
    let want = match tag {
        TAG_F32 => blob_mul(cells, 4, "f32 payload")?,
        // scales f32 × n, mins f32 × n, codes u8 × n·d
        TAG_Q8 | TAG_Q8_FILE => blob_mul(n, 8, "affine payload")?
            .checked_add(cells)
            .ok_or_else(|| blob_err("q8 payload size overflows"))?,
        t => return Err(blob_err(format!("unknown store kind tag {t}"))),
    };
    if body.len() != want {
        return Err(blob_err(format!(
            "payload is {} bytes, a [{n}, {d}] store needs {want}",
            body.len()
        )));
    }
    if tag == TAG_F32 {
        return Ok(Box::new(DenseF32Store::from_rows(f32s_le(body), n, d)?));
    }
    let (affine, codes) = body.split_at(8 * n);
    let (scales, mins) = affine.split_at(4 * n);
    Ok(Box::new(QuantizedStore::from_parts(
        n,
        d,
        codes.to_vec(),
        f32s_le(scales),
        f32s_le(mins),
    )?))
}

// --------------------------------------------------------------------------
// the serving head
// --------------------------------------------------------------------------

/// A frozen entity scoring head: one [`EmbeddingStore`] of entity rows plus
/// the per-entity bias, scoring `hidden · rowᵀ + bias` without touching the
/// autodiff tape. This is the compact object the serving tier routes
/// [`score_range_into`](EmbeddingStore::score_range_into) through when a
/// non-f32 store is selected.
pub struct EntityHead {
    store: Box<dyn EmbeddingStore>,
    bias: Vec<f32>,
}

impl EntityHead {
    /// Wrap a store and its per-row bias.
    ///
    /// # Panics
    /// Panics if `bias.len() != store.len()`.
    pub fn new(store: Box<dyn EmbeddingStore>, bias: Vec<f32>) -> EntityHead {
        assert_eq!(bias.len(), store.len(), "entity bias length mismatch");
        EntityHead { store, bias }
    }

    /// The underlying row store.
    pub fn store(&self) -> &dyn EmbeddingStore {
        self.store.as_ref()
    }

    /// Fused scoring of the `[m, dim]` hidden block against entity rows
    /// `[lo, hi)`, bias added per candidate column. `out` is row-major
    /// `[m, hi-lo]`.
    pub fn score_into(&self, hidden: &[f32], m: usize, lo: usize, hi: usize, out: &mut [f32]) {
        self.store.score_range_into(hidden, m, lo, hi, out);
        let w = hi - lo;
        for row in out.chunks_mut(w.max(1)) {
            for (o, &b) in row.iter_mut().zip(&self.bias[lo..hi]) {
                *o += b;
            }
        }
    }

    /// Serialize store + bias for checkpoints ([`EntityHead::from_blob`]).
    pub fn to_blob(&self) -> Vec<u8> {
        let store = self.store.to_blob();
        let mut out = Vec::with_capacity(8 + store.len() + 4 * self.bias.len());
        out.extend_from_slice(&(store.len() as u64).to_le_bytes());
        out.extend_from_slice(&store);
        for &b in &self.bias {
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    }

    /// Rebuild a head captured by [`EntityHead::to_blob`]; scores
    /// bit-identically to the captured head. Like [`store_from_blob`], a
    /// truncated or inconsistent blob is a [`QuantError::Blob`].
    pub fn from_blob(bytes: &[u8]) -> Result<EntityHead, QuantError> {
        if bytes.len() < 8 {
            return Err(blob_err("truncated head"));
        }
        let slen = read_len(bytes, 0)?;
        let rest = &bytes[8..];
        if slen > rest.len() {
            return Err(blob_err("truncated head store"));
        }
        let (store_bytes, bias_bytes) = rest.split_at(slen);
        let store = store_from_blob(store_bytes)?;
        if store.len().checked_mul(4) != Some(bias_bytes.len()) {
            return Err(blob_err("head bias length mismatch"));
        }
        Ok(EntityHead::new(store, f32s_le(bias_bytes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    fn randn_rows(n: usize, d: usize, seed: u64) -> Vec<f32> {
        let mut rng = Prng::new(seed);
        (0..n * d).map(|_| rng.normal() as f32).collect()
    }

    #[test]
    fn dense_store_gathers_and_scores_exactly() {
        let (n, d) = (7, 5);
        let rows = randn_rows(n, d, 1);
        let s = DenseF32Store::from_rows(rows.clone(), n, d).unwrap();
        let mut got = vec![0.0f32; 2 * d];
        s.gather_into(&[3, 0], &mut got);
        assert_eq!(&got[..d], &rows[3 * d..4 * d]);
        assert_eq!(&got[d..], &rows[..d]);

        let q = randn_rows(1, d, 2);
        let mut out = vec![0.0f32; n];
        s.score_range_into(&q, 1, 0, n, &mut out);
        for (j, &o) in out.iter().enumerate() {
            let expect: f32 = (0..d).map(|t| q[t] * rows[j * d + t]).sum();
            assert!((o - expect).abs() <= 1e-5 * expect.abs().max(1.0));
        }
    }

    #[test]
    fn quantization_error_is_bounded_by_half_step() {
        let (n, d) = (11, 16);
        let rows = randn_rows(n, d, 3);
        let q = QuantizedStore::from_rows(&rows, n, d).unwrap();
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut deq = vec![0.0f32; n * d];
        q.gather_into(&ids, &mut deq);
        for r in 0..n {
            let step = q.scales[r];
            for t in 0..d {
                let err = (deq[r * d + t] - rows[r * d + t]).abs();
                assert!(
                    err <= 0.5 * step + 1e-6,
                    "row {r} elem {t}: err {err} > half step {step}"
                );
            }
        }
    }

    #[test]
    fn all_zero_and_constant_rows_round_trip_exactly() {
        let d = 9;
        let mut rows = vec![0.0f32; 3 * d];
        rows[d..2 * d].fill(2.75); // constant row
        rows[2 * d..].fill(-1.5e38); // extreme constant row
        let q = QuantizedStore::from_rows(&rows, 3, d).unwrap();
        let mut deq = vec![0.0f32; 3 * d];
        q.gather_into(&[0, 1, 2], &mut deq);
        assert_eq!(deq, rows, "constant rows must dequantize bit-exactly");
        assert_eq!(q.scales, vec![0.0; 3]);
    }

    #[test]
    fn single_element_rows_round_trip_exactly() {
        let rows = vec![3.25f32, -0.5, 0.0, 1e30];
        let q = QuantizedStore::from_rows(&rows, 4, 1).unwrap();
        let mut deq = vec![0.0f32; 4];
        q.gather_into(&[0, 1, 2, 3], &mut deq);
        assert_eq!(deq, rows, "d=1 rows are constant rows: exact");
    }

    #[test]
    fn non_finite_rows_are_rejected_with_row_index() {
        let d = 4;
        let mut rows = randn_rows(5, d, 4);
        rows[2 * d + 1] = f32::NAN;
        assert_eq!(
            QuantizedStore::from_rows(&rows, 5, d).err(),
            Some(QuantError::NonFinite { row: 2 })
        );
        rows[2 * d + 1] = 0.0;
        rows[4 * d + 3] = f32::NEG_INFINITY;
        assert_eq!(
            QuantizedStore::from_rows(&rows, 5, d).err(),
            Some(QuantError::NonFinite { row: 4 })
        );
    }

    #[test]
    fn misaligned_buffers_are_rejected() {
        let rows = vec![0.0f32; 10];
        assert_eq!(
            QuantizedStore::from_rows(&rows, 3, 4).err(),
            Some(QuantError::Misaligned {
                len: 10,
                rows: 3,
                dim: 4
            })
        );
        assert!(DenseF32Store::from_rows(rows, 3, 4).is_err());
    }

    #[test]
    fn f32_overflowing_value_ranges_are_rejected() {
        // finite values, but max - min overflows f32: no representable affine
        let rows = vec![-3.0e38f32, 3.0e38, 0.0, 1.0];
        assert_eq!(
            QuantizedStore::from_rows(&rows, 1, 4).err(),
            Some(QuantError::NonFinite { row: 0 })
        );
        // a wide-but-representable range still quantizes to finite values
        let rows = vec![-1.0e38f32, 1.0e38, 0.0, 1.0];
        let q = QuantizedStore::from_rows(&rows, 1, 4).unwrap();
        let mut deq = vec![0.0f32; 4];
        q.gather_into(&[0], &mut deq);
        assert!(deq.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn q8_footprint_is_within_budget() {
        let (n, d) = (256, 64);
        let rows = randn_rows(n, d, 7);
        let dense = DenseF32Store::from_rows(rows.clone(), n, d).unwrap();
        let q = QuantizedStore::from_rows(&rows, n, d).unwrap();
        let ratio = q.resident_bytes() as f64 / dense.resident_bytes() as f64;
        assert!(ratio <= 0.35, "q8 resident ratio {ratio} > 0.35");
    }

    #[test]
    fn store_blobs_round_trip_bit_identically() {
        let (n, d, m) = (40, 10, 2);
        let rows = randn_rows(n, d, 9);
        let queries = randn_rows(m, d, 10);
        for kind in [StoreKind::F32, StoreKind::Q8] {
            let s = build_store(kind, &rows, n, d).unwrap();
            let restored = store_from_blob(&s.to_blob()).unwrap();
            let mut a = vec![0.0f32; m * n];
            let mut b = vec![0.0f32; m * n];
            s.score_range_into(&queries, m, 0, n, &mut a);
            restored.score_range_into(&queries, m, 0, n, &mut b);
            assert_eq!(
                a,
                b,
                "{} blob round-trip must score bit-identically",
                kind.name()
            );
        }
    }

    #[test]
    fn legacy_file_tag_blobs_decode_as_q8_and_score_bitwise() {
        let (n, d, m) = (37, 9, 3);
        let rows = randn_rows(n, d, 15);
        let queries = randn_rows(m, d, 16);
        let q = QuantizedStore::from_rows(&rows, n, d).unwrap();
        let mut blob = q.to_blob();
        assert_eq!(blob[4], TAG_Q8);
        blob[4] = TAG_Q8_FILE;
        let restored = store_from_blob(&blob).unwrap();
        assert_eq!(restored.kind(), StoreKind::Q8);
        assert_eq!((restored.len(), restored.dim()), (n, d));
        let mut want = vec![0.0f32; m * n];
        let mut got = vec![0.0f32; m * n];
        q.score_range_into(&queries, m, 0, n, &mut want);
        restored.score_range_into(&queries, m, 0, n, &mut got);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "tag-2 blob must score like q8");
        // re-captured, it is an ordinary q8 blob
        assert_eq!(restored.to_blob(), q.to_blob());
    }

    #[test]
    fn entity_head_adds_bias_and_round_trips() {
        let (n, d, m) = (20, 6, 2);
        let rows = randn_rows(n, d, 11);
        let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.125).collect();
        let q = build_store(StoreKind::Q8, &rows, n, d).unwrap();
        let head = EntityHead::new(q, bias.clone());
        let hidden = randn_rows(m, d, 12);
        let mut with_bias = vec![0.0f32; m * n];
        head.score_into(&hidden, m, 0, n, &mut with_bias);
        let mut raw = vec![0.0f32; m * n];
        head.store().score_range_into(&hidden, m, 0, n, &mut raw);
        for i in 0..m {
            for j in 0..n {
                assert_eq!(with_bias[i * n + j], raw[i * n + j] + bias[j]);
            }
        }
        let restored = EntityHead::from_blob(&head.to_blob()).unwrap();
        let mut again = vec![0.0f32; m * n];
        restored.score_into(&hidden, m, 0, n, &mut again);
        assert_eq!(
            with_bias, again,
            "head blob round-trip must score bit-identically"
        );
    }

    #[test]
    fn range_scoring_matches_full_scoring_on_every_store() {
        let (n, d, m) = (33, 8, 2);
        let rows = randn_rows(n, d, 13);
        let queries = randn_rows(m, d, 14);
        for kind in [StoreKind::F32, StoreKind::Q8] {
            let s = build_store(kind, &rows, n, d).unwrap();
            let mut full = vec![0.0f32; m * n];
            s.score_range_into(&queries, m, 0, n, &mut full);
            let (lo, hi) = (9, 25);
            let mut part = vec![0.0f32; m * (hi - lo)];
            s.score_range_into(&queries, m, lo, hi, &mut part);
            for i in 0..m {
                assert_eq!(
                    &part[i * (hi - lo)..(i + 1) * (hi - lo)],
                    &full[i * n + lo..i * n + hi],
                    "{}: range stripe must equal the full-scoring slice",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn kind_parsing_and_env_default() {
        assert_eq!(StoreKind::parse("f32"), Some(StoreKind::F32));
        assert_eq!(StoreKind::parse("Q8"), Some(StoreKind::Q8));
        assert_eq!(StoreKind::parse("int8"), Some(StoreKind::Q8));
        // the retired file-backed layout is an unknown value now
        assert_eq!(StoreKind::parse(" file "), None);
        assert_eq!(StoreKind::parse("mmap"), None);
    }
}
