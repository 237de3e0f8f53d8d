//! The unified knowledge-graph-embedding model interface.
//!
//! [`KgeModel`] is the one contract every model in the reproduction — CamE
//! and all thirteen baselines — is evaluated and served through: it exposes
//! the entity count, batched candidate scoring into a caller-provided flat
//! buffer, and the opaque state bytes checkpoints carry. Parameters stay in
//! an external [`ParamStore`] (the codebase-wide convention), so the same
//! trait object works for a borrowed bench model and a boxed registry model.
//!
//! Two adapters cover the two model families: [`OneToNKge`] runs one
//! batched `[B, N]` forward per query batch (1-N models), and [`TripleKge`]
//! tiles each query over entity chunks scored across the backend thread
//! pool (per-triple models). Both run on tape-free inference graphs
//! ([`Graph::inference`]). Either way `score_into` is the only scoring
//! entry point: evaluation, the engine and the serving tier all score full
//! `[B, N]` blocks through it.

use came_tensor::{Graph, ParamStore};

use crate::eval::TailScorer;
use crate::snapshot::Snapshot;
use crate::train::{OneToNModel, TripleModel};
use crate::vocab::{EntityId, RelationId};

/// A trained knowledge-graph-embedding model, ready to score tail
/// candidates. Object-safe: registry, eval, serving, and checkpointing all
/// hold `&dyn KgeModel` / `Box<dyn KgeModel>`.
pub trait KgeModel {
    /// Human-readable model name (for logs and bench tables).
    fn name(&self) -> &str;

    /// Number of candidate entities every query is scored against.
    fn num_entities(&self) -> usize;

    /// Score each `(head, relation)` query against all entities, writing
    /// row-major `[queries.len(), num_entities]` scores into `out`. Higher
    /// is more plausible. Relations are in the inverse-augmented space.
    ///
    /// # Panics
    /// Panics if `out.len() != queries.len() * num_entities()`.
    fn score_into(&self, store: &ParamStore, queries: &[(EntityId, RelationId)], out: &mut [f32]);

    /// Whether scores for `entity` as query head come from a degraded path
    /// — a modality the model normally consumes is absent for this entity,
    /// so a learned fallback stood in. The serving layer stamps responses
    /// for such heads `degraded: true`. Default: never degraded.
    fn degraded(&self, _entity: u32) -> bool {
        false
    }

    /// Opaque model-side mutable state for checkpoints (see
    /// [`OneToNModel::state_bytes`]). Parameters are captured separately
    /// from the [`ParamStore`].
    fn state_bytes(&self) -> Vec<u8>;

    /// Restore state captured by [`KgeModel::state_bytes`].
    fn restore_state(&self, bytes: &[u8]) -> Result<(), String>;

    /// Hook called when this model goes behind a
    /// [`ScoringEngine`](crate::ScoringEngine) or a
    /// [`ServeTier`](crate::ServeTier): freeze serving-side structures (e.g.
    /// a compact entity store selected by `CAME_EMBED_STORE`) that
    /// [`KgeModel::score_into`] then uses. Must be idempotent — both entry
    /// points call it, possibly on the same model. Infallible —
    /// implementations fall back to their dense scoring path on failure.
    /// Default: nothing to prepare.
    fn prepare_serving(&self, _store: &ParamStore) {}

    /// Serialise the model's frozen entity store for checkpoints, if one is
    /// active (see [`came_tensor::EntityHead::to_blob`]). Default: none.
    fn entity_store_blob(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restore an entity store captured by [`KgeModel::entity_store_blob`].
    /// Errs if the model cannot host one.
    fn restore_entity_store(&self, _bytes: &[u8]) -> Result<(), String> {
        Err("model has no entity store to restore".into())
    }
}

/// [`KgeModel`] adapter for 1-N models: one batched inference forward per
/// query batch, logits copied straight out of the graph — or, once serving
/// froze an entity head, the hidden rows scored by that head.
pub struct OneToNKge<M: OneToNModel> {
    name: String,
    model: M,
    num_entities: usize,
}

impl<M: OneToNModel> OneToNKge<M> {
    /// Wrap a 1-N model scoring `num_entities` candidates.
    pub fn new(name: impl Into<String>, model: M, num_entities: usize) -> Self {
        OneToNKge {
            name: name.into(),
            model,
            num_entities,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: OneToNModel> KgeModel for OneToNKge<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn score_into(&self, store: &ParamStore, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        let n = self.num_entities;
        assert_eq!(out.len(), queries.len() * n, "score buffer size mismatch");
        if queries.is_empty() {
            return;
        }
        let g = Graph::inference();
        let heads: Vec<u32> = queries.iter().map(|q| q.0 .0).collect();
        let rels: Vec<u32> = queries.iter().map(|q| q.1 .0).collect();
        // A frozen entity head (compact store) scores the hidden rows with
        // its fused kernels; otherwise the dense in-graph forward does.
        if let Some(head) = self.model.entity_head() {
            let hidden = self
                .model
                .forward_hidden(&g, store, &heads, &rels)
                .expect("a model exposing an entity head must expose forward_hidden");
            return g.with_value(hidden, |t| {
                head.score_into(t.data(), queries.len(), 0, n, out);
            });
        }
        let scores = self.model.forward(&g, store, &heads, &rels);
        g.with_value(scores, |t| {
            assert_eq!(t.numel(), out.len(), "forward produced wrong shape");
            out.copy_from_slice(t.data());
        });
    }

    fn degraded(&self, entity: u32) -> bool {
        self.model.degraded(entity)
    }

    fn state_bytes(&self) -> Vec<u8> {
        self.model.state_bytes()
    }

    fn restore_state(&self, bytes: &[u8]) -> Result<(), String> {
        self.model.restore_state(bytes)
    }

    fn prepare_serving(&self, store: &ParamStore) {
        self.model.prepare_serving(store);
    }

    fn entity_store_blob(&self) -> Option<Vec<u8>> {
        self.model.entity_store_blob()
    }

    fn restore_entity_store(&self, bytes: &[u8]) -> Result<(), String> {
        self.model.restore_entity_store(bytes)
    }
}

/// [`KgeModel`] adapter for per-triple models: every query is tiled over
/// entity chunks, each chunk scored by an independent inference pass on the
/// backend thread pool (the candidate axis is the parallel dimension).
pub struct TripleKge<M: TripleModel> {
    name: String,
    model: M,
    num_entities: usize,
}

impl<M: TripleModel> TripleKge<M> {
    /// Wrap a per-triple model scoring `num_entities` candidates.
    pub fn new(name: impl Into<String>, model: M, num_entities: usize) -> Self {
        TripleKge {
            name: name.into(),
            model,
            num_entities,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }
}

impl<M: TripleModel> KgeModel for TripleKge<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_entities(&self) -> usize {
        self.num_entities
    }

    fn score_into(&self, store: &ParamStore, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        use came_tensor::backend;
        let n = self.num_entities;
        assert_eq!(out.len(), queries.len() * n, "score buffer size mismatch");
        if queries.is_empty() || n == 0 {
            return;
        }
        // Each (query, entity-chunk) cell is an independent inference pass
        // writing a disjoint slice of its query's row: a candidate's score is
        // a row-local function of its (h, r, t) triple, so chunk boundaries
        // never change values. Under the Scalar backend (or one thread)
        // there is one chunk per query and this is a sequential loop.
        let shard = backend::shard_width(n);
        let mut tasks: Vec<(EntityId, RelationId, usize, &mut [f32])> = Vec::new();
        for (q, row) in queries.iter().zip(out.chunks_mut(n)) {
            for (si, chunk) in row.chunks_mut(shard).enumerate() {
                tasks.push((q.0, q.1, si * shard, chunk));
            }
        }
        backend::run_tasks(tasks, |(h, r, start, chunk)| {
            let g = Graph::inference();
            let len = chunk.len();
            let hs = vec![h.0; len];
            let rs = vec![r.0; len];
            let ts: Vec<u32> = (start as u32..(start + len) as u32).collect();
            let s = self.model.score(&g, store, &hs, &rs, &ts);
            g.with_value(s, |t| chunk.copy_from_slice(t.data()));
        });
    }

    fn state_bytes(&self) -> Vec<u8> {
        self.model.state_bytes()
    }

    fn restore_state(&self, bytes: &[u8]) -> Result<(), String> {
        self.model.restore_state(bytes)
    }
}

/// The one [`TailScorer`] adapter left: bridges a [`KgeModel`] (+ its store)
/// into the legacy row-per-query scoring interface used by epoch hooks and
/// the taped evaluation path.
pub struct KgeScorer<'a> {
    model: &'a dyn KgeModel,
    store: &'a ParamStore,
}

impl<'a> KgeScorer<'a> {
    /// Wrap a model and its parameter store for evaluation.
    pub fn new(model: &'a dyn KgeModel, store: &'a ParamStore) -> Self {
        KgeScorer { model, store }
    }
}

impl TailScorer for KgeScorer<'_> {
    fn score_tails(&self, queries: &[(EntityId, RelationId)]) -> Vec<Vec<f32>> {
        let n = self.model.num_entities();
        let mut flat = vec![0.0f32; queries.len() * n];
        self.model.score_into(self.store, queries, &mut flat);
        flat.chunks(n).map(|row| row.to_vec()).collect()
    }
}

/// Capture a training checkpoint through the trait object: parameters from
/// `store`, model state via [`KgeModel::state_bytes`].
pub fn capture_kge(
    model: &dyn KgeModel,
    store: &ParamStore,
    fingerprint: u64,
    epoch_next: usize,
    history: &[crate::train::EpochStats],
) -> Snapshot {
    Snapshot::capture(
        store,
        fingerprint,
        epoch_next,
        1.0,
        0,
        model.state_bytes(),
        history,
    )
    .with_embed_store(model.entity_store_blob())
}

/// Restore a snapshot through the trait object: parameters into `store`,
/// model state via [`KgeModel::restore_state`], and — for version-2
/// snapshots — the frozen entity store via
/// [`KgeModel::restore_entity_store`]. The round trip is bit-identical
/// (PR 3's resume guarantee survives the trait indirection, and a restored
/// quantized store scores bit-identically to the captured one).
pub fn restore_kge(
    model: &dyn KgeModel,
    store: &mut ParamStore,
    snap: &Snapshot,
) -> Result<(), String> {
    snap.restore_into(store).map_err(|e| e.to_string())?;
    model.restore_state(&snap.model_state)?;
    if let Some(blob) = &snap.embed_store {
        model.restore_entity_store(blob)?;
    }
    Ok(())
}
