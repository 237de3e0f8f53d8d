//! The complete CamE model (Fig. 2): frozen modal features → MMF joint
//! representation + RIC interactive representations → multi-channel
//! convolutional scoring over all candidate tails → 1-N Bernoulli training
//! (Eqn. 16).

use std::sync::{Arc, Mutex};

use came_encoders::{FrozenCache, FrozenError, ModalFeatures};
use came_kg::{EntityId, FilterIndex, KgDataset, OneToNModel, RelationId, TrainConfig};
use came_tensor::{
    build_store, EmbeddingTable, EntityHead, Graph, Linear, ParamId, ParamStore, Prng, QuantError,
    Shape, StoreKind, Tensor, Var,
};

use crate::config::CamEConfig;
use crate::mmf::{simple_multiplicative_fusion, MmfModule};
use crate::ric::RicModule;
use crate::scorer::ConvBranch;

/// Modality indices used throughout the model.
const MOD_MOLECULE: usize = 0;
const MOD_TEXT: usize = 1;
const MOD_STRUCT: usize = 2;

/// Serving-head lifecycle: engines call
/// [`OneToNModel::prepare_serving`] once at the serving boundary; the first
/// call decides between a frozen [`EntityHead`] (compact stores) and the
/// dense in-graph scoring path (`Off`, the f32 default — which keeps the
/// training forward literally unchanged and therefore bit-identical).
enum HeadState {
    Untried,
    Ready(Arc<EntityHead>),
    Off,
}

/// The CamE model. Construct with [`CamE::new`], train with
/// [`came_kg::train_one_to_n`] (or the [`CamE::fit`] convenience), evaluate
/// through [`came_kg::OneToNScorer`].
pub struct CamE {
    /// Configuration (including ablation switches).
    pub cfg: CamEConfig,
    n_entities: usize,
    // frozen-encoder output caches: computed once at construction, served
    // by row gathers per batch (invalidated if an encoder turns trainable)
    feat_m: FrozenCache,
    feat_t: FrozenCache,
    feat_s: FrozenCache,
    // learnable embeddings
    ent: EmbeddingTable,
    rel: EmbeddingTable,
    // Eqn. 9 projections into the fusion space
    w_mol: Linear,
    w_text: Linear,
    w_struct: Linear,
    mmf: Option<MmfModule>,
    // per-modality projections into the relation space for RIC
    ric_proj: Vec<Linear>,
    ric: RicModule,
    // Eqn. 15 projections W_t, W_m of interactive representations
    w_vt: Linear,
    w_vm: Linear,
    branch1: ConvBranch,
    branch2: ConvBranch,
    ent_bias: ParamId,
    // Learned per-modality fallback embeddings `[1, d_m]` / `[1, d_t]` in
    // the raw feature space: they stand in for absent (or dropout-masked)
    // modality rows and flow through the same projections as real features.
    fallback_m: ParamId,
    fallback_t: ParamId,
    // A Mutex (not RefCell) so a trained CamE is `Sync` and can be scored
    // concurrently from the serving tier's shard workers; training forwards
    // take the lock once per step, inference forwards never contend.
    dropout_rng: Mutex<Prng>,
    // Modality-dropout coin flips get their own stream so enabling the knob
    // leaves the feature-dropout stream (and pre-existing runs) untouched;
    // its position is checkpointed alongside `dropout_rng`.
    modality_rng: Mutex<Prng>,
    // Frozen entity scoring head for serving (CAME_EMBED_STORE), decided at
    // the first `prepare_serving` call; `Off` routes through the dense
    // in-graph matmul exactly as before.
    serve_head: Mutex<HeadState>,
}

impl CamE {
    /// Build a CamE over a dataset and its frozen modal features.
    ///
    /// # Panics
    /// Panics if the feature tables are misaligned with the dataset or
    /// contain NaN/inf — use [`CamE::try_new`] to handle those as values.
    pub fn new(
        store: &mut ParamStore,
        dataset: &KgDataset,
        features: &ModalFeatures,
        cfg: CamEConfig,
    ) -> Self {
        match CamE::try_new(store, dataset, features, cfg) {
            Ok(model) => model,
            Err(e) => panic!("cannot build CamE: {e}"),
        }
    }

    /// Fallible constructor: rejects misaligned or non-finite feature tables
    /// with a typed [`FrozenError`] naming the offending modality, instead
    /// of asserting.
    pub fn try_new(
        store: &mut ParamStore,
        dataset: &KgDataset,
        features: &ModalFeatures,
        cfg: CamEConfig,
    ) -> Result<Self, FrozenError> {
        let n = dataset.num_entities();
        features.try_validate(n)?;
        let mut cfg = cfg;
        // a dataset without any molecule cannot use the molecular modality
        if !features.has_molecule.iter().any(|&m| m) {
            cfg.use_molecule = false;
        }
        let mut rng = Prng::new(cfg.seed);
        let (d_m, d_t, d_s) = features.dims();
        let (de, df) = (cfg.d_embed, cfg.d_fusion);

        // The paper pretrains structured embeddings with CompGCN (§III) and
        // only drops that initialisation in the Fig. 8(a) fairness setting;
        // mirror it: warm-start the entity table from the structural
        // features (overlapping columns; extra columns keep Xavier init).
        let ent = EmbeddingTable::new(store, "came.ent", n, de, &mut rng);
        if cfg.use_pretrained_struct {
            let src = &features.structural;
            let cols = d_s.min(de);
            let table = store.value_mut(ent.table);
            for row in 0..n {
                for c in 0..cols {
                    table.data_mut()[row * de + c] = src.data()[row * d_s + c];
                }
            }
        }
        let rel = EmbeddingTable::new(store, "came.rel", dataset.num_relations_aug(), de, &mut rng);
        let w_mol = Linear::no_bias(store, "came.w1", d_m, df, &mut rng);
        let w_text = Linear::no_bias(store, "came.w2", d_t, df, &mut rng);
        // the structural modality is either the frozen CompGCN features or
        // the learnable entity embedding (Fig. 8(a) fairness variant)
        let d_struct_in = if cfg.use_pretrained_struct { d_s } else { de };
        let w_struct = Linear::no_bias(store, "came.w3", d_struct_in, df, &mut rng);

        let n_active = Self::active_count(&cfg);
        let mmf = (cfg.use_mmf && n_active >= 2).then(|| {
            MmfModule::new(
                store,
                "came.mmf",
                n_active,
                df,
                cfg.n_heads,
                cfg.lambda,
                cfg.use_exchange.then_some(cfg.theta),
                cfg.use_tca,
                &mut rng,
            )
        });

        let ric_proj = vec![
            Linear::no_bias(store, "came.ric_proj_m", d_m, de, &mut rng),
            Linear::no_bias(store, "came.ric_proj_t", d_t, de, &mut rng),
            Linear::no_bias(store, "came.ric_proj_s", d_struct_in, de, &mut rng),
        ];
        let ric = RicModule::new(
            store,
            "came.ric",
            3,
            de,
            cfg.n_heads,
            cfg.lambda,
            cfg.use_ric && cfg.use_tca,
            &mut rng,
        );

        let w_vt = Linear::no_bias(store, "came.w_vt", 2 * de, df, &mut rng);
        let w_vm = Linear::no_bias(store, "came.w_vm", 2 * de, df, &mut rng);
        let b1_channels = 1 + usize::from(cfg.use_text) + usize::from(cfg.use_molecule);
        let branch1 = ConvBranch::new(
            store,
            "came.b1",
            b1_channels,
            df,
            cfg.n_filters,
            cfg.kernel,
            de,
            &mut rng,
        );
        let branch2 = ConvBranch::new(
            store,
            "came.b2",
            2,
            2 * de,
            cfg.n_filters,
            cfg.kernel,
            de,
            &mut rng,
        );
        let ent_bias = store.add_zeros("came.ent_bias", Shape::d1(n));
        // Zero-init keeps absent rows bit-identical to the pre-fallback
        // model at step 0 (they were served as zero rows) and draws nothing
        // from the init RNG, so all other parameters keep their streams.
        let fallback_m = store.add_zeros("came.fallback_m", Shape::d2(1, d_m));
        let fallback_t = store.add_zeros("came.fallback_t", Shape::d2(1, d_t));
        let dropout_rng = Mutex::new(Prng::new(cfg.seed ^ 0xD409));
        let modality_rng = Mutex::new(Prng::new(cfg.seed ^ 0x30D0));

        let (feat_m, feat_t, feat_s) = features.caches();
        Ok(CamE {
            n_entities: n,
            feat_m,
            feat_t,
            feat_s,
            ent,
            rel,
            w_mol,
            w_text,
            w_struct,
            mmf,
            ric_proj,
            ric,
            w_vt,
            w_vm,
            branch1,
            branch2,
            ent_bias,
            fallback_m,
            fallback_t,
            dropout_rng,
            modality_rng,
            serve_head: Mutex::new(HeadState::Untried),
            cfg,
        })
    }

    fn active_count(cfg: &CamEConfig) -> usize {
        1 + usize::from(cfg.use_text) + usize::from(cfg.use_molecule)
    }

    /// Number of entities scored per query.
    pub fn num_entities(&self) -> usize {
        self.n_entities
    }

    /// Convenience trainer: 1-N BCE via [`came_kg::train_one_to_n`].
    pub fn fit(
        &self,
        store: &mut ParamStore,
        dataset: &KgDataset,
        train_cfg: &TrainConfig,
    ) -> Vec<came_kg::EpochStats> {
        came_kg::train_one_to_n(self, store, dataset, train_cfg, |_, _, _| {})
    }

    /// Top-`k` tail predictions for `(h, r)`, optionally excluding known
    /// facts (used by the Fig. 7 case study).
    pub fn predict_topk(
        &self,
        store: &ParamStore,
        h: EntityId,
        r: RelationId,
        k: usize,
        exclude: Option<&FilterIndex>,
    ) -> Vec<(EntityId, f32)> {
        let g = Graph::inference();
        let scores = self.forward(&g, store, &[h.0], &[r.0]);
        // rank from a borrow of the logits — no tensor clone
        let mut ranked: Vec<(EntityId, f32)> = g.with_value(scores, |row| {
            row.data()
                .iter()
                .enumerate()
                .filter(|&(e, _)| exclude.is_none_or(|f| !f.contains(h, r, EntityId(e as u32))))
                .map(|(e, &s)| (EntityId(e as u32), s))
                .collect()
        });
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked.truncate(k);
        ranked
    }

    /// Serving preflight over the frozen encoder caches this model gathers
    /// from: each active modality's cache must be fresh, finite, and aligned
    /// with the served entity space. Run once when the model goes behind a
    /// scoring endpoint; per-request gathers then skip validation entirely.
    /// Partial modality coverage is *not* an error: entities missing a
    /// modality are served through the learned fallback embedding and their
    /// responses tagged degraded. The preflight publishes coverage on the
    /// `serve.degraded_entities` gauge (and per-modality sub-gauges) so
    /// operators see how much of the entity space is degraded.
    pub fn serve_preflight(&self) -> Result<(), FrozenError> {
        let mut caches = vec![];
        if self.cfg.use_molecule {
            caches.push(&self.feat_m);
        }
        if self.cfg.use_text {
            caches.push(&self.feat_t);
        }
        if self.cfg.use_pretrained_struct {
            caches.push(&self.feat_s);
        }
        for cache in caches {
            cache.preflight_coverage(self.n_entities)?;
        }
        if came_obs::enabled() {
            let degraded = (0..self.n_entities as u32)
                .filter(|&e| self.head_degraded(e))
                .count();
            came_obs::registry()
                .gauge("serve.degraded_entities")
                .set(degraded as i64);
        }
        Ok(())
    }

    /// Whether scoring head `entity` takes the degraded path: an active
    /// modality has no row for it, so the learned fallback stands in.
    pub fn head_degraded(&self, entity: u32) -> bool {
        (self.cfg.use_molecule && !self.feat_m.is_present(entity))
            || (self.cfg.use_text && !self.feat_t.is_present(entity))
    }

    /// Whether any served entity is degraded (partial modality coverage).
    pub fn serving_degraded(&self) -> bool {
        (self.cfg.use_molecule && self.feat_m.missing_rows() > 0)
            || (self.cfg.use_text && self.feat_t.missing_rows() > 0)
    }

    /// Gather one modality's rows for `heads`, routing entities whose row
    /// is absent — or knocked out by modality dropout during training —
    /// through the learned fallback embedding. When every head is present
    /// and no dropout fires, the gathered rows pass through untouched, so
    /// full-coverage runs build exactly the pre-fallback graph.
    fn modal_rows(
        &self,
        g: &Graph,
        store: &ParamStore,
        cache: &came_encoders::FrozenCache,
        fallback: ParamId,
        p_drop: f32,
        heads: &[u32],
    ) -> Var {
        let b = heads.len();
        let mut keep: Vec<bool> = heads.iter().map(|&h| cache.is_present(h)).collect();
        if p_drop > 0.0 && g.records_tape() {
            // One draw per head (present or not) keeps the stream position a
            // pure function of rows seen, so snapshots replay bit-identically.
            let mut rng = self.modality_rng.lock().unwrap();
            for k in keep.iter_mut() {
                if rng.chance(p_drop as f64) {
                    *k = false;
                }
            }
        }
        let rows = g.input(cache.rows(heads));
        if keep.iter().all(|&k| k) {
            return rows;
        }
        let d = cache.dim();
        let mut keep_mask = vec![0.0f32; b * d];
        let mut fill = vec![0.0f32; b];
        for (i, &k) in keep.iter().enumerate() {
            if k {
                keep_mask[i * d..(i + 1) * d].fill(1.0);
            } else {
                fill[i] = 1.0;
            }
        }
        let keep_t = g.input(Tensor::from_vec(Shape::d2(b, d), keep_mask));
        let fill_t = g.input(Tensor::from_vec(Shape::d2(b, 1), fill));
        // `[B,1] @ [1,d]` broadcasts the fallback onto dropped rows and
        // routes their gradients back into it.
        let fb = g.matmul(fill_t, g.param(store, fallback));
        g.add(g.mul(rows, keep_t), fb)
    }

    /// Freeze the entity-scoring head into an [`EntityHead`] of the given
    /// [`StoreKind`], snapshotting the current entity embeddings and bias.
    /// `F32` disables the head (`Off`): the dense in-graph matmul is already
    /// the f32 path, and keeping it avoids a redundant copy of the table.
    /// Serving thereafter scores candidates through the store's fused
    /// dequant kernels; call again after further training to re-freeze.
    pub fn freeze_entity_store(
        &self,
        store: &ParamStore,
        kind: StoreKind,
    ) -> Result<(), QuantError> {
        if kind == StoreKind::F32 {
            *self.serve_head.lock().unwrap() = HeadState::Off;
            return Ok(());
        }
        let (n, de) = (self.n_entities, self.cfg.d_embed);
        let rows = store.value(self.ent.table);
        let bias = store.value(self.ent_bias).data().to_vec();
        let est = build_store(kind, rows.data(), n, de)?;
        *self.serve_head.lock().unwrap() = HeadState::Ready(Arc::new(EntityHead::new(est, bias)));
        Ok(())
    }
}

impl CamE {
    /// The forward graph up to — but excluding — the final all-entity
    /// scoring product: MMF fusion, RIC interactions, and both convolution
    /// branches, returning the `[B, d_e]` hidden block such that
    /// `forward == hidden @ E^T + ent_bias`.
    fn hidden_forward(&self, g: &Graph, store: &ParamStore, heads: &[u32], rels: &[u32]) -> Var {
        let cfg = &self.cfg;
        let mut rng = self.dropout_rng.lock().unwrap();

        // ---- frozen-gather: embedding lookups + cached-encoder rows ----
        let gather = came_obs::span("phase.frozen_gather");
        let r_emb = self.rel.lookup(g, store, rels); // [B, d_e]
        let e_h = self.ent.lookup(g, store, heads); // [B, d_e]
        let (p_mol, p_text) = cfg.modality_dropout;
        let m_raw = cfg
            .use_molecule
            .then(|| self.modal_rows(g, store, &self.feat_m, self.fallback_m, p_mol, heads));
        let t_raw = cfg
            .use_text
            .then(|| self.modal_rows(g, store, &self.feat_t, self.fallback_t, p_text, heads));
        let s_raw = if cfg.use_pretrained_struct {
            g.input(self.feat_s.rows(heads))
        } else {
            e_h
        };
        drop(gather);

        // ---- MMF: multimodal joint representation h_f ------------------
        // (`phase.tca` spans opened inside the fuse nest as children, so
        // `phase.mmf` self-time excludes the co-attention cost)
        let mmf_span = came_obs::span("phase.mmf");
        let mut fused_inputs = Vec::with_capacity(3);
        if let Some(m) = m_raw {
            fused_inputs.push(self.w_mol.apply(g, store, m));
        }
        if let Some(t) = t_raw {
            fused_inputs.push(self.w_text.apply(g, store, t));
        }
        fused_inputs.push(self.w_struct.apply(g, store, s_raw));
        let h_f = match &self.mmf {
            Some(mmf) if fused_inputs.len() >= 2 => mmf.fuse(g, store, &fused_inputs),
            _ => simple_multiplicative_fusion(g, &fused_inputs),
        };
        let h_f = g.dropout(h_f, cfg.dropout, &mut rng);
        drop(mmf_span);

        // ---- RIC: interactive representations v_ω ----------------------
        let ric_span = came_obs::span("phase.ric");
        let interact = |idx: usize, raw: Var| -> Var {
            let q = self.ric_proj[idx].apply(g, store, raw);
            self.ric.interact(g, store, idx, q, r_emb)
        };
        let v_m = m_raw.map(|m| interact(MOD_MOLECULE, m));
        let v_t = t_raw.map(|t| interact(MOD_TEXT, t));
        let v_s = interact(MOD_STRUCT, s_raw);
        let v_0 = g.concat(&[e_h, r_emb], 1);
        drop(ric_span);

        // ---- Eqn. 15: two convolution branches --------------------------
        let _scorer_span = came_obs::span("phase.scorer");
        let mut b1_channels = vec![h_f];
        if let Some(v_t) = v_t {
            b1_channels.push(self.w_vt.apply(g, store, v_t));
        }
        if let Some(v_m) = v_m {
            b1_channels.push(self.w_vm.apply(g, store, v_m));
        }
        let u1 = self.branch1.apply(g, store, &b1_channels);
        let u2 = self.branch2.apply(g, store, &[v_s, v_0]);
        let u1 = g.dropout(u1, cfg.dropout, &mut rng);
        let u2 = g.dropout(u2, cfg.dropout, &mut rng);
        g.add(u1, u2) // [B, d_e]
    }
}

impl OneToNModel for CamE {
    fn forward(&self, g: &Graph, store: &ParamStore, heads: &[u32], rels: &[u32]) -> Var {
        let hidden = self.hidden_forward(g, store, heads, rels);
        // scores over all candidate tails
        let _scorer_span = came_obs::span("phase.scorer");
        let all_ent = g.transpose(self.ent.full(g, store), 0, 1); // [d_e, N]
        let scores = g.matmul(hidden, all_ent);
        g.add(scores, g.param(store, self.ent_bias))
    }

    fn forward_hidden(
        &self,
        g: &Graph,
        store: &ParamStore,
        heads: &[u32],
        rels: &[u32],
    ) -> Option<Var> {
        Some(self.hidden_forward(g, store, heads, rels))
    }

    fn entity_head(&self) -> Option<Arc<EntityHead>> {
        match &*self.serve_head.lock().unwrap() {
            HeadState::Ready(h) => Some(h.clone()),
            _ => None,
        }
    }

    // Serving boundary: decide the scoring path once, from CAME_EMBED_STORE.
    // Infallible by design — a quantization failure logs once and falls back
    // to the dense f32 path rather than refusing to serve.
    fn prepare_serving(&self, store: &ParamStore) {
        if !matches!(*self.serve_head.lock().unwrap(), HeadState::Untried) {
            return;
        }
        let kind = StoreKind::from_env();
        if let Err(e) = self.freeze_entity_store(store, kind) {
            eprintln!(
                "came: CAME_EMBED_STORE={} unusable ({e}); serving dense f32",
                kind.name()
            );
            *self.serve_head.lock().unwrap() = HeadState::Off;
        }
    }

    fn entity_store_blob(&self) -> Option<Vec<u8>> {
        self.entity_head().map(|h| h.to_blob())
    }

    fn restore_entity_store(&self, bytes: &[u8]) -> Result<(), String> {
        let head = EntityHead::from_blob(bytes).map_err(|e| e.to_string())?;
        if head.store().len() != self.n_entities || head.store().dim() != self.cfg.d_embed {
            return Err(format!(
                "entity store shape [{}, {}] does not fit this model's [{}, {}]",
                head.store().len(),
                head.store().dim(),
                self.n_entities,
                self.cfg.d_embed
            ));
        }
        *self.serve_head.lock().unwrap() = HeadState::Ready(Arc::new(head));
        Ok(())
    }

    // Cross-modal contrastive alignment (InfoNCE): for batch heads carrying
    // *both* molecule and text, project each modality into the fusion space
    // and ask every molecule row to pick out its own entity's text row
    // against the rest of the batch. Weighted by `cfg.contrastive_w`.
    fn aux_loss(&self, g: &Graph, store: &ParamStore, heads: &[u32], _rels: &[u32]) -> Option<Var> {
        let w = self.cfg.contrastive_w;
        if w <= 0.0 || !self.cfg.use_molecule || !self.cfg.use_text {
            return None;
        }
        // unique heads with both modalities — duplicates would put the same
        // positive pair on two rows and turn it into its own false negative
        let mut seen = std::collections::HashSet::new();
        let both: Vec<u32> = heads
            .iter()
            .copied()
            .filter(|&h| self.feat_m.is_present(h) && self.feat_t.is_present(h) && seen.insert(h))
            .collect();
        let k = both.len();
        if k < 2 {
            return None;
        }
        let m = self.w_mol.apply(g, store, g.input(self.feat_m.rows(&both))); // [K, d_f]
        let t = self
            .w_text
            .apply(g, store, g.input(self.feat_t.rows(&both))); // [K, d_f]
        let logits = g.matmul(m, g.transpose(t, 0, 1)); // [K, K]
        let probs = g.softmax(logits, 1);
        // epsilon keeps ln() finite if a row saturates; eye picks diagonals
        let eps = g.input(Tensor::from_vec(Shape::d2(k, k), vec![1e-9; k * k]));
        let mut eye = vec![0.0f32; k * k];
        for i in 0..k {
            eye[i * k + i] = 1.0;
        }
        let picked = g.mul(
            g.ln(g.add(probs, eps)),
            g.input(Tensor::from_vec(Shape::d2(k, k), eye)),
        );
        let nll = g.neg(g.scale(g.sum_all(picked), 1.0 / k as f32));
        Some(g.scale(nll, w))
    }

    fn degraded(&self, entity: u32) -> bool {
        self.head_degraded(entity)
    }

    // Checkpointing: the model-side mutable state outside the ParamStore is
    // the two RNG streams (feature dropout + modality dropout); a
    // bit-identical resume must restore their exact positions.
    fn state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        for rng in [&self.dropout_rng, &self.modality_rng] {
            for w in rng.lock().unwrap().save_state() {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out
    }

    fn restore_state(&self, bytes: &[u8]) -> Result<(), String> {
        if bytes.len() != 24 && bytes.len() != 48 {
            return Err(format!(
                "CamE checkpoint state must be 24 bytes (dropout RNG) or 48 (plus modality-dropout RNG), got {}",
                bytes.len()
            ));
        }
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
        *self.dropout_rng.lock().unwrap() = Prng::from_saved([word(0), word(1), word(2)]);
        *self.modality_rng.lock().unwrap() = if bytes.len() == 48 {
            Prng::from_saved([word(3), word(4), word(5)])
        } else {
            // pre-PR-8 checkpoint: modality dropout did not exist, so the
            // stream is at its seed position
            Prng::new(self.cfg.seed ^ 0x30D0)
        };
        Ok(())
    }

    fn diagnose_non_finite(&self) -> Option<String> {
        for cache in [&self.feat_m, &self.feat_t, &self.feat_s] {
            if let Err(e) = cache.check_finite() {
                return Some(e.to_string());
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ablation;
    use came_biodata::presets;
    use came_encoders::FeatureConfig;
    use came_kg::{evaluate, EvalConfig, OneToNScorer, Split};

    fn small_features(bkg: &came_biodata::MultimodalBkg) -> ModalFeatures {
        ModalFeatures::build(
            bkg,
            &FeatureConfig {
                d_molecule: 16,
                d_text: 24,
                d_struct: 16,
                gin_layers: 2,
                compgcn_epochs: 2,
                seed: 3,
            },
        )
    }

    fn small_cfg() -> CamEConfig {
        CamEConfig {
            d_embed: 32,
            d_fusion: 32,
            n_filters: 4,
            kernel: 3,
            n_heads: 2,
            dropout: 0.1,
            ..Default::default()
        }
    }

    #[test]
    fn forward_shapes_and_finiteness() {
        let bkg = presets::tiny(0);
        let f = small_features(&bkg);
        let mut store = ParamStore::new();
        let model = CamE::new(&mut store, &bkg.dataset, &f, small_cfg());
        let g = Graph::inference();
        let scores = model.forward(&g, &store, &[0, 1, 2], &[0, 1, 0]);
        let v = g.value(scores);
        assert_eq!(v.shape(), Shape::d2(3, bkg.dataset.num_entities()));
        assert!(!v.has_non_finite());
    }

    #[test]
    fn serve_preflight_passes_on_a_freshly_built_model() {
        let bkg = presets::tiny(6);
        let f = small_features(&bkg);
        let mut store = ParamStore::new();
        let model = CamE::new(&mut store, &bkg.dataset, &f, small_cfg());
        assert_eq!(model.serve_preflight(), Ok(()));
    }

    #[test]
    fn all_ablations_build_and_run() {
        let bkg = presets::tiny(1);
        let f = small_features(&bkg);
        for ab in Ablation::all() {
            let mut store = ParamStore::new();
            let cfg = ab.apply(small_cfg());
            let model = CamE::new(&mut store, &bkg.dataset, &f, cfg);
            let g = Graph::inference();
            let scores = model.forward(&g, &store, &[0, 5], &[0, 2]);
            assert_eq!(
                g.shape(scores),
                Shape::d2(2, bkg.dataset.num_entities()),
                "{}",
                ab.label()
            );
        }
    }

    #[test]
    fn molecule_free_dataset_disables_molecular_modality() {
        let bkg = presets::omaha_mm_like(0);
        let f = small_features(&bkg);
        let mut store = ParamStore::new();
        let model = CamE::new(&mut store, &bkg.dataset, &f, small_cfg());
        assert!(!model.cfg.use_molecule);
        let g = Graph::inference();
        let s = model.forward(&g, &store, &[0], &[0]);
        assert!(!g.value(s).has_non_finite());
    }

    #[test]
    fn short_training_learns_above_chance() {
        let bkg = presets::tiny(2);
        let d = &bkg.dataset;
        let f = small_features(&bkg);
        let mut store = ParamStore::new();
        let model = CamE::new(&mut store, d, &f, small_cfg());
        let cfg = TrainConfig {
            epochs: 25,
            batch_size: 64,
            lr: 3e-3,
            ..Default::default()
        };
        let hist = model.fit(&mut store, d, &cfg);
        assert!(hist.last().unwrap().loss < hist[0].loss);
        let filter = d.filter_index();
        let m = evaluate(
            &OneToNScorer::new(&model, &store),
            d,
            Split::Train,
            &filter,
            &EvalConfig {
                max_triples: Some(150),
                ..Default::default()
            },
        );
        // random MRR on ~110 entities is ~0.05
        assert!(m.mrr() > 0.2, "train MRR {} barely above chance", m.mrr());
    }

    #[test]
    fn modality_poor_dataset_trains_and_scores_degraded_heads() {
        let bkg = presets::modality_poor_like(5);
        let f = small_features(&bkg);
        let mut store = ParamStore::new();
        let cfg = CamEConfig {
            modality_dropout: (0.2, 0.2),
            contrastive_w: 0.05,
            ..small_cfg()
        };
        let model = CamE::new(&mut store, &bkg.dataset, &f, cfg);
        assert!(model.serving_degraded(), "preset should leave gaps");
        assert_eq!(
            model.serve_preflight(),
            Ok(()),
            "partial coverage is not an error"
        );
        let hist = model.fit(
            &mut store,
            &bkg.dataset,
            &TrainConfig {
                epochs: 3,
                batch_size: 64,
                ..Default::default()
            },
        );
        assert!(hist.iter().all(|e| e.loss.is_finite()));
        let degraded_head = (0..bkg.num_entities() as u32)
            .find(|&e| model.head_degraded(e))
            .expect("some head should be degraded");
        let g = Graph::inference();
        let s = model.forward(&g, &store, &[degraded_head], &[0]);
        assert!(!g.value(s).has_non_finite());
    }

    #[test]
    fn fallback_embeddings_learn_under_modality_dropout() {
        let bkg = presets::tiny(4);
        let f = small_features(&bkg);
        let mut store = ParamStore::new();
        let cfg = CamEConfig {
            modality_dropout: (0.5, 0.5),
            ..small_cfg()
        };
        let model = CamE::new(&mut store, &bkg.dataset, &f, cfg);
        assert!(
            store
                .value(model.fallback_t)
                .data()
                .iter()
                .all(|&x| x == 0.0),
            "fallbacks start at zero"
        );
        model.fit(
            &mut store,
            &bkg.dataset,
            &TrainConfig {
                epochs: 2,
                batch_size: 64,
                ..Default::default()
            },
        );
        assert!(
            store
                .value(model.fallback_t)
                .data()
                .iter()
                .any(|&x| x != 0.0),
            "dropout should route gradients into the text fallback"
        );
        assert!(
            store
                .value(model.fallback_m)
                .data()
                .iter()
                .any(|&x| x != 0.0),
            "dropout should route gradients into the molecule fallback"
        );
    }

    #[test]
    fn full_coverage_without_dropout_is_bit_identical_to_plain_gather() {
        // the fallback path must not perturb the graph when unused
        let bkg = presets::tiny(7);
        let f = small_features(&bkg);
        let mut s1 = ParamStore::new();
        let m1 = CamE::new(&mut s1, &bkg.dataset, &f, small_cfg());
        let g = Graph::inference();
        let a = g.value(m1.forward(&g, &s1, &[0, 1, 2], &[0, 1, 0]));
        let g2 = Graph::inference();
        let b = g2.value(m1.forward(&g2, &s1, &[0, 1, 2], &[0, 1, 0]));
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn contrastive_aux_loss_fires_only_when_weighted_and_eligible() {
        let bkg = presets::tiny(8);
        let f = small_features(&bkg);
        let mut store = ParamStore::new();
        let model = CamE::new(&mut store, &bkg.dataset, &f, small_cfg());
        let g = Graph::inference();
        assert!(
            model.aux_loss(&g, &store, &[0, 1, 2], &[0, 0, 0]).is_none(),
            "w = 0 disables the term"
        );

        let mut store2 = ParamStore::new();
        let cfg = CamEConfig {
            contrastive_w: 0.1,
            ..small_cfg()
        };
        let model2 = CamE::new(&mut store2, &bkg.dataset, &f, cfg);
        let both: Vec<u32> = (0..bkg.num_entities() as u32)
            .filter(|&e| !model2.head_degraded(e))
            .take(4)
            .collect();
        assert!(both.len() >= 2, "tiny preset has dual-modality entities");
        let aux = model2.aux_loss(&g, &store2, &both, &vec![0; both.len()]);
        let v = g.value(aux.expect("eligible pairs should produce a loss"));
        assert!(v.data()[0].is_finite());
        // a single eligible head has no in-batch negatives
        assert!(model2.aux_loss(&g, &store2, &both[..1], &[0]).is_none());
    }

    #[test]
    fn state_roundtrip_covers_both_rng_streams() {
        let bkg = presets::tiny(9);
        let f = small_features(&bkg);
        let mut store = ParamStore::new();
        let cfg = CamEConfig {
            modality_dropout: (0.3, 0.3),
            ..small_cfg()
        };
        let model = CamE::new(&mut store, &bkg.dataset, &f, cfg);
        let before = model.state_bytes();
        assert_eq!(before.len(), 48);
        // advance both streams with a training-graph forward
        let g = Graph::new();
        let _ = model.forward(&g, &store, &[0, 1, 2, 3], &[0, 0, 1, 1]);
        let advanced = model.state_bytes();
        assert_ne!(
            before, advanced,
            "training forward should consume both RNGs"
        );
        model.restore_state(&before).unwrap();
        assert_eq!(model.state_bytes(), before);
        // legacy 24-byte checkpoints restore the dropout RNG and reset the
        // modality stream to its seed position
        model.restore_state(&before[..24]).unwrap();
        assert_eq!(model.state_bytes()[..24], before[..24]);
        assert!(model.restore_state(&before[..10]).is_err());
    }

    #[test]
    fn predict_topk_excludes_known_and_orders_scores() {
        let bkg = presets::tiny(3);
        let d = &bkg.dataset;
        let f = small_features(&bkg);
        let mut store = ParamStore::new();
        let model = CamE::new(&mut store, d, &f, small_cfg());
        let filter = d.filter_index();
        let t = d.train[0];
        let top = model.predict_topk(&store, t.h, t.r, 5, Some(&filter));
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1, "not sorted");
        }
        for (e, _) in &top {
            assert!(!filter.contains(t.h, t.r, *e), "known fact not excluded");
        }
        // unfiltered top-k may include the known tail
        let top_raw = model.predict_topk(&store, t.h, t.r, d.num_entities(), None);
        assert_eq!(top_raw.len(), d.num_entities());
    }
}
