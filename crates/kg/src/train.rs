//! Shared trainers: 1-N multi-label BCE (the paper's optimisation, Eqn. 16)
//! and self-adversarial negative sampling (used by the RotatE-family
//! baselines).
//!
//! Every model in the reproduction — CamE and all thirteen baselines — trains
//! through one of these two loops, so wall-clock and quality comparisons
//! (Table III, Fig. 8) are measured on identical machinery.

use came_tensor::{Adam, Graph, ParamStore, Prng, Shape, Tensor, Var};

use crate::dataset::{KgDataset, Split};
use crate::eval::TailScorer;
use crate::labels::{NegativePolicy, OneToNBatcher};
use crate::negative::NegativeSampler;
use crate::runtime::{self, FaultState, RuntimeConfig, TrainError, TrainEvent, TrainRun};
use crate::vocab::{EntityId, RelationId};

/// A model scored with 1-N forward passes: given `B` `(head, relation)`
/// queries it produces logits over all `N` entities.
pub trait OneToNModel {
    /// Build the forward graph; result shape `[B, N]`.
    fn forward(&self, g: &Graph, store: &ParamStore, heads: &[u32], rels: &[u32]) -> Var;

    /// Optional auxiliary loss added to each step *after* the BCE term
    /// (e.g. CamE's cross-modal contrastive alignment). Called once per
    /// batch with the `(head, relation)` queries, after [`Self::forward`]
    /// on the same graph — so it may reuse cached activations. Return the
    /// already-weighted scalar term, or `None` for no extra loss.
    fn aux_loss(
        &self,
        _g: &Graph,
        _store: &ParamStore,
        _heads: &[u32],
        _rels: &[u32],
    ) -> Option<Var> {
        None
    }

    /// Opaque model-side mutable state to include in training checkpoints
    /// (e.g. a dropout RNG behind a `RefCell`). Parameters live in the
    /// [`ParamStore`] and are captured separately; this covers everything
    /// else a bit-identical resume needs. Default: stateless.
    fn state_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restore state captured by [`OneToNModel::state_bytes`] (interior
    /// mutability keeps the receiver shared). Errs on incompatible bytes.
    fn restore_state(&self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err("model is stateless but checkpoint carries model state".into())
        }
    }

    /// When the divergence sentinel trips, name the failing input source if
    /// the model can tell (e.g. which frozen modality cache holds NaN/inf).
    fn diagnose_non_finite(&self) -> Option<String> {
        None
    }

    /// Whether scores for `entity` as query head come from a degraded path
    /// (a modality the model normally uses is absent for this entity, so a
    /// fallback stood in). Serving tags such responses `degraded: true`.
    /// Default: never degraded.
    fn degraded(&self, _entity: u32) -> bool {
        false
    }

    /// Build the forward graph up to — but excluding — the final
    /// all-entity scoring product: result shape `[B, d]` such that
    /// `forward == hidden @ E^T + bias`. Models that expose this (plus
    /// [`OneToNModel::entity_head`]) let serving route candidate scoring
    /// through a fused [`came_tensor::EntityHead`] instead of the graph's
    /// dense matmul. Default: not separable.
    fn forward_hidden(
        &self,
        _g: &Graph,
        _store: &ParamStore,
        _heads: &[u32],
        _rels: &[u32],
    ) -> Option<Var> {
        None
    }

    /// The frozen entity scoring head, when [`OneToNModel::prepare_serving`]
    /// has built one. Default: none.
    fn entity_head(&self) -> Option<std::sync::Arc<came_tensor::EntityHead>> {
        None
    }

    /// Hook called when the model is put behind a scoring engine: freeze
    /// whatever serving-side structures the model wants (e.g. a quantized
    /// entity store selected by `CAME_EMBED_STORE`). Must be infallible —
    /// implementations fall back to their dense path on failure. Default:
    /// nothing to prepare.
    fn prepare_serving(&self, _store: &ParamStore) {}

    /// Serialise the frozen entity store for checkpoints, if one is active.
    /// Default: none.
    fn entity_store_blob(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restore an entity store captured by
    /// [`OneToNModel::entity_store_blob`]. Errs if the model cannot host
    /// one.
    fn restore_entity_store(&self, _bytes: &[u8]) -> Result<(), String> {
        Err("model has no entity store to restore".into())
    }
}

/// A model scored per-triple (for negative-sampling training): higher score
/// means more plausible.
///
/// `Sync` is a supertrait so evaluation can shard the 1-vs-all scoring of a
/// query across threads (see [`TripleScorerAdapter`]); triple models hold
/// only plain parameter handles, so this costs implementors nothing.
pub trait TripleModel: Sync {
    /// Build the forward graph; result shape `[B]` (or `[B,1]`).
    fn score(&self, g: &Graph, store: &ParamStore, h: &[u32], r: &[u32], t: &[u32]) -> Var;

    /// Optional auxiliary loss added to each step (e.g. TransAE's
    /// autoencoder reconstruction term). Called once per batch with the
    /// positive triples.
    fn aux_loss(
        &self,
        _g: &Graph,
        _store: &ParamStore,
        _h: &[u32],
        _r: &[u32],
        _t: &[u32],
    ) -> Option<Var> {
        None
    }

    /// Opaque model-side mutable state to include in training checkpoints.
    /// See [`OneToNModel::state_bytes`]. Default: stateless.
    fn state_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restore state captured by [`TripleModel::state_bytes`].
    fn restore_state(&self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err("model is stateless but checkpoint carries model state".into())
        }
    }

    /// Name the failing input source on a sentinel trip, if known.
    fn diagnose_non_finite(&self) -> Option<String> {
        None
    }
}

// Delegating impls so [`crate::model::OneToNKge`] / [`crate::model::TripleKge`]
// can wrap a model by reference (bench: borrowed CamE) or by box (registry:
// type-erased baselines) without per-model glue.

impl<M: OneToNModel + ?Sized> OneToNModel for &M {
    fn forward(&self, g: &Graph, store: &ParamStore, heads: &[u32], rels: &[u32]) -> Var {
        (**self).forward(g, store, heads, rels)
    }
    fn aux_loss(&self, g: &Graph, store: &ParamStore, heads: &[u32], rels: &[u32]) -> Option<Var> {
        (**self).aux_loss(g, store, heads, rels)
    }
    fn degraded(&self, entity: u32) -> bool {
        (**self).degraded(entity)
    }
    fn state_bytes(&self) -> Vec<u8> {
        (**self).state_bytes()
    }
    fn restore_state(&self, bytes: &[u8]) -> Result<(), String> {
        (**self).restore_state(bytes)
    }
    fn diagnose_non_finite(&self) -> Option<String> {
        (**self).diagnose_non_finite()
    }
    fn forward_hidden(
        &self,
        g: &Graph,
        store: &ParamStore,
        heads: &[u32],
        rels: &[u32],
    ) -> Option<Var> {
        (**self).forward_hidden(g, store, heads, rels)
    }
    fn entity_head(&self) -> Option<std::sync::Arc<came_tensor::EntityHead>> {
        (**self).entity_head()
    }
    fn prepare_serving(&self, store: &ParamStore) {
        (**self).prepare_serving(store)
    }
    fn entity_store_blob(&self) -> Option<Vec<u8>> {
        (**self).entity_store_blob()
    }
    fn restore_entity_store(&self, bytes: &[u8]) -> Result<(), String> {
        (**self).restore_entity_store(bytes)
    }
}

impl<M: OneToNModel + ?Sized> OneToNModel for Box<M> {
    fn forward(&self, g: &Graph, store: &ParamStore, heads: &[u32], rels: &[u32]) -> Var {
        (**self).forward(g, store, heads, rels)
    }
    fn aux_loss(&self, g: &Graph, store: &ParamStore, heads: &[u32], rels: &[u32]) -> Option<Var> {
        (**self).aux_loss(g, store, heads, rels)
    }
    fn degraded(&self, entity: u32) -> bool {
        (**self).degraded(entity)
    }
    fn state_bytes(&self) -> Vec<u8> {
        (**self).state_bytes()
    }
    fn restore_state(&self, bytes: &[u8]) -> Result<(), String> {
        (**self).restore_state(bytes)
    }
    fn diagnose_non_finite(&self) -> Option<String> {
        (**self).diagnose_non_finite()
    }
    fn forward_hidden(
        &self,
        g: &Graph,
        store: &ParamStore,
        heads: &[u32],
        rels: &[u32],
    ) -> Option<Var> {
        (**self).forward_hidden(g, store, heads, rels)
    }
    fn entity_head(&self) -> Option<std::sync::Arc<came_tensor::EntityHead>> {
        (**self).entity_head()
    }
    fn prepare_serving(&self, store: &ParamStore) {
        (**self).prepare_serving(store)
    }
    fn entity_store_blob(&self) -> Option<Vec<u8>> {
        (**self).entity_store_blob()
    }
    fn restore_entity_store(&self, bytes: &[u8]) -> Result<(), String> {
        (**self).restore_entity_store(bytes)
    }
}

impl<M: TripleModel + ?Sized> TripleModel for &M {
    fn score(&self, g: &Graph, store: &ParamStore, h: &[u32], r: &[u32], t: &[u32]) -> Var {
        (**self).score(g, store, h, r, t)
    }
    fn aux_loss(
        &self,
        g: &Graph,
        store: &ParamStore,
        h: &[u32],
        r: &[u32],
        t: &[u32],
    ) -> Option<Var> {
        (**self).aux_loss(g, store, h, r, t)
    }
    fn state_bytes(&self) -> Vec<u8> {
        (**self).state_bytes()
    }
    fn restore_state(&self, bytes: &[u8]) -> Result<(), String> {
        (**self).restore_state(bytes)
    }
    fn diagnose_non_finite(&self) -> Option<String> {
        (**self).diagnose_non_finite()
    }
}

impl<M: TripleModel + ?Sized> TripleModel for Box<M> {
    fn score(&self, g: &Graph, store: &ParamStore, h: &[u32], r: &[u32], t: &[u32]) -> Var {
        (**self).score(g, store, h, r, t)
    }
    fn aux_loss(
        &self,
        g: &Graph,
        store: &ParamStore,
        h: &[u32],
        r: &[u32],
        t: &[u32],
    ) -> Option<Var> {
        (**self).aux_loss(g, store, h, r, t)
    }
    fn state_bytes(&self) -> Vec<u8> {
        (**self).state_bytes()
    }
    fn restore_state(&self, bytes: &[u8]) -> Result<(), String> {
        (**self).restore_state(bytes)
    }
    fn diagnose_non_finite(&self) -> Option<String> {
        (**self).diagnose_non_finite()
    }
}

/// Options shared by both trainers.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Number of passes over the (augmented) train split.
    pub epochs: usize,
    /// Queries (or positive triples) per step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// ConvE-style label smoothing ε (1-N trainer only).
    pub label_smoothing: f32,
    /// Full or sampled 1-N negatives (1-N trainer only).
    pub policy: NegativePolicy,
    /// Optional global gradient-norm clip.
    pub grad_clip: Option<f32>,
    /// Adam weight decay.
    pub weight_decay: f32,
    /// Shuffling / sampling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 128,
            lr: 1e-3,
            label_smoothing: 0.1,
            policy: NegativePolicy::Full,
            grad_clip: Some(5.0),
            weight_decay: 0.0,
            seed: 0xCA4E,
        }
    }
}

/// Progress record handed to the per-epoch callback.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean loss over the epoch's batches.
    pub loss: f32,
    /// Wall-clock seconds since training started.
    pub elapsed_s: f64,
}

/// Per-epoch RNG stream derived from `(seed, epoch)`. Deriving each epoch's
/// stream independently — instead of threading one generator across epochs —
/// is what makes a checkpoint resume bit-identical: epoch `e` shuffles and
/// samples the same way whether or not epochs `0..e` ran in this process.
fn epoch_rng(seed: u64, epoch: usize) -> Prng {
    Prng::new(seed ^ (epoch as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Post-backward step guard shared by both trainers: always applies the
/// configured gradient clip, and — when the sentinel is enabled — trips on a
/// non-finite loss or a non-finite (post-clip) gradient norm, returning the
/// cause enriched with the model's diagnosis.
fn guard_step(
    store: &mut ParamStore,
    grad_clip: Option<f32>,
    sentinel: bool,
    loss_val: f32,
    diagnose: impl FnOnce() -> Option<String>,
) -> Result<(), String> {
    let norm = match grad_clip {
        Some(clip) => Some(store.clip_grad_norm(clip)),
        None if sentinel => Some(store.grad_norm()),
        None => None,
    };
    if !sentinel {
        return Ok(());
    }
    let trip = if !loss_val.is_finite() {
        Some(format!("non-finite loss {loss_val} at step {}", store.step))
    } else {
        norm.filter(|n| !n.is_finite())
            .map(|n| format!("non-finite gradient norm {n} at step {}", store.step))
    };
    match trip {
        None => Ok(()),
        Some(mut cause) => {
            if let Some(extra) = diagnose() {
                cause = format!("{cause}; {extra}");
            }
            Err(cause)
        }
    }
}

fn one_to_n_fingerprint(cfg: &TrainConfig, dataset: &KgDataset, store: &ParamStore) -> u64 {
    let (policy_kind, policy_k) = match cfg.policy {
        NegativePolicy::Full => (0u64, 0u64),
        NegativePolicy::Sampled(k) => (1, k as u64),
    };
    runtime::fingerprint(
        "one_to_n",
        &[
            cfg.epochs as u64,
            cfg.batch_size as u64,
            u64::from(cfg.lr.to_bits()),
            u64::from(cfg.label_smoothing.to_bits()),
            policy_kind,
            policy_k,
            u64::from(cfg.grad_clip.map_or(0, |c| c.to_bits())),
            u64::from(cfg.weight_decay.to_bits()),
            cfg.seed,
            dataset.num_entities() as u64,
            dataset.num_relations_aug() as u64,
            dataset.augmented(Split::Train).len() as u64,
        ],
        store,
    )
}

/// Train a [`OneToNModel`] with multi-label BCE over 1-N targets, inside the
/// fault-tolerant runtime: checkpoint/resume, divergence sentinel, and fault
/// injection per `rt`. `on_event` receives the full [`TrainEvent`] stream.
pub fn train_one_to_n_rt<M: OneToNModel>(
    model: &M,
    store: &mut ParamStore,
    dataset: &KgDataset,
    cfg: &TrainConfig,
    rt: &RuntimeConfig,
    mut on_event: impl FnMut(&TrainEvent, &M, &ParamStore),
) -> Result<TrainRun, TrainError> {
    let mut batcher = OneToNBatcher::new(dataset, cfg.batch_size, cfg.label_smoothing, cfg.policy);
    if batcher.num_pairs() == 0 {
        return Err(TrainError::EmptyTrainSplit);
    }
    let fp = one_to_n_fingerprint(cfg, dataset, store);
    let sentinel = rt.sentinel.enabled;
    // One tape reused across every batch: `reset()` returns node buffers to
    // the thread-local pool, so steady-state steps allocate nothing.
    let mut g = Graph::new();
    runtime::run_guarded(
        rt,
        fp,
        cfg.epochs,
        store,
        || model.state_bytes(),
        |bytes| model.restore_state(bytes),
        |epoch, lr_scale, store, faults: &mut FaultState| {
            let mut rng = epoch_rng(cfg.seed, epoch);
            let adam = Adam {
                lr: cfg.lr * lr_scale,
                weight_decay: cfg.weight_decay,
                ..Adam::default()
            };
            let mut loss_sum = 0.0f64;
            let mut n_batches = 0usize;
            for batch in batcher.epoch(&mut rng) {
                g.reset();
                let logits = model.forward(&g, store, &batch.heads, &batch.rels);
                let mut loss = match &batch.weights {
                    Some(w) => g.bce_with_logits_weighted(logits, &batch.targets, w),
                    None => g.bce_with_logits(logits, &batch.targets),
                };
                if let Some(aux) = model.aux_loss(&g, store, &batch.heads, &batch.rels) {
                    loss = g.add(loss, aux);
                }
                let loss_val = g.with_value(loss, |t| t.item());
                loss_sum += loss_val as f64;
                n_batches += 1;
                {
                    let _span = came_obs::span("phase.backward");
                    g.backward(loss, store);
                }
                if faults.take_nan_grad(store.step) {
                    store.poison_first_grad();
                }
                guard_step(store, cfg.grad_clip, sentinel, loss_val, || {
                    model.diagnose_non_finite()
                })?;
                {
                    let _span = came_obs::span("phase.optimizer");
                    store.adam_step(&adam);
                }
                came_obs::periodic_dump(store.step);
            }
            Ok((loss_sum / n_batches.max(1) as f64) as f32)
        },
        |ev, store| on_event(ev, model, store),
    )
}

/// Train a [`OneToNModel`] with multi-label BCE over 1-N targets.
/// Returns per-epoch stats; `on_epoch` fires after each epoch (used by the
/// convergence experiment to interleave evaluation).
///
/// Compatibility front-end over [`train_one_to_n_rt`] with the runtime taken
/// from the environment ([`RuntimeConfig::from_env`]): set `CAME_CKPT_DIR`
/// to make any caller resumable. An injected kill fault exits with status 75
/// (the conventional "temporary failure, retry" code); other runtime errors
/// panic with context, preserving the historical signature.
pub fn train_one_to_n<M: OneToNModel>(
    model: &M,
    store: &mut ParamStore,
    dataset: &KgDataset,
    cfg: &TrainConfig,
    mut on_epoch: impl FnMut(&EpochStats, &M, &ParamStore),
) -> Vec<EpochStats> {
    let rt = RuntimeConfig::from_env();
    // Non-epoch events (resume, divergence, recovery) need no handling here:
    // `runtime::observe_event` narrates them to stderr and the structured
    // sink before any callback fires.
    let run = train_one_to_n_rt(model, store, dataset, cfg, &rt, |ev, m, s| {
        if let TrainEvent::EpochEnd(stats) = ev {
            on_epoch(stats, m, s)
        }
    });
    match run {
        Ok(run) => run.history,
        Err(TrainError::Killed { epoch }) => exit_killed(epoch),
        Err(e) => panic!("1-N training failed: {e}"),
    }
}

/// A simulated kill: report and exit like a crashed trainer would, so CI can
/// assert the process died and then resume it. The stderr line obeys the
/// `CAME_LOG_STDERR` mirror switch; the structured record always lands in
/// the sink when one is configured.
fn exit_killed(epoch: usize) -> ! {
    if came_obs::log_active() {
        came_obs::Record::new("TrainEvent")
            .str("event", "Killed")
            .u64("epoch", epoch as u64)
            .emit();
    }
    if came_obs::stderr_mirror() {
        eprintln!(
            "came-kg: injected kill fault fired at epoch {epoch}; exiting (resume to continue)"
        );
    }
    std::process::exit(75);
}

/// Negative-sampling loss weighting.
#[derive(Clone, Copy, Debug)]
pub enum NegWeighting {
    /// Uniform `1/k` over negatives (RotatE).
    Uniform,
    /// Self-adversarial softmax with temperature `alpha` (a-RotatE, PairRE).
    SelfAdversarial(f32),
}

/// Options for the negative-sampling trainer.
#[derive(Clone, Debug)]
pub struct NegSamplingConfig {
    /// Shared options.
    pub base: TrainConfig,
    /// Negatives per positive.
    pub k: usize,
    /// Margin γ of the logistic loss.
    pub margin: f32,
    /// Negative weighting scheme.
    pub weighting: NegWeighting,
}

impl Default for NegSamplingConfig {
    fn default() -> Self {
        NegSamplingConfig {
            base: TrainConfig::default(),
            k: 16,
            margin: 6.0,
            weighting: NegWeighting::Uniform,
        }
    }
}

/// Numerically stable `softplus(x) = ln(1 + e^x)` built from primitive ops:
/// `relu(x) + ln(1 + e^{-|x|})`.
pub fn softplus(g: &Graph, x: Var) -> Var {
    let pos = g.relu(x);
    let neg_abs = g.neg(g.abs(x));
    let one_plus = g.affine(g.exp(neg_abs), 1.0, 1.0);
    g.add(pos, g.ln(one_plus))
}

fn neg_sampling_fingerprint(
    cfg: &NegSamplingConfig,
    dataset: &KgDataset,
    store: &ParamStore,
) -> u64 {
    let (weight_kind, weight_alpha) = match cfg.weighting {
        NegWeighting::Uniform => (0u64, 0u64),
        NegWeighting::SelfAdversarial(a) => (1, u64::from(a.to_bits())),
    };
    runtime::fingerprint(
        "neg_sampling",
        &[
            cfg.base.epochs as u64,
            cfg.base.batch_size as u64,
            u64::from(cfg.base.lr.to_bits()),
            u64::from(cfg.base.grad_clip.map_or(0, |c| c.to_bits())),
            u64::from(cfg.base.weight_decay.to_bits()),
            cfg.base.seed,
            cfg.k as u64,
            u64::from(cfg.margin.to_bits()),
            weight_kind,
            weight_alpha,
            dataset.num_entities() as u64,
            dataset.num_relations_aug() as u64,
            dataset.augmented(Split::Train).len() as u64,
        ],
        store,
    )
}

/// Train a [`TripleModel`] with the RotatE-style logistic loss inside the
/// fault-tolerant runtime. See [`train_one_to_n_rt`] for the runtime
/// semantics; the loss is `softplus(-(γ + s⁺)) + Σᵢ wᵢ softplus(γ + sᵢ⁻)`
/// over filtered tail corruptions.
pub fn train_negative_sampling_rt<M: TripleModel>(
    model: &M,
    store: &mut ParamStore,
    dataset: &KgDataset,
    cfg: &NegSamplingConfig,
    rt: &RuntimeConfig,
    mut on_event: impl FnMut(&TrainEvent, &M, &ParamStore),
) -> Result<TrainRun, TrainError> {
    let sampler = NegativeSampler::filtered(dataset.num_entities(), dataset.filter_index());
    let base_triples = dataset.augmented(Split::Train);
    if base_triples.is_empty() {
        return Err(TrainError::EmptyTrainSplit);
    }
    let fp = neg_sampling_fingerprint(cfg, dataset, store);
    let sentinel = rt.sentinel.enabled;
    let mut g = Graph::new();
    runtime::run_guarded(
        rt,
        fp,
        cfg.base.epochs,
        store,
        || model.state_bytes(),
        |bytes| model.restore_state(bytes),
        |epoch, lr_scale, store, faults: &mut FaultState| {
            let mut rng = epoch_rng(cfg.base.seed, epoch);
            let adam = Adam {
                lr: cfg.base.lr * lr_scale,
                weight_decay: cfg.base.weight_decay,
                ..Adam::default()
            };
            // Shuffle a fresh copy of the canonical order each epoch so the
            // permutation depends only on `(seed, epoch)`, not on how many
            // epochs this process has already run — required for resume.
            let mut triples = base_triples.clone();
            rng.shuffle(&mut triples);
            let mut loss_sum = 0.0f64;
            let mut n_batches = 0usize;
            for chunk in triples.chunks(cfg.base.batch_size) {
                let b = chunk.len();
                let (mut h, mut r, mut t) = (
                    Vec::with_capacity(b),
                    Vec::with_capacity(b),
                    Vec::with_capacity(b),
                );
                let (mut hn, mut rn, mut tn) = (
                    Vec::with_capacity(b * cfg.k),
                    Vec::with_capacity(b * cfg.k),
                    Vec::with_capacity(b * cfg.k),
                );
                for &pos in chunk {
                    h.push(pos.h.0);
                    r.push(pos.r.0);
                    t.push(pos.t.0);
                    for neg in sampler.corrupt_many(pos, cfg.k, &mut rng) {
                        hn.push(neg.h.0);
                        rn.push(neg.r.0);
                        tn.push(neg.t.0);
                    }
                }
                g.reset();
                let s_pos = model.score(&g, store, &h, &r, &t); // [B]
                let s_neg = model.score(&g, store, &hn, &rn, &tn); // [B*k]
                let s_pos = g.reshape(s_pos, Shape::d1(b));
                let s_neg = g.reshape(s_neg, Shape::d2(b, cfg.k));

                // positive term: softplus(-(γ + s⁺))
                let pos_arg = g.neg(g.affine(s_pos, 1.0, cfg.margin));
                let pos_loss = g.mean_all(softplus(&g, pos_arg));

                // negative term: Σ wᵢ softplus(γ + sᵢ⁻), w from detached scores
                let neg_arg = g.affine(s_neg, 1.0, cfg.margin);
                let per_neg = softplus(&g, neg_arg); // [B,k]
                let weights = match cfg.weighting {
                    NegWeighting::Uniform => Tensor::full(Shape::d2(b, cfg.k), 1.0 / cfg.k as f32),
                    NegWeighting::SelfAdversarial(alpha) => {
                        // softmax(α·s⁻) computed on detached values
                        g.with_value(s_neg, |t| t.map(|v| v * alpha).softmax_axis(1))
                    }
                };
                let wv = g.input(weights);
                let neg_loss = g.scale(g.mean_all(g.mul(per_neg, wv)), cfg.k as f32);

                let mut loss = g.add(pos_loss, neg_loss);
                if let Some(aux) = model.aux_loss(&g, store, &h, &r, &t) {
                    loss = g.add(loss, aux);
                }
                let loss_val = g.with_value(loss, |t| t.item());
                loss_sum += loss_val as f64;
                n_batches += 1;
                {
                    let _span = came_obs::span("phase.backward");
                    g.backward(loss, store);
                }
                if faults.take_nan_grad(store.step) {
                    store.poison_first_grad();
                }
                guard_step(store, cfg.base.grad_clip, sentinel, loss_val, || {
                    model.diagnose_non_finite()
                })?;
                {
                    let _span = came_obs::span("phase.optimizer");
                    store.adam_step(&adam);
                }
                came_obs::periodic_dump(store.step);
            }
            Ok((loss_sum / n_batches.max(1) as f64) as f32)
        },
        |ev, store| on_event(ev, model, store),
    )
}

/// Train a [`TripleModel`] with the RotatE-style logistic loss
/// `softplus(-(γ + s⁺)) + Σᵢ wᵢ softplus(γ + sᵢ⁻)` over filtered tail
/// corruptions.
///
/// Compatibility front-end over [`train_negative_sampling_rt`] with the
/// runtime taken from the environment; see [`train_one_to_n`] for the
/// error/exit conventions.
pub fn train_negative_sampling<M: TripleModel>(
    model: &M,
    store: &mut ParamStore,
    dataset: &KgDataset,
    cfg: &NegSamplingConfig,
    mut on_epoch: impl FnMut(&EpochStats, &M, &ParamStore),
) -> Vec<EpochStats> {
    let rt = RuntimeConfig::from_env();
    let run = train_negative_sampling_rt(model, store, dataset, cfg, &rt, |ev, m, s| {
        if let TrainEvent::EpochEnd(stats) = ev {
            on_epoch(stats, m, s)
        }
    });
    match run {
        Ok(run) => run.history,
        Err(TrainError::Killed { epoch }) => exit_killed(epoch),
        Err(e) => panic!("negative-sampling training failed: {e}"),
    }
}

/// Evaluation adapter: scores tail candidates with inference-mode forward
/// passes of a [`OneToNModel`].
pub struct OneToNScorer<'a, M: OneToNModel + ?Sized> {
    model: &'a M,
    store: &'a ParamStore,
}

impl<'a, M: OneToNModel + ?Sized> OneToNScorer<'a, M> {
    /// Wrap a trained model for evaluation.
    pub fn new(model: &'a M, store: &'a ParamStore) -> Self {
        OneToNScorer { model, store }
    }
}

impl<M: OneToNModel + ?Sized> TailScorer for OneToNScorer<'_, M> {
    fn score_tails(&self, queries: &[(EntityId, RelationId)]) -> Vec<Vec<f32>> {
        let g = Graph::inference();
        let heads: Vec<u32> = queries.iter().map(|q| q.0 .0).collect();
        let rels: Vec<u32> = queries.iter().map(|q| q.1 .0).collect();
        let scores = self.model.forward(&g, self.store, &heads, &rels);
        // borrow the logits in place instead of cloning the [B, N] tensor
        g.with_value(scores, |t| {
            let n = t.shape().at(1);
            t.data().chunks(n).map(|row| row.to_vec()).collect()
        })
    }
}

/// Evaluation adapter for [`TripleModel`]s: scores each query against every
/// entity by tiling the query (quadratic but only used at evaluation time).
pub struct TripleScorerAdapter<'a, M: TripleModel + ?Sized> {
    model: &'a M,
    store: &'a ParamStore,
    num_entities: usize,
}

impl<'a, M: TripleModel + ?Sized> TripleScorerAdapter<'a, M> {
    /// Wrap a trained model for evaluation over `num_entities` candidates.
    pub fn new(model: &'a M, store: &'a ParamStore, num_entities: usize) -> Self {
        TripleScorerAdapter {
            model,
            store,
            num_entities,
        }
    }
}

impl<M: TripleModel + ?Sized> TailScorer for TripleScorerAdapter<'_, M> {
    fn score_tails(&self, queries: &[(EntityId, RelationId)]) -> Vec<Vec<f32>> {
        use came_tensor::backend;
        let n = self.num_entities;
        // Each (query, entity-shard) cell is an independent inference pass
        // writing a disjoint slice of its query's row, so sharding is exact.
        // Under the Scalar backend (or one thread) there is one shard per
        // query and this degenerates to the original sequential loop.
        let shard = backend::shard_width(n);
        let mut out: Vec<Vec<f32>> = queries.iter().map(|_| vec![0.0f32; n]).collect();
        let mut tasks: Vec<(EntityId, RelationId, usize, &mut [f32])> = Vec::new();
        for (q, row) in queries.iter().zip(out.iter_mut()) {
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
            let s = self.model.score(&g, self.store, &hs, &rs, &ts);
            g.with_value(s, |t| chunk.copy_from_slice(t.data()));
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::Triple;
    use crate::vocab::{EntityKind, Vocab};
    use came_tensor::EmbeddingTable;

    /// The simplest possible 1-N model: score = e_h ⊙ w_r · e_t (DistMult).
    struct ToyDistMult {
        ent: EmbeddingTable,
        rel: EmbeddingTable,
    }

    impl ToyDistMult {
        fn new(
            store: &mut ParamStore,
            n_ent: usize,
            n_rel: usize,
            d: usize,
            rng: &mut Prng,
        ) -> Self {
            ToyDistMult {
                ent: EmbeddingTable::new(store, "ent", n_ent, d, rng),
                rel: EmbeddingTable::new(store, "rel", n_rel, d, rng),
            }
        }
    }

    impl OneToNModel for ToyDistMult {
        fn forward(&self, g: &Graph, store: &ParamStore, heads: &[u32], rels: &[u32]) -> Var {
            let h = self.ent.lookup(g, store, heads);
            let r = self.rel.lookup(g, store, rels);
            let hr = g.mul(h, r);
            let e_t = g.transpose(self.ent.full(g, store), 0, 1);
            g.matmul(hr, e_t)
        }
    }

    impl TripleModel for ToyDistMult {
        fn score(&self, g: &Graph, store: &ParamStore, h: &[u32], r: &[u32], t: &[u32]) -> Var {
            let hv = self.ent.lookup(g, store, h);
            let rv = self.rel.lookup(g, store, r);
            let tv = self.ent.lookup(g, store, t);
            let prod = g.mul(g.mul(hv, rv), tv);
            g.sum_axis(prod, 1, false)
        }
    }

    fn toy_dataset() -> KgDataset {
        let mut vocab = Vocab::new();
        for i in 0..12 {
            vocab.add_entity(format!("e{i}"), EntityKind::Other);
        }
        vocab.add_relation("r0");
        vocab.add_relation("r1");
        // deterministic structured pattern: r0 maps i -> i+1, r1 maps i -> i+2
        let mut triples = Vec::new();
        for i in 0..10u32 {
            triples.push(Triple::new(i, 0, (i + 1) % 12));
            triples.push(Triple::new(i, 1, (i + 2) % 12));
        }
        let mut rng = Prng::new(9);
        KgDataset::split(vocab, triples, (8.0, 1.0, 1.0), &mut rng)
    }

    #[test]
    fn one_to_n_training_reduces_loss_and_beats_chance() {
        let d = toy_dataset();
        let mut rng = Prng::new(0);
        let mut store = ParamStore::new();
        let model = ToyDistMult::new(
            &mut store,
            d.num_entities(),
            d.num_relations_aug(),
            16,
            &mut rng,
        );
        let cfg = TrainConfig {
            epochs: 60,
            batch_size: 8,
            lr: 5e-3,
            label_smoothing: 0.0,
            ..Default::default()
        };
        let history = train_one_to_n(&model, &mut store, &d, &cfg, |_, _, _| {});
        assert!(history.last().unwrap().loss < history[0].loss * 0.5);

        let scorer = OneToNScorer::new(&model, &store);
        let filter = d.filter_index();
        let m = crate::eval::evaluate(
            &scorer,
            &d,
            Split::Train,
            &filter,
            &crate::eval::EvalConfig::default(),
        );
        assert!(m.mrr() > 0.5, "train MRR {} too low", m.mrr());
    }

    #[test]
    fn negative_sampling_training_learns() {
        let d = toy_dataset();
        let mut rng = Prng::new(1);
        let mut store = ParamStore::new();
        let model = ToyDistMult::new(
            &mut store,
            d.num_entities(),
            d.num_relations_aug(),
            16,
            &mut rng,
        );
        let cfg = NegSamplingConfig {
            base: TrainConfig {
                epochs: 80,
                batch_size: 16,
                lr: 5e-3,
                ..Default::default()
            },
            k: 4,
            margin: 3.0,
            weighting: NegWeighting::SelfAdversarial(1.0),
        };
        let history = train_negative_sampling(&model, &mut store, &d, &cfg, |_, _, _| {});
        assert!(history.last().unwrap().loss < history[0].loss);

        let scorer = TripleScorerAdapter::new(&model, &store, d.num_entities());
        let filter = d.filter_index();
        let m = crate::eval::evaluate(
            &scorer,
            &d,
            Split::Train,
            &filter,
            &crate::eval::EvalConfig::default(),
        );
        assert!(m.mrr() > 0.4, "train MRR {} too low", m.mrr());
    }

    #[test]
    fn softplus_matches_reference() {
        let g = Graph::new();
        let x = g.input(Tensor::from_slice(&[-30.0, -1.0, 0.0, 1.0, 30.0]));
        let y = g.value(softplus(&g, x));
        for (v, x) in y.data().iter().zip([-30.0f32, -1.0, 0.0, 1.0, 30.0]) {
            let expect = if x > 20.0 { x } else { (1.0 + x.exp()).ln() };
            assert!((v - expect).abs() < 1e-4, "softplus({x}) = {v} vs {expect}");
        }
    }

    #[test]
    fn epoch_callback_fires_each_epoch() {
        let d = toy_dataset();
        let mut rng = Prng::new(2);
        let mut store = ParamStore::new();
        let model = ToyDistMult::new(
            &mut store,
            d.num_entities(),
            d.num_relations_aug(),
            8,
            &mut rng,
        );
        let mut calls = 0;
        let cfg = TrainConfig {
            epochs: 3,
            ..Default::default()
        };
        train_one_to_n(&model, &mut store, &d, &cfg, |s, _, _| {
            assert_eq!(s.epoch, calls);
            calls += 1;
        });
        assert_eq!(calls, 3);
    }

    #[test]
    fn sampled_policy_trains_too() {
        let d = toy_dataset();
        let mut rng = Prng::new(3);
        let mut store = ParamStore::new();
        let model = ToyDistMult::new(
            &mut store,
            d.num_entities(),
            d.num_relations_aug(),
            16,
            &mut rng,
        );
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 8,
            lr: 5e-3,
            label_smoothing: 0.0,
            policy: NegativePolicy::Sampled(6),
            ..Default::default()
        };
        let history = train_one_to_n(&model, &mut store, &d, &cfg, |_, _, _| {});
        assert!(history.last().unwrap().loss < history[0].loss);
    }
}
