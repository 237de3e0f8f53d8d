//! Unified baseline registry: build + train + wrap any of the thirteen
//! Table III baselines behind one dispatch function, so the benchmark
//! harness can iterate rows uniformly.

use came_encoders::{CompGcn, Composition, ModalFeatures};
use came_kg::{
    train_negative_sampling, train_one_to_n, KgDataset, KgeModel, KgeScorer, NegSamplingConfig,
    NegWeighting, OneToNKge, OneToNModel, OneToNScorer, TailScorer, TrainConfig, TripleKge,
    TripleModel, TripleScorerAdapter,
};
use came_tensor::{ParamStore, Prng};

use crate::bilinear::{ComplEx, DistMult, DualE};
use crate::conve::ConvE;
use crate::mkgformer::MkgFormer;
use crate::multimodal::{Ikrl, Mtakgr, TransAe};
use crate::translational::{PairRE, RotatE, TransE};

/// The thirteen baselines of Table III.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Baseline {
    /// TransE (translation).
    TransE,
    /// DistMult (diagonal bilinear).
    DistMult,
    /// ComplEx (complex bilinear).
    ComplEx,
    /// ConvE (2-D convolution).
    ConvE,
    /// CompGCN (relational GCN).
    CompGcn,
    /// RotatE with uniform negatives.
    RotatE,
    /// RotatE with self-adversarial negatives.
    ARotatE,
    /// DualE (dual quaternions).
    DualE,
    /// PairRE (paired relation vectors).
    PairRE,
    /// IKRL (image/molecule-augmented TransE).
    Ikrl,
    /// MTAKGR (multimodal translation, summed sub-energies).
    Mtakgr,
    /// TransAE (multimodal autoencoder + TransE).
    TransAe,
    /// MKGformer M-Encoder core.
    MkgFormer,
}

impl Baseline {
    /// All baselines in the paper's Table III row order.
    pub fn all() -> [Baseline; 13] {
        [
            Baseline::TransE,
            Baseline::DistMult,
            Baseline::ComplEx,
            Baseline::ConvE,
            Baseline::CompGcn,
            Baseline::RotatE,
            Baseline::ARotatE,
            Baseline::DualE,
            Baseline::PairRE,
            Baseline::Ikrl,
            Baseline::Mtakgr,
            Baseline::TransAe,
            Baseline::MkgFormer,
        ]
    }

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Baseline::TransE => "TransE",
            Baseline::DistMult => "DistMult",
            Baseline::ComplEx => "ComplEx",
            Baseline::ConvE => "ConvE",
            Baseline::CompGcn => "CompGCN",
            Baseline::RotatE => "RotatE",
            Baseline::ARotatE => "a-RotatE",
            Baseline::DualE => "DualE",
            Baseline::PairRE => "PairRE",
            Baseline::Ikrl => "IKRL",
            Baseline::Mtakgr => "MTAKGR",
            Baseline::TransAe => "TransAE",
            Baseline::MkgFormer => "MKGformer",
        }
    }

    /// Whether the model consumes modal features.
    pub fn is_multimodal(self) -> bool {
        matches!(
            self,
            Baseline::Ikrl | Baseline::Mtakgr | Baseline::TransAe | Baseline::MkgFormer
        )
    }
}

/// Shared baseline hyper-parameters.
#[derive(Clone, Debug)]
pub struct BaselineHp {
    /// Embedding width (rounded up internally for ComplEx/DualE layouts).
    pub d: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Learning rate for 1-N trained models.
    pub lr_one_to_n: f32,
    /// Learning rate for negative-sampling trained models.
    pub lr_neg: f32,
    /// Negatives per positive (negative-sampling models).
    pub k_neg: usize,
    /// Margin γ.
    pub margin: f32,
    /// Label smoothing ε (1-N models).
    pub label_smoothing: f32,
    /// Convolution filters (ConvE).
    pub conv_filters: usize,
    /// Convolution kernel (ConvE).
    pub conv_kernel: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for BaselineHp {
    fn default() -> Self {
        BaselineHp {
            d: 64,
            epochs: 20,
            batch_size: 128,
            lr_one_to_n: 3e-3,
            lr_neg: 1e-2,
            k_neg: 16,
            margin: 6.0,
            label_smoothing: 0.1,
            conv_filters: 16,
            conv_kernel: 3,
            seed: 0xBA5E,
        }
    }
}

/// A trained baseline: any of the thirteen models behind the one
/// [`KgeModel`] interface, paired with its parameter store. Usable directly
/// as a [`TailScorer`] and servable through
/// [`came_kg::serve::ScoringEngine`].
pub struct TrainedBaseline {
    model: Box<dyn KgeModel + Send + Sync>,
    store: ParamStore,
    /// Per-epoch mean losses recorded during training.
    pub losses: Vec<f32>,
}

impl TrainedBaseline {
    /// The trained model as the unified trait object.
    pub fn model(&self) -> &dyn KgeModel {
        self.model.as_ref()
    }

    /// The trained model as a `Sync` trait object, shareable across the
    /// serving tier's shard worker threads.
    pub fn model_sync(&self) -> &(dyn KgeModel + Sync) {
        self.model.as_ref()
    }

    /// The trained parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable store access (checkpoint restore).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Capture a checkpoint of this baseline through the [`KgeModel`]
    /// interface: parameters from the store, model state from the trait.
    pub fn capture(&self, fingerprint: u64, epoch_next: usize) -> came_kg::Snapshot {
        came_kg::capture_kge(
            self.model.as_ref(),
            &self.store,
            fingerprint,
            epoch_next,
            &[],
        )
    }

    /// Restore a checkpoint captured from this baseline, bit-identically.
    pub fn restore(&mut self, snap: &came_kg::Snapshot) -> Result<(), String> {
        came_kg::restore_kge(self.model.as_ref(), &mut self.store, snap)
    }
}

impl TailScorer for TrainedBaseline {
    fn score_tails(&self, queries: &[(came_kg::EntityId, came_kg::RelationId)]) -> Vec<Vec<f32>> {
        KgeScorer::new(self.model.as_ref(), &self.store).score_tails(queries)
    }
}

/// Per-epoch observer: `(epoch, elapsed seconds, scorer-so-far)`.
pub type EpochHook<'h> = dyn FnMut(usize, f64, &dyn TailScorer) + 'h;

/// Build and train a baseline. `features` is required for multimodal
/// baselines and ignored otherwise.
///
/// # Panics
/// Panics if a multimodal baseline is requested without features.
pub fn train_baseline(
    kind: Baseline,
    dataset: &KgDataset,
    features: Option<&ModalFeatures>,
    hp: &BaselineHp,
    mut hook: Option<&mut EpochHook<'_>>,
) -> TrainedBaseline {
    let mut rng = Prng::new(hp.seed);
    let mut store = ParamStore::new();
    let feats = || features.unwrap_or_else(|| panic!("{} needs modal features", kind.label()));
    let d_even = hp.d.next_multiple_of(2);
    let d_oct = hp.d.next_multiple_of(8);
    match kind {
        Baseline::TransE => {
            let m = TransE::new(&mut store, dataset, hp.d, &mut rng);
            run_triple(
                kind.label(),
                m,
                store,
                dataset,
                hp,
                NegWeighting::Uniform,
                &mut hook,
            )
        }
        Baseline::DistMult => {
            let m = DistMult::new(&mut store, dataset, hp.d, &mut rng);
            run_one_to_n(kind.label(), m, store, dataset, hp, &mut hook)
        }
        Baseline::ComplEx => {
            let m = ComplEx::new(&mut store, dataset, d_even, &mut rng);
            run_one_to_n(kind.label(), m, store, dataset, hp, &mut hook)
        }
        Baseline::ConvE => {
            let m = ConvE::new(
                &mut store,
                dataset,
                hp.d,
                hp.conv_filters,
                hp.conv_kernel,
                &mut rng,
            );
            run_one_to_n(kind.label(), m, store, dataset, hp, &mut hook)
        }
        Baseline::CompGcn => {
            let m = CompGcn::new(&mut store, dataset, hp.d, 1, Composition::Mult, &mut rng);
            run_one_to_n(kind.label(), m, store, dataset, hp, &mut hook)
        }
        Baseline::RotatE => {
            let m = RotatE::new(&mut store, dataset, d_even, &mut rng);
            run_triple(
                kind.label(),
                m,
                store,
                dataset,
                hp,
                NegWeighting::Uniform,
                &mut hook,
            )
        }
        Baseline::ARotatE => {
            let m = RotatE::new(&mut store, dataset, d_even, &mut rng);
            run_triple(
                kind.label(),
                m,
                store,
                dataset,
                hp,
                NegWeighting::SelfAdversarial(1.0),
                &mut hook,
            )
        }
        Baseline::DualE => {
            let m = DualE::new(&mut store, dataset, d_oct, &mut rng);
            run_one_to_n(kind.label(), m, store, dataset, hp, &mut hook)
        }
        Baseline::PairRE => {
            let m = PairRE::new(&mut store, dataset, hp.d, &mut rng);
            run_triple(
                kind.label(),
                m,
                store,
                dataset,
                hp,
                NegWeighting::SelfAdversarial(1.0),
                &mut hook,
            )
        }
        Baseline::Ikrl => {
            let m = Ikrl::new(&mut store, dataset, feats(), hp.d, &mut rng);
            run_triple(
                kind.label(),
                m,
                store,
                dataset,
                hp,
                NegWeighting::Uniform,
                &mut hook,
            )
        }
        Baseline::Mtakgr => {
            let m = Mtakgr::new(&mut store, dataset, feats(), hp.d, &mut rng);
            run_triple(
                kind.label(),
                m,
                store,
                dataset,
                hp,
                NegWeighting::Uniform,
                &mut hook,
            )
        }
        Baseline::TransAe => {
            let m = TransAe::new(&mut store, dataset, feats(), hp.d, &mut rng);
            run_triple(
                kind.label(),
                m,
                store,
                dataset,
                hp,
                NegWeighting::Uniform,
                &mut hook,
            )
        }
        Baseline::MkgFormer => {
            let m = MkgFormer::new(&mut store, dataset, feats(), hp.d, &mut rng);
            run_one_to_n(kind.label(), m, store, dataset, hp, &mut hook)
        }
    }
}

fn run_one_to_n<M: OneToNModel + Send + Sync + 'static>(
    label: &str,
    model: M,
    mut store: ParamStore,
    dataset: &KgDataset,
    hp: &BaselineHp,
    hook: &mut Option<&mut EpochHook<'_>>,
) -> TrainedBaseline {
    let cfg = TrainConfig {
        epochs: hp.epochs,
        batch_size: hp.batch_size,
        lr: hp.lr_one_to_n,
        label_smoothing: hp.label_smoothing,
        seed: hp.seed,
        ..Default::default()
    };
    let stats = train_one_to_n(&model, &mut store, dataset, &cfg, |s, m, st| {
        if let Some(h) = hook.as_deref_mut() {
            h(s.epoch, s.elapsed_s, &OneToNScorer::new(m, st));
        }
    });
    TrainedBaseline {
        model: Box::new(OneToNKge::new(label, model, dataset.num_entities())),
        store,
        losses: stats.iter().map(|s| s.loss).collect(),
    }
}

fn run_triple<M: TripleModel + Send + Sync + 'static>(
    label: &str,
    model: M,
    mut store: ParamStore,
    dataset: &KgDataset,
    hp: &BaselineHp,
    weighting: NegWeighting,
    hook: &mut Option<&mut EpochHook<'_>>,
) -> TrainedBaseline {
    let n = dataset.num_entities();
    let cfg = NegSamplingConfig {
        base: TrainConfig {
            epochs: hp.epochs,
            batch_size: hp.batch_size,
            lr: hp.lr_neg,
            seed: hp.seed,
            ..Default::default()
        },
        k: hp.k_neg,
        margin: hp.margin,
        weighting,
    };
    let stats = train_negative_sampling(&model, &mut store, dataset, &cfg, |s, m, st| {
        if let Some(h) = hook.as_deref_mut() {
            h(s.epoch, s.elapsed_s, &TripleScorerAdapter::new(m, st, n));
        }
    });
    TrainedBaseline {
        model: Box::new(TripleKge::new(label, model, n)),
        store,
        losses: stats.iter().map(|s| s.loss).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use came_biodata::presets;
    use came_encoders::FeatureConfig;
    use came_kg::{evaluate, EvalConfig, Split};

    #[test]
    fn registry_has_thirteen_distinct_rows() {
        let all = Baseline::all();
        assert_eq!(all.len(), 13);
        let labels: std::collections::HashSet<_> = all.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), 13);
        assert_eq!(all.iter().filter(|b| b.is_multimodal()).count(), 4);
    }

    #[test]
    fn every_baseline_trains_one_epoch_and_scores() {
        let bkg = presets::tiny(0);
        let f = ModalFeatures::build(
            &bkg,
            &FeatureConfig {
                d_molecule: 8,
                d_text: 12,
                d_struct: 8,
                gin_layers: 1,
                compgcn_epochs: 1,
                seed: 0,
            },
        );
        let hp = BaselineHp {
            d: 16,
            epochs: 1,
            batch_size: 64,
            ..Default::default()
        };
        let filter = bkg.dataset.filter_index();
        let ev = EvalConfig {
            max_triples: Some(20),
            ..Default::default()
        };
        for kind in Baseline::all() {
            let trained = train_baseline(kind, &bkg.dataset, Some(&f), &hp, None);
            assert_eq!(trained.losses.len(), 1, "{}", kind.label());
            let m = evaluate(&trained, &bkg.dataset, Split::Test, &filter, &ev);
            assert!(m.count() > 0, "{} produced no rankings", kind.label());
            assert!(m.mrr() > 0.0 && m.mrr() <= 1.0, "{}", kind.label());
        }
    }

    #[test]
    fn epoch_hook_sees_every_epoch() {
        let bkg = presets::tiny(1);
        let hp = BaselineHp {
            d: 16,
            epochs: 3,
            ..Default::default()
        };
        let mut epochs_seen = Vec::new();
        {
            let mut hook = |e: usize, _t: f64, _s: &dyn TailScorer| epochs_seen.push(e);
            train_baseline(Baseline::DistMult, &bkg.dataset, None, &hp, Some(&mut hook));
        }
        assert_eq!(epochs_seen, vec![0, 1, 2]);
    }

    #[test]
    fn param_registration_and_checkpoint_round_trip() {
        let bkg = presets::tiny(3);
        let build = || {
            let mut rng = Prng::new(7);
            let mut store = ParamStore::new();
            let model = ConvE::new(&mut store, &bkg.dataset, 16, 4, 3, &mut rng);
            (model, store)
        };

        // Registration is deterministic: the same constructor yields the same
        // parameter names, shapes, and initial bytes every time.
        let (_, a) = build();
        let (_, b) = build();
        let names_a: Vec<_> = a.state_views().map(|p| p.name.to_string()).collect();
        let names_b: Vec<_> = b.state_views().map(|p| p.name.to_string()).collect();
        assert_eq!(names_a, names_b);
        for (x, y) in a.state_views().zip(b.state_views()) {
            assert_eq!(x.value.shape(), y.value.shape(), "{}", x.name);
            assert_eq!(x.value.data(), y.value.data(), "{}", x.name);
        }

        // Checkpoint round-trip: capture, train (perturbing every param),
        // restore, and the store is bit-identical to the captured state.
        let (model, mut store) = build();
        let snap = came_kg::Snapshot::capture(&store, 0xC0FE, 0, 1.0, 0, Vec::new(), &[]);
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 64,
            seed: 7,
            ..Default::default()
        };
        train_one_to_n(&model, &mut store, &bkg.dataset, &cfg, |_, _, _| {});
        let drifted = store
            .state_views()
            .zip(snap.params.iter())
            .any(|(live, saved)| live.value.data() != saved.value.as_slice());
        assert!(drifted, "training should have moved at least one parameter");
        snap.restore_into(&mut store).unwrap();
        for (live, saved) in store.state_views().zip(snap.params.iter()) {
            assert_eq!(live.name, saved.name);
            assert_eq!(live.value.data(), saved.value.as_slice(), "{}", live.name);
            assert_eq!(live.m.data(), saved.m.as_slice(), "{}", live.name);
            assert_eq!(live.v.data(), saved.v.as_slice(), "{}", live.name);
        }
    }

    #[test]
    #[should_panic(expected = "needs modal features")]
    fn multimodal_without_features_panics() {
        let bkg = presets::tiny(2);
        let hp = BaselineHp {
            d: 8,
            epochs: 1,
            ..Default::default()
        };
        train_baseline(Baseline::Ikrl, &bkg.dataset, None, &hp, None);
    }
}
