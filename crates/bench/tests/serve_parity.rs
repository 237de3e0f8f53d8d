//! End-to-end guarantees of the unified serving path: every model — CamE and
//! all thirteen baselines — scores identically with and without the tape,
//! the serving engine reproduces the legacy evaluation bit for bit, top-k
//! retrieval equals a full sort (ties included), and checkpoints round-trip
//! through the `KgeModel` trait object bit-identically.

use std::sync::Mutex;

use came_baselines::{train_baseline, Baseline, BaselineHp, TrainedBaseline};
use came_bench::{came_config_drkg, came_kge, train_came};
use came_biodata::presets;
use came_biodata::MultimodalBkg;
use came_encoders::{FeatureConfig, ModalFeatures};
use came_kg::{
    capture_kge, evaluate, restore_kge, EntityId, EvalConfig, KgeModel, RelationId, ScoringEngine,
    ServeConfig, ServeTier, Split, TierConfig, TopKRequest,
};

// The infer switch is process-global; serialise the tests that flip it.
static SWITCH_LOCK: Mutex<()> = Mutex::new(());

fn features_for(bkg: &MultimodalBkg) -> ModalFeatures {
    ModalFeatures::build(
        bkg,
        &FeatureConfig {
            d_molecule: 8,
            d_text: 12,
            d_struct: 8,
            gin_layers: 1,
            compgcn_epochs: 1,
            seed: 3,
        },
    )
}

fn quick_hp() -> BaselineHp {
    BaselineHp {
        d: 16,
        epochs: 1,
        batch_size: 64,
        ..Default::default()
    }
}

/// A deterministic batch of `(head, relation)` queries spanning the
/// inverse-augmented relation space.
fn query_batch(bkg: &MultimodalBkg, count: usize) -> Vec<(EntityId, RelationId)> {
    let n = bkg.dataset.num_entities() as u32;
    let r = bkg.dataset.num_relations_aug() as u32;
    (0..count as u32)
        .map(|i| {
            (
                EntityId(i.wrapping_mul(7) % n),
                RelationId(i.wrapping_mul(5) % r),
            )
        })
        .collect()
}

fn score_both_modes(
    model: &dyn KgeModel,
    store: &came_tensor::ParamStore,
    queries: &[(EntityId, RelationId)],
) -> (Vec<f32>, Vec<f32>) {
    let n = model.num_entities();
    let mut taped = vec![0.0f32; queries.len() * n];
    let mut free = vec![0.0f32; queries.len() * n];
    came_tensor::set_infer_tape_free(false);
    model.score_into(store, queries, &mut taped);
    came_tensor::set_infer_tape_free(true);
    model.score_into(store, queries, &mut free);
    (taped, free)
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

#[test]
fn every_model_scores_identically_with_and_without_tape() {
    let _guard = SWITCH_LOCK.lock().unwrap();
    let bkg = presets::tiny(11);
    let f = features_for(&bkg);
    let hp = quick_hp();
    let queries = query_batch(&bkg, 12);

    for kind in Baseline::all() {
        let trained = train_baseline(kind, &bkg.dataset, Some(&f), &hp, None);
        let (taped, free) = score_both_modes(trained.model(), trained.store(), &queries);
        let diff = max_abs_diff(&taped, &free);
        assert!(
            diff <= 1e-6,
            "{}: tape vs tape-free diverged by {diff}",
            kind.label()
        );
    }

    let (model, store) = train_came(&bkg, &f, came_config_drkg(), 1);
    let kge = came_kge(&model, &bkg.dataset);
    let (taped, free) = score_both_modes(&kge, &store, &queries);
    let diff = max_abs_diff(&taped, &free);
    assert!(diff <= 1e-6, "CamE: tape vs tape-free diverged by {diff}");

    came_tensor::set_infer_tape_free(true);
}

#[test]
fn serve_eval_is_bit_equal_to_legacy_eval_in_both_modes() {
    let _guard = SWITCH_LOCK.lock().unwrap();
    let bkg = presets::tiny(12);
    let f = features_for(&bkg);
    let hp = quick_hp();
    let filter = bkg.dataset.filter_index();
    let cfg = EvalConfig {
        max_triples: Some(64),
        ..Default::default()
    };

    // One 1-N model and one per-triple model cover both adapters.
    for kind in [Baseline::DistMult, Baseline::TransE] {
        let trained = train_baseline(kind, &bkg.dataset, Some(&f), &hp, None);

        came_tensor::set_infer_tape_free(false);
        let legacy = evaluate(&trained, &bkg.dataset, Split::Test, &filter, &cfg);

        came_tensor::set_infer_tape_free(true);
        let engine =
            ScoringEngine::with_config(trained.model(), trained.store(), ServeConfig::default())
                .unwrap();
        let served = engine.evaluate(&bkg.dataset, Split::Test, &filter, &cfg);

        assert_eq!(legacy.count(), served.count(), "{}", kind.label());
        assert_eq!(legacy.mrr(), served.mrr(), "{} MRR", kind.label());
        assert_eq!(legacy.mr(), served.mr(), "{} MR", kind.label());
        for k in [1, 3, 10] {
            assert_eq!(legacy.hits(k), served.hits(k), "{} Hits@{k}", kind.label());
        }
    }
}

#[test]
fn top_k_on_a_trained_model_matches_a_full_sort() {
    let _guard = SWITCH_LOCK.lock().unwrap();
    came_tensor::set_infer_tape_free(true);
    let bkg = presets::tiny(13);
    let trained = train_baseline(Baseline::DistMult, &bkg.dataset, None, &quick_hp(), None);
    let engine =
        ScoringEngine::with_config(trained.model(), trained.store(), ServeConfig::default())
            .unwrap();
    let n = trained.model().num_entities();
    let q = (EntityId(1), RelationId(0));
    let mut row = vec![0.0f32; n];
    engine.score_into(&[q], &mut row);

    for k in [1usize, 5, n, n + 10] {
        let resp = engine
            .top_k(TopKRequest::with_k(q.0, q.1, k), None)
            .unwrap();
        let mut want: Vec<u32> = (0..n as u32).collect();
        want.sort_by(|&a, &b| row[b as usize].total_cmp(&row[a as usize]).then(a.cmp(&b)));
        want.truncate(k);
        let got: Vec<u32> = resp.hits.iter().map(|s| s.entity.0).collect();
        assert_eq!(got, want, "k={k}");
        for hit in &resp.hits {
            assert_eq!(hit.score, row[hit.entity.0 as usize]);
        }
    }
}

/// Satellite 6: the checkpoint round trip of PR 3 survives the trait
/// indirection — parameters and model state restored through `&dyn KgeModel`
/// are bit-identical.
#[test]
fn checkpoint_round_trips_bit_identically_through_the_trait_object() {
    let bkg = presets::tiny(14);
    let f = features_for(&bkg);
    // ConvE (1-N, stateless) and TransE (per-triple) cover both adapters;
    // CamE carries real model state (its dropout RNG).
    let mut conve = train_baseline(Baseline::ConvE, &bkg.dataset, Some(&f), &quick_hp(), None);
    round_trip(&mut conve);
    let mut transe = train_baseline(Baseline::TransE, &bkg.dataset, Some(&f), &quick_hp(), None);
    round_trip(&mut transe);

    let (model, mut store) = train_came(&bkg, &f, came_config_drkg(), 1);
    let kge = came_kge(&model, &bkg.dataset);
    assert!(!kge.state_bytes().is_empty(), "CamE must carry RNG state");
    let snap = capture_kge(&kge, &store, 0xCAFE, 1, &[]);
    perturb(&mut store);
    restore_kge(&kge, &mut store, &snap).unwrap();
    assert_store_matches(&store, &snap);
    assert_eq!(kge.state_bytes(), snap.model_state, "CamE state bytes");
}

/// On real trained models the serving tier reproduces the single-engine
/// path bit for bit at every shard count — top-k hits (ties included) and
/// score rows — for both model families (DistMult is 1-N, TransE is
/// per-triple).
#[test]
fn sharded_serving_is_bit_equal_to_single_engine_on_trained_models() {
    let _guard = SWITCH_LOCK.lock().unwrap();
    came_tensor::set_infer_tape_free(true);
    let bkg = presets::tiny(15);
    let f = features_for(&bkg);
    let filter = bkg.dataset.filter_index();
    let n = bkg.dataset.num_entities();

    for kind in [Baseline::DistMult, Baseline::TransE] {
        let trained = train_baseline(kind, &bkg.dataset, Some(&f), &quick_hp(), None);
        let model = trained.model_sync();
        let single =
            ScoringEngine::with_config(model, trained.store(), ServeConfig::default()).unwrap();
        let reqs: Vec<TopKRequest> = (0..10u32)
            .map(|i| {
                TopKRequest::with_k(
                    EntityId(i.wrapping_mul(7) % n as u32),
                    RelationId(i % bkg.dataset.num_relations_aug() as u32),
                    12,
                )
            })
            .collect();
        let want_topk = single.top_k_batch(&reqs, Some(&filter)).unwrap();
        let q = (reqs[0].head, reqs[0].relation);
        let mut want_row = vec![0.0f32; n];
        single.score_into(&[q], &mut want_row);

        for shards in [2usize, 3, 4] {
            let cfg = TierConfig {
                shards,
                ..TierConfig::default()
            };
            ServeTier::run(model, trained.store(), Some(&filter), cfg, |handle| {
                for (req, want) in reqs.iter().zip(&want_topk) {
                    let got = handle.top_k(*req).unwrap();
                    assert_eq!(got.hits, want.hits, "{} shards={shards}", kind.label());
                }
                assert_eq!(
                    handle.scores(q).unwrap(),
                    want_row,
                    "{} row shards={shards}",
                    kind.label()
                );
            })
            .unwrap();
        }
    }
}

fn round_trip(trained: &mut TrainedBaseline) {
    let snap = trained.capture(0xF00D, 2);
    perturb(trained.store_mut());
    trained.restore(&snap).unwrap();
    assert_store_matches(trained.store(), &snap);
}

fn perturb(store: &mut came_tensor::ParamStore) {
    let ids: Vec<_> = store.ids().collect();
    for id in ids {
        for x in store.value_mut(id).data_mut() {
            *x += 0.5;
        }
    }
}

fn assert_store_matches(store: &came_tensor::ParamStore, snap: &came_kg::Snapshot) {
    for (live, saved) in store.state_views().zip(snap.params.iter()) {
        assert_eq!(live.name, saved.name);
        assert_eq!(live.value.data(), saved.value.as_slice(), "{}", live.name);
        assert_eq!(live.m.data(), saved.m.as_slice(), "{}", live.name);
        assert_eq!(live.v.data(), saved.v.as_slice(), "{}", live.name);
    }
}
