//! End-to-end guarantees of the compact embedding store behind serving:
//! the default f32 path is literally the pre-store code (bit-identical),
//! quantized heads rank-correlate with f32 within the `CAME_CHECK_QUANT`
//! thresholds, the sharded tier stays bitwise equal to the single engine
//! under q8, degraded (partial-modality) serving is layout-independent, and
//! quantized stores round-trip through version-2 checkpoints
//! bit-identically.

use came::CamE;
use came_bench::{came_config_drkg, came_kge, train_came};
use came_biodata::presets;
use came_biodata::MultimodalBkg;
use came_encoders::{FeatureConfig, ModalFeatures};
use came_kg::{
    capture_kge, mean_spearman_topk, min_spearman_topk, restore_kge, spearman_topk, EntityId,
    KgeModel, OneToNModel, RelationId, ScoringEngine, ServeTier, TierConfig, TopKRequest,
};
use came_tensor::{ParamStore, StoreKind};

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

fn score_all(model: &dyn KgeModel, store: &ParamStore, qs: &[(EntityId, RelationId)]) -> Vec<f32> {
    let mut out = vec![0.0f32; qs.len() * model.num_entities()];
    model.score_into(store, qs, &mut out);
    out
}

// Enough epochs that learned score gaps dominate the q8 quantization step —
// an untrained model's near-tied scores shuffle under any lossy layout and
// say nothing about serving parity.
fn trained_tiny() -> (MultimodalBkg, ModalFeatures, CamE, ParamStore) {
    let bkg = presets::tiny(41);
    let f = features_for(&bkg);
    let (model, store) = train_came(&bkg, &f, came_config_drkg(), 6);
    (bkg, f, model, store)
}

#[test]
fn q8_head_rank_correlates_with_the_dense_f32_path() {
    let (bkg, _f, model, store) = trained_tiny();
    let kge = came_kge(&model, &bkg.dataset);
    let queries = query_batch(&bkg, 24);
    let n = bkg.dataset.num_entities();

    // Dense path: no head frozen, identical to the pre-store code.
    assert!(
        OneToNModel::entity_head(&model).is_none(),
        "no head before freezing"
    );
    let dense = score_all(&kge, &store, &queries);

    model.freeze_entity_store(&store, StoreKind::Q8).unwrap();
    assert!(
        OneToNModel::entity_head(&model).is_some(),
        "q8 head scores the entity scan"
    );
    let q8 = score_all(&kge, &store, &queries);

    // The gate statistic is the mean over queries; the per-query minimum is
    // a coarse floor (one adjacent swap in an 11-element union costs ~0.01,
    // which a toy-scale model's near-tied tail scores can always produce).
    let rho = mean_spearman_topk(&dense, &q8, n, 10);
    assert!(rho >= 0.99, "mean top-k Spearman {rho} below the gate");
    let floor = min_spearman_topk(&dense, &q8, n, 10);
    assert!(
        floor >= 0.95,
        "worst per-query Spearman {floor} below floor"
    );

    // Freezing back to f32 turns the head off again — dense path, bitwise.
    model.freeze_entity_store(&store, StoreKind::F32).unwrap();
    assert!(OneToNModel::entity_head(&model).is_none());
    assert_eq!(score_all(&kge, &store, &queries), dense);
}

#[test]
fn sharded_tier_is_bitwise_identical_to_the_single_engine_under_q8() {
    let (bkg, _f, model, store) = trained_tiny();
    let kge = came_kge(&model, &bkg.dataset);
    model.freeze_entity_store(&store, StoreKind::Q8).unwrap();
    let queries = query_batch(&bkg, 12);
    let n = bkg.dataset.num_entities();

    let single = ScoringEngine::new(&kge, &store);
    let mut want_rows = vec![0.0f32; queries.len() * n];
    single.score_into(&queries, &mut want_rows);
    let reqs: Vec<TopKRequest> = queries
        .iter()
        .map(|&(h, r)| TopKRequest::with_k(h, r, 10))
        .collect();
    let want_topk = single.top_k_batch(&reqs, None).unwrap();

    for shards in [2, 3, 5] {
        let cfg = TierConfig {
            shards,
            ..TierConfig::default()
        };
        ServeTier::run(&kge, &store, None, cfg, |handle| {
            // Every fused q8 score is an independent fixed-order dot, and
            // the shards only select from the router's scored block, so the
            // shard count can never change a bit.
            for ((req, want_row), want) in reqs.iter().zip(want_rows.chunks(n)).zip(&want_topk) {
                let row = handle.scores((req.head, req.relation)).unwrap();
                assert_eq!(row, want_row, "{shards}-shard scores diverged");
                let got = handle.top_k(*req).unwrap();
                assert_eq!(got.hits, want.hits, "{shards}-shard top-k diverged");
            }
        })
        .expect("valid shard plan");
    }
}

#[test]
fn degraded_serving_is_layout_independent_on_the_modality_poor_preset() {
    let bkg = presets::modality_poor_like(17);
    let f = features_for(&bkg);
    let (model, store) = train_came(&bkg, &f, came_config_drkg(), 4);
    assert!(
        model.serving_degraded(),
        "preset should leave modality gaps"
    );
    let kge = came_kge(&model, &bkg.dataset);
    let n = bkg.dataset.num_entities();
    let reqs: Vec<TopKRequest> = query_batch(&bkg, 24)
        .into_iter()
        .map(|(h, r)| TopKRequest::with_k(h, r, 5))
        .collect();
    let queries = query_batch(&bkg, 24);

    let dense_scores = score_all(&kge, &store, &queries);
    let dense: Vec<_> = ScoringEngine::new(&kge, &store)
        .top_k_batch(&reqs, None)
        .unwrap();
    assert!(
        dense.iter().any(|r| r.degraded),
        "some heads must be degraded"
    );

    model.freeze_entity_store(&store, StoreKind::Q8).unwrap();
    let responses = ScoringEngine::new(&kge, &store)
        .top_k_batch(&reqs, None)
        .unwrap();
    for (a, b) in dense.iter().zip(&responses) {
        assert_eq!(
            a.degraded, b.degraded,
            "degraded flag must not depend on the row layout (q8)"
        );
        assert_eq!(a.partial, b.partial);
    }
    let scores = score_all(&kge, &store, &queries);
    let rho = mean_spearman_topk(&dense_scores, &scores, n, 10);
    assert!(rho >= 0.99, "q8 mean Spearman {rho} below the gate");
    let floor = min_spearman_topk(&dense_scores, &scores, n, 10);
    assert!(floor >= 0.9, "q8 worst-query Spearman {floor} too low");
}

#[test]
fn quantized_store_round_trips_through_v2_checkpoints_bit_identically() {
    let (bkg, f, model, store) = trained_tiny();
    let kge = came_kge(&model, &bkg.dataset);
    let queries = query_batch(&bkg, 10);

    // Store-less snapshots stay version 1 and restore with the head off.
    let v1 = capture_kge(&kge, &store, 0xBEEF, 3, &[]);
    assert!(v1.embed_store.is_none());
    assert_eq!(v1.encode()[8], 1);

    model.freeze_entity_store(&store, StoreKind::Q8).unwrap();
    let q8_scores = score_all(&kge, &store, &queries);
    let snap = capture_kge(&kge, &store, 0xBEEF, 3, &[]);
    assert!(snap.embed_store.is_some(), "active head must be captured");
    let bytes = snap.encode();
    assert_eq!(bytes[8], 2, "entity store bumps the checkpoint version");
    let decoded = came_kg::Snapshot::decode(&bytes).unwrap();

    // A freshly built (untrained) model restores parameters AND the
    // quantized head; scores must be bitwise those of the captured model.
    let mut store2 = ParamStore::new();
    let model2 = CamE::new(&mut store2, &bkg.dataset, &f, came_config_drkg());
    let kge2 = came_kge(&model2, &bkg.dataset);
    restore_kge(&kge2, &mut store2, &decoded).unwrap();
    assert!(
        OneToNModel::entity_head(&model2).is_some(),
        "restored head is active"
    );
    assert_eq!(score_all(&kge2, &store2, &queries), q8_scores);

    // The v1 snapshot still restores (dense path, no head).
    let mut store3 = ParamStore::new();
    let model3 = CamE::new(&mut store3, &bkg.dataset, &f, came_config_drkg());
    let kge3 = came_kge(&model3, &bkg.dataset);
    restore_kge(
        &kge3,
        &mut store3,
        &came_kg::Snapshot::decode(&v1.encode()).unwrap(),
    )
    .unwrap();
    assert!(OneToNModel::entity_head(&model3).is_none());
}

#[test]
fn spearman_is_near_one_for_identical_blocks() {
    // Sanity anchor for the harness itself on serving-shaped data.
    let (bkg, _f, model, store) = trained_tiny();
    let kge = came_kge(&model, &bkg.dataset);
    let queries = query_batch(&bkg, 4);
    let s = score_all(&kge, &store, &queries);
    assert_eq!(
        spearman_topk(
            &s[..bkg.dataset.num_entities()],
            &s[..bkg.dataset.num_entities()],
            10
        ),
        1.0
    );
}
