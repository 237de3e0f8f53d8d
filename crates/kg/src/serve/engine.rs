//! The single-caller batched scoring engine (PR 4), now with typed
//! admission: configuration and request problems come back as
//! [`ServeError`] instead of panicking in the serving path.

use came_tensor::{ParamStore, Prng};

use super::merge::select_top_k;
use super::{ServeConfig, ServeError, TopKRequest, TopKResponse};
use crate::dataset::{FilterIndex, KgDataset, Split};
use crate::eval::{self, EvalConfig};
use crate::metrics::RankMetrics;
use crate::model::KgeModel;
use crate::triple::Triple;
use crate::vocab::{EntityId, RelationId};

/// Reject a request naming ids outside the served space or asking for zero
/// candidates. Shared by the engine and the router's admission control so
/// every entry point rejects identically.
pub(super) fn validate_request(
    req: &TopKRequest,
    num_entities: usize,
    relation_bound: Option<usize>,
) -> Result<(), ServeError> {
    if (req.head.0 as usize) >= num_entities {
        return Err(ServeError::EntityOutOfRange {
            entity: req.head,
            num_entities,
        });
    }
    if let Some(bound) = relation_bound {
        if (req.relation.0 as usize) >= bound {
            return Err(ServeError::RelationOutOfRange {
                relation: req.relation,
                num_relations: bound,
            });
        }
    }
    if req.k == Some(0) {
        return Err(ServeError::ZeroK);
    }
    Ok(())
}

/// Record one scoring batch into the serve metrics (`serve.batch_ns`
/// histogram, `serve.queries` counter, `serve.qps` gauge). Callers guard on
/// [`came_obs::enabled`].
pub(super) fn record_batch(queries: usize, ns: u64) {
    let r = came_obs::registry();
    r.histogram("serve.batch_ns").record(ns);
    r.counter("serve.queries").add(queries as u64);
    if ns > 0 {
        let qps = queries as f64 * 1e9 / ns as f64;
        r.gauge("serve.qps").set(qps as i64);
    }
}

/// Batched scoring engine: a [`KgeModel`] plus its [`ParamStore`], serving
/// full-ranking evaluation and top-k retrieval from one flat-buffer path.
pub struct ScoringEngine<'a> {
    model: &'a dyn KgeModel,
    store: &'a ParamStore,
    cfg: ServeConfig,
}

impl<'a> ScoringEngine<'a> {
    /// Engine with environment-derived [`ServeConfig`]. Infallible: the env
    /// parser only accepts positive overrides of valid defaults.
    pub fn new(model: &'a dyn KgeModel, store: &'a ParamStore) -> Self {
        match ScoringEngine::with_config(model, store, ServeConfig::from_env()) {
            Ok(engine) => engine,
            Err(_) => unreachable!("env-derived serve config is always valid"),
        }
    }

    /// Engine with an explicit configuration; rejects unusable ones
    /// (`batch_size == 0`, `default_k == 0`) with a typed error.
    pub fn with_config(
        model: &'a dyn KgeModel,
        store: &'a ParamStore,
        cfg: ServeConfig,
    ) -> Result<Self, ServeError> {
        cfg.validate()?;
        // Putting a model behind an engine is the serving boundary: let it
        // freeze serving-side structures (e.g. the CAME_EMBED_STORE entity
        // store) once, before the first request.
        model.prepare_serving(store);
        Ok(ScoringEngine { model, store, cfg })
    }

    /// The model being served.
    pub fn model(&self) -> &dyn KgeModel {
        self.model
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Candidate entities per query.
    pub fn num_entities(&self) -> usize {
        self.model.num_entities()
    }

    /// Score `queries` into the row-major `[queries.len(), N]` buffer `out`.
    ///
    /// When observability is on, each call records into the
    /// `serve.batch_ns` latency histogram (p50/p95/p99 per scoring batch),
    /// bumps the `serve.queries` counter, and refreshes the `serve.qps`
    /// gauge with this batch's instantaneous throughput.
    ///
    /// # Panics
    /// Panics if `out.len() != queries.len() * num_entities()`.
    pub fn score_into(&self, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        if !came_obs::enabled() {
            self.model.score_into(self.store, queries, out);
            return;
        }
        let t0 = std::time::Instant::now();
        self.model.score_into(self.store, queries, out);
        record_batch(queries.len(), t0.elapsed().as_nanos() as u64);
    }

    /// Full filtered-ranking evaluation of a split (inverse-augmented, both
    /// directions), bit-equal to [`eval::evaluate`] over the same model:
    /// identical triple order, scores, and rank arithmetic — only the buffer
    /// discipline differs (one reused flat block instead of per-query rows).
    pub fn evaluate(
        &self,
        dataset: &KgDataset,
        split: Split,
        filter: &FilterIndex,
        cfg: &EvalConfig,
    ) -> RankMetrics {
        let mut triples = dataset.augmented(split);
        if let Some(cap) = cfg.max_triples {
            let mut rng = Prng::new(cfg.seed);
            rng.shuffle(&mut triples);
            triples.truncate(cap);
        }
        self.rank_triples(&triples, filter, cfg.batch_size)
    }

    /// Rank an explicit triple list (used by [`ScoringEngine::evaluate`] and
    /// directly by benchmarks that pre-select triples).
    pub fn rank_triples(
        &self,
        triples: &[Triple],
        filter: &FilterIndex,
        batch_size: usize,
    ) -> RankMetrics {
        let n = self.num_entities();
        let batch = if batch_size > 0 {
            batch_size
        } else {
            self.cfg.batch_size
        };
        let mut flat = vec![0.0f32; batch * n];
        let mut metrics = RankMetrics::new();
        for chunk in triples.chunks(batch) {
            let queries: Vec<(EntityId, RelationId)> = chunk.iter().map(|t| (t.h, t.r)).collect();
            let block = &mut flat[..chunk.len() * n];
            self.score_into(&queries, block);
            let mut ranks = vec![0.0f64; chunk.len()];
            let rows: Vec<(&Triple, &[f32], &mut f64)> = chunk
                .iter()
                .zip(block.chunks(n))
                .zip(ranks.iter_mut())
                .map(|((t, s), slot)| (t, s, slot))
                .collect();
            eval::rank_block(rows, filter);
            for r in ranks {
                metrics.push(r);
            }
        }
        metrics
    }

    /// Answer one retrieval request. `filter`, when given, excludes every
    /// known tail of `(h, r)` — serving predicts *new* links.
    pub fn top_k(
        &self,
        req: TopKRequest,
        filter: Option<&FilterIndex>,
    ) -> Result<TopKResponse, ServeError> {
        self.top_k_batch(std::slice::from_ref(&req), filter)?
            .pop()
            .ok_or(ServeError::ShutDown)
    }

    /// Answer a batch of retrieval requests, scoring
    /// [`ServeConfig::batch_size`] queries per forward. Admission is
    /// all-or-nothing: every request is validated before any is scored, so a
    /// bad id in the batch rejects the whole batch without wasted compute.
    /// `k` larger than the entity count is clamped to it.
    pub fn top_k_batch(
        &self,
        reqs: &[TopKRequest],
        filter: Option<&FilterIndex>,
    ) -> Result<Vec<TopKResponse>, ServeError> {
        let n = self.num_entities();
        for req in reqs {
            validate_request(req, n, self.cfg.relation_bound)?;
        }
        let batch = self.cfg.batch_size;
        let mut flat = vec![0.0f32; batch.min(reqs.len().max(1)) * n];
        let mut out = Vec::with_capacity(reqs.len());
        for chunk in reqs.chunks(batch) {
            let queries: Vec<(EntityId, RelationId)> =
                chunk.iter().map(|r| (r.head, r.relation)).collect();
            let block = &mut flat[..chunk.len() * n];
            self.score_into(&queries, block);
            for (req, row) in chunk.iter().zip(block.chunks(n)) {
                let k = req.k.unwrap_or(self.cfg.default_k).min(n);
                let known = filter.and_then(|f| f.known_tails(req.head, req.relation));
                out.push(TopKResponse {
                    head: req.head,
                    relation: req.relation,
                    hits: select_top_k(row, k, known),
                    degraded: self.model.degraded(req.head.0),
                    partial: false,
                    trace: None,
                });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-scorer: score(h, r, t) hashes the triple ids.
    pub(crate) struct HashModel {
        pub(crate) n: usize,
    }

    impl KgeModel for HashModel {
        fn name(&self) -> &str {
            "hash"
        }
        fn num_entities(&self) -> usize {
            self.n
        }
        fn score_into(
            &self,
            _store: &ParamStore,
            queries: &[(EntityId, RelationId)],
            out: &mut [f32],
        ) {
            assert_eq!(out.len(), queries.len() * self.n);
            for (q, row) in queries.iter().zip(out.chunks_mut(self.n)) {
                for (t, slot) in row.iter_mut().enumerate() {
                    let x = (q.0 .0 as u64)
                        .wrapping_mul(0x9E37)
                        .wrapping_add((q.1 .0 as u64) << 7)
                        .wrapping_add(t as u64)
                        .wrapping_mul(0x85EB_CA6B);
                    // few distinct values => plenty of exact ties
                    *slot = (x % 7) as f32;
                }
            }
        }
        fn state_bytes(&self) -> Vec<u8> {
            Vec::new()
        }
        fn restore_state(&self, _bytes: &[u8]) -> Result<(), String> {
            Ok(())
        }
    }

    fn engine_fixture(n: usize) -> (HashModel, ParamStore) {
        (HashModel { n }, ParamStore::new())
    }

    fn full_sort_reference(row: &[f32], k: usize, exclude: Option<&[EntityId]>) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..row.len() as u32)
            .filter(|e| !exclude.is_some_and(|m| m.binary_search(&EntityId(*e)).is_ok()))
            .collect();
        ids.sort_by(|&a, &b| row[b as usize].total_cmp(&row[a as usize]).then(a.cmp(&b)));
        ids.truncate(k);
        ids
    }

    #[test]
    fn top_k_equals_full_sort_reference_including_ties() {
        let (model, store) = engine_fixture(31);
        let eng = ScoringEngine::with_config(&model, &store, ServeConfig::default()).unwrap();
        for (h, r) in [(0u32, 0u32), (3, 1), (7, 5), (11, 2)] {
            for k in [1usize, 3, 7, 31] {
                let resp = eng
                    .top_k(TopKRequest::with_k(EntityId(h), RelationId(r), k), None)
                    .unwrap();
                let mut row = vec![0.0f32; 31];
                eng.score_into(&[(EntityId(h), RelationId(r))], &mut row);
                let want = full_sort_reference(&row, k, None);
                let got: Vec<u32> = resp.hits.iter().map(|s| s.entity.0).collect();
                assert_eq!(got, want, "h={h} r={r} k={k}");
            }
        }
    }

    #[test]
    fn top_k_clamps_oversized_k_to_entity_count() {
        let (model, store) = engine_fixture(31);
        let eng = ScoringEngine::with_config(&model, &store, ServeConfig::default()).unwrap();
        let resp = eng
            .top_k(TopKRequest::with_k(EntityId(3), RelationId(1), 64), None)
            .unwrap();
        assert_eq!(resp.hits.len(), 31, "k > N must clamp to N");
        let mut row = vec![0.0f32; 31];
        eng.score_into(&[(EntityId(3), RelationId(1))], &mut row);
        let want = full_sort_reference(&row, 31, None);
        let got: Vec<u32> = resp.hits.iter().map(|s| s.entity.0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn top_k_excludes_known_tails() {
        let (model, store) = engine_fixture(16);
        let eng = ScoringEngine::with_config(&model, &store, ServeConfig::default()).unwrap();
        let mask = [EntityId(1), EntityId(4), EntityId(9)];
        let mut row = vec![0.0f32; 16];
        eng.score_into(&[(EntityId(2), RelationId(0))], &mut row);
        let got = select_top_k(&row, 16, Some(&mask));
        assert_eq!(got.len(), 13);
        for s in &got {
            assert!(
                !mask.contains(&s.entity),
                "{:?} should be excluded",
                s.entity
            );
        }
        let want = full_sort_reference(&row, 16, Some(&mask));
        let got_ids: Vec<u32> = got.iter().map(|s| s.entity.0).collect();
        assert_eq!(got_ids, want);
    }

    #[test]
    fn batched_requests_match_single_requests() {
        let (model, store) = engine_fixture(12);
        let cfg = ServeConfig {
            batch_size: 2, // force multiple chunks
            default_k: 4,
            ..ServeConfig::default()
        };
        let eng = ScoringEngine::with_config(&model, &store, cfg).unwrap();
        let reqs: Vec<TopKRequest> = (0..5)
            .map(|i| TopKRequest::new(EntityId(i), RelationId(i % 3)))
            .collect();
        let batched = eng.top_k_batch(&reqs, None).unwrap();
        assert_eq!(batched.len(), reqs.len());
        for (req, resp) in reqs.iter().zip(&batched) {
            let single = eng.top_k(*req, None).unwrap();
            assert_eq!(resp.hits, single.hits);
            assert_eq!(resp.hits.len(), 4); // default_k
        }
    }

    #[test]
    fn admission_rejects_bad_requests_with_typed_errors() {
        let (model, store) = engine_fixture(8);
        let cfg = ServeConfig::default().with_relation_bound(4);
        let eng = ScoringEngine::with_config(&model, &store, cfg).unwrap();

        let bad_entity = TopKRequest::new(EntityId(8), RelationId(0));
        assert_eq!(
            eng.top_k(bad_entity, None).unwrap_err(),
            ServeError::EntityOutOfRange {
                entity: EntityId(8),
                num_entities: 8,
            }
        );

        let bad_relation = TopKRequest::new(EntityId(0), RelationId(4));
        assert_eq!(
            eng.top_k(bad_relation, None).unwrap_err(),
            ServeError::RelationOutOfRange {
                relation: RelationId(4),
                num_relations: 4,
            }
        );

        let zero_k = TopKRequest::with_k(EntityId(0), RelationId(0), 0);
        assert_eq!(eng.top_k(zero_k, None).unwrap_err(), ServeError::ZeroK);

        // One bad request rejects the whole batch before any scoring.
        let batch = [TopKRequest::new(EntityId(0), RelationId(0)), bad_entity];
        assert!(eng.top_k_batch(&batch, None).is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let (model, store) = engine_fixture(8);
        let zero_batch = ServeConfig {
            batch_size: 0,
            ..ServeConfig::default()
        };
        assert_eq!(
            ScoringEngine::with_config(&model, &store, zero_batch).err(),
            Some(ServeError::InvalidBatchSize)
        );
        let zero_k = ServeConfig {
            default_k: 0,
            ..ServeConfig::default()
        };
        assert_eq!(
            ScoringEngine::with_config(&model, &store, zero_k).err(),
            Some(ServeError::ZeroK)
        );
    }

    #[test]
    fn serve_config_env_round_trip() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.batch_size, 128);
        assert_eq!(cfg.default_k, 10);
        assert_eq!(cfg.relation_bound, None);
    }
}
