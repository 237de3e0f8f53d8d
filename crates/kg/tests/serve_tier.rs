//! End-to-end guarantees of the sharded serving tier: shard plans partition
//! the candidate axis exactly, the router prepares the model and scores each
//! batch once whatever the shard count, the scatter-gather top-k merge is
//! bit-identical to the single-engine full-sort prefix (tie runs straddling
//! shard boundaries included), admission control rejects bad requests and
//! overload with typed errors, and the router's events land in the JSONL
//! sink.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::time::Duration;

use came_kg::triple::Triple;
use came_kg::{
    EntityId, EntityKind, KgDataset, KgeModel, RelationId, ScoringEngine, ServeConfig, ServeError,
    ServeTier, ShardPlan, TierConfig, TopKRequest, TopKResponse, Vocab,
};
use came_obs::json;
use came_tensor::{ParamStore, Prng};

/// Deterministic pseudo-scorer with only seven distinct score values, so
/// exact tie runs are everywhere — including straddling shard boundaries.
fn hash_score(h: u32, r: u32, t: usize) -> f32 {
    let x = (h as u64)
        .wrapping_mul(0x9E37)
        .wrapping_add((r as u64) << 7)
        .wrapping_add(t as u64)
        .wrapping_mul(0x85EB_CA6B);
    (x % 7) as f32
}

/// Tie-heavy model over `n` candidates.
struct HashModel {
    n: usize,
}

impl KgeModel for HashModel {
    fn name(&self) -> &str {
        "hash-1n"
    }
    fn num_entities(&self) -> usize {
        self.n
    }
    fn score_into(&self, _store: &ParamStore, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        assert_eq!(out.len(), queries.len() * self.n);
        for (q, row) in queries.iter().zip(out.chunks_mut(self.n)) {
            for (t, slot) in row.iter_mut().enumerate() {
                *slot = hash_score(q.0 .0, q.1 .0, t);
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

/// [`HashModel`] that must be prepared for serving before it scores, and
/// counts its `score_into` calls.
struct ProbeModel {
    inner: HashModel,
    prepared: AtomicBool,
    calls: AtomicUsize,
}

impl ProbeModel {
    fn new(n: usize) -> Self {
        ProbeModel {
            inner: HashModel { n },
            prepared: AtomicBool::new(false),
            calls: AtomicUsize::new(0),
        }
    }
}

impl KgeModel for ProbeModel {
    fn name(&self) -> &str {
        "probe"
    }
    fn num_entities(&self) -> usize {
        self.inner.n
    }
    fn score_into(&self, store: &ParamStore, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        assert!(self.prepared.load(Relaxed), "scored before prepare_serving");
        self.calls.fetch_add(1, Relaxed);
        self.inner.score_into(store, queries, out);
    }
    fn prepare_serving(&self, _store: &ParamStore) {
        self.prepared.store(true, Relaxed);
    }
    fn state_bytes(&self) -> Vec<u8> {
        Vec::new()
    }
    fn restore_state(&self, _bytes: &[u8]) -> Result<(), String> {
        Ok(())
    }
}

/// Every candidate scores identically: the whole axis is one tie run, so
/// every shard boundary splits a tie.
struct ConstModel {
    n: usize,
}

impl KgeModel for ConstModel {
    fn name(&self) -> &str {
        "const"
    }
    fn num_entities(&self) -> usize {
        self.n
    }
    fn score_into(&self, _store: &ParamStore, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        assert_eq!(out.len(), queries.len() * self.n);
        out.fill(1.5);
    }
    fn state_bytes(&self) -> Vec<u8> {
        Vec::new()
    }
    fn restore_state(&self, _bytes: &[u8]) -> Result<(), String> {
        Ok(())
    }
}

/// A deliberately slow scorer, to hold the router busy long enough for the
/// bounded queue to fill and reject.
struct SlowModel {
    inner: HashModel,
    delay: Duration,
}

impl KgeModel for SlowModel {
    fn name(&self) -> &str {
        "slow"
    }
    fn num_entities(&self) -> usize {
        self.inner.n
    }
    fn score_into(&self, store: &ParamStore, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        std::thread::sleep(self.delay);
        self.inner.score_into(store, queries, out);
    }
    fn state_bytes(&self) -> Vec<u8> {
        Vec::new()
    }
    fn restore_state(&self, _bytes: &[u8]) -> Result<(), String> {
        Ok(())
    }
}

fn toy_dataset(entities: usize, triples: u32) -> KgDataset {
    let mut vocab = Vocab::new();
    for i in 0..entities {
        vocab.add_entity(format!("e{i}"), EntityKind::Other);
    }
    vocab.add_relation("r0");
    vocab.add_relation("r1");
    let triples: Vec<Triple> = (0..triples)
        .map(|i| Triple::new(i % entities as u32, i % 2, (i * 3 + 1) % entities as u32))
        .collect();
    KgDataset::split(vocab, triples, (0.6, 0.2, 0.2), &mut Prng::new(3))
}

fn reqs_for(n: u32, count: u32, k: usize) -> Vec<TopKRequest> {
    (0..count)
        .map(|i| TopKRequest::with_k(EntityId(i.wrapping_mul(7) % n), RelationId(i % 4), k))
        .collect()
}

fn ids(resp: &TopKResponse) -> Vec<u32> {
    resp.hits.iter().map(|s| s.entity.0).collect()
}

#[test]
fn shard_plan_is_balanced_contiguous_and_exact() {
    for (n, shards) in [(97usize, 7usize), (10, 3), (5, 5), (3, 8), (1, 4)] {
        let plan = ShardPlan::new(n, shards).unwrap();
        assert!(plan.num_shards() <= shards);
        assert_eq!(plan.num_entities(), n);
        let mut covered = 0usize;
        let mut sizes = Vec::new();
        for &(lo, hi) in plan.ranges() {
            assert_eq!(lo, covered, "ranges must be contiguous in id order");
            assert!(hi > lo, "ranges must be non-empty");
            sizes.push(hi - lo);
            covered = hi;
        }
        assert_eq!(covered, n, "ranges must cover the whole axis");
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "balanced: sizes differ by at most one");
    }
    assert_eq!(
        ShardPlan::new(10, 0).err(),
        Some(ServeError::InvalidShardCount)
    );
}

#[test]
fn tier_prepares_the_model_for_serving_before_scoring() {
    let model = ProbeModel::new(16);
    let store = ParamStore::new();
    ServeTier::run(&model, &store, None, TierConfig::default(), |handle| {
        let resp = handle
            .top_k(TopKRequest::with_k(EntityId(1), RelationId(0), 3))
            .unwrap();
        assert_eq!(resp.hits.len(), 3);
        assert_eq!(
            handle.scores((EntityId(2), RelationId(1))).unwrap().len(),
            16
        );
    })
    .unwrap();
}

#[test]
fn tier_scores_each_batch_once_whatever_the_shard_count() {
    let store = ParamStore::new();
    for shards in [1usize, 2, 3, 7] {
        let model = ProbeModel::new(29);
        let cfg = TierConfig {
            shards,
            flush_us: 100,
            ..TierConfig::default()
        };
        // One client waiting on each answer: every request is its own batch.
        ServeTier::run(&model, &store, None, cfg, |handle| {
            for i in 0..5u32 {
                handle
                    .top_k(TopKRequest::with_k(EntityId(i), RelationId(0), 4))
                    .unwrap();
            }
        })
        .unwrap();
        assert_eq!(model.calls.load(Relaxed), 5, "shards={shards}");
    }
}

#[test]
fn tier_top_k_is_bit_identical_to_single_engine_at_every_shard_count() {
    let n = 53usize;
    let store = ParamStore::new();
    let model = HashModel { n };
    let single = ScoringEngine::with_config(&model, &store, ServeConfig::default()).unwrap();
    let ks = [1usize, 3, 10, n, n + 40];
    let want: Vec<Vec<TopKResponse>> = ks
        .iter()
        .map(|&k| single.top_k_batch(&reqs_for(n as u32, 9, k), None).unwrap())
        .collect();
    for shards in [1usize, 2, 3, 7] {
        let cfg = TierConfig {
            shards,
            flush_us: 100,
            ..TierConfig::default()
        };
        ServeTier::run(&model, &store, None, cfg, |handle| {
            for (&k, want) in ks.iter().zip(&want) {
                let pending: Vec<_> = reqs_for(n as u32, 9, k)
                    .into_iter()
                    .map(|req| handle.submit(req).unwrap())
                    .collect();
                for (w, p) in want.iter().zip(pending) {
                    let g = p.wait().unwrap();
                    assert_eq!(
                        w.hits, g.hits,
                        "shards={shards} k={k} h={} r={}",
                        w.head.0, w.relation.0
                    );
                }
            }
        })
        .unwrap();
    }
}

#[test]
fn tie_runs_straddling_shard_boundaries_merge_in_id_order() {
    // All scores equal: the global top-k under (score desc, id asc) is ids
    // 0..k, and with 5 shards over 23 entities every boundary splits the
    // one big tie run.
    let model = ConstModel { n: 23 };
    let store = ParamStore::new();
    let cfg = TierConfig {
        shards: 5,
        flush_us: 100,
        ..TierConfig::default()
    };
    ServeTier::run(&model, &store, None, cfg, |handle| {
        for k in [1usize, 4, 5, 6, 11, 23] {
            let resp = handle
                .top_k(TopKRequest::with_k(EntityId(0), RelationId(0), k))
                .unwrap();
            let want: Vec<u32> = (0..k as u32).collect();
            assert_eq!(ids(&resp), want, "k={k}");
        }
    })
    .unwrap();
}

#[test]
fn tier_answers_match_the_single_engine_under_concurrent_clients() {
    let n = 37usize;
    let store = ParamStore::new();
    let model = HashModel { n };
    let d = toy_dataset(n, 90);
    let filter = d.filter_index();
    let single = ScoringEngine::with_config(&model, &store, ServeConfig::default()).unwrap();

    // Precompute the single-engine answers: `ScoringEngine` borrows a plain
    // `&dyn KgeModel`, so the comparison happens against owned responses
    // inside the client threads.
    let req_at = |client: u32, i: u32| {
        TopKRequest::with_k(EntityId((client * 8 + i) % n as u32), RelationId(i % 4), 10)
    };
    let want: Vec<Vec<TopKResponse>> = (0..4u32)
        .map(|client| {
            (0..8u32)
                .map(|i| single.top_k(req_at(client, i), Some(&filter)).unwrap())
                .collect()
        })
        .collect();

    let cfg = TierConfig {
        shards: 3,
        flush_us: 100,
        ..TierConfig::default()
    };
    ServeTier::run(&model, &store, Some(&filter), cfg, |handle| {
        std::thread::scope(|s| {
            for client in 0..4u32 {
                let handle = handle.clone();
                let want = &want;
                s.spawn(move || {
                    for i in 0..8u32 {
                        let got = handle.top_k(req_at(client, i)).unwrap();
                        let expect = &want[client as usize][i as usize];
                        assert_eq!(got.hits, expect.hits, "client={client} i={i}");
                    }
                });
            }
        });
        // The score-row audit surface is bit-equal to a direct forward.
        let q = (EntityId(5), RelationId(1));
        let row = handle.scores(q).unwrap();
        let mut want = vec![0.0f32; n];
        single.score_into(&[q], &mut want);
        assert_eq!(row, want);
    })
    .unwrap();
}

#[test]
fn tier_rejects_overload_with_typed_backpressure() {
    let model = SlowModel {
        inner: HashModel { n: 64 },
        delay: Duration::from_millis(40),
    };
    let store = ParamStore::new();
    let cfg = TierConfig {
        shards: 2,
        queue: 1,
        flush_us: 1,
        ..TierConfig::default()
    };
    let overloaded = ServeTier::run(&model, &store, None, cfg, |handle| {
        let mut pending = Vec::new();
        let mut rejections = 0usize;
        for i in 0..64u32 {
            let req = TopKRequest::with_k(EntityId(i % 64), RelationId(0), 5);
            match handle.submit(req) {
                Ok(p) => pending.push(p),
                Err(ServeError::Overloaded { capacity }) => {
                    assert_eq!(capacity, 1);
                    rejections += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        // Accepted requests still complete correctly after the burst.
        for p in pending {
            let resp = p.wait().unwrap();
            assert_eq!(resp.hits.len(), 5);
        }
        rejections
    })
    .unwrap();
    assert!(
        overloaded > 0,
        "a 64-request burst into a capacity-1 queue must shed load"
    );
}

#[test]
fn tier_validates_at_admission_and_fails_escaped_handles() {
    let model = HashModel { n: 16 };
    let store = ParamStore::new();
    for shards in [1usize, 3] {
        let cfg = TierConfig {
            shards,
            serve: ServeConfig::default().with_relation_bound(4),
            ..TierConfig::default()
        };
        let escaped = ServeTier::run(&model, &store, None, cfg, |handle| {
            assert_eq!(
                handle
                    .top_k(TopKRequest::new(EntityId(99), RelationId(0)))
                    .err(),
                Some(ServeError::EntityOutOfRange {
                    entity: EntityId(99),
                    num_entities: 16,
                })
            );
            assert_eq!(
                handle
                    .top_k(TopKRequest::new(EntityId(0), RelationId(7)))
                    .err(),
                Some(ServeError::RelationOutOfRange {
                    relation: RelationId(7),
                    num_relations: 4,
                })
            );
            assert_eq!(
                handle
                    .top_k(TopKRequest::with_k(EntityId(0), RelationId(0), 0))
                    .err(),
                Some(ServeError::ZeroK)
            );
            // k > N clamps through the tier too, at any shard count.
            let resp = handle
                .top_k(TopKRequest::with_k(EntityId(0), RelationId(0), 1000))
                .unwrap();
            assert_eq!(resp.hits.len(), 16);
            handle.clone()
        })
        .unwrap();
        // The tier is torn down when the closure returns; an escaped handle
        // degrades to typed shutdown errors instead of hanging.
        assert_eq!(
            escaped
                .top_k(TopKRequest::new(EntityId(0), RelationId(0)))
                .err(),
            Some(ServeError::ShutDown)
        );
    }
}

/// [`HashModel`] scores with a degraded-head predicate: odd entities are
/// served through a (simulated) fallback path.
struct DegradedHashModel {
    inner: HashModel,
}

impl KgeModel for DegradedHashModel {
    fn name(&self) -> &str {
        "hash-degraded"
    }
    fn num_entities(&self) -> usize {
        self.inner.n
    }
    fn score_into(&self, store: &ParamStore, queries: &[(EntityId, RelationId)], out: &mut [f32]) {
        self.inner.score_into(store, queries, out);
    }
    fn degraded(&self, entity: u32) -> bool {
        entity % 2 == 1
    }
    fn state_bytes(&self) -> Vec<u8> {
        Vec::new()
    }
    fn restore_state(&self, _bytes: &[u8]) -> Result<(), String> {
        Ok(())
    }
}

#[test]
fn stale_queued_requests_are_shed_with_a_typed_deadline_error() {
    let model = HashModel { n: 32 };
    let store = ParamStore::new();
    // The flush window alone (50 ms) ages a lone queued request far past
    // its 1 ms deadline, so shedding is deterministic.
    let cfg = TierConfig {
        flush_us: 50_000,
        deadline_us: Some(1_000),
        ..TierConfig::default()
    };
    ServeTier::run(&model, &store, None, cfg, |handle| {
        assert_eq!(
            handle
                .top_k(TopKRequest::with_k(EntityId(3), RelationId(0), 5))
                .err(),
            Some(ServeError::DeadlineExceeded { deadline_us: 1_000 })
        );
        assert_eq!(
            handle.scores((EntityId(3), RelationId(0))).err(),
            Some(ServeError::DeadlineExceeded { deadline_us: 1_000 })
        );
    })
    .unwrap();

    // A generous deadline leaves the same request untouched.
    let cfg = TierConfig {
        flush_us: 100,
        deadline_us: Some(10_000_000),
        ..TierConfig::default()
    };
    ServeTier::run(&model, &store, None, cfg, |handle| {
        let resp = handle
            .top_k(TopKRequest::with_k(EntityId(3), RelationId(0), 5))
            .unwrap();
        assert_eq!(resp.hits.len(), 5);
        assert!(!resp.degraded && !resp.partial);
    })
    .unwrap();
}

#[test]
fn injected_shard_panic_yields_partial_responses_and_the_tier_recovers() {
    let n = 24usize;
    let store = ParamStore::new();
    let model = HashModel { n };
    let cfg = TierConfig {
        shards: 2,
        flush_us: 100,
        panic_at_batch: Some(1),
        ..TierConfig::default()
    };
    ServeTier::run(&model, &store, None, cfg, |handle| {
        // Batch 1: shard 0 (entities 0..12) panics. The response is merged
        // from shard 1 only and tagged partial.
        let resp = handle
            .top_k(TopKRequest::with_k(EntityId(0), RelationId(0), n))
            .unwrap();
        assert!(resp.partial, "batch 1 must be partial");
        assert_eq!(resp.hits.len(), n / 2);
        assert!(
            resp.hits.iter().all(|s| s.entity.0 >= (n / 2) as u32),
            "hits must come from the surviving shard only"
        );

        // Batch 2: the worker caught the panic and kept draining its queue —
        // full coverage is back, bit-identical to a single engine.
        let resp = handle
            .top_k(TopKRequest::with_k(EntityId(0), RelationId(0), n))
            .unwrap();
        assert!(!resp.partial, "batch 2 must be full");
        assert_eq!(resp.hits.len(), n);
        let single = ScoringEngine::with_config(&model, &store, ServeConfig::default()).unwrap();
        let want = single
            .top_k(TopKRequest::with_k(EntityId(0), RelationId(0), n), None)
            .unwrap();
        assert_eq!(resp.hits, want.hits);
    })
    .unwrap();
}

#[test]
fn degraded_heads_are_tagged_through_engine_and_sharded_tier() {
    let n = 16usize;
    let model = DegradedHashModel {
        inner: HashModel { n },
    };
    let store = ParamStore::new();
    let reqs = [
        TopKRequest::with_k(EntityId(2), RelationId(0), 4),
        TopKRequest::with_k(EntityId(5), RelationId(0), 4),
    ];

    let single = ScoringEngine::with_config(&model, &store, ServeConfig::default()).unwrap();
    let resp = single.top_k_batch(&reqs, None).unwrap();
    assert!(!resp[0].degraded && resp[1].degraded);

    for shards in [2usize, 3] {
        let cfg = TierConfig {
            shards,
            flush_us: 100,
            ..TierConfig::default()
        };
        ServeTier::run(&model, &store, None, cfg, |handle| {
            assert!(!handle.top_k(reqs[0]).unwrap().degraded, "shards={shards}");
            assert!(handle.top_k(reqs[1]).unwrap().degraded, "shards={shards}");
        })
        .unwrap();
    }
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("came-serve-{tag}-{}", std::process::id()))
}

/// Serialises tests that flip the process-global observability state
/// (`came_obs::set_enabled`, the sink, the exemplar reservoir) — the test
/// binary runs tests concurrently by default.
fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn tier_metrics_land_in_the_jsonl_sink() {
    let _guard = obs_guard();
    let log_path = scratch("log");
    let _ = std::fs::remove_file(&log_path);
    came_obs::set_enabled(true);
    came_obs::set_stderr_mirror(false);
    came_obs::set_log_path(Some(&log_path)).unwrap();

    let model = SlowModel {
        inner: HashModel { n: 32 },
        delay: Duration::from_millis(20),
    };
    let store = ParamStore::new();
    let cfg = TierConfig {
        shards: 2,
        queue: 1,
        flush_us: 1,
        ..TierConfig::default()
    };
    ServeTier::run(&model, &store, None, cfg, |handle| {
        let mut pending = Vec::new();
        let mut rejected = false;
        for i in 0..64u32 {
            match handle.submit(TopKRequest::with_k(EntityId(i % 32), RelationId(0), 3)) {
                Ok(p) => pending.push(p),
                Err(ServeError::Overloaded { .. }) => rejected = true,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(rejected, "burst must trip the rejected counter");
        for p in pending {
            p.wait().unwrap();
        }
    })
    .unwrap();

    came_obs::emit_metrics_records();
    came_obs::set_log_path(None).unwrap();
    came_obs::set_enabled(false);

    let text = std::fs::read_to_string(&log_path).unwrap();
    let mut serve_names = BTreeSet::new();
    for line in text.lines() {
        let v = json::parse(line)
            .unwrap_or_else(|e| panic!("sink line is not valid JSON ({e}): {line}"));
        if v.get("type").and_then(|t| t.as_str()) == Some("serve") {
            serve_names.insert(v.get("name").unwrap().as_str().unwrap().to_string());
        }
    }
    for want in [
        "serve.router.batch_size",
        "serve.router.queue_depth",
        "serve.router.rejected",
        "serve.shard0.queue",
        "serve.shard1.queue",
        "serve.batch_ns",
        "serve.queries",
    ] {
        assert!(
            serve_names.contains(want),
            "missing serve metric {want} in {serve_names:?}"
        );
    }

    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn every_traced_response_carries_a_complete_timeline_under_concurrent_clients() {
    let _guard = obs_guard();

    // Tracing off: responses carry no trace at all.
    let n = 41usize;
    let store = ParamStore::new();
    let model = HashModel { n };
    came_obs::set_enabled(false);
    let cfg = TierConfig {
        shards: 3,
        flush_us: 100,
        ..TierConfig::default()
    };
    ServeTier::run(&model, &store, None, cfg.clone(), |handle| {
        let resp = handle
            .top_k(TopKRequest::with_k(EntityId(1), RelationId(0), 5))
            .unwrap();
        assert!(
            resp.trace.is_none(),
            "tracing disabled must not attach timelines"
        );
    })
    .unwrap();

    // Tracing on: every response's stage timeline is complete and monotone,
    // trace IDs are unique, and the reservoir holds exactly the K slowest.
    const K: usize = 4;
    came_obs::set_enabled(true);
    came_obs::exemplars().set_capacity(K);
    let e2e_hist_before = came_obs::registry().histogram("serve.req.e2e_ns").count();

    let clients = 4u32;
    let per_client = 8u32;
    let traces: std::sync::Mutex<Vec<came_kg::RequestTrace>> = std::sync::Mutex::new(Vec::new());
    ServeTier::run(&model, &store, None, cfg, |handle| {
        std::thread::scope(|s| {
            for client in 0..clients {
                let handle = handle.clone();
                let traces = &traces;
                s.spawn(move || {
                    for i in 0..per_client {
                        let req = TopKRequest::with_k(
                            EntityId((client * 9 + i) % n as u32),
                            RelationId(i % 4),
                            6,
                        );
                        let resp = handle.top_k(req).unwrap();
                        assert_eq!(resp.hits.len(), 6);
                        let t = resp.trace.expect("tracing enabled must attach a timeline");
                        traces.lock().unwrap().push(t);
                    }
                });
            }
        });
    })
    .unwrap();
    came_obs::set_enabled(false);

    let traces = traces.into_inner().unwrap();
    assert_eq!(traces.len(), (clients * per_client) as usize);
    let mut ids_seen = BTreeSet::new();
    for t in &traces {
        assert!(
            t.is_complete(),
            "timeline must be complete and monotone: {t:?}"
        );
        assert_eq!(
            t.queue_ns() + t.coalesce_ns() + t.score_ns() + t.merge_ns() + t.reply_ns(),
            t.e2e_ns(),
            "stages must partition the end-to-end latency exactly"
        );
        assert_eq!(t.shard_ns.len(), 3, "one scoring duration per shard");
        assert!(
            t.shard_ns.iter().any(|&ns| ns > 0),
            "at least one shard must report scoring time"
        );
        assert!(t.batch_size >= 1 && t.batch_size <= (clients * per_client) as usize);
        assert!(!t.degraded && !t.partial);
        assert!(ids_seen.insert(t.trace_id), "trace IDs must be unique");
        let parsed = json::parse(&t.to_json()).expect("trace JSON must parse");
        assert_eq!(
            parsed.get("trace_id").unwrap().as_f64(),
            Some(t.trace_id as f64)
        );
    }

    // The per-request histograms saw every completion.
    let e2e_hist_after = came_obs::registry().histogram("serve.req.e2e_ns").count();
    assert_eq!(e2e_hist_after - e2e_hist_before, traces.len() as u64);

    // The reservoir kept exactly the K slowest end-to-end latencies.
    let mut e2e: Vec<u64> = traces.iter().map(|t| t.e2e_ns()).collect();
    e2e.sort_unstable_by(|a, b| b.cmp(a));
    let want: Vec<u64> = e2e[..K].to_vec();
    let kept: Vec<u64> = came_obs::exemplars()
        .snapshot()
        .iter()
        .map(|e| e.latency_ns)
        .collect();
    assert_eq!(
        kept, want,
        "reservoir must hold exactly the {K} slowest traces"
    );
    // Restore the default capacity (and drop this test's entries).
    came_obs::exemplars().set_capacity(8);
}
