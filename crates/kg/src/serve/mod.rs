//! The serving tier: batched scoring, entity-axis sharding, continuous
//! request batching, and scatter-gather top-k merge over the unified
//! [`KgeModel`](crate::model::KgeModel) interface.
//!
//! The tier is four layers, std-only (threads + channels), each usable on
//! its own:
//!
//! * **engine** ([`ScoringEngine`]) — the single-caller batched scoring
//!   core from PR 4: full-ranking evaluation and top-k retrieval over one
//!   flat `[B, N]` score buffer, now with typed [`ServeError`] admission
//!   (out-of-range ids, `k == 0`, zero batch sizes) instead of panics.
//! * **shard** ([`ShardPlan`]) — partitions the entity candidate axis into
//!   contiguous per-shard column stripes. Shards only *select*: the router
//!   scores each batch once into a full `[Q, N]` block through
//!   [`KgeModel::score_into`](crate::model::KgeModel::score_into), and each
//!   shard worker picks its stripe's top-k from that block.
//! * **router** ([`ServeTier`], [`TierHandle`]) — a traffic-facing async
//!   tier: concurrent `top_k`/`scores` submissions land in a bounded queue
//!   and are coalesced into continuous batches (flushed on size or
//!   deadline). A full queue rejects with [`ServeError::Overloaded`] —
//!   typed backpressure, never unbounded buffering. With any shard count
//!   its answers are bit-identical to the single-engine path.
//! * **merge** ([`merge_top_k`]) — scatter-gather merge of per-shard
//!   top-k partials under the total serving order (score descending,
//!   entity id ascending), equal to the first `k` rows of a full sort,
//!   ties included.
//!
//! Observability: with `came-obs` enabled the tier records the coalesced
//! batch-size histogram (`serve.router.batch_size`), a queue-depth gauge
//! (`serve.router.queue_depth`), per-shard queue gauges
//! (`serve.shard{i}.queue`), a rejected-request counter
//! (`serve.router.rejected`), and the engine's existing `serve.batch_ns` /
//! `serve.queries` / `serve.qps` metrics. The robustness layer adds a
//! deadline-shed counter (`serve.router.deadline_exceeded`), per-shard
//! panic counters (`serve.shard{i}.panics`), and a feature-coverage gauge
//! (`serve.degraded_entities`, set at cache preflight).
//!
//! Per-request tracing ([`trace`], [`RequestTrace`]): every admitted
//! retrieval request is minted a monotonic trace ID and stamped at each
//! pipeline stage (queue-wait → coalesce → score + per-shard select →
//! merge → reply); the completed timeline rides back on the [`TopKResponse`] and
//! is recorded into the `serve.stage.*` histograms, the rolling SLO
//! window, and the K-slowest exemplar reservoir — all inspectable live
//! over the `CAME_OBS_ADDR` telemetry endpoint.

mod engine;
mod error;
mod merge;
mod router;
mod shard;
pub mod trace;

pub use engine::ScoringEngine;
pub use error::ServeError;
pub use merge::merge_top_k;
pub use router::{PendingScores, PendingTopK, ServeTier, TierConfig, TierHandle};
pub use shard::ShardPlan;
pub use trace::RequestTrace;

use crate::vocab::{EntityId, RelationId};

/// Serving options.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Queries scored per batched forward (`CAME_SERVE_BATCH`); also the
    /// router's maximum coalesced batch.
    pub batch_size: usize,
    /// `k` used when a request does not name one (`CAME_TOPK`).
    pub default_k: usize,
    /// Inverse-augmented relation count, when known: requests naming a
    /// relation `>=` this bound are rejected at admission. `None` skips
    /// relation validation (the model interface only exposes the entity
    /// count).
    pub relation_bound: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_size: 128,
            default_k: 10,
            relation_bound: None,
        }
    }
}

impl ServeConfig {
    /// Defaults overridden by `CAME_SERVE_BATCH` / `CAME_TOPK` when set to
    /// positive integers.
    pub fn from_env() -> Self {
        let mut cfg = ServeConfig::default();
        if let Some(b) = env_usize("CAME_SERVE_BATCH") {
            cfg.batch_size = b;
        }
        if let Some(k) = env_usize("CAME_TOPK") {
            cfg.default_k = k;
        }
        cfg
    }

    /// Reject unusable configurations with a typed error.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.batch_size == 0 {
            return Err(ServeError::InvalidBatchSize);
        }
        if self.default_k == 0 {
            return Err(ServeError::ZeroK);
        }
        Ok(())
    }

    /// Bound the relation space for admission validation (builder style).
    pub fn with_relation_bound(mut self, num_relations_aug: usize) -> Self {
        self.relation_bound = Some(num_relations_aug);
        self
    }
}

/// Positive-integer environment knob.
pub(crate) fn env_usize(key: &str) -> Option<usize> {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
}

/// One retrieval request: rank tail candidates of `(head, relation)`.
#[derive(Clone, Copy, Debug)]
pub struct TopKRequest {
    /// Query head entity.
    pub head: EntityId,
    /// Query relation (inverse-augmented space `[0, 2R)`).
    pub relation: RelationId,
    /// Number of candidates to return; `None` uses the engine default.
    /// Values larger than the entity count are clamped to it.
    pub k: Option<usize>,
}

impl TopKRequest {
    /// Request the engine-default number of candidates for `(h, r)`.
    pub fn new(head: EntityId, relation: RelationId) -> Self {
        TopKRequest {
            head,
            relation,
            k: None,
        }
    }

    /// Request exactly `k` candidates for `(h, r)`.
    pub fn with_k(head: EntityId, relation: RelationId, k: usize) -> Self {
        TopKRequest {
            head,
            relation,
            k: Some(k),
        }
    }
}

/// One ranked candidate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredEntity {
    /// Candidate tail entity.
    pub entity: EntityId,
    /// Model score (higher is more plausible).
    pub score: f32,
}

/// Response to a [`TopKRequest`]: candidates in serving order — score
/// descending, entity id ascending among exact ties.
#[derive(Clone, Debug)]
pub struct TopKResponse {
    /// Echo of the query head.
    pub head: EntityId,
    /// Echo of the query relation.
    pub relation: RelationId,
    /// The top candidates, best first.
    pub hits: Vec<ScoredEntity>,
    /// True when the model scored this head through a degraded path (a
    /// modality it normally consumes is absent for this entity and a
    /// learned fallback stood in). Scores are still exact for the degraded
    /// model; the flag tells callers the answer used less evidence.
    pub degraded: bool,
    /// True when one or more shard workers failed while serving this batch
    /// and the hits were merged from the surviving shards only — candidates
    /// owned by the failed shard(s) are missing from `hits`.
    pub partial: bool,
    /// The request's stage timeline, present when the response came
    /// through the tier with `came-obs` enabled (the single-caller
    /// [`ScoringEngine`] path has no queue or merge pipeline to attribute
    /// and leaves this `None`).
    pub trace: Option<RequestTrace>,
}
