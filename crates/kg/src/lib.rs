//! # came-kg
//!
//! Knowledge-graph substrate for the CamE reproduction: vocabularies, typed
//! triples, dataset splitting with inverse-relation augmentation, 1-N label
//! batching, negative sampling, and filtered ranking evaluation producing the
//! MR / MRR / Hits@n metrics every table in the paper reports.
//!
//! ```
//! use came_kg::{Vocab, EntityKind, Triple, KgDataset};
//! use came_tensor::Prng;
//!
//! let mut vocab = Vocab::new();
//! let asp = vocab.add_entity("aspirin", EntityKind::Compound);
//! let cox = vocab.add_entity("PTGS2", EntityKind::Gene);
//! let binds = vocab.add_relation("binds");
//! let triples = vec![Triple { h: asp, r: binds, t: cox }];
//! let ds = KgDataset::split(vocab, triples, (1.0, 0.0, 0.0), &mut Prng::new(7));
//! assert_eq!(ds.num_relations_aug(), 2); // forward + inverse
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod eval;
pub mod labels;
pub mod metrics;
pub mod model;
pub mod negative;
pub mod parity;
pub mod relbucket;
pub mod runtime;
pub mod serve;
pub mod snapshot;
pub mod train;
pub mod triple;
pub mod vocab;

pub use dataset::{FilterIndex, KgDataset, Split};
pub use eval::{evaluate, evaluate_grouped, filtered_rank, EvalConfig, TailScorer};
pub use labels::{NegativePolicy, OneToNBatch, OneToNBatcher};
pub use metrics::RankMetrics;
pub use model::{capture_kge, restore_kge, KgeModel, KgeScorer, OneToNKge, TripleKge};
pub use negative::NegativeSampler;
pub use parity::{mean_spearman_topk, min_spearman_topk, spearman_topk, top_k_indices};
pub use relbucket::RelationFamily;
pub use runtime::{
    fingerprint, observe_event, CheckpointConfig, FaultPlan, RuntimeConfig, SentinelConfig,
    TrainError, TrainEvent, TrainRun,
};
pub use serve::{
    merge_top_k, PendingScores, PendingTopK, RequestTrace, ScoredEntity, ScoringEngine,
    ServeConfig, ServeError, ServeTier, ShardPlan, TierConfig, TierHandle, TopKRequest,
    TopKResponse,
};
pub use snapshot::{
    resume_or_init, write_atomic, ParamRecord, ResumeReport, Snapshot, SnapshotError,
};
pub use train::{
    softplus, train_negative_sampling, train_negative_sampling_rt, train_one_to_n,
    train_one_to_n_rt, EpochStats, NegSamplingConfig, NegWeighting, OneToNModel, OneToNScorer,
    TrainConfig, TripleModel, TripleScorerAdapter,
};
pub use triple::Triple;
pub use vocab::{EntityId, EntityKind, RelationId, Vocab};
