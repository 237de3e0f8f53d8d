//! Per-request trace context for the serving tier.
//!
//! A trace is minted at [`TierHandle`](super::TierHandle) admission — a
//! process-monotonic trace ID plus the admission timestamp — and stamped
//! at every pipeline stage as the request moves through the router, the
//! shard workers, and the merge. The completed timeline rides back on the
//! [`TopKResponse`](super::TopKResponse), so every caller can see exactly
//! where its latency went:
//!
//! ```text
//! admitted --queue--> dequeued --coalesce--> dispatched --score-->
//!   scored --merge--> merged --reply--> completed
//! ```
//!
//! * **queue** — sitting in the bounded admission queue before the router
//!   picked it up.
//! * **coalesce** — waiting in the router's continuous-batching window for
//!   the batch to fill or the flush deadline to pass.
//! * **score** — the router's one scoring pass over the batch plus the
//!   shards' top-k selection over their column stripes; batch-scoped, with
//!   each shard's select-only duration kept as a vector (`shard_ns`) so one
//!   straggler shard is visible, not averaged away.
//! * **merge** — top-k merge of the shard partials (includes any wait for
//!   earlier requests of the same batch to merge first).
//! * **reply** — channel delivery from the router to the waiting caller.
//!
//! Timestamps use the `came_obs` process-monotonic nanosecond clock, so
//! they are directly comparable within one process. Score and merge work
//! is shared by every request of a coalesced batch (`batch_size` records
//! how many), so batch-stage durations are attributed wall-clock, not
//! divided. Tracing is enabled exactly when [`came_obs::enabled`] is on;
//! with it off, responses carry `trace: None` and the only per-request
//! cost is one branch at admission.
//!
//! Completion ([`PendingTopK::wait`](super::PendingTopK::wait)) records
//! the per-stage histograms (`serve.stage.*`), feeds the end-to-end
//! latency into the rolling SLO window, and offers the full timeline to
//! the exemplar reservoir, which keeps the K slowest traces for the JSONL
//! sink and the live `/trace` telemetry command.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Mint the next process-monotonic trace ID (1-based; never reused).
pub(super) fn mint_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Relaxed)
}

/// The in-flight stamps carried by a queued job until its response is
/// built (the batch-scoped stamps live on the router's stack instead).
#[derive(Clone, Copy, Debug)]
pub(super) struct TraceStamps {
    pub(super) trace_id: u64,
    pub(super) admitted_ns: u64,
    pub(super) dequeued_ns: u64,
}

impl TraceStamps {
    /// Mint a trace at admission time.
    pub(super) fn admit() -> TraceStamps {
        TraceStamps {
            trace_id: mint_trace_id(),
            admitted_ns: came_obs::now_ns(),
            dequeued_ns: 0,
        }
    }
}

/// A completed request's stage timeline (nanosecond timestamps on the
/// process-monotonic clock) plus the serving flags it completed with.
#[derive(Clone, Debug)]
pub struct RequestTrace {
    /// Process-monotonic request ID, minted at admission.
    pub trace_id: u64,
    /// Admission into the bounded queue.
    pub admitted_ns: u64,
    /// Picked up by the router thread.
    pub dequeued_ns: u64,
    /// Coalesced batch dispatched for scoring.
    pub dispatched_ns: u64,
    /// Every shard's partial gathered.
    pub scored_ns: u64,
    /// This request's top-k merge finished.
    pub merged_ns: u64,
    /// Response received by the caller (stamped in `wait()`; 0 until
    /// then).
    pub completed_ns: u64,
    /// Per-shard top-k selection duration (ns), indexed by shard; 0 marks
    /// a shard that failed this batch. Select-only time for every model:
    /// the router scored the batch before the shards ran, so its scoring
    /// time is roughly `score_ns` minus the slowest shard. Shared by every
    /// request of the batch.
    pub shard_ns: Arc<[u64]>,
    /// Requests coalesced into the batch that scored this request.
    pub batch_size: usize,
    /// Echo of [`TopKResponse::degraded`](super::TopKResponse::degraded).
    pub degraded: bool,
    /// Echo of [`TopKResponse::partial`](super::TopKResponse::partial).
    pub partial: bool,
}

impl RequestTrace {
    /// Time spent in the admission queue.
    pub fn queue_ns(&self) -> u64 {
        self.dequeued_ns.saturating_sub(self.admitted_ns)
    }

    /// Time spent in the router's coalescing window.
    pub fn coalesce_ns(&self) -> u64 {
        self.dispatched_ns.saturating_sub(self.dequeued_ns)
    }

    /// Scatter-gather scoring time of the whole batch.
    pub fn score_ns(&self) -> u64 {
        self.scored_ns.saturating_sub(self.dispatched_ns)
    }

    /// Merge time (including earlier same-batch merges).
    pub fn merge_ns(&self) -> u64 {
        self.merged_ns.saturating_sub(self.scored_ns)
    }

    /// Reply-channel delivery time (0 until `wait()` stamps completion).
    pub fn reply_ns(&self) -> u64 {
        self.completed_ns.saturating_sub(self.merged_ns)
    }

    /// End-to-end admission-to-completion latency.
    pub fn e2e_ns(&self) -> u64 {
        self.completed_ns.saturating_sub(self.admitted_ns)
    }

    /// The slowest shard's selection duration.
    pub fn slowest_shard_ns(&self) -> u64 {
        self.shard_ns.iter().copied().max().unwrap_or(0)
    }

    /// Whether the stage timestamps are complete and monotone
    /// (`admitted <= dequeued <= dispatched <= scored <= merged <=
    /// completed`, all stamped).
    pub fn is_complete(&self) -> bool {
        self.admitted_ns > 0
            && self.admitted_ns <= self.dequeued_ns
            && self.dequeued_ns <= self.dispatched_ns
            && self.dispatched_ns <= self.scored_ns
            && self.scored_ns <= self.merged_ns
            && self.merged_ns <= self.completed_ns
    }

    /// Serialise the full timeline as one JSON object (the exemplar
    /// payload format served by the `/trace` telemetry command).
    pub fn to_json(&self) -> String {
        let mut shard = String::from("[");
        for (i, ns) in self.shard_ns.iter().enumerate() {
            if i > 0 {
                shard.push(',');
            }
            shard.push_str(&ns.to_string());
        }
        shard.push(']');
        format!(
            "{{\"trace_id\":{},\"admitted_ns\":{},\"queue_ns\":{},\"coalesce_ns\":{},\
             \"score_ns\":{},\"merge_ns\":{},\"reply_ns\":{},\"e2e_ns\":{},\
             \"shard_ns\":{},\"batch_size\":{},\"degraded\":{},\"partial\":{}}}",
            self.trace_id,
            self.admitted_ns,
            self.queue_ns(),
            self.coalesce_ns(),
            self.score_ns(),
            self.merge_ns(),
            self.reply_ns(),
            self.e2e_ns(),
            shard,
            self.batch_size,
            self.degraded,
            self.partial
        )
    }
}

/// The per-stage histogram handles, resolved once per waiter thread.
/// `record_completion` runs on every traced request, so it must not pay a
/// name lookup (even the thread-local `record_ns` cache hashes the name on
/// each call) — registry handles are `&'static`, so one resolution amortises
/// over the thread's lifetime.
struct StageHists {
    queue: &'static came_obs::Histogram,
    coalesce: &'static came_obs::Histogram,
    score: &'static came_obs::Histogram,
    merge: &'static came_obs::Histogram,
    reply: &'static came_obs::Histogram,
    e2e: &'static came_obs::Histogram,
}

thread_local! {
    static STAGE_HISTS: StageHists = {
        let r = came_obs::registry();
        StageHists {
            queue: r.histogram("serve.stage.queue_ns"),
            coalesce: r.histogram("serve.stage.coalesce_ns"),
            score: r.histogram("serve.stage.score_ns"),
            merge: r.histogram("serve.stage.merge_ns"),
            reply: r.histogram("serve.stage.reply_ns"),
            e2e: r.histogram("serve.req.e2e_ns"),
        }
    };
}

/// Record a completed trace: per-stage histograms, the rolling SLO window,
/// and the exemplar reservoir. Called from `wait()` after `completed_ns`
/// is stamped; the caller checks [`came_obs::enabled`].
pub(super) fn record_completion(t: &RequestTrace) {
    STAGE_HISTS.with(|h| {
        h.queue.record(t.queue_ns());
        h.coalesce.record(t.coalesce_ns());
        h.score.record(t.score_ns());
        h.merge.record(t.merge_ns());
        h.reply.record(t.reply_ns());
        h.e2e.record(t.e2e_ns());
    });
    let e2e = t.e2e_ns();
    // `completed_ns` was just stamped off the same process-monotonic clock
    // the SLO window slots by, so reuse it instead of reading the clock
    // again on the completion path.
    came_obs::slo().record_at(t.completed_ns / 1_000_000_000, e2e);
    came_obs::exemplars().offer_with(e2e, || t.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RequestTrace {
        RequestTrace {
            trace_id: 7,
            admitted_ns: 100,
            dequeued_ns: 150,
            dispatched_ns: 300,
            scored_ns: 900,
            merged_ns: 950,
            completed_ns: 1000,
            shard_ns: Arc::from(vec![500u64, 580]),
            batch_size: 4,
            degraded: false,
            partial: true,
        }
    }

    #[test]
    fn stage_durations_decompose_the_e2e() {
        let t = sample();
        assert_eq!(t.queue_ns(), 50);
        assert_eq!(t.coalesce_ns(), 150);
        assert_eq!(t.score_ns(), 600);
        assert_eq!(t.merge_ns(), 50);
        assert_eq!(t.reply_ns(), 50);
        assert_eq!(t.e2e_ns(), 900);
        assert_eq!(
            t.queue_ns() + t.coalesce_ns() + t.score_ns() + t.merge_ns() + t.reply_ns(),
            t.e2e_ns(),
            "stages partition the end-to-end latency exactly"
        );
        assert_eq!(t.slowest_shard_ns(), 580);
        assert!(t.is_complete());
    }

    #[test]
    fn incomplete_timelines_are_detected() {
        let mut t = sample();
        t.completed_ns = 0;
        assert!(!t.is_complete());
        let mut t = sample();
        t.dequeued_ns = 0;
        assert!(!t.is_complete());
    }

    #[test]
    fn trace_ids_are_unique_and_monotone() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert!(b > a);
    }

    #[test]
    fn trace_json_is_parseable() {
        let t = sample();
        let v = came_obs::json::parse(&t.to_json()).expect("trace JSON must parse");
        assert_eq!(v.get("trace_id").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("e2e_ns").unwrap().as_f64(), Some(900.0));
        assert_eq!(v.get("batch_size").unwrap().as_f64(), Some(4.0));
    }
}
