//! The router layer: a traffic-facing async tier over persistent shard
//! workers.
//!
//! Concurrent callers submit through a [`TierHandle`] into one bounded
//! request queue. A router thread coalesces whatever has accumulated into a
//! continuous batch — flushed when it reaches the serve batch size or when
//! the oldest request has waited `flush_us` — then scores the batch once,
//! fans top-k selection out across shard workers that each own a column
//! stripe of the scored block, merges, and replies per request. While a
//! batch is scoring, new arrivals pile up in the queue and form the next
//! batch; a full queue rejects immediately with [`ServeError::Overloaded`]
//! (typed backpressure instead of unbounded buffering).
//!
//! Everything is `std`: scoped threads so the router can borrow the model
//! and store and the workers the filter, `sync_channel` for the bounded
//! queue and the depth-1 per-shard dispatch slots, and per-request reply
//! channels for completion.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use came_tensor::ParamStore;

use super::engine::{record_batch, validate_request};
use super::merge::{merge_top_k, select_top_k_range};
use super::shard::ShardPlan;
use super::trace::{RequestTrace, TraceStamps};
use super::{ScoredEntity, ServeConfig, ServeError, TopKRequest, TopKResponse};
use crate::dataset::FilterIndex;
use crate::model::KgeModel;
use crate::vocab::{EntityId, RelationId};

/// Tier options: shard count, queue bound, flush deadline, plus the
/// engine-level [`ServeConfig`]. The tier reads no environment; binaries
/// such as `serve_load` map their knobs (`CAME_SHARDS`, `CAME_SERVE_QUEUE`,
/// …) onto these fields.
#[derive(Clone, Debug)]
pub struct TierConfig {
    /// Entity-axis shard workers, each selecting top-k over one column
    /// stripe of the scored block.
    pub shards: usize,
    /// Bounded request-queue capacity; a full queue rejects with
    /// [`ServeError::Overloaded`].
    pub queue: usize,
    /// Microseconds the oldest queued request may wait before a partial
    /// batch is flushed.
    pub flush_us: u64,
    /// Per-request deadline in microseconds: a request still queued past
    /// this age is shed with [`ServeError::DeadlineExceeded`] instead of
    /// being scored late.
    /// `None` disables deadline shedding.
    pub deadline_us: Option<u64>,
    /// Fault injection (the `shard_panic@batch=N` form of
    /// [`FaultPlan`](crate::FaultPlan)): shard worker 0 panics once while
    /// serving the `N`-th coalesced batch, exercising the catch-and-respawn
    /// recovery path. `None` disables injection.
    pub panic_at_batch: Option<u64>,
    /// Engine-level serving options; `serve.batch_size` is also the
    /// router's maximum coalesced batch.
    pub serve: ServeConfig,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            shards: 1,
            queue: 1024,
            flush_us: 200,
            deadline_us: None,
            panic_at_batch: None,
            serve: ServeConfig::default(),
        }
    }
}

/// One queued request: the payload, its admission time (for deadline
/// shedding), its trace stamps (when tracing is on), and its private
/// reply channel.
enum Job {
    TopK {
        req: TopKRequest,
        at: Instant,
        trace: Option<TraceStamps>,
        reply: mpsc::Sender<Result<TopKResponse, ServeError>>,
    },
    Scores {
        query: (EntityId, RelationId),
        at: Instant,
        reply: mpsc::Sender<Result<Vec<f32>, ServeError>>,
    },
}

impl Job {
    /// Stamp the moment the router pulled this job out of the queue.
    fn stamp_dequeued(&mut self) {
        if let Job::TopK {
            trace: Some(stamps),
            ..
        } = self
        {
            stamps.dequeued_ns = came_obs::now_ns();
        }
    }
}

/// An in-flight [`TierHandle::submit`]; [`PendingTopK::wait`] blocks for
/// the response.
pub struct PendingTopK {
    rx: mpsc::Receiver<Result<TopKResponse, ServeError>>,
}

impl PendingTopK {
    /// Block until the tier answers (or shuts down).
    ///
    /// Completion is also where a traced request's timeline is closed:
    /// `completed_ns` is stamped here, and the finished trace is recorded
    /// into the per-stage histograms, the rolling SLO window, and the
    /// exemplar reservoir — on the caller's thread, keeping the router and
    /// shard hot paths free of reservoir and SLO work.
    pub fn wait(self) -> Result<TopKResponse, ServeError> {
        let mut resp = self.rx.recv().map_err(|_| ServeError::ShutDown)??;
        if let Some(t) = resp.trace.as_mut() {
            t.completed_ns = came_obs::now_ns();
            if came_obs::enabled() {
                super::trace::record_completion(t);
            }
        }
        Ok(resp)
    }
}

/// An in-flight [`TierHandle::submit_scores`]; [`PendingScores::wait`]
/// blocks for the full score row.
pub struct PendingScores {
    rx: mpsc::Receiver<Result<Vec<f32>, ServeError>>,
}

impl PendingScores {
    /// Block until the tier answers (or shuts down).
    pub fn wait(self) -> Result<Vec<f32>, ServeError> {
        self.rx.recv().map_err(|_| ServeError::ShutDown)?
    }
}

/// A caller's entry point into the tier: validating, non-blocking
/// admission into the bounded queue. Clone freely — one handle per client
/// thread.
pub struct TierHandle {
    tx: mpsc::SyncSender<Job>,
    depth: Arc<AtomicUsize>,
    capacity: usize,
    num_entities: usize,
    relation_bound: Option<usize>,
}

impl Clone for TierHandle {
    fn clone(&self) -> Self {
        TierHandle {
            tx: self.tx.clone(),
            depth: self.depth.clone(),
            capacity: self.capacity,
            num_entities: self.num_entities,
            relation_bound: self.relation_bound,
        }
    }
}

impl TierHandle {
    /// Submit a retrieval request without blocking: admission validates ids
    /// and `k`, and a full queue rejects with
    /// [`ServeError::Overloaded`] (bumping `serve.router.rejected`).
    ///
    /// With `came-obs` enabled, admission also mints the request's trace
    /// context — a monotonic trace ID plus the admission timestamp — which
    /// the tier stamps at every later stage and returns on the response.
    pub fn submit(&self, req: TopKRequest) -> Result<PendingTopK, ServeError> {
        validate_request(&req, self.num_entities, self.relation_bound)?;
        let trace = came_obs::enabled().then(TraceStamps::admit);
        let (reply, rx) = mpsc::channel();
        self.admit(Job::TopK {
            req,
            at: Instant::now(),
            trace,
            reply,
        })?;
        Ok(PendingTopK { rx })
    }

    /// Submit and wait: the synchronous convenience wrapper over
    /// [`TierHandle::submit`].
    pub fn top_k(&self, req: TopKRequest) -> Result<TopKResponse, ServeError> {
        self.submit(req)?.wait()
    }

    /// Submit a full-row scoring request (the bit-equality audit surface:
    /// the exact `[N]` score row the tier serves for one query).
    pub fn submit_scores(
        &self,
        query: (EntityId, RelationId),
    ) -> Result<PendingScores, ServeError> {
        let probe = TopKRequest::new(query.0, query.1);
        validate_request(&probe, self.num_entities, self.relation_bound)?;
        let (reply, rx) = mpsc::channel();
        self.admit(Job::Scores {
            query,
            at: Instant::now(),
            reply,
        })?;
        Ok(PendingScores { rx })
    }

    /// Submit-and-wait wrapper over [`TierHandle::submit_scores`].
    pub fn scores(&self, query: (EntityId, RelationId)) -> Result<Vec<f32>, ServeError> {
        self.submit_scores(query)?.wait()
    }

    fn admit(&self, job: Job) -> Result<(), ServeError> {
        // Count the job before it is visible to the router, so the router's
        // matching decrement can never underflow the gauge.
        self.depth.fetch_add(1, SeqCst);
        match self.tx.try_send(job) {
            Ok(()) => {
                if came_obs::enabled() {
                    came_obs::registry()
                        .gauge("serve.router.queue_depth")
                        .set(self.depth.load(SeqCst) as i64);
                }
                Ok(())
            }
            Err(mpsc::TrySendError::Full(_)) => {
                self.depth.fetch_sub(1, SeqCst);
                if came_obs::enabled() {
                    came_obs::registry().counter("serve.router.rejected").add(1);
                }
                Err(ServeError::Overloaded {
                    capacity: self.capacity,
                })
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                self.depth.fetch_sub(1, SeqCst);
                Err(ServeError::ShutDown)
            }
        }
    }
}

/// One coalesced batch's shared work order, read by every shard worker.
struct BatchPlan<'e> {
    ks: Vec<usize>,
    knowns: Vec<Option<&'e [EntityId]>>,
    /// The batch's `[Q, N]` scores, computed once by the router; each
    /// shard selects over its own column stripe.
    full: Vec<f32>,
}

/// One dispatch to a shard worker: the shared plan plus the batch's
/// gather channel. The reply carries the shard index, the worker's
/// selection wall time (for the per-shard trace vector), and `None`
/// partials when the worker panicked while serving this task — the router
/// merges the surviving shards instead.
struct ShardTask<'e> {
    plan: Arc<BatchPlan<'e>>,
    /// Fault injection: the worker panics on this task instead of
    /// selecting.
    poison: bool,
    reply: mpsc::Sender<(usize, u64, Option<Vec<Vec<ScoredEntity>>>)>,
}

/// The serving tier: shard workers + router over a bounded queue, run as a
/// scoped-thread region so its threads borrow the model, store and filter
/// directly.
pub struct ServeTier;

impl ServeTier {
    /// Start the tier, hand the caller a [`TierHandle`], and tear the tier
    /// down when the closure returns. `filter`, when given, excludes known
    /// tails from every response (serve *new* links).
    ///
    /// The closure runs on the calling thread; clone the handle into any
    /// client threads spawned inside it. Handles that outlive the closure
    /// fail all calls with [`ServeError::ShutDown`].
    pub fn run<R>(
        model: &(dyn KgeModel + Sync),
        store: &ParamStore,
        filter: Option<&FilterIndex>,
        cfg: TierConfig,
        f: impl FnOnce(&TierHandle) -> R,
    ) -> Result<R, ServeError> {
        cfg.serve.validate()?;
        // Serving boundary, as in `ScoringEngine::with_config`: freeze the
        // model's serving-side structures (e.g. the CAME_EMBED_STORE entity
        // store) before the first request. Idempotent.
        model.prepare_serving(store);
        // Expose the tier's registry/SLO/exemplar state over the live
        // telemetry endpoint when `CAME_OBS_ADDR` is configured (no-op,
        // once, otherwise).
        came_obs::telemetry_from_env();
        let n = model.num_entities();
        let plan = ShardPlan::new(n, cfg.shards)?;
        let capacity = cfg.queue.max(1);
        let (tx, rx) = mpsc::sync_channel::<Job>(capacity);
        let depth = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = TierHandle {
            tx,
            depth: Arc::clone(&depth),
            capacity,
            num_entities: n,
            relation_bound: cfg.serve.relation_bound,
        };
        let result = std::thread::scope(|scope| {
            let mut shard_txs = Vec::with_capacity(plan.num_shards());
            for (i, &(lo, hi)) in plan.ranges().iter().enumerate() {
                // Depth-1 dispatch slot: a busy shard stalls the router,
                // the queue fills, and admission starts rejecting — the
                // backpressure chain.
                let (stx, srx) = mpsc::sync_channel::<ShardTask<'_>>(1);
                shard_txs.push(stx);
                scope.spawn(move || shard_loop(i, lo, hi, n, srx));
            }
            {
                let depth = Arc::clone(&depth);
                let stop = Arc::clone(&stop);
                let cfg = cfg.clone();
                scope.spawn(move || {
                    router_loop(rx, shard_txs, model, store, filter, &cfg, &depth, &stop)
                });
            }
            let r = f(&handle);
            stop.store(true, SeqCst);
            drop(handle);
            r
        });
        Ok(result)
    }
}

/// Coalesce queued jobs into continuous batches and dispatch them.
#[allow(clippy::too_many_arguments)]
fn router_loop<'e>(
    rx: mpsc::Receiver<Job>,
    shard_txs: Vec<mpsc::SyncSender<ShardTask<'e>>>,
    model: &(dyn KgeModel + Sync),
    store: &ParamStore,
    filter: Option<&'e FilterIndex>,
    cfg: &TierConfig,
    depth: &AtomicUsize,
    stop: &AtomicBool,
) {
    let max_batch = cfg.serve.batch_size;
    let flush = Duration::from_micros(cfg.flush_us);
    // Fault injection: arm the shard-panic for the Nth coalesced batch; it
    // stays armed until a batch actually reaches the shard workers (a
    // scores-only batch never does), then fires exactly once.
    let mut armed = cfg.panic_at_batch;
    let mut batches: u64 = 0;
    loop {
        // Block for the first job; wake periodically to notice shutdown
        // even when a cloned handle keeps the channel open.
        let mut first = match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(job) => job,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if stop.load(SeqCst) {
                    return;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        };
        depth.fetch_sub(1, SeqCst);
        first.stamp_dequeued();
        let mut batch = vec![first];
        // Continuous batching: drain whatever arrives before the oldest
        // request's flush deadline, up to the serve batch size.
        let deadline = Instant::now() + flush;
        while batch.len() < max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(mut job) => {
                    depth.fetch_sub(1, SeqCst);
                    job.stamp_dequeued();
                    batch.push(job);
                }
                Err(_) => break,
            }
        }
        if came_obs::enabled() {
            let r = came_obs::registry();
            r.histogram("serve.router.batch_size")
                .record(batch.len() as u64);
            r.gauge("serve.router.queue_depth")
                .set(depth.load(SeqCst) as i64);
        }
        batches += 1;
        let poison = armed.is_some_and(|n| batches >= n);
        let dispatched = process_batch(batch, &shard_txs, model, store, filter, cfg, poison);
        if poison && dispatched {
            armed = None;
        }
    }
}

/// Score one coalesced batch: full rows for score requests; for retrieval
/// requests one scored block, shard-parallel selection, then the merge.
/// Returns true when the batch was dispatched to the shard workers (i.e. it
/// contained at least one top-k request).
fn process_batch<'e>(
    batch: Vec<Job>,
    shard_txs: &[mpsc::SyncSender<ShardTask<'e>>],
    model: &(dyn KgeModel + Sync),
    store: &ParamStore,
    filter: Option<&'e FilterIndex>,
    cfg: &TierConfig,
    poison: bool,
) -> bool {
    let serve = &cfg.serve;
    let n = model.num_entities();
    type TopKEntry = (
        TopKRequest,
        Option<TraceStamps>,
        mpsc::Sender<Result<TopKResponse, ServeError>>,
    );
    let mut topk: Vec<TopKEntry> = Vec::new();
    let mut scores: Vec<(
        (EntityId, RelationId),
        mpsc::Sender<Result<Vec<f32>, ServeError>>,
    )> = Vec::new();
    let limit = cfg.deadline_us.map(Duration::from_micros);
    let mut shed = 0u64;
    for job in batch {
        // Deadline shedding: a request that already waited past its
        // per-request deadline is answered with a typed rejection instead
        // of being scored late and holding the batch's other requests back.
        let expired = match (&job, limit) {
            (Job::TopK { at, .. } | Job::Scores { at, .. }, Some(limit)) => at.elapsed() > limit,
            (_, None) => false,
        };
        if expired {
            shed += 1;
            let deadline_us = cfg.deadline_us.unwrap_or(0);
            match job {
                Job::TopK { reply, .. } => {
                    let _ = reply.send(Err(ServeError::DeadlineExceeded { deadline_us }));
                }
                Job::Scores { reply, .. } => {
                    let _ = reply.send(Err(ServeError::DeadlineExceeded { deadline_us }));
                }
            }
            continue;
        }
        match job {
            Job::TopK {
                req, trace, reply, ..
            } => topk.push((req, trace, reply)),
            Job::Scores { query, reply, .. } => scores.push((query, reply)),
        }
    }
    if shed > 0 && came_obs::enabled() {
        came_obs::registry()
            .counter("serve.router.deadline_exceeded")
            .add(shed);
    }

    if !scores.is_empty() {
        let queries: Vec<(EntityId, RelationId)> = scores.iter().map(|s| s.0).collect();
        let t0 = Instant::now();
        let mut flat = vec![0.0f32; queries.len() * n];
        model.score_into(store, &queries, &mut flat);
        if came_obs::enabled() {
            record_batch(queries.len(), t0.elapsed().as_nanos() as u64);
        }
        for ((_, reply), row) in scores.into_iter().zip(flat.chunks(n)) {
            let _ = reply.send(Ok(row.to_vec()));
        }
    }

    if topk.is_empty() {
        return false;
    }
    let queries: Vec<(EntityId, RelationId)> =
        topk.iter().map(|(r, _, _)| (r.head, r.relation)).collect();
    let ks: Vec<usize> = topk
        .iter()
        .map(|(r, _, _)| r.k.unwrap_or(serve.default_k).min(n))
        .collect();
    let knowns: Vec<Option<&[EntityId]>> = topk
        .iter()
        .map(|(r, _, _)| filter.and_then(|f| f.known_tails(r.head, r.relation)))
        .collect();
    // The score stage starts here: the router scores the whole block once
    // before the shards select, and that work belongs to "score", not
    // "coalesce".
    let traced = topk.iter().any(|(_, t, _)| t.is_some());
    let dispatched_ns = if traced { came_obs::now_ns() } else { 0 };
    let t0 = Instant::now();
    let mut full = vec![0.0f32; queries.len() * n];
    model.score_into(store, &queries, &mut full);
    let nq = queries.len();
    let plan = Arc::new(BatchPlan { ks, knowns, full });
    let (gather_tx, gather_rx) = mpsc::channel();
    for (si, stx) in shard_txs.iter().enumerate() {
        let task = ShardTask {
            plan: Arc::clone(&plan),
            poison: poison && si == 0,
            reply: gather_tx.clone(),
        };
        if stx.send(task).is_err() {
            // A shard worker's channel is gone (tier tearing down); fail
            // the whole batch.
            for (_, _, reply) in topk {
                let _ = reply.send(Err(ServeError::ShutDown));
            }
            return true;
        }
    }
    drop(gather_tx);
    let mut per_shard: Vec<Option<Vec<Vec<ScoredEntity>>>> = vec![None; shard_txs.len()];
    let mut per_shard_ns = vec![0u64; shard_txs.len()];
    let mut failed = 0usize;
    for _ in 0..shard_txs.len() {
        match gather_rx.recv() {
            Ok((idx, elapsed_ns, Some(partials))) => {
                per_shard[idx] = Some(partials);
                per_shard_ns[idx] = elapsed_ns;
            }
            // A worker panicked on this task (its shard_ns stays 0); merge
            // the survivors below.
            Ok((_, _, None)) => failed += 1,
            Err(_) => {
                for (_, _, reply) in topk {
                    let _ = reply.send(Err(ServeError::ShutDown));
                }
                return true;
            }
        }
    }
    if failed == shard_txs.len() {
        // Every shard failed this batch — nothing to merge.
        for (_, _, reply) in topk {
            let _ = reply.send(Err(ServeError::ShutDown));
        }
        return true;
    }
    let scored_ns = if traced { came_obs::now_ns() } else { 0 };
    if came_obs::enabled() {
        record_batch(nq, t0.elapsed().as_nanos() as u64);
    }
    let partial = failed > 0;
    let shard_ns: Arc<[u64]> = per_shard_ns.into();
    let per_shard: Vec<Vec<Vec<ScoredEntity>>> = per_shard.into_iter().flatten().collect();
    for (qi, (req, stamps, reply)) in topk.into_iter().enumerate() {
        let lists: Vec<Vec<ScoredEntity>> = per_shard.iter().map(|s| s[qi].clone()).collect();
        let hits = merge_top_k(&lists, plan.ks[qi]);
        let degraded = model.degraded(req.head.0);
        // The merge stamp is per-request: a request merged late in the
        // batch sees the earlier merges' time in its own merge stage.
        let trace = stamps.map(|s| RequestTrace {
            trace_id: s.trace_id,
            admitted_ns: s.admitted_ns,
            dequeued_ns: s.dequeued_ns,
            dispatched_ns,
            scored_ns,
            merged_ns: came_obs::now_ns(),
            completed_ns: 0,
            shard_ns: Arc::clone(&shard_ns),
            batch_size: nq,
            degraded,
            partial,
        });
        let resp = TopKResponse {
            head: req.head,
            relation: req.relation,
            hits,
            degraded,
            partial,
            trace,
        };
        let _ = reply.send(Ok(resp));
    }
    true
}

/// One shard worker: receive a batch plan, select this shard's sorted
/// top-k partial for every query from its column stripe `lo..hi` of the
/// scored block, send it to the batch's gather channel. Workers never call
/// the model.
///
/// A panic while serving one task (injected or real) is caught: the worker
/// reports the failure to the batch's gather channel (`None`), bumps
/// `serve.shard{idx}.panics`, and keeps draining its queue — recovery is
/// staying alive for the next batch, not dying and stalling the router.
fn shard_loop(idx: usize, lo: usize, hi: usize, n: usize, rx: mpsc::Receiver<ShardTask<'_>>) {
    // Resolve the per-shard metric handles once at spawn — the hot/panic
    // paths below update leaked `'static` handles with relaxed RMWs instead
    // of paying `format!` + a registry lock per task. Handles are resolved
    // unconditionally so flipping observability on mid-run still reaches
    // pre-registered metrics.
    let queue_gauge = came_obs::registry().gauge(&format!("serve.shard{idx}.queue"));
    let panics = came_obs::registry().counter(&format!("serve.shard{idx}.panics"));
    while let Ok(task) = rx.recv() {
        if came_obs::enabled() {
            queue_gauge.set(1);
        }
        let plan = &task.plan;
        let t0 = Instant::now();
        let selected = catch_unwind(AssertUnwindSafe(|| {
            if task.poison {
                panic!("injected shard panic (CAME_FAULTS shard_panic@batch)");
            }
            plan.full
                .chunks(n)
                .zip(plan.ks.iter().zip(&plan.knowns))
                .map(|(row, (&k, &known))| select_top_k_range(&row[lo..hi], lo as u32, k, known))
                .collect::<Vec<Vec<ScoredEntity>>>()
        }));
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        match selected {
            Ok(partials) => {
                let _ = task.reply.send((idx, elapsed_ns, Some(partials)));
            }
            Err(_) => {
                if came_obs::enabled() {
                    panics.add(1);
                }
                let _ = task.reply.send((idx, 0, None));
            }
        }
        if came_obs::enabled() {
            queue_gauge.set(0);
        }
    }
}
