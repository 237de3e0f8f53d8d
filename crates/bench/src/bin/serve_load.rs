//! Open-loop load generator for the sharded serving tier (`BENCH_serve.json`).
//!
//! Two phases over a trained CamE:
//!
//! 1. **Bit-equality** — the sharded tier must reproduce the single-engine
//!    path exactly: top-k hits (ties included) and score rows.
//! 2. **Open-loop load** — requests arrive at scheduled instants
//!    (`t0 + i/QPS`) regardless of completion pace, so the reported
//!    latency includes queueing delay and is free of coordinated
//!    omission. Latency is measured from the *scheduled* arrival to
//!    completion; overload rejections are counted, not retried.
//!
//! Observability is enabled for the load phase: every completed response
//! carries a [`came_kg::RequestTrace`] stage timeline, and the report's
//! `latency_attribution` block decomposes the tail by stage (exact
//! percentiles over the raw per-request samples, not histogram buckets)
//! with a "slowest stage at p99" verdict, the rolling SLO status, the
//! degraded/partial/shed counters, and a live-endpoint smoke scrape taken
//! mid-run. A telemetry endpoint is served on `CAME_OBS_ADDR` when set,
//! else on an ephemeral local port for the scrape.
//!
//! Knobs: `CAME_SHARDS` (default min(4, host threads)), `CAME_SERVE_QUEUE`,
//! `CAME_SERVE_FLUSH_US`, `CAME_SERVE_QPS` (target arrival rate),
//! `CAME_SERVE_SECS` (load duration), `CAME_SERVE_OUT` (report path,
//! default `BENCH_serve.json`). With `CAME_CHECK_SERVE` set, the run is a
//! CI gate: bit-equality must hold, achieved throughput must reach
//! `CAME_SERVE_QPS_FLOOR` (default half the target), and p99 latency must
//! stay under `CAME_SERVE_P99_MS` (default 500 ms). With `CAME_CHECK_TRACE`
//! set, the tracing pipeline is gated too: every completed response must
//! carry a complete monotone timeline, the stage p99s must sum to within
//! `CAME_TRACE_SUM_TOL` (default 0.10) of the end-to-end p99, and the live
//! endpoint must answer `/metrics` and `/trace` mid-run.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use came_bench::{came_config_drkg, came_kge, provenance_json, train_came, Scale};
use came_biodata::presets;
use came_encoders::{FeatureConfig, ModalFeatures};
use came_kg::{
    FaultPlan, ScoringEngine, ServeConfig, ServeError, ServeTier, Split, TierConfig, TopKRequest,
};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|&v| v > 0.0)
        .unwrap_or(default)
}

fn main() {
    let scale = Scale::from_env();
    let kind = came_tensor::backend::kind();
    let quick = std::env::var_os("CAME_QUICK").is_some();
    came_tensor::set_infer_tape_free(true);

    let shards = env_usize(
        "CAME_SHARDS",
        came_tensor::backend::num_threads().min(4).max(1),
    );
    let queue = env_usize("CAME_SERVE_QUEUE", 1024);
    let flush_us = env_usize("CAME_SERVE_FLUSH_US", 200) as u64;
    let target_qps = env_f64("CAME_SERVE_QPS", if quick { 200.0 } else { 400.0 });
    let secs = env_f64("CAME_SERVE_SECS", if quick { 2.0 } else { 4.0 });

    // A small but real serving workload: trained CamE over the tiny preset,
    // frozen multimodal caches passing the serving preflight.
    let bkg = presets::tiny(scale.data_seed);
    let mut features = ModalFeatures::build(&bkg, &FeatureConfig::default());
    // Fault injection (`CAME_FAULTS=drop_modality@entity=F`): clear both
    // modalities for a fraction of entities before training, so the tier
    // serves those heads through the learned-fallback degraded path.
    let faults = FaultPlan::from_env();
    let entities_dropped = match faults.drop_modality_entity_frac {
        Some(frac) => features.drop_modality_fraction(frac, scale.data_seed),
        None => 0,
    };
    if entities_dropped > 0 {
        eprintln!("[serve_load] fault: dropped both modalities for {entities_dropped} entities");
    }
    let epochs = if quick { 1 } else { 3 };
    let (model, store) = train_came(&bkg, &features, came_config_drkg(), epochs);
    model
        .serve_preflight()
        .expect("frozen caches must pass the serving preflight");
    let kge = came_kge(&model, &bkg.dataset);
    let n = bkg.dataset.num_entities();
    let filter = bkg.dataset.filter_index();
    eprintln!(
        "[serve_load] model=CamE entities={n} shards={shards} queue={queue} flush={flush_us}us \
         target={target_qps:.0} qps x {secs:.0}s"
    );

    // Request mix: the augmented test queries, cycled.
    let test = bkg.dataset.augmented(Split::Test);
    let reqs: Vec<TopKRequest> = test
        .iter()
        .map(|t| TopKRequest::with_k(t.h, t.r, 10))
        .collect();
    assert!(!reqs.is_empty(), "tiny preset must have test triples");

    // ---- Phase 1: bit-equality of the sharded tier -------------------------
    let single = ScoringEngine::with_config(&kge, &store, ServeConfig::default())
        .expect("default serve config is valid");
    let sample: Vec<TopKRequest> = reqs.iter().take(32).copied().collect();
    let want = single
        .top_k_batch(&sample, Some(&filter))
        .expect("single-engine top-k");
    let mut want_rows = vec![0.0f32; sample.len() * n];
    let sample_queries: Vec<_> = sample.iter().map(|r| (r.head, r.relation)).collect();
    single.score_into(&sample_queries, &mut want_rows);
    // Fault-free tier with the load phase's shard count: every answer must
    // equal the single engine's, hits and full score rows alike.
    let check_cfg = TierConfig {
        shards,
        queue,
        flush_us,
        ..TierConfig::default()
    };
    let (topk_equal, scores_equal) =
        ServeTier::run(&kge, &store, Some(&filter), check_cfg, |handle| {
            let topk = sample
                .iter()
                .zip(&want)
                .all(|(req, w)| handle.top_k(*req).is_ok_and(|g| g.hits == w.hits));
            let scores = sample_queries
                .iter()
                .zip(want_rows.chunks(n))
                .all(|(q, w)| handle.scores(*q).is_ok_and(|g| g == w));
            (topk, scores)
        })
        .expect("tier config is valid");
    let bit_equal = topk_equal && scores_equal;
    eprintln!("[serve_load] tier-vs-single bit-equality: topk={topk_equal} scores={scores_equal}");

    // ---- Phase 2: open-loop load through the tier --------------------------
    // Tracing on for the load phase: the report's latency_attribution block
    // needs per-request stage timelines (measured overhead is gated <1% by
    // the micro bench, so the latency numbers stay honest).
    came_obs::set_enabled(true);
    // Live telemetry endpoint: CAME_OBS_ADDR when configured, else an
    // ephemeral local port so the mid-run smoke scrape always has a target.
    let owned_endpoint;
    let endpoint_addr: Option<SocketAddr> = match came_obs::telemetry_from_env() {
        Some(t) => Some(t.local_addr()),
        None => {
            owned_endpoint = came_obs::Telemetry::bind("127.0.0.1:0").ok();
            owned_endpoint.as_ref().map(|t| t.local_addr())
        }
    };
    let deadline_us = std::env::var("CAME_SERVE_DEADLINE_US")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&v| v > 0);
    let tier_cfg = TierConfig {
        shards,
        queue,
        flush_us,
        deadline_us,
        panic_at_batch: faults.shard_panic_at_batch,
        serve: ServeConfig::default(),
    };
    let total = (target_qps * secs).round() as usize;
    let interval = Duration::from_secs_f64(1.0 / target_qps);
    let lat = came_obs::registry().histogram("serve.load.latency_ns");
    let completed = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let degraded = AtomicU64::new(0);
    let partial = AtomicU64::new(0);
    let deadline_shed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    // Every completed response's stage timeline, for exact (sample-level)
    // tail attribution after the run.
    let traces: Mutex<Vec<came_kg::RequestTrace>> = Mutex::new(Vec::with_capacity(total));
    // Mid-run smoke scrape of the live endpoint: (metrics, slo, trace)
    // payloads captured while the tier is actually under load.
    let scraped: Mutex<Option<(String, String, String)>> = Mutex::new(None);
    let elapsed_s = ServeTier::run(&kge, &store, Some(&filter), tier_cfg, |handle| {
        let (tx, rx) = mpsc::channel::<(Instant, came_kg::PendingTopK)>();
        let rx = std::sync::Mutex::new(rx);
        std::thread::scope(|s| {
            // Waiter pool: records completion latency from the scheduled
            // arrival instant (not the submit instant), so a backed-up tier
            // cannot hide queueing delay from the percentiles.
            for _ in 0..4 {
                s.spawn(|| loop {
                    let item = { rx.lock().unwrap().recv() };
                    let Ok((sched, pending)) = item else { return };
                    match pending.wait() {
                        Ok(resp) => {
                            lat.record(sched.elapsed().as_nanos() as u64);
                            completed.fetch_add(1, Relaxed);
                            if resp.degraded {
                                degraded.fetch_add(1, Relaxed);
                            }
                            if resp.partial {
                                partial.fetch_add(1, Relaxed);
                            }
                            if let Some(t) = resp.trace {
                                traces.lock().unwrap().push(t);
                            }
                        }
                        Err(ServeError::DeadlineExceeded { .. }) => {
                            deadline_shed.fetch_add(1, Relaxed);
                        }
                        // e.g. the batch where every shard failed.
                        Err(_) => {
                            failed.fetch_add(1, Relaxed);
                        }
                    }
                });
            }
            if let Some(addr) = endpoint_addr {
                let scraped = &scraped;
                s.spawn(move || {
                    // Scrape halfway through the run, while load is live.
                    std::thread::sleep(Duration::from_secs_f64(secs * 0.5));
                    let get =
                        |cmd: &str| came_obs::telemetry::scrape(&addr, cmd).unwrap_or_default();
                    *scraped.lock().unwrap() = Some((get("/metrics"), get("/slo"), get("/trace")));
                });
            }
            let t0 = Instant::now();
            for i in 0..total {
                let sched = t0 + interval.mul_f64(i as f64);
                let now = Instant::now();
                if sched > now {
                    std::thread::sleep(sched - now);
                }
                match handle.submit(reqs[i % reqs.len()]) {
                    Ok(pending) => {
                        let _ = tx.send((sched, pending));
                    }
                    Err(ServeError::Overloaded { .. }) => {
                        rejected.fetch_add(1, Relaxed);
                    }
                    Err(e) => panic!("unexpected serve error: {e}"),
                }
            }
            drop(tx);
            t0.elapsed().as_secs_f64()
        })
    })
    .expect("tier config is valid");

    let done = completed.load(Relaxed);
    let shed = rejected.load(Relaxed);
    let n_degraded = degraded.load(Relaxed);
    let n_partial = partial.load(Relaxed);
    let n_deadline = deadline_shed.load(Relaxed);
    let n_failed = failed.load(Relaxed);
    let achieved_qps = if elapsed_s > 0.0 {
        done as f64 / elapsed_s
    } else {
        0.0
    };
    let (p50, p95, p99) = (lat.p50(), lat.p95(), lat.p99());
    let mean_ns = if lat.count() > 0 {
        lat.sum() as f64 / lat.count() as f64
    } else {
        0.0
    };
    println!(
        "serve_load: offered {total} @ {target_qps:.0} qps, completed {done} \
         ({achieved_qps:.0} qps), rejected {shed}"
    );
    if n_degraded + n_partial + n_deadline + n_failed > 0 || entities_dropped > 0 {
        println!(
            "degraded mode: {n_degraded} degraded responses, {n_partial} partial responses, \
             {n_deadline} deadline-shed, {n_failed} failed ({entities_dropped} entities \
             without modalities)"
        );
    }
    println!(
        "latency (from scheduled arrival): p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, \
         mean {:.2} ms, max {:.2} ms",
        p50 / 1e6,
        p95 / 1e6,
        p99 / 1e6,
        mean_ns / 1e6,
        lat.max() as f64 / 1e6
    );

    // ---- Tail-latency attribution over the collected timelines -------------
    let traces = traces.into_inner().unwrap();
    let n_traced = traces.len();
    let timelines_complete = traces.iter().all(|t| t.is_complete());
    let mut stage_samples: [Vec<u64>; 5] = std::array::from_fn(|_| Vec::with_capacity(n_traced));
    let mut e2e_samples: Vec<u64> = Vec::with_capacity(n_traced);
    for t in &traces {
        stage_samples[0].push(t.queue_ns());
        stage_samples[1].push(t.coalesce_ns());
        stage_samples[2].push(t.score_ns());
        stage_samples[3].push(t.merge_ns());
        stage_samples[4].push(t.reply_ns());
        e2e_samples.push(t.e2e_ns());
    }
    let [s_queue, s_coalesce, s_score, s_merge, s_reply] = stage_samples;
    let attribution = came_obs::attribute(
        vec![
            ("queue", s_queue),
            ("coalesce", s_coalesce),
            ("score", s_score),
            ("merge", s_merge),
            ("reply", s_reply),
        ],
        e2e_samples,
    );
    let slo_status = came_obs::slo().status();
    let (m_scrape, slo_scrape, t_scrape) = scraped.into_inner().unwrap().unwrap_or_default();
    let endpoint_ok = m_scrape.contains("came_") && !t_scrape.is_empty();
    println!(
        "stage p99 (ms over {n_traced} traces): {}; e2e p99 {:.2} ms, \
         slowest stage at p99: {} (tail cohort of {}, stage sum / e2e = {:.3})",
        attribution
            .stages
            .iter()
            .map(|s| format!("{} {:.2}", s.name, s.p99_ns / 1e6))
            .collect::<Vec<_>>()
            .join(", "),
        attribution.e2e.p99_ns / 1e6,
        attribution.slowest_stage_p99,
        attribution.tail.cohort,
        attribution.tail.stage_sum_over_e2e
    );
    println!(
        "slo: p99 {:.2} ms vs objective {:.0} ms over last {}s -> burn rate {:.2} ({}); \
         telemetry endpoint {}",
        slo_status.p99_ms,
        slo_status.objective_ms,
        slo_status.window_s,
        slo_status.burn_rate,
        if slo_status.breached {
            "BREACHED"
        } else {
            "within budget"
        },
        match endpoint_addr {
            Some(a) if endpoint_ok => format!("{a} scraped ok mid-run"),
            Some(a) => format!("{a} scrape FAILED"),
            None => "unavailable".to_string(),
        }
    );

    let mut json = String::from("{\n  \"schema\": \"came-serve-bench-v2\",\n");
    json.push_str(&format!(
        "  \"config\": {{\"model\": \"CamE\", \"entities\": {n}, \"shards\": {shards}, \
         \"queue\": {queue}, \"flush_us\": {flush_us}, \"batch_size\": {}, \
         \"target_qps\": {target_qps:.0}, \"duration_s\": {secs:.1}, \"k\": 10}},\n",
        ServeConfig::default().batch_size
    ));
    json.push_str(&format!(
        "  \"bit_equal\": {{\"topk\": {topk_equal}, \"scores\": {scores_equal}}},\n"
    ));
    json.push_str(&format!(
        "  \"load\": {{\"offered\": {total}, \"completed\": {done}, \"rejected\": {shed}, \
         \"elapsed_s\": {elapsed_s:.3}, \"achieved_qps\": {achieved_qps:.1}, \
         \"p50_ns\": {p50:.0}, \"p95_ns\": {p95:.0}, \"p99_ns\": {p99:.0}, \
         \"mean_ns\": {mean_ns:.0}, \"min_ns\": {}, \"max_ns\": {}}},\n",
        lat.min(),
        lat.max()
    ));
    // One coherent attribution block: the stage-decomposed tail (exact
    // percentiles over per-request timelines), the response-disposition
    // counters, the rolling SLO status, and the mid-run endpoint smoke.
    json.push_str(&format!(
        "  \"latency_attribution\": {{\"traced\": {n_traced}, \
         \"timelines_complete\": {timelines_complete}, \"report\": {}, \
         \"responses\": {{\"entities_dropped\": {entities_dropped}, \
         \"degraded\": {n_degraded}, \"partial\": {n_partial}, \
         \"deadline_shed\": {n_deadline}, \"failed\": {n_failed}, \
         \"rejected\": {shed}, \"shard_panic_at_batch\": {}}}, \
         \"slo\": {}, \"endpoint\": {{\"addr\": {}, \"scrape_ok\": {endpoint_ok}, \
         \"metrics_bytes\": {}, \"trace_lines\": {}}}}},\n",
        attribution.to_json(),
        match faults.shard_panic_at_batch {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        },
        slo_status.to_json(),
        match endpoint_addr {
            Some(a) => format!("\"{a}\""),
            None => "null".to_string(),
        },
        m_scrape.len(),
        t_scrape.lines().count()
    ));
    json.push_str(&format!(
        "  \"provenance\": {}\n}}\n",
        provenance_json(kind, quick)
    ));
    // CAME_SERVE_OUT redirects the report so gate-only runs (scripts/check.sh)
    // don't clobber the committed full-scale BENCH_serve.json
    let out_path =
        std::env::var("CAME_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("[serve_load] wrote {out_path}");

    // CI gate: bit-equality, throughput floor, p99 SLO.
    if std::env::var_os("CAME_CHECK_SERVE").is_some() {
        let floor = env_f64("CAME_SERVE_QPS_FLOOR", target_qps * 0.5);
        let slo_ms = env_f64("CAME_SERVE_P99_MS", 500.0);
        let mut failed = false;
        if !bit_equal {
            eprintln!(
                "[serve_load] SERVE GATE FAILED: sharded tier diverges from single engine \
                 (topk={topk_equal} scores={scores_equal})"
            );
            failed = true;
        }
        if achieved_qps < floor {
            eprintln!(
                "[serve_load] SERVE GATE FAILED: achieved {achieved_qps:.1} qps \
                 < floor {floor:.1} qps"
            );
            failed = true;
        }
        if p99 / 1e6 > slo_ms {
            eprintln!(
                "[serve_load] SERVE GATE FAILED: p99 {:.2} ms > SLO {slo_ms:.1} ms",
                p99 / 1e6
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "[serve_load] serve gate passed (bit-equal, {achieved_qps:.0} qps >= {floor:.0}, \
             p99 {:.2} ms <= {slo_ms:.0} ms)",
            p99 / 1e6
        );
    }

    // Degraded-mode gate: the tier must keep answering under injected
    // missing-modality and shard-panic faults — reaching this line at all
    // means zero uncaught panics in the train→serve path.
    if std::env::var_os("CAME_CHECK_DEGRADE").is_some() {
        let mut gate_failed = false;
        if done == 0 {
            eprintln!("[serve_load] DEGRADE GATE FAILED: no request completed");
            gate_failed = true;
        }
        if entities_dropped > 0 && n_degraded == 0 {
            eprintln!(
                "[serve_load] DEGRADE GATE FAILED: {entities_dropped} entities lost their \
                 modalities but no response was tagged degraded"
            );
            gate_failed = true;
        }
        if faults.shard_panic_at_batch.is_some() && shards > 1 && n_partial == 0 {
            eprintln!(
                "[serve_load] DEGRADE GATE FAILED: shard panic was injected but no response \
                 was tagged partial"
            );
            gate_failed = true;
        }
        if gate_failed {
            std::process::exit(1);
        }
        eprintln!(
            "[serve_load] degrade gate passed ({n_degraded} degraded, {n_partial} partial, \
             {n_failed} failed; tier survived)"
        );
    }

    // Tracing gate: the per-request pipeline must account for the tail.
    if std::env::var_os("CAME_CHECK_TRACE").is_some() {
        let tol = env_f64("CAME_TRACE_SUM_TOL", 0.10);
        let mut gate_failed = false;
        if n_traced as u64 != done {
            eprintln!(
                "[serve_load] TRACE GATE FAILED: {done} completed responses but only \
                 {n_traced} carried a trace"
            );
            gate_failed = true;
        }
        if !timelines_complete {
            eprintln!(
                "[serve_load] TRACE GATE FAILED: a stage timeline is incomplete or \
                 non-monotone"
            );
            gate_failed = true;
        }
        // The gated quantity is the tail-cohort decomposition: the stage
        // durations of the requests at/above the e2e p99 must account for
        // their end-to-end latency (independent per-stage p99s legitimately
        // do not sum — each stage's tail can come from different requests).
        let ratio = attribution.tail.stage_sum_over_e2e;
        if !ratio.is_finite() || (ratio - 1.0).abs() > tol {
            eprintln!(
                "[serve_load] TRACE GATE FAILED: tail-cohort stage sum / e2e = {ratio:.3} \
                 outside 1 +/- {tol:.2} (stages must account for the p99 tail)"
            );
            gate_failed = true;
        }
        if !endpoint_ok {
            eprintln!(
                "[serve_load] TRACE GATE FAILED: mid-run endpoint scrape failed \
                 (addr {endpoint_addr:?}, /metrics {} bytes, /trace {} lines)",
                m_scrape.len(),
                t_scrape.lines().count()
            );
            gate_failed = true;
        }
        if came_obs::json::parse(slo_scrape.trim()).is_err() {
            eprintln!("[serve_load] TRACE GATE FAILED: /slo scrape is not valid JSON");
            gate_failed = true;
        }
        if gate_failed {
            std::process::exit(1);
        }
        eprintln!(
            "[serve_load] trace gate passed ({n_traced} traced, complete timelines, \
             stage-p99 sum ratio {ratio:.3}, slowest stage at p99: {}, endpoint scraped)",
            attribution.slowest_stage_p99
        );
    }
}
