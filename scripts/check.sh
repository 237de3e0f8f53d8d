#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, runnable fully offline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace
cargo test -q --workspace
cargo fmt --check
# Lint gate: clippy's deny-by-default lints must pass on every crate and
# target. Warnings are printed but do not fail the gate.
cargo clippy --workspace --all-targets

# Inference parity gate: the tape-free serving stack must reproduce the taped
# metrics exactly and stay >= 2x faster on the eval_full_ranking A/B row.
# Observability gate: enabling came-obs must cost < 1% on the training step
# and the per-phase breakdown must account for the step wall time.
# SIMD gate: the vectorized backend must hold >= 2x over scalar on the
# softmax/layer-norm/adam kernels and not regress the end-to-end step
# (skipped automatically on hosts without SSE2/AVX2).
# Quant gate: the compact embedding store must hold mean top-10 Spearman
# >= 0.99 against the dense path under every backend, |dMRR| <= 0.005, a
# q8 resident footprint <= 0.35x of f32, and fused dequant scoring >= 0.8x
# of the dense f32 throughput on the lower bound of a bootstrap 95% CI over
# alternating paired f32/q8 rounds.
# Trace gate (micro side): per-request tracing must cost < 1% of a batched
# serving step on the trace off/on A/B row.
# Fusion gate: no fused kernel cell may run > 10% slower than its unfused
# composition. Checkpoint gate: per-epoch checkpointing must cost < 5% of
# the epoch it protects.
# Quick scale; the report goes to a scratch path so the committed full-scale
# BENCH_micro.json stays untouched.
CAME_QUICK=1 CAME_CHECK_INFER=1 CAME_CHECK_OBS=1 CAME_CHECK_SIMD=1 CAME_CHECK_QUANT=1 \
    CAME_CHECK_TRACE=1 CAME_CHECK_FUSION=1 CAME_CHECK_CKPT=1 CAME_MICRO_OUT="$(mktemp)" \
    cargo run --release -q -p came-bench --bin micro

# Serving gate: the sharded tier must reproduce the single-engine path bit
# for bit (top-k hits with ties included, and full score rows), sustain the
# throughput floor, and hold the p99 latency SLO under an open-loop load.
# CAME_SHARDS=4 exercises the scatter-gather merge even on small hosts; the
# report goes to a scratch path so the committed full-scale BENCH_serve.json
# stays put.
# Trace gate (serving side): every completed response must carry a complete
# monotone stage timeline, the tail-cohort stage decomposition must account
# for the e2e p99, and the live telemetry endpoint must answer /metrics and
# /trace mid-run.
CAME_QUICK=1 CAME_CHECK_SERVE=1 CAME_CHECK_TRACE=1 CAME_SHARDS=4 CAME_SERVE_OUT="$(mktemp)" \
    cargo run --release -q -p came-bench --bin serve_load

# Missing-modality robustness gate, training side: the micro modality
# scenario matrix (full / text-only / structure-only) must train to finite
# parameters and clear the chance-level MRR floor in every scenario.
CAME_QUICK=1 CAME_CHECK_DEGRADE=1 CAME_MICRO_OUT="$(mktemp)" \
    cargo run --release -q -p came-bench --bin micro

# Missing-modality robustness gate, serving side: with 30% of entities
# stripped of their modalities and an injected shard panic, the tier must
# complete the run with zero uncaught panics, tag degraded responses, and
# recover the poisoned batch as partial responses. CAME_SHARDS=2 forces a
# multi-shard tier so the partial-merge path is exercised even on 1-CPU
# hosts (with a single shard the poisoned batch correctly fails whole).
CAME_QUICK=1 CAME_CHECK_DEGRADE=1 CAME_SHARDS=2 \
    CAME_FAULTS=drop_modality@entity=0.3,shard_panic@batch=5 \
    CAME_SERVE_OUT="$(mktemp)" \
    cargo run --release -q -p came-bench --bin serve_load

# Structured-logging gate: a short checkpointed training run with the JSONL
# sink attached must emit parseable EpochEnd and CheckpointSaved events.
smoke_log="$(mktemp)"
smoke_ckpt="$(mktemp -d)"
CAME_TRACE=1 CAME_LOG="$smoke_log" CAME_LOG_STDERR=0 CAME_CKPT_DIR="$smoke_ckpt" \
    cargo run --release -q -p came-bench --bin smoke_train
grep -q '"event":"EpochEnd"' "$smoke_log"
grep -q '"event":"CheckpointSaved"' "$smoke_log"
rm -rf "$smoke_log" "$smoke_ckpt"
echo "smoke-train JSONL gate passed"
