//! # came-bench
//!
//! The experiment harness: one binary per table and figure of the paper
//! (see DESIGN.md §3 for the index), plus shared helpers for scale control,
//! model training, and table rendering.
//!
//! Every binary honours the `CAME_QUICK` environment variable: set it to get
//! a fast smoke-scale run (useful in CI); unset, the defaults regenerate the
//! numbers recorded in EXPERIMENTS.md.

#![warn(missing_docs)]

use came::{CamE, CamEConfig};
use came_biodata::MultimodalBkg;
use came_encoders::{FeatureConfig, ModalFeatures};
use came_kg::{
    evaluate, EvalConfig, KgDataset, OneToNKge, RankMetrics, ScoringEngine, Split, TailScorer,
    TrainConfig,
};
use came_tensor::ParamStore;

/// Experiment scale knobs.
#[derive(Clone, Debug)]
pub struct Scale {
    /// CamE training epochs.
    pub came_epochs: usize,
    /// Baseline training epochs.
    pub baseline_epochs: usize,
    /// Cap on evaluated (augmented) test triples; None = all.
    pub eval_cap: Option<usize>,
    /// Dataset generation seed.
    pub data_seed: u64,
    /// Triple fraction used by the parameter/ablation sweeps (they train
    /// CamE a dozen-plus times; the sweep *shape* survives subsampling).
    pub sweep_frac: f64,
}

impl Scale {
    /// Scale from the environment: quick when `CAME_QUICK` is set.
    ///
    /// Also (re-)initialises the kernel backend from `CAME_BACKEND` and prints
    /// a one-line banner, so every experiment binary records which backend
    /// produced its numbers.
    pub fn from_env() -> Scale {
        let kind = init_backend();
        eprintln!(
            "[came-bench] backend={} threads={}",
            kind.name(),
            came_tensor::backend::num_threads()
        );
        if std::env::var_os("CAME_QUICK").is_some() {
            Scale {
                came_epochs: 2,
                baseline_epochs: 2,
                eval_cap: Some(300),
                data_seed: 7,
                sweep_frac: 0.3,
            }
        } else {
            Scale {
                came_epochs: 10,
                baseline_epochs: 25,
                eval_cap: Some(1200),
                data_seed: 7,
                sweep_frac: 0.4,
            }
        }
    }
}

/// The DRKG-MM benchmark graph every experiment binary trains on: the
/// CPU-scale [`came_biodata::presets::drkg_mm_like`] preset by default, or
/// the paper-scale [`came_biodata::presets::drkg_mm_full`] (~97k entities,
/// ~4.7M triples) when `CAME_DRKG_FULL` is set — the regime the compact
/// embedding store exists for.
pub fn drkg_bkg(seed: u64) -> MultimodalBkg {
    use came_biodata::presets;
    if presets::drkg_full_env() {
        eprintln!("[came-bench] CAME_DRKG_FULL set: building paper-scale DRKG-MM (~97k entities)");
        presets::drkg_mm_full(seed)
    } else {
        presets::drkg_mm_like(seed)
    }
}

/// Select the kernel backend from `CAME_BACKEND` (`scalar` | `simd`, default
/// simd: vector kernels where the host has AVX2+FMA or SSE2, portable block
/// kernels elsewhere) and return the chosen kind.
pub fn init_backend() -> came_tensor::BackendKind {
    came_tensor::backend::init_from_env()
}

/// Default frozen-feature configuration used by every experiment.
pub fn feature_config() -> FeatureConfig {
    FeatureConfig::default()
}

/// Default CamE configuration for the DRKG-MM-like preset (paper §V-B
/// hyper-parameters: m=2, λ=5, θ=−0.5).
pub fn came_config_drkg() -> CamEConfig {
    CamEConfig {
        // width 48 keeps the TCA affinity matrices CPU-affordable while
        // staying well away from the toy regime (paper: d_f=200, d_e=500,
        // on an RTX 3090)
        d_embed: 32,
        d_fusion: 32,
        ..CamEConfig::default()
    }
    // robustness env knobs (CAME_MODALITY_DROPOUT, CAME_CONTRASTIVE_W)
    // reach every bench/experiment binary through these builders
    .with_env_overrides()
}

/// Default CamE configuration for the OMAHA-MM-like preset (paper: m=3,
/// λ=10, θ=−2).
pub fn came_config_omaha() -> CamEConfig {
    CamEConfig {
        n_heads: 3,
        lambda: 10.0,
        theta: -2.0,
        d_embed: 32,
        d_fusion: 32,
        ..CamEConfig::default()
    }
    .with_env_overrides()
}

/// Default CamE training configuration.
pub fn came_train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 128,
        lr: 3e-3,
        ..Default::default()
    }
}

/// Train CamE on a generated BKG; returns the model and its store.
pub fn train_came(
    bkg: &MultimodalBkg,
    features: &ModalFeatures,
    cfg: CamEConfig,
    epochs: usize,
) -> (CamE, ParamStore) {
    train_came_on(&bkg.dataset, features, cfg, epochs)
}

/// Train CamE on an explicit dataset (e.g. a subsampled one); the feature
/// tables stay those of the full entity set.
pub fn train_came_on(
    dataset: &KgDataset,
    features: &ModalFeatures,
    cfg: CamEConfig,
    epochs: usize,
) -> (CamE, ParamStore) {
    let mut store = ParamStore::new();
    let model = CamE::new(&mut store, dataset, features, cfg);
    model.fit(&mut store, dataset, &came_train_config(epochs));
    (model, store)
}

/// Wrap a trained CamE (borrowed) as the unified [`came_kg::KgeModel`],
/// ready for the serving layer.
pub fn came_kge<'m>(model: &'m CamE, dataset: &KgDataset) -> OneToNKge<&'m CamE> {
    OneToNKge::new("CamE", model, dataset.num_entities())
}

/// Evaluate a trained CamE on a split through the batched serving engine
/// (tape-free inference path).
pub fn eval_came(
    model: &CamE,
    store: &ParamStore,
    dataset: &KgDataset,
    split: Split,
    cap: Option<usize>,
) -> RankMetrics {
    let filter = dataset.filter_index();
    let kge = came_kge(model, dataset);
    ScoringEngine::new(&kge, store).evaluate(
        dataset,
        split,
        &filter,
        &EvalConfig {
            max_triples: cap,
            ..Default::default()
        },
    )
}

/// Evaluate any scorer on a split with a cap.
pub fn eval_scorer(
    scorer: &dyn TailScorer,
    dataset: &KgDataset,
    split: Split,
    cap: Option<usize>,
) -> RankMetrics {
    let filter = dataset.filter_index();
    evaluate(
        scorer,
        dataset,
        split,
        &filter,
        &EvalConfig {
            max_triples: cap,
            ..Default::default()
        },
    )
}

/// The provenance block shared by every BENCH_*.json report: git revision
/// (with a `-dirty` marker), kernel backend, detected vector ISA and
/// autotuned GEMM tile, host thread count, quick-mode flag, and the sorted
/// `CAME_*` environment — everything needed to reproduce the numbers.
/// Returns the JSON object text (no trailing newline), to be embedded under
/// a `"provenance"` key.
pub fn provenance_json(backend: came_tensor::BackendKind, quick: bool) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    let mut git_rev = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
    if git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()) {
        git_rev.push_str("-dirty");
    }
    let mut came_env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("CAME_"))
        .collect();
    came_env.sort();
    let mut json = format!(
        "{{\"git_rev\": {}, \"backend\": {}, \"simd\": {}, \"host_threads\": {}, \"quick\": {quick}, \"env\": {{",
        came_obs::sink::json_string(&git_rev),
        came_obs::sink::json_string(backend.name()),
        came_obs::sink::json_string(&came_tensor::backend::simd::descr()),
        came_tensor::backend::num_threads()
    );
    for (i, (k, v)) in came_env.iter().enumerate() {
        json.push_str(&format!(
            "{}: {}{}",
            came_obs::sink::json_string(k),
            came_obs::sink::json_string(v),
            if i + 1 < came_env.len() { ", " } else { "" }
        ));
    }
    json.push_str("}}");
    json
}

/// Render a GitHub-flavoured markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(4)))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let mut out = String::new();
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&sep));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Format metrics as the five paper columns `MRR MR H@1 H@3 H@10` (× 100
/// where applicable).
pub fn metric_cells(m: &RankMetrics) -> Vec<String> {
    vec![
        format!("{:.1}", m.mrr() * 100.0),
        format!("{:.0}", m.mr()),
        format!("{:.1}", m.hits(1) * 100.0),
        format!("{:.1}", m.hits(3) * 100.0),
        format!("{:.1}", m.hits(10) * 100.0),
    ]
}

/// Render a crude ASCII bar for figure-style outputs.
pub fn ascii_bar(value: f64, max: f64, width: usize) -> String {
    let n = ((value / max).clamp(0.0, 1.0) * width as f64).round() as usize;
    "█".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_renders() {
        let t = markdown_table(
            &["Model", "MRR"],
            &[
                vec!["CamE".into(), "50.4".into()],
                vec!["ConvE".into(), "44.1".into()],
            ],
        );
        assert!(t.contains("| CamE"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn scale_env_is_sane() {
        let s = Scale::from_env();
        assert!(s.came_epochs >= 2);
        assert!(s.baseline_epochs >= 2);
    }

    #[test]
    fn ascii_bar_clamps() {
        assert_eq!(ascii_bar(2.0, 1.0, 5), "█████");
        assert_eq!(ascii_bar(0.0, 1.0, 5), "");
    }
}
