//! CamE hyper-parameters and ablation switches.

/// Full CamE configuration. Defaults mirror the paper's DRKG-MM setting
/// scaled to CPU width (d 500→64, filters 128→16, kernel 9→3; the relative
/// architecture is unchanged).
#[derive(Clone, Debug)]
pub struct CamEConfig {
    /// Entity/relation embedding width `d_e = d_r`.
    pub d_embed: usize,
    /// Fusion width `d_f`.
    pub d_fusion: usize,
    /// Number of TCA heads `m` (paper: 2 on DRKG-MM, 3 on OMAHA-MM).
    pub n_heads: usize,
    /// Temperature interval λ (paper: 5 / 10).
    pub lambda: f32,
    /// Exchanging factor θ (paper: −0.5 / −2).
    pub theta: f32,
    /// Convolution filter count.
    pub n_filters: usize,
    /// Convolution kernel size.
    pub kernel: usize,
    /// Dropout probability on the joint/interactive representations.
    pub dropout: f32,
    /// Use the TCA operator (off = "w/o TCA").
    pub use_tca: bool,
    /// Use exchanging fusion (off = "w/o EX").
    pub use_exchange: bool,
    /// Use the MMF module (off = "w/o MMF": simple multiplication).
    pub use_mmf: bool,
    /// Use the RIC module (off = "w/o RIC": plain concatenation).
    pub use_ric: bool,
    /// Use the textual modality (off = "w/o TD").
    pub use_text: bool,
    /// Use the molecular modality (off = "w/o MS"; forced off on datasets
    /// without molecules).
    pub use_molecule: bool,
    /// Use pretrained CompGCN structural features as `h_s` (off = learnable
    /// structural embedding only, as in the Fig. 8(a) fairness setting).
    pub use_pretrained_struct: bool,
    /// Per-modality dropout probabilities `(p_molecule, p_text)`: during
    /// training each batch row independently loses that modality with the
    /// given probability and is served by the learned fallback embedding
    /// instead, teaching the model to score modality-poor entities. Zero
    /// disables. Env override: `CAME_MODALITY_DROPOUT=p_mol,p_text`.
    pub modality_dropout: (f32, f32),
    /// Weight of the cross-modal contrastive (InfoNCE) auxiliary loss
    /// aligning molecule and text projections of the same entity. Zero
    /// disables. Env override: `CAME_CONTRASTIVE_W`.
    pub contrastive_w: f32,
    /// Parameter-initialisation seed.
    pub seed: u64,
}

impl Default for CamEConfig {
    fn default() -> Self {
        CamEConfig {
            d_embed: 64,
            d_fusion: 64,
            n_heads: 2,
            lambda: 5.0,
            theta: -0.5,
            n_filters: 16,
            kernel: 3,
            dropout: 0.2,
            use_tca: true,
            use_exchange: true,
            use_mmf: true,
            use_ric: true,
            use_text: true,
            use_molecule: true,
            use_pretrained_struct: true,
            modality_dropout: (0.0, 0.0),
            contrastive_w: 0.0,
            seed: 0xCA4E,
        }
    }
}

impl CamEConfig {
    /// Apply the robustness env knobs: `CAME_MODALITY_DROPOUT=p_mol,p_text`
    /// (a single value sets both) and `CAME_CONTRASTIVE_W=w`. Unset or
    /// unparsable values leave the config untouched.
    pub fn with_env_overrides(mut self) -> Self {
        if let Ok(v) = std::env::var("CAME_MODALITY_DROPOUT") {
            let mut parts = v.splitn(2, ',').map(|p| p.trim().parse::<f32>());
            match (parts.next(), parts.next()) {
                (Some(Ok(p_mol)), Some(Ok(p_text))) => self.modality_dropout = (p_mol, p_text),
                (Some(Ok(p)), None) => self.modality_dropout = (p, p),
                _ => {}
            }
        }
        if let Ok(v) = std::env::var("CAME_CONTRASTIVE_W") {
            if let Ok(w) = v.trim().parse::<f32>() {
                self.contrastive_w = w;
            }
        }
        self
    }
}

/// The ablation variants of Fig. 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ablation {
    /// The full model.
    Full,
    /// Without exchanging fusion.
    WithoutEx,
    /// Without the TCA operator (identity pass-through everywhere).
    WithoutTca,
    /// Without the MMF module (simple multiplication fusion).
    WithoutMmf,
    /// Without the RIC module (plain concatenation).
    WithoutRic,
    /// Without both MMF and RIC.
    WithoutMmfAndRic,
    /// Without textual descriptions.
    WithoutText,
    /// Without molecular structures.
    WithoutMolecule,
}

impl Ablation {
    /// All variants in the paper's Fig. 6 order.
    pub fn all() -> [Ablation; 8] {
        [
            Ablation::Full,
            Ablation::WithoutEx,
            Ablation::WithoutTca,
            Ablation::WithoutMmf,
            Ablation::WithoutRic,
            Ablation::WithoutMmfAndRic,
            Ablation::WithoutText,
            Ablation::WithoutMolecule,
        ]
    }

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Ablation::Full => "CamE",
            Ablation::WithoutEx => "w/o EX",
            Ablation::WithoutTca => "w/o TCA",
            Ablation::WithoutMmf => "w/o MMF",
            Ablation::WithoutRic => "w/o RIC",
            Ablation::WithoutMmfAndRic => "w/o M and R",
            Ablation::WithoutText => "w/o TD",
            Ablation::WithoutMolecule => "w/o MS",
        }
    }

    /// Apply the ablation to a base configuration.
    pub fn apply(self, mut cfg: CamEConfig) -> CamEConfig {
        match self {
            Ablation::Full => {}
            Ablation::WithoutEx => cfg.use_exchange = false,
            Ablation::WithoutTca => cfg.use_tca = false,
            Ablation::WithoutMmf => cfg.use_mmf = false,
            Ablation::WithoutRic => cfg.use_ric = false,
            Ablation::WithoutMmfAndRic => {
                cfg.use_mmf = false;
                cfg.use_ric = false;
            }
            Ablation::WithoutText => cfg.use_text = false,
            Ablation::WithoutMolecule => cfg.use_molecule = false,
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_flip_expected_flags() {
        let base = CamEConfig::default();
        assert!(!Ablation::WithoutEx.apply(base.clone()).use_exchange);
        assert!(!Ablation::WithoutTca.apply(base.clone()).use_tca);
        let mr = Ablation::WithoutMmfAndRic.apply(base.clone());
        assert!(!mr.use_mmf && !mr.use_ric);
        assert!(!Ablation::WithoutMolecule.apply(base.clone()).use_molecule);
        // full leaves everything on
        let f = Ablation::Full.apply(base);
        assert!(f.use_tca && f.use_exchange && f.use_mmf && f.use_ric);
    }

    #[test]
    fn labels_match_figure_six() {
        assert_eq!(Ablation::all().len(), 8);
        assert_eq!(Ablation::WithoutMmfAndRic.label(), "w/o M and R");
        assert_eq!(Ablation::WithoutText.label(), "w/o TD");
    }

    #[test]
    fn env_overrides_parse_dropout_pair_and_contrastive_weight() {
        let base = CamEConfig::default();
        assert_eq!(base.modality_dropout, (0.0, 0.0));
        assert_eq!(base.contrastive_w, 0.0);
        // unset env leaves the config untouched
        std::env::remove_var("CAME_MODALITY_DROPOUT");
        std::env::remove_var("CAME_CONTRASTIVE_W");
        let c = CamEConfig::default().with_env_overrides();
        assert_eq!(c.modality_dropout, (0.0, 0.0));

        std::env::set_var("CAME_MODALITY_DROPOUT", "0.3,0.1");
        std::env::set_var("CAME_CONTRASTIVE_W", "0.05");
        let c = CamEConfig::default().with_env_overrides();
        assert_eq!(c.modality_dropout, (0.3, 0.1));
        assert_eq!(c.contrastive_w, 0.05);

        // a single value sets both probabilities
        std::env::set_var("CAME_MODALITY_DROPOUT", "0.25");
        let c = CamEConfig::default().with_env_overrides();
        assert_eq!(c.modality_dropout, (0.25, 0.25));

        // garbage is ignored, not a panic
        std::env::set_var("CAME_MODALITY_DROPOUT", "lots");
        let c = CamEConfig::default().with_env_overrides();
        assert_eq!(c.modality_dropout, (0.0, 0.0));
        std::env::remove_var("CAME_MODALITY_DROPOUT");
        std::env::remove_var("CAME_CONTRASTIVE_W");
    }
}
