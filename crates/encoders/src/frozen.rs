//! The frozen modal feature table handed to multimodal models.
//!
//! Mirrors the paper's §III pipeline: "the initial vector of textual
//! description and molecular structure are obtained by pre-trained models
//! before inputting into our model", plus CompGCN structural embeddings.
//! Features are computed once per dataset and shared by CamE and every
//! multimodal baseline.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use came_biodata::MultimodalBkg;
use came_kg::KgDataset;
use came_tensor::{DenseF32Store, EmbeddingStore, Shape, Tensor};

use crate::compgcn::pretrain_structural;
use crate::molecule_gin::MoleculeEncoder;
use crate::text_ngram::TextEncoder;

/// Typed failures of frozen feature tables, naming the offending modality so
/// the training runtime's divergence sentinel can report *which* encoder
/// produced bad features instead of a bare assertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrozenError {
    /// An encoder emitted NaN/inf features.
    NonFinite {
        /// Modality whose table is poisoned (`molecular`/`textual`/…).
        modality: String,
        /// Number of entity rows containing at least one non-finite value.
        bad_rows: usize,
    },
    /// A feature table has the wrong number of entity rows.
    Misaligned {
        /// Modality whose table is misaligned.
        modality: String,
        /// Rows the table actually has.
        rows: usize,
        /// Rows the entity vocabulary requires.
        expected: usize,
    },
    /// A cache was served after invalidation without a refresh.
    Stale {
        /// Modality of the stale cache.
        modality: String,
    },
    /// A strict gather asked for an entity that does not carry this
    /// modality. Degraded-mode serving catches this and substitutes the
    /// model's learned fallback embedding instead of panicking.
    MissingModality {
        /// Modality the entity lacks.
        modality: String,
        /// Entity id whose row is absent.
        entity: usize,
    },
}

impl fmt::Display for FrozenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrozenError::NonFinite { modality, bad_rows } => write!(
                f,
                "{modality} features contain NaN/inf in {bad_rows} entity row(s)"
            ),
            FrozenError::Misaligned {
                modality,
                rows,
                expected,
            } => write!(
                f,
                "{modality} features misaligned: {rows} rows for {expected} entities"
            ),
            FrozenError::Stale { modality } => write!(
                f,
                "stale frozen {modality} cache: refresh() it before serving"
            ),
            FrozenError::MissingModality { modality, entity } => write!(
                f,
                "entity {entity} carries no {modality} features; serve degraded or use the fallback embedding"
            ),
        }
    }
}

impl std::error::Error for FrozenError {}

/// Zero every row of a `[N, d]` table whose presence flag is false.
fn zero_absent_rows(t: &mut Tensor, present: &[bool]) {
    let d = t.shape().at(1);
    let data = t.data_mut();
    for (i, &keep) in present.iter().enumerate() {
        if !keep {
            data[i * d..(i + 1) * d].fill(0.0);
        }
    }
}

/// Count rows of a `[N, d]` table containing any non-finite value.
fn non_finite_rows(t: &Tensor) -> usize {
    let d = t.shape().at(1).max(1);
    non_finite_rows_flat(t.data(), d)
}

/// [`non_finite_rows`] over a flat row-major slice.
fn non_finite_rows_flat(data: &[f32], d: usize) -> usize {
    data.chunks(d.max(1))
        .filter(|row| row.iter().any(|x| !x.is_finite()))
        .count()
}

/// Options for building [`ModalFeatures`].
#[derive(Clone, Debug)]
pub struct FeatureConfig {
    /// Molecular feature width `d_m`.
    pub d_molecule: usize,
    /// Textual feature width `d_t`.
    pub d_text: usize,
    /// Structural feature width `d_s`.
    pub d_struct: usize,
    /// GIN message-passing rounds.
    pub gin_layers: usize,
    /// CompGCN pretraining epochs (0 = skip; structural features fall back
    /// to the *untrained* CompGCN propagation, which is what Fig. 8(a) uses
    /// "for fair comparison").
    pub compgcn_epochs: usize,
    /// Seed standing in for the pretrained checkpoints.
    pub seed: u64,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            d_molecule: 32,
            d_text: 48,
            d_struct: 32,
            gin_layers: 3,
            compgcn_epochs: 20,
            seed: 0xF2047E,
        }
    }
}

/// Frozen per-entity modal features.
pub struct ModalFeatures {
    /// Molecular vectors `[N, d_m]` (zero rows for molecule-less entities).
    pub molecular: Tensor,
    /// Textual vectors `[N, d_t]`.
    pub textual: Tensor,
    /// Structural vectors `[N, d_s]`.
    pub structural: Tensor,
    /// Whether each entity carries a molecule.
    pub has_molecule: Vec<bool>,
    /// Whether each entity carries a textual description.
    pub has_text: Vec<bool>,
}

impl ModalFeatures {
    /// Encode every modality of a generated BKG.
    pub fn build(bkg: &MultimodalBkg, cfg: &FeatureConfig) -> Self {
        let text_enc = TextEncoder::new(cfg.d_text, cfg.seed ^ 0x7E57);
        let mol_enc = MoleculeEncoder::new(cfg.d_molecule, cfg.gin_layers, cfg.seed ^ 0x6147);
        let mut textual = text_enc.encode_all(&bkg.texts);
        let molecular = mol_enc.encode_all(&bkg.molecules);
        let structural = Self::structural(&bkg.dataset, cfg);
        let has_molecule = bkg.molecules.iter().map(|m| m.is_some()).collect();
        let has_text = bkg.has_text.clone();
        // Text-less entities get zero rows, mirroring molecule-less ones, so
        // a stray gather cannot leak features the entity never had.
        zero_absent_rows(&mut textual, &has_text);
        let out = ModalFeatures {
            molecular,
            textual,
            structural,
            has_molecule,
            has_text,
        };
        out.validate(bkg.num_entities());
        out
    }

    fn structural(dataset: &KgDataset, cfg: &FeatureConfig) -> Tensor {
        pretrain_structural(dataset, cfg.d_struct, cfg.compgcn_epochs, cfg.seed ^ 0x57C7)
    }

    /// Number of entities.
    pub fn num_entities(&self) -> usize {
        self.textual.shape().at(0)
    }

    /// `(d_m, d_t, d_s)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (
            self.molecular.shape().at(1),
            self.textual.shape().at(1),
            self.structural.shape().at(1),
        )
    }

    /// Consistency checks: all tables row-aligned and finite. Returns a
    /// typed error naming the failing modality, so callers (e.g. the
    /// divergence sentinel) can report which encoder went bad and recover.
    pub fn try_validate(&self, n: usize) -> Result<(), FrozenError> {
        for (name, t) in [
            ("molecular", &self.molecular),
            ("textual", &self.textual),
            ("structural", &self.structural),
        ] {
            if t.shape().at(0) != n {
                return Err(FrozenError::Misaligned {
                    modality: name.into(),
                    rows: t.shape().at(0),
                    expected: n,
                });
            }
            if t.has_non_finite() {
                return Err(FrozenError::NonFinite {
                    modality: name.into(),
                    bad_rows: non_finite_rows(t),
                });
            }
        }
        for (name, mask) in [
            ("has_molecule", &self.has_molecule),
            ("has_text", &self.has_text),
        ] {
            if mask.len() != n {
                return Err(FrozenError::Misaligned {
                    modality: name.into(),
                    rows: mask.len(),
                    expected: n,
                });
            }
        }
        Ok(())
    }

    /// Assertion front-end over [`ModalFeatures::try_validate`].
    ///
    /// # Panics
    /// Panics on misaligned or non-finite feature tables.
    pub fn validate(&self, n: usize) {
        if let Err(e) = self.try_validate(n) {
            panic!("{e}");
        }
    }

    /// A copy with the molecule table zeroed (the "w/o MS" ablation).
    pub fn without_molecules(&self) -> ModalFeatures {
        ModalFeatures {
            molecular: Tensor::zeros(self.molecular.shape()),
            textual: self.textual.clone(),
            structural: self.structural.clone(),
            has_molecule: vec![false; self.has_molecule.len()],
            has_text: self.has_text.clone(),
        }
    }

    /// A copy with the text table zeroed (the "w/o TD" ablation).
    pub fn without_text(&self) -> ModalFeatures {
        ModalFeatures {
            molecular: self.molecular.clone(),
            textual: Tensor::zeros(self.textual.shape()),
            structural: self.structural.clone(),
            has_molecule: self.has_molecule.clone(),
            has_text: vec![false; self.has_text.len()],
        }
    }

    /// Fault injection: deterministically strip *both* non-structural
    /// modalities from a `frac` fraction of entities (the `CAME_FAULTS`
    /// `drop_modality@entity=F` form). Dropped rows are zeroed and their
    /// presence flags cleared, so serving must take the degraded path.
    /// Returns the number of entities degraded.
    pub fn drop_modality_fraction(&mut self, frac: f64, seed: u64) -> usize {
        let n = self.num_entities();
        let mut rng = came_tensor::Prng::new(seed ^ 0xD20B);
        let mut dropped = 0;
        for e in 0..n {
            if rng.chance(frac) {
                self.has_molecule[e] = false;
                self.has_text[e] = false;
                dropped += 1;
            }
        }
        let (mol, text) = (self.has_molecule.clone(), self.has_text.clone());
        zero_absent_rows(&mut self.molecular, &mol);
        zero_absent_rows(&mut self.textual, &text);
        dropped
    }

    /// Wrap each modality table in a [`FrozenCache`] for gather-based
    /// serving with version tracking. The molecular and textual caches
    /// carry their presence masks; structural features are always dense.
    pub fn caches(&self) -> (FrozenCache, FrozenCache, FrozenCache) {
        (
            FrozenCache::named("molecular", self.molecular.clone())
                .with_presence(self.has_molecule.clone()),
            FrozenCache::named("textual", self.textual.clone())
                .with_presence(self.has_text.clone()),
            FrozenCache::named("structural", self.structural.clone()),
        )
    }

    /// Random features of matching shape — a null control used in tests.
    pub fn random_control(n: usize, cfg: &FeatureConfig, seed: u64) -> ModalFeatures {
        let mut rng = came_tensor::Prng::new(seed);
        ModalFeatures {
            molecular: Tensor::randn(Shape::d2(n, cfg.d_molecule), 0.3, &mut rng),
            textual: Tensor::randn(Shape::d2(n, cfg.d_text), 0.3, &mut rng),
            structural: Tensor::randn(Shape::d2(n, cfg.d_struct), 0.3, &mut rng),
            has_molecule: vec![true; n],
            has_text: vec![true; n],
        }
    }
}

/// Memoised output table of a frozen encoder: an `[N, d]` table computed
/// once per (entity, encoder-version), served thereafter by row gathers
/// instead of re-running the encoder forward per batch. The rows live in a
/// resident [`DenseF32Store`], so every gather is a straight `memcpy`,
/// bit-identical to reading the encoder's output table.
///
/// The cache is valid as long as the encoder that produced it stays frozen.
/// Marking the encoder trainable (or calling [`FrozenCache::invalidate`])
/// poisons the cache; serving rows from a poisoned cache panics until
/// [`FrozenCache::refresh`] installs a recomputed table and bumps the
/// version. Gather counters expose how much encoder work was skipped.
pub struct FrozenCache {
    modality: String,
    store: DenseF32Store,
    /// Per-row presence mask; `None` means every entity carries this
    /// modality (dense caches pay no per-gather presence check).
    presence: Option<Vec<bool>>,
    version: u64,
    trainable: bool,
    dirty: bool,
    // Relaxed atomics (not Cells) so the cache is `Sync`: the serving tier's
    // shard workers gather rows from one shared cache concurrently.
    gathers: AtomicU64,
    rows_served: AtomicU64,
}

impl FrozenCache {
    /// Wrap a precomputed `[N, d]` encoder output table (version 1), tagged
    /// with the modality it serves so failures name their source.
    ///
    /// # Panics
    /// Panics if the table is not 2-D.
    pub fn named(modality: impl Into<String>, table: Tensor) -> Self {
        assert_eq!(table.shape().ndim(), 2, "frozen cache table must be 2-D");
        let (n, d) = (table.shape().at(0), table.shape().at(1));
        let store = DenseF32Store::from_rows(table.into_vec(), n, d)
            .expect("2-D tensor rows always factor");
        FrozenCache {
            modality: modality.into(),
            store,
            presence: None,
            version: 1,
            trainable: false,
            dirty: false,
            gathers: AtomicU64::new(0),
            rows_served: AtomicU64::new(0),
        }
    }

    /// Attach a per-row presence mask: entities whose flag is `false` carry
    /// no row in this modality and must be served through the degraded
    /// path. An all-true mask is dropped so dense caches stay maskless.
    ///
    /// # Panics
    /// Panics if the mask length disagrees with the table's row count.
    pub fn with_presence(mut self, presence: Vec<bool>) -> Self {
        assert_eq!(
            presence.len(),
            self.len(),
            "frozen {} presence mask misaligned with table",
            self.modality
        );
        self.presence = if presence.iter().all(|&p| p) {
            None
        } else {
            Some(presence)
        };
        self
    }

    /// [`FrozenCache::named`] with an anonymous modality tag.
    ///
    /// # Panics
    /// Panics if the table is not 2-D.
    pub fn new(table: Tensor) -> Self {
        FrozenCache::named("encoder", table)
    }

    /// The modality tag this cache serves.
    pub fn modality(&self) -> &str {
        &self.modality
    }

    /// Check the cache is servable and its rows finite, naming the modality
    /// on failure. The divergence sentinel calls this after a NaN trip to
    /// report which frozen input (if any) is to blame.
    pub fn check_finite(&self) -> Result<(), FrozenError> {
        if self.dirty {
            return Err(FrozenError::Stale {
                modality: self.modality.clone(),
            });
        }
        let bad_rows = non_finite_rows_flat(self.store.rows(), self.dim());
        if bad_rows > 0 {
            return Err(FrozenError::NonFinite {
                modality: self.modality.clone(),
                bad_rows,
            });
        }
        Ok(())
    }

    /// Encoder version this table was computed under.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of cached entities.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no rows are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature width `d`.
    pub fn dim(&self) -> usize {
        self.store.dim()
    }

    /// Whether the backing encoder was marked trainable.
    pub fn is_trainable(&self) -> bool {
        self.trainable
    }

    /// The per-row presence mask, or `None` when every entity is covered.
    pub fn presence(&self) -> Option<&[bool]> {
        self.presence.as_deref()
    }

    /// Whether entity `id` carries this modality (out-of-range ids are
    /// absent rather than a panic — admission validates ranges upstream).
    pub fn is_present(&self, id: u32) -> bool {
        match &self.presence {
            None => (id as usize) < self.len(),
            Some(p) => p.get(id as usize).copied().unwrap_or(false),
        }
    }

    /// Number of entities that carry this modality.
    pub fn present_rows(&self) -> usize {
        match &self.presence {
            None => self.len(),
            Some(p) => p.iter().filter(|&&x| x).count(),
        }
    }

    /// Number of entities *missing* this modality.
    pub fn missing_rows(&self) -> usize {
        self.len() - self.present_rows()
    }

    /// Number of `rows` calls and total rows served, for the bench report.
    pub fn gather_stats(&self) -> (u64, u64) {
        (self.gathers.load(Relaxed), self.rows_served.load(Relaxed))
    }

    /// Gather rows `ids` into a fresh `[ids.len(), d]` tensor — the per-batch
    /// replacement for an encoder forward. The buffer comes from the tensor
    /// pool uninitialised and every row is overwritten by its gather (a
    /// straight `memcpy`), so the serving hot loop never pays a zero-fill
    /// pass.
    ///
    /// # Panics
    /// Panics if the cache is stale or an id is out of range.
    pub fn rows(&self, ids: &[u32]) -> Tensor {
        if self.dirty {
            panic!(
                "{}",
                FrozenError::Stale {
                    modality: self.modality.clone(),
                }
            );
        }
        let (n, d) = (self.len(), self.dim());
        for &id in ids {
            assert!((id as usize) < n, "frozen cache id {id} out of {n}");
        }
        let mut data = came_tensor::pool::alloc_uninit(ids.len() * d);
        self.store.gather_into(ids, &mut data);
        self.gathers.fetch_add(1, Relaxed);
        self.rows_served.fetch_add(ids.len() as u64, Relaxed);
        Tensor::from_vec(Shape::d2(ids.len(), d), data)
    }

    /// Strict gather: like [`FrozenCache::rows`] but returns a typed error
    /// instead of panicking — `Stale` for a poisoned cache, and
    /// `MissingModality` naming the first entity that does not carry this
    /// modality (including out-of-range ids). Serving uses this so a
    /// modality-poor entity downgrades the request instead of killing a
    /// shard worker.
    pub fn try_rows(&self, ids: &[u32]) -> Result<Tensor, FrozenError> {
        if self.dirty {
            return Err(FrozenError::Stale {
                modality: self.modality.clone(),
            });
        }
        if let Some(&missing) = ids.iter().find(|&&id| !self.is_present(id)) {
            return Err(FrozenError::MissingModality {
                modality: self.modality.clone(),
                entity: missing as usize,
            });
        }
        Ok(self.rows(ids))
    }

    /// Serving preflight: the cache must be fresh, finite, and row-aligned
    /// with the entity space the scoring engine serves. Run it once when a
    /// model is put behind a serving endpoint; thereafter every gather is a
    /// plain memcpy with no per-request validation.
    pub fn preflight(&self, expected_rows: usize) -> Result<(), FrozenError> {
        self.preflight_coverage(expected_rows).map(|_| ())
    }

    /// [`FrozenCache::preflight`] that additionally reports modality
    /// coverage: returns the number of entities *missing* this modality
    /// (0 for dense caches). Partial coverage is not an error — serving
    /// degrades those entities to fallback embeddings — but it is
    /// observable: the count is published on the
    /// `serve.degraded_entities.<modality>` gauge.
    pub fn preflight_coverage(&self, expected_rows: usize) -> Result<usize, FrozenError> {
        self.check_finite()?;
        if self.len() != expected_rows {
            return Err(FrozenError::Misaligned {
                modality: self.modality.clone(),
                rows: self.len(),
                expected: expected_rows,
            });
        }
        let missing = self.missing_rows();
        if came_obs::enabled() {
            came_obs::registry()
                .gauge(&format!("serve.degraded_entities.{}", self.modality))
                .set(missing as i64);
        }
        Ok(missing)
    }

    /// Mark the backing encoder trainable: its outputs may now drift from
    /// the cached table, so the cache is poisoned until refreshed.
    pub fn mark_trainable(&mut self) {
        self.trainable = true;
        self.invalidate();
    }

    /// Explicitly poison the cache (encoder weights changed).
    pub fn invalidate(&mut self) {
        self.dirty = true;
    }

    /// Install a freshly recomputed table and bump the encoder version,
    /// rejecting misaligned or NaN/inf encoder output with a typed error
    /// (the cache keeps its previous rows on failure).
    pub fn try_refresh(&mut self, table: Tensor) -> Result<(), FrozenError> {
        if table.shape().ndim() != 2
            || table.shape().at(0) != self.len()
            || table.shape().at(1) != self.dim()
        {
            return Err(FrozenError::Misaligned {
                modality: self.modality.clone(),
                rows: table.shape().at(0),
                expected: self.len(),
            });
        }
        if table.has_non_finite() {
            return Err(FrozenError::NonFinite {
                modality: self.modality.clone(),
                bad_rows: non_finite_rows(&table),
            });
        }
        let (n, d) = (self.len(), self.dim());
        self.store = DenseF32Store::from_rows(table.into_vec(), n, d).expect("shape checked above");
        self.version += 1;
        self.dirty = false;
        Ok(())
    }

    /// Install a freshly recomputed table and bump the encoder version.
    ///
    /// # Panics
    /// Panics if the new table is misaligned or contains NaN/inf.
    pub fn refresh(&mut self, table: Tensor) {
        if let Err(e) = self.try_refresh(table) {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use came_biodata::presets;

    fn small_cfg() -> FeatureConfig {
        FeatureConfig {
            d_molecule: 16,
            d_text: 24,
            d_struct: 16,
            gin_layers: 2,
            compgcn_epochs: 2,
            seed: 5,
        }
    }

    #[test]
    fn build_produces_aligned_tables() {
        let bkg = presets::tiny(0);
        let f = ModalFeatures::build(&bkg, &small_cfg());
        assert_eq!(f.num_entities(), bkg.num_entities());
        assert_eq!(f.dims(), (16, 24, 16));
    }

    #[test]
    fn molecule_rows_match_has_molecule() {
        let bkg = presets::tiny(1);
        let f = ModalFeatures::build(&bkg, &small_cfg());
        let d = f.molecular.shape().at(1);
        for (i, &has) in f.has_molecule.iter().enumerate() {
            let row = &f.molecular.data()[i * d..(i + 1) * d];
            let zero = row.iter().all(|&x| x == 0.0);
            assert_eq!(!zero, has, "entity {i}");
        }
    }

    #[test]
    fn ablation_copies_zero_only_their_modality() {
        let bkg = presets::tiny(2);
        let f = ModalFeatures::build(&bkg, &small_cfg());
        let no_ms = f.without_molecules();
        assert!(no_ms.molecular.data().iter().all(|&x| x == 0.0));
        assert_eq!(no_ms.textual.data(), f.textual.data());
        let no_td = f.without_text();
        assert!(no_td.textual.data().iter().all(|&x| x == 0.0));
        assert_eq!(no_td.molecular.data(), f.molecular.data());
    }

    #[test]
    fn frozen_cache_serves_rows_and_counts() {
        let t = Tensor::from_vec(Shape::d2(3, 2), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let c = FrozenCache::new(t);
        assert_eq!((c.len(), c.dim(), c.version()), (3, 2, 1));
        let r = c.rows(&[2, 0]);
        assert_eq!(r.data(), &[5.0, 6.0, 1.0, 2.0]);
        assert_eq!(c.gather_stats(), (1, 2));
    }

    #[test]
    fn frozen_cache_refresh_bumps_version() {
        let mut c = FrozenCache::new(Tensor::zeros(Shape::d2(2, 2)));
        c.invalidate();
        c.refresh(Tensor::from_vec(Shape::d2(2, 2), vec![1.0; 4]));
        assert_eq!(c.version(), 2);
        assert_eq!(c.rows(&[0]).data(), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "stale frozen encoder cache")]
    fn trainable_encoder_poisons_cache() {
        let mut c = FrozenCache::new(Tensor::zeros(Shape::d2(2, 2)));
        c.mark_trainable();
        assert!(c.is_trainable());
        let _ = c.rows(&[0]);
    }

    #[test]
    fn try_validate_names_the_poisoned_modality() {
        let bkg = presets::tiny(4);
        let mut f = ModalFeatures::build(&bkg, &small_cfg());
        assert_eq!(f.try_validate(bkg.num_entities()), Ok(()));
        let d = f.textual.shape().at(1);
        f.textual.data_mut()[d + 1] = f32::NAN; // poison entity row 1
        match f.try_validate(bkg.num_entities()) {
            Err(FrozenError::NonFinite { modality, bad_rows }) => {
                assert_eq!(modality, "textual");
                assert_eq!(bad_rows, 1);
            }
            other => panic!("expected NonFinite(textual), got {other:?}"),
        }
    }

    #[test]
    fn try_refresh_rejects_nan_and_keeps_old_table() {
        let mut c = FrozenCache::named(
            "molecular",
            Tensor::from_vec(Shape::d2(1, 2), vec![1.0, 2.0]),
        );
        let mut bad = Tensor::zeros(Shape::d2(1, 2));
        bad.data_mut()[0] = f32::INFINITY;
        match c.try_refresh(bad) {
            Err(FrozenError::NonFinite { modality, bad_rows }) => {
                assert_eq!(modality, "molecular");
                assert_eq!(bad_rows, 1);
            }
            other => panic!("expected NonFinite(molecular), got {other:?}"),
        }
        assert_eq!(c.version(), 1);
        assert_eq!(c.rows(&[0]).data(), &[1.0, 2.0]);
        assert!(c.check_finite().is_ok());
    }

    #[test]
    fn preflight_checks_freshness_finiteness_and_alignment() {
        let mut c = FrozenCache::named(
            "textual",
            Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0]),
        );
        assert_eq!(c.preflight(2), Ok(()));
        assert_eq!(
            c.preflight(5),
            Err(FrozenError::Misaligned {
                modality: "textual".into(),
                rows: 2,
                expected: 5,
            })
        );
        c.invalidate();
        assert_eq!(
            c.preflight(2),
            Err(FrozenError::Stale {
                modality: "textual".into(),
            })
        );
        c.refresh(Tensor::from_vec(Shape::d2(2, 2), vec![5.0; 4]));
        assert_eq!(c.preflight(2), Ok(()));
    }

    #[test]
    fn text_rows_match_has_text_on_modality_poor_preset() {
        let bkg = presets::modality_poor_like(9);
        let f = ModalFeatures::build(&bkg, &small_cfg());
        assert!(f.has_text.iter().any(|&h| !h), "preset should drop text");
        let d = f.textual.shape().at(1);
        for (i, &has) in f.has_text.iter().enumerate() {
            if !has {
                let row = &f.textual.data()[i * d..(i + 1) * d];
                assert!(row.iter().all(|&x| x == 0.0), "entity {i}");
            }
        }
    }

    #[test]
    fn caches_carry_presence_and_report_coverage() {
        let bkg = presets::modality_poor_like(10);
        let f = ModalFeatures::build(&bkg, &small_cfg());
        let n = f.num_entities();
        let (m, t, s) = f.caches();
        assert_eq!(
            m.missing_rows(),
            f.has_molecule.iter().filter(|&&h| !h).count()
        );
        assert_eq!(t.missing_rows(), f.has_text.iter().filter(|&&h| !h).count());
        assert_eq!(s.missing_rows(), 0);
        assert!(s.presence().is_none(), "dense cache keeps no mask");
        assert_eq!(m.preflight_coverage(n), Ok(m.missing_rows()));
        assert_eq!(s.preflight_coverage(n), Ok(0));
        assert_eq!(m.present_rows() + m.missing_rows(), n);
        // strict gathers name the first entity lacking the modality and
        // serve present rows exactly as the encoder produced them
        let absent = (0..n as u32).find(|&e| !m.is_present(e)).unwrap();
        assert_eq!(
            m.try_rows(&[absent]),
            Err(FrozenError::MissingModality {
                modality: "molecular".into(),
                entity: absent as usize,
            })
        );
        let d = f.textual.shape().at(1);
        let present: Vec<u32> = (0..n as u32).filter(|&e| t.is_present(e)).collect();
        let want: Vec<f32> = present
            .iter()
            .flat_map(|&e| f.textual.data()[e as usize * d..(e as usize + 1) * d].to_vec())
            .collect();
        assert_eq!(t.try_rows(&present).unwrap().data(), &want[..]);
    }

    #[test]
    fn try_rows_names_the_absent_entity() {
        let table = Tensor::from_vec(Shape::d2(3, 2), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let c = FrozenCache::named("molecular", table).with_presence(vec![true, false, true]);
        assert_eq!(c.try_rows(&[0, 2]).unwrap().data(), &[1.0, 2.0, 5.0, 6.0]);
        assert_eq!(
            c.try_rows(&[0, 1]),
            Err(FrozenError::MissingModality {
                modality: "molecular".into(),
                entity: 1,
            })
        );
        // Out-of-range ids are absent, not a panic.
        assert!(matches!(
            c.try_rows(&[7]),
            Err(FrozenError::MissingModality { entity: 7, .. })
        ));
        assert!(c.is_present(0) && !c.is_present(1) && !c.is_present(9));
    }

    #[test]
    fn all_true_presence_normalises_to_dense() {
        let c = FrozenCache::new(Tensor::zeros(Shape::d2(2, 2))).with_presence(vec![true, true]);
        assert!(c.presence().is_none());
        assert_eq!(c.missing_rows(), 0);
    }

    #[test]
    fn drop_modality_fraction_is_deterministic_and_zeroes_rows() {
        let bkg = presets::tiny(6);
        let mut a = ModalFeatures::build(&bkg, &small_cfg());
        let mut b = ModalFeatures::build(&bkg, &small_cfg());
        let da = a.drop_modality_fraction(0.3, 42);
        let db = b.drop_modality_fraction(0.3, 42);
        assert_eq!(da, db);
        assert!(
            da > 0,
            "0.3 of {} entities should drop some",
            a.num_entities()
        );
        assert_eq!(a.has_text, b.has_text);
        assert_eq!(a.has_molecule, b.has_molecule);
        let d = a.textual.shape().at(1);
        for (i, &has) in a.has_text.iter().enumerate() {
            if !has {
                assert!(a.textual.data()[i * d..(i + 1) * d]
                    .iter()
                    .all(|&x| x == 0.0));
            }
        }
        a.validate(bkg.num_entities());
    }

    #[test]
    fn deterministic_given_seed() {
        let bkg = presets::tiny(3);
        let a = ModalFeatures::build(&bkg, &small_cfg());
        let b = ModalFeatures::build(&bkg, &small_cfg());
        assert_eq!(a.textual.data(), b.textual.data());
        assert_eq!(a.molecular.data(), b.molecular.data());
        assert_eq!(a.structural.data(), b.structural.data());
    }
}
