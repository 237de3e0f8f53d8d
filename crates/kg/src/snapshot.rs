//! Atomic, dependency-free training checkpoints.
//!
//! A snapshot is a single binary file holding everything needed to continue
//! a training run bit-identically: every [`ParamStore`] tensor with its Adam
//! moments and step counter, opaque model-side state (e.g. a dropout RNG),
//! the per-epoch loss history, and the sentinel's learning-rate scale.
//!
//! ## File format (versions 1–2, little-endian)
//!
//! ```text
//! magic    8 B   b"CAMECKPT"
//! version  u32   1 or 2
//! crc32    u32   IEEE CRC-32 of the payload bytes
//! len      u64   payload length in bytes
//! payload  len B
//! ```
//!
//! The payload is a flat field sequence (see [`Snapshot::encode`]); strings
//! and arrays carry `u64` length prefixes. Floats are stored as raw IEEE-754
//! bit patterns, so a restore reproduces training *exactly*, not just
//! approximately.
//!
//! Version 2 appends one field to the version-1 payload: the serialised
//! frozen entity store (an [`came_tensor::EntityHead`] blob), so quantized
//! serving state survives checkpoints bit-identically. Snapshots without an
//! entity store still encode as version 1, and version-1 checkpoints decode
//! with `embed_store: None` — old checkpoints keep loading and serve through
//! the default f32 path.
//!
//! ## Durability
//!
//! [`write_atomic`] never leaves a half-written file visible: the snapshot is
//! written to a temp file, synced, then renamed over `latest.ckpt` after the
//! previous `latest` is rotated to `prev.ckpt`. [`resume_or_init`] verifies
//! the CRC and run fingerprint of `latest` and silently falls back to `prev`
//! when `latest` is truncated or corrupt — a crash mid-write loses at most
//! one checkpoint interval, never the run.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use came_tensor::ParamStore;

use crate::train::EpochStats;

const MAGIC: &[u8; 8] = b"CAMECKPT";
const VERSION: u32 = 1;
/// Format version carrying the trailing entity-store blob.
const VERSION_EMBED: u32 = 2;
/// Header bytes before the payload: magic + version + crc + length.
const HEADER_LEN: usize = 8 + 4 + 4 + 8;

/// Why a snapshot file was rejected.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error (with the path involved).
    Io(PathBuf, io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file declares an unsupported format version.
    BadVersion(u32),
    /// The file is shorter than its header declares.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload checksum does not match the header.
    CrcMismatch {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the bytes on disk.
        actual: u32,
    },
    /// The snapshot belongs to a different (model, config) run.
    FingerprintMismatch {
        /// Fingerprint of the running configuration.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        got: u64,
    },
    /// Structurally invalid payload.
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(p, e) => write!(f, "checkpoint I/O error at {}: {e}", p.display()),
            SnapshotError::BadMagic => write!(f, "not a CamE checkpoint (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            SnapshotError::Truncated { expected, got } => {
                write!(f, "truncated checkpoint: expected {expected} bytes, got {got}")
            }
            SnapshotError::CrcMismatch { expected, actual } => write!(
                f,
                "checkpoint CRC mismatch: header {expected:08x}, payload {actual:08x}"
            ),
            SnapshotError::FingerprintMismatch { expected, got } => write!(
                f,
                "checkpoint belongs to a different run: fingerprint {got:016x}, expected {expected:016x}"
            ),
            SnapshotError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One parameter's checkpointed optimiser state.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamRecord {
    /// Registration name (must match the rebuilt model).
    pub name: String,
    /// Current value.
    pub value: Vec<f32>,
    /// Adam first moment.
    pub m: Vec<f32>,
    /// Adam second moment.
    pub v: Vec<f32>,
}

/// A decoded training snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Hash of (trainer, config, param names/shapes); guards against resuming
    /// an unrelated run's checkpoint.
    pub fingerprint: u64,
    /// First epoch still to run (epochs `0..epoch_next` are complete).
    pub epoch_next: usize,
    /// Sentinel learning-rate multiplier in effect.
    pub lr_scale: f32,
    /// Total sentinel trips so far.
    pub divergences: u32,
    /// Opaque model-side state (e.g. dropout RNG words).
    pub model_state: Vec<u8>,
    /// Per-epoch stats of the completed epochs.
    pub history: Vec<EpochStats>,
    /// Optimiser step counter ([`ParamStore::step`]).
    pub store_step: u64,
    /// Every parameter in registration order.
    pub params: Vec<ParamRecord>,
    /// Serialised frozen entity store (an [`came_tensor::EntityHead`] blob),
    /// when serving had one active at capture time. `Some` bumps the on-disk
    /// format to version 2; version-1 checkpoints decode as `None`.
    pub embed_store: Option<Vec<u8>>,
}

/// Slicing-by-8 lookup tables for the reflected 0xEDB88320 polynomial,
/// built at compile time. Snapshots run to megabytes, so the checksum is on
/// the per-epoch checkpoint path; the 8-byte-at-a-time form keeps it an
/// order of magnitude under the 5% overhead budget where the naive
/// bit-by-bit loop alone would blow it.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            k += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---- payload encoding helpers ------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    put_u64(out, xs.len() as u64);
    // Bulk write: resize once and fill 4-byte lanes in place. Parameter
    // tensors dominate snapshot bytes, so this loop must not go through
    // per-element Vec growth checks.
    let start = out.len();
    out.resize(start + xs.len() * 4, 0);
    for (lane, x) in out[start..].chunks_exact_mut(4).zip(xs) {
        lane.copy_from_slice(&x.to_bits().to_le_bytes());
    }
}

fn put_bytes(out: &mut Vec<u8>, xs: &[u8]) {
    put_u64(out, xs.len() as u64);
    out.extend_from_slice(xs);
}

/// Bounded little-endian reader over the payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.buf.len() - self.pos {
            return Err(SnapshotError::Malformed(format!(
                "payload ends at byte {} but field needs {n} more",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn len_prefix(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()? as usize;
        // reject length prefixes that overrun the buffer before allocating
        if n.saturating_mul(elem_bytes) > self.buf.len() - self.pos {
            return Err(SnapshotError::Malformed(format!(
                "length prefix {n} overruns payload"
            )));
        }
        Ok(n)
    }

    fn f32s(&mut self) -> Result<Vec<f32>, SnapshotError> {
        let n = self.len_prefix(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }

    fn bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.len_prefix(1)?;
        Ok(self.take(n)?.to_vec())
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| SnapshotError::Malformed("non-UTF8 param name".into()))
    }
}

impl Snapshot {
    /// Capture the complete training state of `store` (plus opaque
    /// `model_state`) into a snapshot.
    pub fn capture(
        store: &ParamStore,
        fingerprint: u64,
        epoch_next: usize,
        lr_scale: f32,
        divergences: u32,
        model_state: Vec<u8>,
        history: &[EpochStats],
    ) -> Snapshot {
        Snapshot {
            fingerprint,
            epoch_next,
            lr_scale,
            divergences,
            model_state,
            history: history.to_vec(),
            store_step: store.step,
            params: store
                .state_views()
                .map(|s| ParamRecord {
                    name: s.name.to_string(),
                    value: s.value.data().to_vec(),
                    m: s.m.data().to_vec(),
                    v: s.v.data().to_vec(),
                })
                .collect(),
            embed_store: None,
        }
    }

    /// Attach (or clear) the serialised entity store; `Some` makes the
    /// snapshot encode as format version 2.
    pub fn with_embed_store(mut self, blob: Option<Vec<u8>>) -> Snapshot {
        self.embed_store = blob;
        self
    }

    /// Write this snapshot's state back into a freshly constructed `store`
    /// (same model, same registration order). Bit-exact: after this call the
    /// store is indistinguishable from the one that was captured.
    pub fn restore_into(&self, store: &mut ParamStore) -> Result<(), SnapshotError> {
        if self.params.len() != store.len() {
            return Err(SnapshotError::Malformed(format!(
                "checkpoint has {} params, store has {}",
                self.params.len(),
                store.len()
            )));
        }
        for (i, p) in self.params.iter().enumerate() {
            store
                .restore_entry(i, &p.name, &p.value, &p.m, &p.v)
                .map_err(SnapshotError::Malformed)?;
        }
        store.step = self.store_step;
        store.zero_grad();
        Ok(())
    }

    /// Serialise to the on-disk byte format (header + CRC + payload).
    pub fn encode(&self) -> Vec<u8> {
        let payload_guess: usize = self
            .params
            .iter()
            .map(|r| 4 * (r.value.len() + r.m.len() + r.v.len()) + r.name.len() + 32)
            .sum::<usize>()
            + self.model_state.len()
            + 20 * self.history.len()
            + 128;
        let mut p = Vec::with_capacity(payload_guess);
        put_u64(&mut p, self.fingerprint);
        put_u64(&mut p, self.epoch_next as u64);
        put_u32(&mut p, self.lr_scale.to_bits());
        put_u32(&mut p, self.divergences);
        put_bytes(&mut p, &self.model_state);
        put_u64(&mut p, self.history.len() as u64);
        for h in &self.history {
            put_u64(&mut p, h.epoch as u64);
            put_u32(&mut p, h.loss.to_bits());
            put_u64(&mut p, h.elapsed_s.to_bits());
        }
        put_u64(&mut p, self.store_step);
        put_u64(&mut p, self.params.len() as u64);
        for r in &self.params {
            put_bytes(&mut p, r.name.as_bytes());
            put_f32s(&mut p, &r.value);
            put_f32s(&mut p, &r.m);
            put_f32s(&mut p, &r.v);
        }
        // Trailing v2 field: written only when present, so store-less
        // snapshots stay byte-for-byte version 1 and older readers accept
        // them.
        let version = if let Some(blob) = &self.embed_store {
            put_bytes(&mut p, blob);
            VERSION_EMBED
        } else {
            VERSION
        };

        let mut out = Vec::with_capacity(HEADER_LEN + p.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&crc32(&p).to_le_bytes());
        out.extend_from_slice(&(p.len() as u64).to_le_bytes());
        out.extend_from_slice(&p);
        out
    }

    /// Parse and CRC-verify the on-disk byte format.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated {
                expected: HEADER_LEN,
                got: bytes.len(),
            });
        }
        if &bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != VERSION && version != VERSION_EMBED {
            return Err(SnapshotError::BadVersion(version));
        }
        let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        // a hostile length must not overflow the end offset
        let end = usize::try_from(len)
            .ok()
            .and_then(|l| l.checked_add(HEADER_LEN))
            .ok_or_else(|| {
                SnapshotError::Malformed(format!("declared payload length {len} overflows"))
            })?;
        if bytes.len() < end {
            return Err(SnapshotError::Truncated {
                expected: end,
                got: bytes.len(),
            });
        }
        let payload = &bytes[HEADER_LEN..end];
        let actual = crc32(payload);
        if actual != crc {
            return Err(SnapshotError::CrcMismatch {
                expected: crc,
                actual,
            });
        }

        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let fingerprint = r.u64()?;
        let epoch_next = r.u64()? as usize;
        let lr_scale = f32::from_bits(r.u32()?);
        let divergences = r.u32()?;
        let model_state = r.bytes()?;
        let n_hist = r.len_prefix(20)?;
        let mut history = Vec::with_capacity(n_hist);
        for _ in 0..n_hist {
            history.push(EpochStats {
                epoch: r.u64()? as usize,
                loss: f32::from_bits(r.u32()?),
                elapsed_s: f64::from_bits(r.u64()?),
            });
        }
        let store_step = r.u64()?;
        // a record encodes at least a name length and three vector lengths
        let n_params = r.len_prefix(32)?;
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            params.push(ParamRecord {
                name: r.string()?,
                value: r.f32s()?,
                m: r.f32s()?,
                v: r.f32s()?,
            });
        }
        let embed_store = if version >= VERSION_EMBED {
            Some(r.bytes()?)
        } else {
            None
        };
        Ok(Snapshot {
            fingerprint,
            epoch_next,
            lr_scale,
            divergences,
            model_state,
            history,
            store_step,
            params,
            embed_store,
        })
    }
}

/// Path of the most recent checkpoint in `dir`.
pub fn latest_path(dir: &Path) -> PathBuf {
    dir.join("latest.ckpt")
}

/// Path of the previous (rotated) checkpoint in `dir`.
pub fn prev_path(dir: &Path) -> PathBuf {
    dir.join("prev.ckpt")
}

/// Atomically persist `snap` as `dir/latest.ckpt`, rotating the prior
/// `latest` to `prev.ckpt`. Returns the path written. The rename-based
/// protocol guarantees a reader never observes a partially written `latest`;
/// a crash between the two renames leaves `prev` intact for fallback.
pub fn write_atomic(dir: &Path, snap: &Snapshot) -> Result<PathBuf, SnapshotError> {
    fs::create_dir_all(dir).map_err(|e| SnapshotError::Io(dir.to_path_buf(), e))?;
    let tmp = dir.join(format!("tmp-{}.ckpt", std::process::id()));
    let bytes = snap.encode();
    {
        let mut f = fs::File::create(&tmp).map_err(|e| SnapshotError::Io(tmp.clone(), e))?;
        f.write_all(&bytes)
            .map_err(|e| SnapshotError::Io(tmp.clone(), e))?;
        // No fsync: a blocking sync_all costs ~10 ms per megabyte-class
        // snapshot, an order of magnitude more than encode+CRC+write, and
        // correctness does not need it — a crash that tears the renamed
        // `latest` is caught by the CRC on resume, which falls back to
        // `prev`. Durability-vs-overhead is thus traded for the same
        // recovery path the torn-write fault test exercises.
    }
    let latest = latest_path(dir);
    let prev = prev_path(dir);
    // Rotate via unlink + rename-to-fresh-name only: ext4's auto_da_alloc
    // heuristic turns a rename *over an existing file* into a synchronous
    // writeback of the new file's data (~10-20 ms per MB-class snapshot);
    // renaming onto names that don't exist skips that stall. Every crash
    // window still leaves either an intact `latest` or an intact `prev` for
    // `resume_or_init` to fall back to.
    if prev.exists() {
        fs::remove_file(&prev).map_err(|e| SnapshotError::Io(prev.clone(), e))?;
    }
    if latest.exists() {
        fs::rename(&latest, &prev).map_err(|e| SnapshotError::Io(latest.clone(), e))?;
    }
    fs::rename(&tmp, &latest).map_err(|e| SnapshotError::Io(latest.clone(), e))?;
    Ok(latest)
}

/// Load and verify the snapshot at `path`, checking its fingerprint.
pub fn read_verified(path: &Path, fingerprint: u64) -> Result<Snapshot, SnapshotError> {
    let bytes = fs::read(path).map_err(|e| SnapshotError::Io(path.to_path_buf(), e))?;
    let snap = Snapshot::decode(&bytes)?;
    if snap.fingerprint != fingerprint {
        return Err(SnapshotError::FingerprintMismatch {
            expected: fingerprint,
            got: snap.fingerprint,
        });
    }
    Ok(snap)
}

/// Result of probing a checkpoint directory for a resumable state.
pub struct ResumeReport {
    /// The best usable snapshot, with the file it came from.
    pub snapshot: Option<(Snapshot, PathBuf)>,
    /// Files that existed but were rejected (corrupt, truncated, foreign run).
    pub rejected: Vec<(PathBuf, SnapshotError)>,
}

/// Probe `dir` for a resumable snapshot: prefer `latest.ckpt`, fall back to
/// `prev.ckpt` when `latest` is missing, truncated, corrupt, or belongs to a
/// different run. Never hard-fails — an unreadable directory just means a
/// fresh start, with the rejects reported for logging.
pub fn resume_or_init(dir: &Path, fingerprint: u64) -> ResumeReport {
    let mut rejected = Vec::new();
    for path in [latest_path(dir), prev_path(dir)] {
        if !path.exists() {
            continue;
        }
        match read_verified(&path, fingerprint) {
            Ok(snap) => {
                return ResumeReport {
                    snapshot: Some((snap, path)),
                    rejected,
                }
            }
            Err(e) => rejected.push((path, e)),
        }
    }
    ResumeReport {
        snapshot: None,
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_snapshot() -> Snapshot {
        Snapshot {
            fingerprint: 0xFEED_CAFE,
            epoch_next: 3,
            lr_scale: 0.5,
            divergences: 1,
            model_state: vec![1, 2, 3, 4],
            history: vec![
                EpochStats {
                    epoch: 0,
                    loss: 0.7,
                    elapsed_s: 1.25,
                },
                EpochStats {
                    epoch: 1,
                    loss: std::f32::consts::PI,
                    elapsed_s: 2.5,
                },
            ],
            store_step: 42,
            params: vec![
                ParamRecord {
                    name: "ent".into(),
                    value: vec![1.0, -2.5, f32::MIN_POSITIVE],
                    m: vec![0.1, 0.2, 0.3],
                    v: vec![0.01, 0.02, 0.03],
                },
                ParamRecord {
                    name: "rel.w".into(),
                    value: vec![0.0; 4],
                    m: vec![0.0; 4],
                    v: vec![0.0; 4],
                },
            ],
            embed_store: None,
        }
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let s = toy_snapshot();
        let bytes = s.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn embed_store_blob_bumps_version_and_round_trips() {
        let v1 = toy_snapshot().encode();
        assert_eq!(v1[8], 1, "store-less snapshots stay version 1");
        let s = toy_snapshot().with_embed_store(Some(vec![9, 8, 7, 6, 5]));
        let bytes = s.encode();
        assert_eq!(bytes[8], 2, "embed store bumps the format version");
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.embed_store.as_deref(), Some(&[9, 8, 7, 6, 5][..]));
        // a v1 file keeps decoding, with no store attached
        assert_eq!(Snapshot::decode(&v1).unwrap().embed_store, None);
    }

    #[test]
    fn crc_detects_a_single_flipped_bit() {
        let s = toy_snapshot();
        let mut bytes = s.encode();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x40;
        match Snapshot::decode(&bytes) {
            Err(SnapshotError::CrcMismatch { .. }) => {}
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected_before_crc() {
        let s = toy_snapshot();
        let bytes = s.encode();
        let cut = &bytes[..bytes.len() / 2];
        match Snapshot::decode(cut) {
            Err(SnapshotError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let s = toy_snapshot();
        let mut bytes = s.encode();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::BadMagic)
        ));
        let mut bytes = s.encode();
        bytes[8] = 9;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::BadVersion(9))
        ));
    }

    #[test]
    fn write_rotates_and_resume_prefers_latest() {
        let dir = std::env::temp_dir().join(format!("came-snap-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut s = toy_snapshot();
        s.epoch_next = 1;
        write_atomic(&dir, &s).unwrap();
        s.epoch_next = 2;
        write_atomic(&dir, &s).unwrap();
        assert!(latest_path(&dir).exists() && prev_path(&dir).exists());
        let rep = resume_or_init(&dir, s.fingerprint);
        let (snap, path) = rep.snapshot.unwrap();
        assert_eq!(snap.epoch_next, 2);
        assert_eq!(path, latest_path(&dir));

        // truncate latest: CRC/length check rejects it, prev (epoch 1) wins
        let bytes = fs::read(latest_path(&dir)).unwrap();
        fs::write(latest_path(&dir), &bytes[..bytes.len() / 3]).unwrap();
        let rep = resume_or_init(&dir, s.fingerprint);
        let (snap, path) = rep.snapshot.unwrap();
        assert_eq!(snap.epoch_next, 1);
        assert_eq!(path, prev_path(&dir));
        assert_eq!(rep.rejected.len(), 1);

        // a foreign fingerprint is rejected everywhere
        let rep = resume_or_init(&dir, 0xDEAD);
        assert!(rep.snapshot.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // standard IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
