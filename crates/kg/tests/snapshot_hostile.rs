//! Seeded hostile-input harness for the `CAMECKPT` checkpoint container,
//! [`Snapshot::decode`]. Every truncation prefix, every single-bit flip in
//! the header, hostile header lengths, and hostile values written over the
//! payload's length prefixes (with the CRC recomputed, so the payload
//! reader's bounds are what is tested) must come back as a typed error or a
//! well-formed snapshot: never a panic, and never an allocation out of
//! proportion to the input.
//!
//! The binary installs a global allocator that records the largest single
//! request made on the current thread, so the allocation bound is measured,
//! not inferred.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use came_kg::snapshot::crc32;
use came_kg::{EpochStats, ParamRecord, Snapshot, SnapshotError};
use came_tensor::Prng;

thread_local! {
    static PEAK_REQUEST: Cell<usize> = const { Cell::new(0) };
}

fn note_request(size: usize) {
    // `try_with` fails only during thread teardown, when nothing is measured.
    let _ = PEAK_REQUEST.try_with(|p| p.set(p.get().max(size)));
}

struct PeakAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter update, which
// neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Magic + version + CRC + payload length.
const HEADER_LEN: usize = 24;
/// A decoded parameter record takes `size_of::<ParamRecord>()` bytes of
/// memory for at least 32 encoded bytes (a name length and three vector
/// lengths), so the decoder may reserve a few times its input, never more.
const ALLOC_FACTOR: usize = 4;
/// Room for a rendered error message on inputs shorter than the message.
const MESSAGE_SLACK: usize = 256;

/// Run `Snapshot::decode` on `bytes`, failing the test (naming `case`) if it
/// panics or makes a single allocation out of proportion to the input.
fn probe(case: &str, bytes: &[u8]) -> Result<Snapshot, String> {
    PEAK_REQUEST.with(|p| p.set(0));
    let out = catch_unwind(AssertUnwindSafe(|| {
        Snapshot::decode(bytes).map_err(|e: SnapshotError| e.to_string())
    }));
    let peak = PEAK_REQUEST.with(|p| p.get());
    let out = out.unwrap_or_else(|_| panic!("{case}: decoder panicked"));
    assert!(
        peak <= ALLOC_FACTOR * bytes.len() + MESSAGE_SLACK,
        "{case}: allocated {peak} bytes at once for a {}-byte input",
        bytes.len()
    );
    out
}

fn expect_err(case: &str, bytes: &[u8]) {
    if let Ok(s) = probe(case, bytes) {
        panic!(
            "{case}: hostile input decoded to a snapshot at epoch {}",
            s.epoch_next
        );
    }
}

/// `bytes` with its header CRC recomputed over the current payload.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&bytes[HEADER_LEN..]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    bytes
}

fn randn(n: usize, rng: &mut Prng) -> Vec<f32> {
    (0..n).map(|_| rng.normal() as f32).collect()
}

/// A version-1 and a version-2 (entity-store blob attached) snapshot.
fn valid_snapshots(rng: &mut Prng) -> Vec<(&'static str, Snapshot)> {
    let record = |name: &str, n: usize, rng: &mut Prng| ParamRecord {
        name: name.into(),
        value: randn(n, rng),
        m: randn(n, rng),
        v: randn(n, rng),
    };
    let v1 = Snapshot {
        fingerprint: rng.next_u64(),
        epoch_next: 3,
        lr_scale: 0.5,
        divergences: 1,
        model_state: vec![1, 2, 3, 4, 5],
        history: (0..3)
            .map(|epoch| EpochStats {
                epoch,
                loss: 1.0 / (1.0 + epoch as f32),
                elapsed_s: 0.25 * epoch as f64,
            })
            .collect(),
        store_step: 42,
        params: vec![record("ent", 6, rng), record("rel.w", 4, rng)],
        embed_store: None,
    };
    let v2 = v1.clone().with_embed_store(Some((0..17).collect()));
    vec![("v1", v1), ("v2", v2)]
}

#[test]
fn hostile_checkpoints_are_typed_errors_without_panics_or_big_allocations() {
    let mut rng = Prng::new(0xC4EC_4B07);
    for (name, snap) in valid_snapshots(&mut rng) {
        let bytes = snap.encode();
        assert_eq!(
            probe(name, &bytes).as_ref(),
            Ok(&snap),
            "{name}: round trip"
        );
        let payload_len = (bytes.len() - HEADER_LEN) as u64;

        // every strict prefix is a truncated checkpoint
        for k in 0..bytes.len() {
            expect_err(&format!("{name}[..{k}]"), &bytes[..k]);
        }

        // a single flipped bit anywhere in the header changes the magic,
        // the version, the CRC or the declared length
        for bit in 0..HEADER_LEN * 8 {
            let mut b = bytes.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            expect_err(&format!("{name} header bit {bit}"), &b);
        }

        // hostile declared payload lengths, including ones whose sum with
        // the header length overflows
        for hostile in [
            u64::MAX,
            u64::MAX - (HEADER_LEN as u64 - 1),
            u64::MAX - (HEADER_LEN as u64),
            1 << 63,
            payload_len + 1,
            payload_len - 1,
            0,
        ] {
            let mut b = bytes.clone();
            b[16..24].copy_from_slice(&hostile.to_le_bytes());
            expect_err(&format!("{name} len={hostile}"), &b);
        }

        // hostile words written at every payload offset, CRC recomputed:
        // each payload length prefix is hit with huge counts and with the
        // largest count an element-size check of 1, 4, 8, 20 or 32 bytes
        // lets through
        for at in HEADER_LEN..bytes.len() - 7 {
            let rest = (bytes.len() - at - 8) as u64;
            let admitted = [1, 4, 8, 20, 32].map(|elem| rest / elem);
            for hostile in [u64::MAX, u64::MAX - 3, 1 << 63, 1 << 40, payload_len]
                .into_iter()
                .chain(admitted)
            {
                let mut b = bytes.clone();
                b[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
                let _ = probe(&format!("{name} word {hostile} at {at}"), &reseal(b));
            }
        }

        // seeded random length-sized words over the payload, CRC recomputed
        for i in 0..2000 {
            let at = HEADER_LEN + rng.below(bytes.len() - HEADER_LEN - 7);
            let word = rng.next_u64() >> rng.below(64);
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&word.to_le_bytes());
            let _ = probe(&format!("{name} random #{i}: {word} at {at}"), &reseal(b));
        }
    }
}
