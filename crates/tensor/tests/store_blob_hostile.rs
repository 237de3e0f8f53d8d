//! Seeded hostile-input harness for the entity-store checkpoint decoders,
//! [`store_from_blob`] and [`EntityHead::from_blob`]. Every truncation
//! prefix, every single-bit flip in the headers, and hostile row-count,
//! width and length fields must come back as `Err`: never a panic, and
//! never an allocation larger than the input itself.
//!
//! The binary installs a global allocator that records the largest single
//! request made on the current thread, so the allocation bound is measured,
//! not inferred.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use came_tensor::{
    store_from_blob, DenseF32Store, EmbeddingStore, EntityHead, Prng, QuantizedStore,
};

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

/// Room for a rendered error message on inputs shorter than the message.
const MESSAGE_SLACK: usize = 256;

/// Geometry `(len, dim)` of a successfully decoded store or head.
type Decoded = Result<(usize, usize), String>;

fn decode_store(bytes: &[u8]) -> Decoded {
    store_from_blob(bytes)
        .map(|s| (s.len(), s.dim()))
        .map_err(|e| e.to_string())
}

fn decode_head(bytes: &[u8]) -> Decoded {
    EntityHead::from_blob(bytes)
        .map(|h| (h.store().len(), h.store().dim()))
        .map_err(|e| e.to_string())
}

/// Run `decode` on `bytes`, failing the test (naming `case`) if it panics
/// or makes a single allocation larger than the input.
fn probe(case: &str, bytes: &[u8], decode: fn(&[u8]) -> Decoded) -> Decoded {
    PEAK_REQUEST.with(|p| p.set(0));
    let out = catch_unwind(AssertUnwindSafe(|| decode(bytes)));
    let peak = PEAK_REQUEST.with(|p| p.get());
    let out = out.unwrap_or_else(|_| panic!("{case}: decoder panicked"));
    assert!(
        peak <= bytes.len() + MESSAGE_SLACK,
        "{case}: allocated {peak} bytes at once for a {}-byte input",
        bytes.len()
    );
    out
}

fn expect_err(case: &str, bytes: &[u8], decode: fn(&[u8]) -> Decoded) {
    if let Ok(geometry) = probe(case, bytes, decode) {
        panic!("{case}: hostile input decoded to a {geometry:?} store");
    }
}

fn randn(n: usize, rng: &mut Prng) -> Vec<f32> {
    (0..n).map(|_| rng.normal() as f32).collect()
}

/// `(name, store blob, head blob)` for every layout and tag the decoder
/// accepts: f32 (tag 0), q8 (tag 1) and the legacy file tag (2).
fn valid_blobs(rng: &mut Prng) -> Vec<(&'static str, Vec<u8>, Vec<u8>)> {
    let (n, d) = (13, 5);
    let rows = randn(n * d, rng);
    let bias = randn(n, rng);
    let dense = DenseF32Store::from_rows(rows.clone(), n, d).unwrap();
    let q8 = QuantizedStore::from_rows(&rows, n, d).unwrap();
    let f32_blob = dense.to_blob();
    let q8_blob = q8.to_blob();
    let mut tag2_blob = q8_blob.clone();
    tag2_blob[4] = 2;
    let head_blob = |store: &[u8]| {
        let mut out = (store.len() as u64).to_le_bytes().to_vec();
        out.extend_from_slice(store);
        for b in &bias {
            out.extend_from_slice(&b.to_le_bytes());
        }
        out
    };
    let heads = [
        head_blob(&f32_blob),
        head_blob(&q8_blob),
        head_blob(&tag2_blob),
    ];
    let [h0, h1, h2] = heads;
    vec![
        ("f32", f32_blob, h0),
        ("q8", q8_blob, h1),
        ("tag2", tag2_blob, h2),
    ]
}

const STORE_HEADER: usize = 21;

#[test]
fn hostile_store_and_head_blobs_are_typed_errors_without_panics_or_big_allocations() {
    let mut rng = Prng::new(0x5EED_B10B);
    for (name, store, head) in valid_blobs(&mut rng) {
        assert_eq!(probe(name, &store, decode_store), Ok((13, 5)));
        assert_eq!(probe(name, &head, decode_head), Ok((13, 5)));

        // every strict prefix is a truncated blob
        for k in 0..store.len() {
            expect_err(&format!("{name} store[..{k}]"), &store[..k], decode_store);
        }
        for k in 0..head.len() {
            expect_err(&format!("{name} head[..{k}]"), &head[..k], decode_head);
        }

        // a single flipped bit anywhere in a header changes the magic, the
        // tag or a declared length, and no longer matches the payload
        for bit in 0..STORE_HEADER * 8 {
            let mut s = store.clone();
            s[bit / 8] ^= 1 << (bit % 8);
            expect_err(&format!("{name} store bit {bit}"), &s, decode_store);
        }
        for bit in 0..(8 + STORE_HEADER) * 8 {
            let mut h = head.clone();
            h[bit / 8] ^= 1 << (bit % 8);
            expect_err(&format!("{name} head bit {bit}"), &h, decode_head);
        }

        // hostile geometry over the genuine payload
        let huge = [
            u64::MAX,
            u64::MAX - 3,
            1 << 63,
            1 << 62,
            1 << 61,
            1 << 32,
            (1 << 32) + 1,
            14,
        ];
        for &n in &huge {
            for &d in &[0, 1, 4, 5, 1 << 32, 1 << 62, u64::MAX] {
                let mut s = store.clone();
                s[5..13].copy_from_slice(&n.to_le_bytes());
                s[13..21].copy_from_slice(&d.to_le_bytes());
                expect_err(&format!("{name} n={n} d={d}"), &s, decode_store);
                let mut s = store.clone();
                s[5..13].copy_from_slice(&d.to_le_bytes());
                s[13..21].copy_from_slice(&n.to_le_bytes());
                expect_err(&format!("{name} n={d} d={n}"), &s, decode_store);
            }
        }

        // hostile store length inside a head blob
        let slen = store.len() as u64;
        for hostile in [
            u64::MAX,
            u64::MAX - 3,
            u64::MAX - 7,
            1 << 63,
            head.len() as u64,
            slen + 1,
            slen - 1,
            0,
        ] {
            let mut h = head.clone();
            h[0..8].copy_from_slice(&hostile.to_le_bytes());
            expect_err(&format!("{name} slen={hostile}"), &h, decode_head);
        }
    }

    // seeded random headers over short random payloads: any blob that does
    // decode must describe no more cells than it carries bytes
    for i in 0..2000 {
        let tag = rng.below(4) as u8;
        let n = rng.next_u64() >> rng.below(64);
        let d = rng.next_u64() >> rng.below(64);
        let body_len = rng.below(96);
        let mut s = b"CEST".to_vec();
        s.push(tag);
        s.extend_from_slice(&n.to_le_bytes());
        s.extend_from_slice(&d.to_le_bytes());
        s.extend((0..body_len).map(|_| rng.next_u64() as u8));
        let case = format!("random #{i} tag={tag} n={n} d={d} body={body_len}");
        if let Ok((len, dim)) = probe(&case, &s, decode_store) {
            assert!(
                len.saturating_mul(dim) <= body_len,
                "{case}: decoded a [{len}, {dim}] store from {body_len} payload bytes"
            );
        }
        let mut h = (rng.next_u64() >> rng.below(64)).to_le_bytes().to_vec();
        h.extend_from_slice(&s);
        let case = format!("random head #{i}");
        if let Ok((len, dim)) = probe(&case, &h, decode_head) {
            assert!(len.saturating_mul(dim) <= body_len, "{case}");
        }
    }
}
