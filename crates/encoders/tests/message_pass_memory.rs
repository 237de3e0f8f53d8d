//! Memory bound of the CompGCN propagation: on `drkg_mm_like`, the peak
//! live heap of the forward ([`CompGcn::structural_features`]) must stay
//! below the size of one `[E, d]` f32 per-edge tensor. The composed
//! gather → compose → scatter chain held three of those at once.
//!
//! The binary installs a global allocator that counts live bytes and their
//! high-water mark, so the bound is measured, not inferred. It holds a
//! single test, so no other test allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use came_biodata::presets;
use came_encoders::{CompGcn, Composition};
use came_kg::Split;
use came_tensor::{ParamStore, Prng};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::SeqCst) + size;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(size: usize) {
    LIVE.fetch_sub(size, Ordering::SeqCst);
}

struct LiveAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is atomic counter updates, which neither
// allocate nor touch the returned memory.
unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LiveAlloc = LiveAlloc;

#[test]
fn propagation_peak_stays_below_one_per_edge_tensor() {
    let bkg = presets::drkg_mm_like(0);
    let data = &bkg.dataset;
    let dim = 32;
    let edges = data.augmented(Split::Train).len();
    let per_edge_bytes = edges * dim * 4;
    let node_bytes = data.num_entities() * dim * 4;
    // the bound only means something when edges outnumber nodes
    assert!(
        per_edge_bytes > 8 * node_bytes,
        "{edges} edges is too sparse"
    );

    let mut rng = Prng::new(3);
    let mut store = ParamStore::new();
    let model = CompGcn::new(&mut store, data, dim, 2, Composition::Mult, &mut rng);
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let feats = model.structural_features(&store);
    let peak = PEAK.load(Ordering::SeqCst) - before;
    assert!(!feats.has_non_finite());
    assert!(
        peak < per_edge_bytes,
        "forward peaked at {peak} live bytes; one [{edges}, {dim}] per-edge tensor is \
         {per_edge_bytes}"
    );
}
