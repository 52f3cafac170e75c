//! Peak heap growth of the merge stage, read by a counting global
//! allocator like rockbench's `peak_heap_mb`.
//!
//! [`RockAlgorithm::run`] owns the link matrix it computes. The bound
//! below, CSR + 48 bytes per linked pair, is the CSR plus the seeded
//! merge state at 12-byte entries (rock-core's `incremental::Link` and
//! `heap::Cand` give the layout; `init_from_links` the drop before
//! seeding). A run that seeds the heaps with the CSR still alive goes
//! over it, and so does one with 16-byte entries.
//!
//! The file holds one test, so no other test thread allocates while the
//! peak is read.

use rand::{rngs::StdRng, SeedableRng};
use rock::algorithm::{OutlierPolicy, RockAlgorithm};
use rock::goodness::{BasketF, Goodness, GoodnessKind};
use rock::similarity::{Jaccard, PointsWith};
use rock::{LinkMatrix, NeighborGraph};
use rock_data::{generate_baskets, SyntheticBasketSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator, counting live bytes and their peak.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics (relaxed atomics publishing no other data).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the trait's own contract; the caller passes a non-zero
    // size layout, forwarded to `System` below.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    // SAFETY: as `alloc`, with the block zeroed by `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    // SAFETY: the caller passes a block this allocator returned, with
    // the layout it was allocated with.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: the caller passes a block this allocator returned, its
    // layout, and a non-zero new size.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this
        // allocator and the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[test]
fn an_owned_link_matrix_is_freed_before_the_heaps_are_seeded() {
    // About 1,150 baskets of the §5.3 distribution at θ 0.5: a dense
    // neighbor graph, so the merge state dominates the run's memory.
    let data = generate_baskets(
        &SyntheticBasketSpec::paper_scaled(0.01),
        &mut StdRng::seed_from_u64(42),
    )
    .transactions;
    let theta = 0.5;
    let graph = NeighborGraph::build(&PointsWith::new(&data, Jaccard), theta, 1);

    // `run` computes this same matrix (one thread, auto kernel).
    let links = LinkMatrix::compute_auto(&graph, 1);
    let (csr_bytes, pairs) = (links.memory_bytes(), links.num_linked_pairs());
    drop(links);

    let goodness = Goodness::new(theta, BasketF, GoodnessKind::Normalized);
    let algo = RockAlgorithm::new(goodness, 10, OutlierPolicy::default());

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let run = algo.run(&graph);
    let growth = PEAK.load(Ordering::Relaxed) - base;
    drop(run);

    let bound = csr_bytes + 48 * pairs;
    assert!(
        pairs > 10_000,
        "the config must link densely: {pairs} pairs"
    );
    assert!(
        growth <= bound,
        "peak growth {growth} B over the bound {bound} B (CSR {csr_bytes} B, \
         {pairs} linked pairs)"
    );
}
