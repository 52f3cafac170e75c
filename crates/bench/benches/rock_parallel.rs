//! Sequential-vs-parallel regression bench for the PR-2 kernel engine,
//! on the §5.3 synthetic market-basket generator.
//!
//! Four stages of the pipeline are measured, each as `seq` (the reference
//! single-thread path) against `parN` (the sharded kernels on N scoped threads):
//!
//! * `neighbors` — the θ-neighbor scan over `Transaction`s, which tests
//!   only the pairs that share an item;
//! * `links_sparse` — the Fig.-4 link computation: the row-sharded
//!   sparse `A·A` CSR kernel;
//! * `links_dense` — the §4.4 boolean-A² path: popcount squaring, one
//!   connected component at a time;
//! * `labeling` — the §4.6 disk-labeling scan, partitioned across workers.
//!
//! `scripts/bench_snapshot.sh` runs this bench with `BENCH_JSON` set and
//! packages the records into `BENCH_rock.json` (see DESIGN.md,
//! "Performance model", for how to read it). All parallel paths are
//! bit-identical to sequential by construction, so the ids here only vary
//! in speed, never in output — enforced by `tests/parallel_determinism.rs`
//! and `tests/kernel_invariance.rs`.
//!
//! Every id declares its worker-thread count, so the harness can mark
//! records measured with more threads than host CPUs as oversubscribed
//! (see the criterion shim's thread-count honesty notes). The process
//! also runs under a counting allocator with its own two process-wide
//! totals; the `perf_footer` pseudo-target prints them and the work
//! counters after the last group so a snapshot records how much the
//! kernels allocated.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::governor::RunGovernor;
use rock_core::labeling::Labeler;
use rock_core::links_matrix::LinkMatrix;
use rock_core::neighbors::NeighborGraph;
use rock_core::points::Transaction;
use rock_core::similarity::{Jaccard, PointsWith};
use rock_data::{generate_baskets, SyntheticBasketSpec};
use std::hint::black_box;

const THETA: f64 = 0.5;
const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// System-allocator wrapper that counts every heap allocation, on any
/// thread, into [`ALLOCS`] and [`ALLOC_BYTES`], so bench snapshots can
/// report how much the kernels allocate (the hot loops are expected to
/// allocate nothing — rock-tidy's `kernel-alloc` rule enforces it
/// statically, this measures it dynamically).
struct CountingAlloc;

/// Heap allocations made by this bench process.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by those allocations.
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pass-through to the system allocator. The bookkeeping is
// two relaxed atomic adds, which never allocate or unwind, so the
// GlobalAlloc contract is inherited unchanged from `System`.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: counts, then forwards the caller's layout to `System`
    // unchanged; the atomic add cannot allocate or unwind.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwards a pointer/layout pair that came from the matching
    // `alloc` above straight to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn pool() -> Vec<Transaction> {
    // ~5.7k transactions of the paper's §5.3 distribution.
    let spec = SyntheticBasketSpec::paper_scaled(0.05);
    generate_baskets(&spec, &mut StdRng::seed_from_u64(42)).transactions
}

fn bench_neighbors(c: &mut Criterion) {
    let pool = pool();
    let sample = &pool[..1500.min(pool.len())];
    let points = PointsWith::new(sample, Jaccard);
    let mut group = c.benchmark_group("neighbors");
    group.bench_function(BenchmarkId::from("transactions_seq").threads(1), |b| {
        b.iter(|| black_box(NeighborGraph::build(&points, THETA, 1)))
    });
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("transactions_par", threads).threads(threads),
            &threads,
            |b, &threads| {
                b.iter(|| black_box(NeighborGraph::build(&points, THETA, threads)))
            },
        );
    }
    group.finish();
}

fn bench_links(c: &mut Criterion) {
    let pool = pool();
    let sample = &pool[..1500.min(pool.len())];
    let graph = NeighborGraph::build(&PointsWith::new(sample, Jaccard), THETA, 1);

    let mut sparse = c.benchmark_group("links_sparse");
    sparse.bench_function(BenchmarkId::from("csr_seq").threads(1), |b| {
        b.iter(|| black_box(LinkMatrix::compute_sparse(&graph, 1)))
    });
    for threads in THREAD_COUNTS {
        sparse.bench_with_input(
            BenchmarkId::new("csr_par", threads).threads(threads),
            &threads,
            |b, &threads| b.iter(|| black_box(LinkMatrix::compute_sparse(&graph, threads))),
        );
    }
    sparse.finish();

    let mut dense = c.benchmark_group("links_dense");
    dense.bench_function(BenchmarkId::from("csr_seq").threads(1), |b| {
        b.iter(|| black_box(LinkMatrix::compute_dense(&graph, 1)))
    });
    for threads in THREAD_COUNTS {
        dense.bench_with_input(
            BenchmarkId::new("csr_par", threads).threads(threads),
            &threads,
            |b, &threads| b.iter(|| black_box(LinkMatrix::compute_dense(&graph, threads))),
        );
    }
    dense.finish();
}

fn bench_labeling(c: &mut Criterion) {
    let pool = pool();
    // Cluster a 500-point sample, then label the whole pool against it —
    // the Fig.-2 shape of the labeling phase.
    let sample = &pool[..500.min(pool.len())];
    let clusters: Vec<Vec<u32>> = vec![
        (0..sample.len() as u32 / 2).collect(),
        (sample.len() as u32 / 2..sample.len() as u32).collect(),
    ];
    let labeler = Labeler::full(sample, &clusters, THETA, 1.0 / 3.0);
    let mut group = c.benchmark_group("labeling");
    group.bench_function(BenchmarkId::from("seq").threads(1), |b| {
        b.iter(|| black_box(labeler.label_all(&pool, &Jaccard, 1, &RunGovernor::unlimited())))
    });
    for threads in THREAD_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("par", threads).threads(threads),
            &threads,
            |b, &threads| {
                let unlimited = RunGovernor::unlimited();
                b.iter(|| black_box(labeler.label_all(&pool, &Jaccard, threads, &unlimited)))
            },
        );
    }
    group.finish();
}

/// Not a benchmark: prints the perf counters the preceding groups
/// accumulated (pairs emitted, bytes touched, similarity evaluations,
/// scratch reuse) with the counting allocator's totals.
fn perf_footer(_c: &mut Criterion) {
    println!(
        "perf totals: {}",
        rock_core::perf::PerfCounters {
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            ..rock_core::perf::snapshot()
        }
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_neighbors, bench_links, bench_labeling, perf_footer
}
criterion_main!(benches);
