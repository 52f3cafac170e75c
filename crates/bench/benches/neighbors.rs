//! Neighbor-graph construction benchmarks: the θ-neighbor scan (the
//! item-index probe where it applies, else the O(n²) pairwise scan) by
//! sample size, by thread count (shards fanned out on scoped threads
//! through `run_shards`), and on the rockbench `fit_dense` and
//! `fit_sparse` inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::neighbors::NeighborGraph;
use rock_core::points::Transaction;
use rock_core::sampling::sample_indices;
use rock_core::similarity::{Jaccard, PointsWith};
use rock_data::{generate_baskets, SyntheticBasketSpec};
use std::hint::black_box;

fn sample(n: usize) -> Vec<Transaction> {
    let spec = SyntheticBasketSpec::paper_scaled(0.02);
    let data = generate_baskets(&spec, &mut StdRng::seed_from_u64(11));
    data.transactions[..n.min(data.transactions.len())].to_vec()
}

fn bench_serial_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighbors_serial");
    for &n in &[250usize, 500, 1000] {
        let pts = sample(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &pts, |b, pts| {
            b.iter(|| {
                black_box(NeighborGraph::build(
                    &PointsWith::new(pts, Jaccard),
                    0.5,
                    1,
                ))
            })
        });
    }
    group.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let pts = sample(1200);
    let mut group = c.benchmark_group("neighbors_threads");
    for &threads in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(NeighborGraph::build(
                        &PointsWith::new(&pts, Jaccard),
                        0.5,
                        threads,
                    ))
                })
            },
        );
    }
    group.finish();
}

/// `sample` points of `paper_scaled(0.05)` (seed 42) drawn the way a
/// seeded fit draws them: the rockbench `fit_dense` (3,000, θ 0.5) and
/// `fit_sparse` (4,000, θ 0.8) neighbor-scan inputs, as in the links
/// bench's `fit_graph`.
fn fit_sample(sample: usize) -> Vec<Transaction> {
    let spec = SyntheticBasketSpec::paper_scaled(0.05);
    let data = generate_baskets(&spec, &mut StdRng::seed_from_u64(42));
    let idx = sample_indices(
        data.transactions.len(),
        sample,
        &mut StdRng::seed_from_u64(7),
    );
    idx.iter().map(|&i| data.transactions[i].clone()).collect()
}

fn bench_fit_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighbors_fit_shapes");
    for (name, sample, theta) in [("fit_dense", 3000, 0.5), ("fit_sparse", 4000, 0.8)] {
        let pts = fit_sample(sample);
        group.bench_with_input(BenchmarkId::from_parameter(name), &pts, |b, pts| {
            b.iter(|| {
                black_box(NeighborGraph::build(
                    &PointsWith::new(pts, Jaccard),
                    theta,
                    1,
                ))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serial_sizes, bench_parallel, bench_fit_shapes
}
criterion_main!(benches);
