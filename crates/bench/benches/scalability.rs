//! Figure-5 style scalability benchmark: end-to-end ROCK clustering
//! (neighbors + links + merge loop) on random samples of the synthetic
//! basket data, across sample sizes and θ.
//!
//! This is the Criterion counterpart of
//! `cargo run -p bench --bin figure5_scalability`, sized so `cargo bench`
//! stays fast; the binary sweeps the paper's 1000–5000 range.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::algorithm::{OutlierPolicy, RockAlgorithm};
use rock_core::goodness::{BasketF, Goodness, GoodnessKind};
use rock_core::governor::RunGovernor;
use rock_core::links_matrix::LinkMatrix;
use rock_core::neighbors::NeighborGraph;
use rock_core::points::Transaction;
use rock_core::similarity::{Jaccard, PointsWith};
use rock_data::{generate_baskets, SyntheticBasketSpec};
use std::hint::black_box;

fn pool() -> Vec<Transaction> {
    let spec = SyntheticBasketSpec::paper_scaled(0.02);
    generate_baskets(&spec, &mut StdRng::seed_from_u64(5))
        .transactions
}

fn bench_sizes(c: &mut Criterion) {
    let pool = pool();
    let mut group = c.benchmark_group("rock_end_to_end");
    for &n in &[250usize, 500, 1000] {
        let sample = &pool[..n];
        group.bench_with_input(BenchmarkId::new("size", n), &sample, |b, sample| {
            let goodness = Goodness::new(0.5, BasketF, GoodnessKind::Normalized);
            let algo = RockAlgorithm::new(goodness, 10, OutlierPolicy::default());
            b.iter(|| {
                let graph = NeighborGraph::build(&PointsWith::new(sample, Jaccard), 0.5, 1);
                black_box(algo.run(&graph))
            })
        });
    }
    group.finish();
}

fn bench_thetas(c: &mut Criterion) {
    let pool = pool();
    let sample = &pool[..800];
    let mut group = c.benchmark_group("rock_theta");
    for &theta in &[0.5, 0.6, 0.7, 0.8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(theta),
            &theta,
            |b, &theta| {
                let goodness = Goodness::new(theta, BasketF, GoodnessKind::Normalized);
                let algo = RockAlgorithm::new(goodness, 10, OutlierPolicy::default());
                b.iter(|| {
                    let graph =
                        NeighborGraph::build(&PointsWith::new(sample, Jaccard), theta, 1);
                    black_box(algo.run(&graph))
                })
            },
        );
    }
    group.finish();
}

fn bench_threads(c: &mut Criterion) {
    // End-to-end run at a fixed size across worker counts: neighbors,
    // links and the merge loop — bit-identical output for every thread
    // count, so this group measures speed only.
    let pool = pool();
    let sample = &pool[..800.min(pool.len())];
    let mut group = c.benchmark_group("rock_threads");
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let goodness = Goodness::new(0.5, BasketF, GoodnessKind::Normalized);
                let algo = RockAlgorithm::new(goodness, 10, OutlierPolicy::default());
                b.iter(|| {
                    let graph = NeighborGraph::build(
                        &PointsWith::new(sample, Jaccard),
                        0.5,
                        threads,
                    );
                    let links = LinkMatrix::compute_auto(&graph, threads);
                    black_box(algo.run_governed(&graph, &links, &RunGovernor::unlimited(), None))
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sizes, bench_thetas, bench_threads
}
criterion_main!(benches);
