//! Neighbor-graph construction benchmarks: the O(n²) pairwise scan,
//! serial vs crossbeam-parallel, and the cost dependence on θ.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::neighbors::NeighborGraph;
use rock_core::points::Transaction;
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serial_sizes, bench_parallel
}
criterion_main!(benches);
