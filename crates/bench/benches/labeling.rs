//! Labeling-phase benchmarks (§4.6): cost of assigning the full data set
//! from the Lᵢ sets, serial vs parallel, and on the rockbench `fit_wide`
//! shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::governor::RunGovernor;
use rock_core::labeling::Labeler;
use rock_core::similarity::Jaccard;
use rock_core::Rock;
use rock_data::{generate_baskets, SyntheticBasketSpec};
use std::hint::black_box;

/// `sample` points of `paper_scaled(scale)` clustered at θ 0.5 into
/// k = 10, and labeling sets of `fraction` of each cluster; `seeds` seed
/// the data, the sample draw and the labeling-set draw.
fn setup(
    scale: f64,
    sample: usize,
    fraction: f64,
    seeds: [u64; 3],
) -> (
    rock_data::SyntheticBasketData,
    Labeler<rock_core::points::Transaction>,
) {
    let data = generate_baskets(
        &SyntheticBasketSpec::paper_scaled(scale),
        &mut StdRng::seed_from_u64(seeds[0]),
    );
    let rock = Rock::builder()
        .theta(0.5)
        .clusters(10)
        .build()
        .expect("valid");
    let idx = rock_core::sampling::sample_indices(
        data.transactions.len(),
        sample,
        &mut StdRng::seed_from_u64(seeds[1]),
    );
    let sample: Vec<_> = idx.iter().map(|&i| data.transactions[i].clone()).collect();
    let run = rock.cluster(&sample, &Jaccard).expect("no budget");
    let labeler = Labeler::new(
        &sample,
        &run.clustering.clusters,
        fraction,
        0.5,
        1.0 / 3.0,
        &mut StdRng::seed_from_u64(seeds[2]),
    )
    .expect("bench setup uses a valid labeling fraction");
    (data, labeler)
}

fn bench_threads(c: &mut Criterion) {
    let (data, labeler) = setup(0.05, 600, 0.3, [12, 13, 14]);
    let mut group = c.benchmark_group("labeling_threads");
    for &threads in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(labeler.label_all(
                        &data.transactions,
                        &Jaccard,
                        threads,
                        &RunGovernor::unlimited(),
                    ))
                })
            },
        );
    }
    group.finish();
}

/// The rockbench `fit_wide` labeling shape: a 1,000-point sample of
/// `paper_scaled(0.25)` (28,647 baskets, seed 42), labeling sets of
/// fraction 0.25; every basket is labeled on one thread. The sets are
/// drawn here, so they may differ from a seeded fit's own draw.
fn bench_fit_wide(c: &mut Criterion) {
    let (data, labeler) = setup(0.25, 1000, 0.25, [42, 7, 7]);
    let mut group = c.benchmark_group("labeling_fit_shapes");
    group.bench_function(BenchmarkId::from_parameter("fit_wide"), |b| {
        b.iter(|| {
            black_box(labeler.label_all(&data.transactions, &Jaccard, 1, &RunGovernor::unlimited()))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_threads, bench_fit_wide
}
criterion_main!(benches);
