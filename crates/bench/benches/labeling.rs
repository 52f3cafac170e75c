//! Labeling-phase benchmarks (§4.6): cost of assigning the full data set
//! from the Lᵢ sets, serial vs parallel, across labeling fractions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::governor::RunGovernor;
use rock_core::labeling::Labeler;
use rock_core::similarity::Jaccard;
use rock_core::Rock;
use rock_data::{generate_baskets, SyntheticBasketSpec};
use std::hint::black_box;

fn setup() -> (rock_data::SyntheticBasketData, Labeler<rock_core::points::Transaction>) {
    let data = generate_baskets(
        &SyntheticBasketSpec::paper_scaled(0.05),
        &mut StdRng::seed_from_u64(12),
    );
    let rock = Rock::builder()
        .theta(0.5)
        .clusters(10)
        .build()
        .expect("valid");
    let idx = rock_core::sampling::sample_indices(
        data.transactions.len(),
        600,
        &mut StdRng::seed_from_u64(13),
    );
    let sample: Vec<_> = idx.iter().map(|&i| data.transactions[i].clone()).collect();
    let run = rock.cluster(&sample, &Jaccard).expect("no budget");
    let labeler = Labeler::new(
        &sample,
        &run.clustering.clusters,
        0.3,
        0.5,
        1.0 / 3.0,
        &mut StdRng::seed_from_u64(14),
    )
    .expect("bench setup uses a valid labeling fraction");
    (data, labeler)
}

fn bench_threads(c: &mut Criterion) {
    let (data, labeler) = setup();
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_threads
}
criterion_main!(benches);
