//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! * goodness normalisation (§4.2): normalized vs raw cross-link count —
//!   measured on *quality* (ARI against ground truth) as well as time;
//! * labeling fraction (§4.6): cost/quality of the disk-labeling phase;
//! * outlier pre-pruning: the cost of clustering with and without the
//!   isolated-point prune.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::algorithm::{OutlierPolicy, RockAlgorithm};
use rock_core::goodness::{BasketF, Goodness, GoodnessKind};
use rock_core::neighbors::NeighborGraph;
use rock_core::similarity::{Jaccard, PointsWith};
use rock_data::{generate_baskets, SyntheticBasketSpec};
use std::hint::black_box;

fn bench_goodness_kinds(c: &mut Criterion) {
    let spec = SyntheticBasketSpec::paper_scaled(0.01);
    let data = generate_baskets(&spec, &mut StdRng::seed_from_u64(3));
    let graph = NeighborGraph::build(&PointsWith::new(&data.transactions, Jaccard), 0.5, 1);
    let links = rock_core::LinkMatrix::compute_auto(&graph, 1);
    let unlimited = rock_core::RunGovernor::unlimited();
    let merge = |algo: &RockAlgorithm| {
        algo.run_governed(&graph, &links, &unlimited, None)
            .expect("an unlimited governor never trips")
    };

    // Quality side of the ablation, printed once: the raw-link criterion
    // lets large clusters swallow small ones (§4.2).
    for (name, kind) in [
        ("normalized", GoodnessKind::Normalized),
        ("raw", GoodnessKind::RawLinks),
    ] {
        let goodness = Goodness::new(0.5, BasketF, kind);
        let algo = RockAlgorithm::new(goodness, 10, OutlierPolicy::default());
        let run = merge(&algo);
        let pred = run.clustering.assignments(data.transactions.len());
        let truth: Vec<usize> = data.labels.iter().map(|l| l.map_or(10, |c| c)).collect();
        let pred_flat: Vec<usize> = pred.iter().map(|p| p.map_or(99, |c| c)).collect();
        let ari = rock_eval::adjusted_rand_index(&pred_flat, &truth);
        eprintln!(
            "goodness={name}: {} clusters, ARI {ari:.3}",
            run.clustering.num_clusters()
        );
    }

    let mut group = c.benchmark_group("goodness_kind");
    for (name, kind) in [
        ("normalized", GoodnessKind::Normalized),
        ("raw", GoodnessKind::RawLinks),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &kind, |b, &kind| {
            let goodness = Goodness::new(0.5, BasketF, kind);
            let algo = RockAlgorithm::new(goodness, 10, OutlierPolicy::default());
            b.iter(|| black_box(merge(&algo)))
        });
    }
    group.finish();
}

fn bench_outlier_pruning(c: &mut Criterion) {
    let spec = SyntheticBasketSpec::paper_scaled(0.01);
    let data = generate_baskets(&spec, &mut StdRng::seed_from_u64(4));
    let graph = NeighborGraph::build(&PointsWith::new(&data.transactions, Jaccard), 0.6, 1);
    let mut group = c.benchmark_group("outlier_pruning");
    for (name, policy) in [
        ("prune_isolated", OutlierPolicy::default()),
        ("keep_everything", OutlierPolicy::disabled()),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &policy,
            |b, &policy| {
                let goodness = Goodness::new(0.6, BasketF, GoodnessKind::Normalized);
                let algo = RockAlgorithm::new(goodness, 10, policy);
                b.iter(|| black_box(algo.run(&graph)))
            },
        );
    }
    group.finish();
}

fn bench_labeling_fraction(c: &mut Criterion) {
    let spec = SyntheticBasketSpec::paper_scaled(0.02);
    let data = generate_baskets(&spec, &mut StdRng::seed_from_u64(6));
    let mut group = c.benchmark_group("labeling_fraction");
    for &fraction in &[0.1, 0.3, 1.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(fraction),
            &fraction,
            |b, &fraction| {
                let rock = rock_core::Rock::builder()
                    .theta(0.5)
                    .clusters(10)
                    .sample_size(400)
                    .labeling_fraction(fraction)
                    .seed(99)
                    .build()
                    .expect("valid");
                b.iter(|| black_box(rock.run(&data.transactions, &Jaccard).expect("no budget")))
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_goodness_kinds, bench_outlier_pruning, bench_labeling_fraction
}
criterion_main!(benches);
