//! Link-computation benchmarks (§4.4): the row-wise sparse kernel
//! (Fig. 4's work) vs the component-blocked bit-packed adjacency-matrix
//! square, across neighbor-graph densities and on the rockbench
//! `fit_dense` and `fit_sparse` link inputs; plus the Fig.-3 merge loop
//! (seeding included) over those two link inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::algorithm::{OutlierPolicy, RockAlgorithm};
use rock_core::goodness::{BasketF, Goodness, GoodnessKind};
use rock_core::governor::RunGovernor;
use rock_core::links_matrix::LinkMatrix;
use rock_core::neighbors::NeighborGraph;
use rock_core::sampling::sample_indices;
use rock_core::similarity::{Jaccard, PointsWith};
use rock_data::{generate_baskets, SyntheticBasketSpec};
use std::hint::black_box;

fn sample_graph(n: usize, theta: f64) -> NeighborGraph {
    let spec = SyntheticBasketSpec::paper_scaled(0.02);
    let data = generate_baskets(&spec, &mut StdRng::seed_from_u64(7));
    let sample = &data.transactions[..n.min(data.transactions.len())];
    NeighborGraph::build(&PointsWith::new(sample, Jaccard), theta, 1)
}

fn bench_sparse_vs_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("links");
    for &theta in &[0.3, 0.5, 0.7] {
        let graph = sample_graph(800, theta);
        group.bench_with_input(
            BenchmarkId::new("sparse_fig4", format!("theta={theta}")),
            &graph,
            |b, g| b.iter(|| black_box(LinkMatrix::compute_sparse(g, 1))),
        );
        group.bench_with_input(
            BenchmarkId::new("dense_blocked", format!("theta={theta}")),
            &graph,
            |b, g| b.iter(|| black_box(LinkMatrix::compute_dense(g, 1))),
        );
    }
    group.finish();
}

/// `sample` points of `paper_scaled(0.05)` (seed 42) drawn the way a
/// seeded fit draws them, at `theta`: the rockbench `fit_dense` (3,000,
/// θ 0.5) and `fit_sparse` (4,000, θ 0.8) link inputs.
fn fit_graph(sample: usize, theta: f64) -> NeighborGraph {
    let spec = SyntheticBasketSpec::paper_scaled(0.05);
    let data = generate_baskets(&spec, &mut StdRng::seed_from_u64(42));
    let idx = sample_indices(
        data.transactions.len(),
        sample,
        &mut StdRng::seed_from_u64(7),
    );
    let points: Vec<_> = idx.iter().map(|&i| data.transactions[i].clone()).collect();
    NeighborGraph::build(&PointsWith::new(&points, Jaccard), theta, 1)
}

/// The two fit link inputs: (workload, sample size, θ).
const FIT_SHAPES: [(&str, usize, f64); 2] = [("fit_dense", 3000, 0.5), ("fit_sparse", 4000, 0.8)];

fn bench_fit_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("links_fit_shapes");
    for (name, sample, theta) in FIT_SHAPES {
        let graph = fit_graph(sample, theta);
        group.bench_with_input(BenchmarkId::new("sparse_fig4", name), &graph, |b, g| {
            b.iter(|| black_box(LinkMatrix::compute_sparse(g, 1)))
        });
        group.bench_with_input(BenchmarkId::new("dense_blocked", name), &graph, |b, g| {
            b.iter(|| black_box(LinkMatrix::compute_dense(g, 1)))
        });
    }
    group.finish();
}

/// The merge loop a fit runs after its links: state seeding from the
/// link rows, then Fig. 3 down to k = 10 with the default outlier
/// policy and the paper's f(θ), ungoverned.
fn bench_merge_fit_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_fit_shapes");
    for (name, sample, theta) in FIT_SHAPES {
        let graph = fit_graph(sample, theta);
        let links = LinkMatrix::compute_auto(&graph, 1);
        let rock = RockAlgorithm::new(
            Goodness::new(theta, BasketF, GoodnessKind::Normalized),
            10,
            OutlierPolicy::default(),
        );
        group.bench_with_input(BenchmarkId::from_parameter(name), &links, |b, links| {
            b.iter(|| {
                black_box(
                    rock.run_governed(&graph, links, &RunGovernor::unlimited(), None)
                        .expect("an unlimited governor never trips"),
                )
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sparse_vs_dense, bench_fit_shapes, bench_merge_fit_shapes
}
criterion_main!(benches);
