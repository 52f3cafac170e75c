//! Link-computation benchmarks (§4.4): the row-wise sparse kernel
//! (Fig. 4's work) vs the bit-packed adjacency-matrix square, across
//! neighbor-graph densities, plus the FxHash-vs-SipHash ablation for
//! pair-keyed hash maps (FxHash still backs the item catalogs and the
//! component grouping).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::links_matrix::LinkMatrix;
use rock_core::neighbors::NeighborGraph;
use rock_core::similarity::{Jaccard, PointsWith};
use rock_data::{generate_baskets, SyntheticBasketSpec};
use std::collections::HashMap;
use std::hint::black_box;

fn sample_graph(n: usize, theta: f64) -> NeighborGraph {
    let spec = SyntheticBasketSpec::paper_scaled(0.02);
    let data = generate_baskets(&spec, &mut StdRng::seed_from_u64(7));
    let sample = &data.transactions[..n.min(data.transactions.len())];
    NeighborGraph::build(&PointsWith::new(sample, Jaccard), theta)
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
            BenchmarkId::new("dense_bitset", format!("theta={theta}")),
            &graph,
            |b, g| b.iter(|| black_box(LinkMatrix::compute_dense(g, 1))),
        );
    }
    group.finish();
}

/// The hash ablation justifying the in-tree FxHasher (see
/// `rock_core::util::fxhash`): increment counters keyed by `(u32, u32)`
/// neighbor pairs with each hasher, as a hashmap link table would.
fn bench_hashers(c: &mut Criterion) {
    let graph = sample_graph(600, 0.5);
    let mut group = c.benchmark_group("link_table_hasher");
    group.bench_function("fxhash", |b| {
        b.iter(|| {
            let mut map: rock_core::util::FxHashMap<(u32, u32), u32> = Default::default();
            for i in 0..graph.len() {
                let nbrs = graph.neighbors(i);
                for (a, &x) in nbrs.iter().enumerate() {
                    for &y in &nbrs[a + 1..] {
                        *map.entry((x, y)).or_insert(0) += 1;
                    }
                }
            }
            black_box(map.len())
        })
    });
    group.bench_function("siphash", |b| {
        b.iter(|| {
            let mut map: HashMap<(u32, u32), u32> = HashMap::new();
            for i in 0..graph.len() {
                let nbrs = graph.neighbors(i);
                for (a, &x) in nbrs.iter().enumerate() {
                    for &y in &nbrs[a + 1..] {
                        *map.entry((x, y)).or_insert(0) += 1;
                    }
                }
            }
            black_box(map.len())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sparse_vs_dense, bench_hashers
}
criterion_main!(benches);
