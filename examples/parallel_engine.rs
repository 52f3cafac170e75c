//! The parallel link-computation engine end to end: the sharded
//! neighbor scan, CSR link kernels, a multi-threaded Fig.-2 pipeline and
//! parallel resilient labeling — every stage checked bit-identical against its
//! sequential counterpart, because thread count is a pure performance
//! knob in this codebase (see DESIGN.md §7).
//!
//! ```text
//! cargo run --release --example parallel_engine
//! ```

use rand::{rngs::StdRng, SeedableRng};
use rock::labeling::Labeler;
use rock::links_matrix::LinkMatrix;
use rock::neighbors::NeighborGraph;
use rock::rock::Rock;
use rock::similarity::{Jaccard, PointsWith};
use rock::governor::RunGovernor;
use rock_data::resilient::{label_stream_resilient, ResilientConfig, RetryPolicy};
use rock_data::{generate_baskets, write_baskets, SyntheticBasketSpec};
use std::io::BufReader;
use std::time::Duration;

fn main() {
    // Floor at 2 so the sharded kernels are exercised even on one core —
    // the point here is determinism, not speedup.
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get()).max(2);
    println!("worker threads: {threads}");

    // ~2.3k transactions in 10 clusters + outliers (§5.3, scaled down).
    let spec = SyntheticBasketSpec::paper_scaled(0.02);
    let data = generate_baskets(&spec, &mut StdRng::seed_from_u64(9));
    let txns = &data.transactions;
    println!("database: {} transactions over {} items", txns.len(), data.num_items);

    // --- stage 1: θ-neighbor graph. The scan tests only pairs that
    // share an item, with rows sharded across threads; the graph is the
    // same whatever the thread count.
    let theta = 0.5;
    let points = PointsWith::new(txns, Jaccard);
    let graph = NeighborGraph::build(&points, theta, threads);
    let reference = NeighborGraph::build(&points, theta, 1);
    assert_eq!(graph, reference, "parallel graph must be bit-identical");
    println!(
        "neighbor graph: average degree {:.1} (parallel == sequential ✓)",
        graph.average_degree()
    );

    // --- stage 2: links. The CSR LinkMatrix picks the row-wise sparse
    // kernel or §4.4 matrix squaring by predicted cost; both shard rows
    // across threads and assemble deterministically.
    let links = LinkMatrix::compute_auto(&graph, threads);
    assert_eq!(
        links,
        LinkMatrix::compute_auto(&graph, 1),
        "parallel links must be bit-identical to sequential"
    );
    println!(
        "links: {} linked pairs, {} total links (parallel == sequential ✓)",
        links.num_linked_pairs(),
        links.total_links()
    );

    // --- stage 3: the full pipeline with the threads knob. Same seed +
    // same data ⇒ the parallel run reproduces the sequential run exactly.
    // Both runs are governed by a generous wall-clock deadline that never
    // trips, and the report carries per-phase timings.
    let build = |threads: usize| {
        Rock::builder()
            .theta(theta)
            .clusters(spec.num_clusters())
            .sample_size(600)
            .labeling_fraction(0.3)
            .weed_outliers(3.0, 8)
            .seed(7)
            .threads(threads)
            .governor(RunGovernor::unlimited().with_time_budget(Duration::from_secs(600)))
            .build()
            .expect("valid configuration")
    };
    let (par, report) = build(threads)
        .run(txns, &Jaccard)
        .expect("a 600 s deadline never trips here");
    let (seq, _) = build(1)
        .run(txns, &Jaccard)
        .expect("a 600 s deadline never trips here");
    assert_eq!(par.labeling.assignments, seq.labeling.assignments);
    assert!(!report.degraded(), "no budget tripped, nothing degraded");
    println!(
        "pipeline: {} clusters from a {}-point sample (threads={} == threads=1 ✓, governed)",
        par.sample_run.clustering.num_clusters(),
        par.sample_indices.len(),
        threads
    );

    // --- stage 4: parallel resilient labeling of a disk-resident stream.
    // Workers score batches in parallel while checkpoints, quarantine and
    // salvage accounting stay byte-identical with a one-thread pass.
    let sample: Vec<_> = par.sample_indices.iter().map(|&i| txns[i].clone()).collect();
    let ftheta = (1.0 - theta) / (1.0 + theta);
    let labeler = Labeler::full(&sample, &par.sample_run.clustering.clusters, theta, ftheta);
    let mut image_bytes = Vec::new();
    write_baskets(&mut image_bytes, txns).expect("in-memory write");
    let image = String::from_utf8(image_bytes).expect("numeric baskets are ASCII");
    let config = ResilientConfig {
        retry: RetryPolicy::no_backoff(3),
        max_quarantine: 64,
        quarantine_detail: 4,
        checkpoint_every: 500,
    };
    let label = |threads| {
        label_stream_resilient(
            BufReader::new(image.as_bytes()),
            &labeler,
            &Jaccard,
            &config,
            None,
            |_| {},
            &RunGovernor::unlimited(),
            threads,
        )
        .expect("clean stream labels without interruption")
    };
    let par_run = label(threads);
    let seq_run = label(1);
    assert_eq!(par_run.labeling.assignments, seq_run.labeling.assignments);
    assert_eq!(par_run.checkpoint, seq_run.checkpoint);
    println!(
        "resilient labeling: {} records, {} outliers (threads={threads} == threads=1 ✓)",
        par_run.checkpoint.records_read, par_run.checkpoint.outliers
    );

    println!("\nOK: every parallel kernel reproduced its sequential result exactly");
}
