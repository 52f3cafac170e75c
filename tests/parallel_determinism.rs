//! Property tests for the parallel kernels' determinism contract: for any
//! input and any thread count, the neighbor, link and labeling kernels
//! return results bit-identical to a single-threaded run.
//!
//! This is the guarantee that lets `RockConfig::threads` be a pure
//! performance knob — turning it up can never change a clustering, a
//! label, a checkpoint or a quarantine decision. See DESIGN.md
//! ("Performance model") for why each kernel is shard-invariant by
//! construction; these tests enforce it empirically over random inputs.

use proptest::collection;
use proptest::prelude::*;
use rock::governor::RunGovernor;
use rock::labeling::Labeler;
use rock::links_matrix::LinkMatrix;
use rock::neighbors::NeighborGraph;
use rock::points::Transaction;
use rock::similarity::{Jaccard, PointsWith};
use rock_data::resilient::label_stream_resilient;
use rock_data::ResilientConfig;
use std::io::BufReader;

/// Thread counts the single-function labeling sweeps compare; 1 is the
/// serial reference.
const THREADS: [usize; 3] = [1, 2, 8];

/// A random basket set: up to `max_n` transactions over a small item
/// universe so θ-neighborhoods are non-trivial.
fn baskets(max_n: usize) -> impl Strategy<Value = Vec<Transaction>> {
    collection::vec(collection::vec(0u32..60, 1..6), 8..max_n)
        .prop_map(|items| items.into_iter().map(Transaction::new).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn neighbors_parallel_is_bit_identical(
        ts in baskets(150),
        theta in 0.05f64..0.95,
        threads in 2usize..9,
    ) {
        let points = PointsWith::new(&ts, Jaccard);
        let serial = NeighborGraph::build(&points, theta);
        let parallel = NeighborGraph::build_parallel(&points, theta, threads);
        prop_assert_eq!(&parallel, &serial);
    }

    #[test]
    fn link_kernels_are_thread_count_invariant(
        ts in baskets(120),
        theta in 0.1f64..0.9,
        threads in 2usize..9,
    ) {
        let graph = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), theta);
        let seq = LinkMatrix::compute_sparse(&graph, 1);
        prop_assert_eq!(&LinkMatrix::compute_sparse(&graph, threads), &seq);
        prop_assert_eq!(&LinkMatrix::compute_dense(&graph, threads), &seq);
        prop_assert_eq!(&LinkMatrix::compute_auto(&graph, threads), &seq);
    }

    #[test]
    fn labeling_parallel_is_bit_identical(
        ts in baskets(60),
        repeat in 1usize..30,
    ) {
        // The sample clusters: first half vs second half of the baskets.
        let mid = ts.len() / 2;
        let clusters = vec![
            (0..mid as u32).collect::<Vec<_>>(),
            (mid as u32..ts.len() as u32).collect::<Vec<_>>(),
        ];
        let labeler = Labeler::full(&ts, &clusters, 0.4, 1.0 / 3.0);
        // Tile the data past the serial-fallback cutoff when repeat is
        // large, so both the fallback and the true parallel path run.
        let data: Vec<Transaction> = ts
            .iter()
            .cycle()
            .take(ts.len() * repeat)
            .cloned()
            .collect();
        let label = |threads| {
            labeler
                .label_all(&data, &Jaccard, threads, &RunGovernor::unlimited())
                .unwrap()
        };
        let serial = label(1);
        for threads in THREADS {
            let parallel = label(threads);
            prop_assert_eq!(parallel, serial.clone());
        }
    }

    #[test]
    fn resilient_labeling_parallel_is_bit_identical(
        lines in collection::vec(0u32..6, 1..120),
        checkpoint_every in 1u64..40,
    ) {
        // Encode each draw as a stream line: labels, outliers, comments,
        // blanks and garbage all mixed in.
        let input: String = lines
            .iter()
            .map(|&k| match k {
                0 => "1 2 3\n",
                1 => "10 11 12\n",
                2 => "90 91 92\n", // outlier
                3 => "# comment\n",
                4 => "\n",
                _ => "not a number\n",
            })
            .collect();
        let sample = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([10, 11, 12]),
            Transaction::from([10, 11, 13]),
        ];
        let clusters = vec![vec![0, 1], vec![2, 3]];
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        let config = ResilientConfig {
            checkpoint_every,
            ..ResilientConfig::default()
        };
        let label = |threads| {
            let mut cps = Vec::new();
            let run = label_stream_resilient(
                BufReader::new(input.as_bytes()),
                &labeler,
                &Jaccard,
                &config,
                None,
                |cp| cps.push(cp.clone()),
                &RunGovernor::unlimited(),
                threads,
            );
            (run, cps)
        };
        for threads in THREADS {
            let (seq, seq_cps) = label(1);
            let (par, par_cps) = label(threads);
            prop_assert_eq!(&par_cps, &seq_cps);
            match (seq, par) {
                (Ok(s), Ok(p)) => {
                    prop_assert_eq!(p.labeling, s.labeling);
                    prop_assert_eq!(p.checkpoint, s.checkpoint);
                }
                // Garbage-heavy streams overflow the default quarantine cap;
                // the salvage state must still match exactly.
                (Err(s), Err(p)) => {
                    prop_assert_eq!(p.line, s.line);
                    prop_assert_eq!(p.checkpoint, s.checkpoint);
                    prop_assert_eq!(p.partial_assignments, s.partial_assignments);
                }
                (s, p) => {
                    return Err(TestCaseError::fail(format!(
                        "thread counts disagree on success: 1 thread ok={} {threads} threads ok={}",
                        s.is_ok(),
                        p.is_ok()
                    )));
                }
            }
        }
    }
}
