//! The `sim_evals` work counter of the label and cluster phases, read
//! from `RunReport::phase_perf`.
//!
//! `rock_core::perf` counters belong to the thread that ran the work,
//! so other tests in the process cannot add to a phase's delta. In both
//! phases the counter must be
//!
//! * non-zero — the serial kernels count too, not only the parallel ones;
//! * thread-count invariant — it counts evaluations, and both paths
//!   evaluate the same pairs;
//! * lower on the item-indexed path than on brute force, which evaluates
//!   every point against every representative (label) and every sample
//!   pair once (the neighbor scan inside cluster).
//!
//! The resilient stream labeler scores through the same batch pass, so
//! streaming the data through the fit's labeler counts exactly the label
//! phase's evaluations, on either path, and its report's `label-stream`
//! phase carries that count.

use rand::{rngs::StdRng, SeedableRng};
use rock::governor::RunGovernor;
use rock::labeling::Labeler;
use rock::points::Transaction;
use rock::report::RunReport;
use rock::rock::Rock;
use rock::similarity::{Jaccard, Similarity};
use rock_data::resilient::{label_stream_resilient, ResilientConfig};
use rock_data::{generate_baskets, write_baskets, SyntheticBasketSpec};

/// Jaccard with the item-set capability hidden: labeling takes the
/// brute-force path.
struct BruteJaccard;

impl Similarity<Transaction> for BruteJaccard {
    fn similarity(&self, a: &Transaction, b: &Transaction) -> f64 {
        Jaccard.similarity(a, b)
    }
}

const SAMPLE: usize = 300;

fn sim_evals(report: &RunReport, phase: &str) -> u64 {
    report
        .phase_perf
        .iter()
        .find(|p| p.name == phase)
        .map_or(0, |p| p.counters.sim_evals)
}

/// The similarity evaluations one resilient stream pass over `data`
/// counts, at `threads` workers.
fn stream_sim_evals<S: Similarity<Transaction> + Sync>(
    labeler: &Labeler<Transaction>,
    data: &[Transaction],
    sim: &S,
    threads: usize,
) -> u64 {
    let mut text = Vec::new();
    write_baskets(&mut text, data).unwrap();
    let before = rock::perf::snapshot();
    let run = label_stream_resilient(
        text.as_slice(),
        labeler,
        sim,
        &ResilientConfig::default(),
        None,
        |_| {},
        &RunGovernor::unlimited(),
        threads,
    )
    .unwrap();
    assert_eq!(run.labeling.assignments.len(), data.len());
    let delta = rock::perf::snapshot().since(&before).sim_evals;
    assert_eq!(
        sim_evals(&run.report, "label-stream"),
        delta,
        "the stream report's phase_perf carries the pass's evaluations"
    );
    delta
}

#[test]
fn label_phase_sim_evals_are_counted_exactly() {
    let data = generate_baskets(
        &SyntheticBasketSpec::paper_scaled(0.02),
        &mut StdRng::seed_from_u64(5),
    );
    type Fit = (Vec<Option<usize>>, RunReport, Labeler<Transaction>);
    let fit = |threads: usize, measure: &dyn Fn(&Rock) -> Fit| {
        let rock = Rock::builder()
            .theta(0.5)
            .clusters(10)
            .sample_size(SAMPLE)
            .labeling_fraction(0.3)
            .seed(42)
            .threads(threads)
            .build()
            .unwrap();
        measure(&rock)
    };
    let indexed = |rock: &Rock| {
        let (result, report, labeler) =
            rock.session().fit_with_labeler(&data.transactions, &Jaccard).unwrap();
        (result.labeling.assignments, report, labeler)
    };
    let brute = |rock: &Rock| {
        let (result, report, labeler) = rock
            .session().fit_with_labeler(&data.transactions, &BruteJaccard)
            .unwrap();
        (result.labeling.assignments, report, labeler)
    };

    let (labels_1, report_1, labeler) = fit(1, &indexed);
    let (labels_2, report_2, _) = fit(2, &indexed);
    let (brute_labels_1, brute_report_1, brute_labeler) = fit(1, &brute);
    let reps = brute_labeler.sets().iter().map(Vec::len).sum::<usize>() as u64;
    let (brute_labels_2, brute_report_2, _) = fit(2, &brute);
    assert_eq!(labels_1, labels_2);
    assert_eq!(labels_1, brute_labels_1);
    assert_eq!(brute_labels_1, brute_labels_2);

    let indexed_evals = sim_evals(&report_1, "label");
    let brute_evals = sim_evals(&brute_report_1, "label");
    assert!(indexed_evals > 0, "indexed label phase counted nothing");
    assert_eq!(indexed_evals, sim_evals(&report_2, "label"));
    assert_eq!(brute_evals, sim_evals(&brute_report_2, "label"));
    assert_eq!(brute_evals, data.transactions.len() as u64 * reps);
    assert!(
        indexed_evals < brute_evals,
        "indexed {indexed_evals} vs brute force {brute_evals}"
    );
    for threads in [1, 2] {
        let stream = stream_sim_evals(&labeler, &data.transactions, &Jaccard, threads);
        assert_eq!(stream, indexed_evals, "threads = {threads}");
        let stream = stream_sim_evals(&brute_labeler, &data.transactions, &BruteJaccard, threads);
        assert_eq!(stream, brute_evals, "threads = {threads}");
    }

    // The cluster phase's evaluations all come from the neighbor scan:
    // every sample pair once by brute force, the pairs sharing an item
    // on the indexed path. At two threads the 300-point sample is above
    // the parallel cutoff, so one shard and two shards are compared.
    let indexed_evals = sim_evals(&report_1, "cluster");
    let brute_evals = sim_evals(&brute_report_1, "cluster");
    assert!(indexed_evals > 0, "indexed cluster phase counted nothing");
    assert_eq!(indexed_evals, sim_evals(&report_2, "cluster"));
    assert_eq!(brute_evals, sim_evals(&brute_report_2, "cluster"));
    let n = SAMPLE as u64;
    assert_eq!(brute_evals, n * (n - 1) / 2);
    assert!(
        indexed_evals < brute_evals,
        "indexed {indexed_evals} vs brute force {brute_evals}"
    );
}
