//! The `sim_evals` work counter of the label and cluster phases, read
//! from `RunReport::phase_perf`.
//!
//! `rock_core::perf` counters are process-global, so this binary holds a
//! single `#[test]`: no other test in the process can add to the
//! counters while a phase is differenced. In both phases the counter
//! must be
//!
//! * non-zero — the serial kernels count too, not only the parallel ones;
//! * thread-count invariant — it counts evaluations, and both paths
//!   evaluate the same pairs;
//! * lower on the item-indexed path than on brute force, which evaluates
//!   every point against every representative (label) and every sample
//!   pair once (the neighbor scan inside cluster).

use rand::{rngs::StdRng, SeedableRng};
use rock::points::Transaction;
use rock::report::RunReport;
use rock::rock::Rock;
use rock::similarity::{Jaccard, Similarity};
use rock_data::{generate_baskets, SyntheticBasketSpec};

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

#[test]
fn label_phase_sim_evals_are_counted_exactly() {
    let data = generate_baskets(
        &SyntheticBasketSpec::paper_scaled(0.02),
        &mut StdRng::seed_from_u64(5),
    );
    type Fit = (Vec<Option<usize>>, RunReport, u64);
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
        let reps: usize = labeler.sets().iter().map(Vec::len).sum();
        (result.labeling.assignments, report, reps as u64)
    };
    let brute = |rock: &Rock| {
        let (result, report, labeler) = rock
            .session().fit_with_labeler(&data.transactions, &BruteJaccard)
            .unwrap();
        let reps: usize = labeler.sets().iter().map(Vec::len).sum();
        (result.labeling.assignments, report, reps as u64)
    };

    let (labels_1, report_1, _) = fit(1, &indexed);
    let (labels_2, report_2, _) = fit(2, &indexed);
    let (brute_labels_1, brute_report_1, reps) = fit(1, &brute);
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

    // The cluster phase's evaluations all come from the neighbor scan:
    // every sample pair once by brute force, the pairs sharing an item
    // on the indexed path. At two threads the 300-point sample is above
    // the parallel cutoff, so both builders are compared.
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
