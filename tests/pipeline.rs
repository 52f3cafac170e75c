//! End-to-end pipeline integration tests over the synthetic market-basket
//! data: sampling, clustering, labeling, outlier handling, scoring.

use rand::{rngs::StdRng, SeedableRng};
use rock::rock::Rock;
use rock::similarity::Jaccard;
use rock_data::{generate_baskets, SyntheticBasketSpec};
use rock_eval::{adjusted_rand_index, count_misclassified};

fn small_data(seed: u64) -> rock_data::SyntheticBasketData {
    generate_baskets(
        &SyntheticBasketSpec::paper_scaled(0.05),
        &mut StdRng::seed_from_u64(seed),
    )
}

#[test]
fn sampled_pipeline_recovers_ground_truth() {
    let data = small_data(1);
    let rock = Rock::builder()
        .theta(0.5)
        .clusters(10)
        .sample_size(800)
        .labeling_fraction(0.3)
        .weed_outliers(3.0, 8)
        .seed(42)
        .build()
        .unwrap();
    let result = rock.run(&data.transactions, &Jaccard).unwrap().0;
    let m = count_misclassified(&result.labeling.assignments, &data.labels);
    assert!(
        m.rate() < 0.02,
        "misclassification rate {} too high ({} of {})",
        m.rate(),
        m.misclassified,
        m.total
    );
    // Everything is either assigned or an outlier.
    assert_eq!(result.labeling.assignments.len(), data.transactions.len());
}

#[test]
fn quality_improves_with_sample_size() {
    // Table-6 shape. Sampling is stochastic, so compare the *average*
    // misclassification rate over several seeds at a clearly inadequate
    // vs a clearly adequate sample size.
    let data = small_data(2);
    let avg_rate = |sample: usize| -> f64 {
        (0..4)
            .map(|seed| {
                let rock = Rock::builder()
                    .theta(0.5)
                    .clusters(10)
                    .sample_size(sample)
                    .labeling_fraction(0.5)
                    .weed_outliers(3.0, 2)
                    .seed(seed)
                    .build()
                    .unwrap();
                let result = rock.run(&data.transactions, &Jaccard).unwrap().0;
                count_misclassified(&result.labeling.assignments, &data.labels).rate()
            })
            .sum::<f64>()
            / 4.0
    };
    let small = avg_rate(60);
    let large = avg_rate(900);
    assert!(
        large < small,
        "quality should improve with sample size: {small} -> {large}"
    );
}

#[test]
fn higher_theta_needs_larger_samples() {
    // §5.4: with a small sample, θ = 0.5 beats θ = 0.6 on this data
    // because cluster items overlap and transactions are small. Averaged
    // over seeds to de-noise the sampling.
    let data = small_data(3);
    let avg_rate = |theta: f64| -> f64 {
        (0..4)
            .map(|seed| {
                let rock = Rock::builder()
                    .theta(theta)
                    .clusters(10)
                    .sample_size(150)
                    .labeling_fraction(0.5)
                    .weed_outliers(3.0, 2)
                    .seed(100 + seed)
                    .build()
                    .unwrap();
                let result = rock.run(&data.transactions, &Jaccard).unwrap().0;
                count_misclassified(&result.labeling.assignments, &data.labels).rate()
            })
            .sum::<f64>()
            / 4.0
    };
    assert!(
        avg_rate(0.5) <= avg_rate(0.6),
        "theta 0.5 should dominate 0.6 at small samples"
    );
}

#[test]
fn clustering_all_points_matches_truth_by_ari() {
    let data = small_data(4);
    // Cluster everything (no sampling), compare partitions.
    let rock = Rock::builder()
        .theta(0.5)
        .clusters(10)
        .weed_outliers(3.0, 10)
        .build()
        .unwrap();
    let run = rock.cluster(&data.transactions, &Jaccard).unwrap();
    let pred = run.clustering.assignments(data.transactions.len());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (p, t) in pred.iter().zip(&data.labels) {
        if let (Some(p), Some(t)) = (p, t) {
            a.push(*p);
            b.push(*t);
        }
    }
    let ari = adjusted_rand_index(&a, &b);
    assert!(ari > 0.98, "ARI {ari}");
}

#[test]
fn outlier_transactions_mostly_detected() {
    let data = small_data(5);
    let rock = Rock::builder()
        .theta(0.55)
        .clusters(10)
        .weed_outliers(3.0, 10)
        .build()
        .unwrap();
    let run = rock.cluster(&data.transactions, &Jaccard).unwrap();
    let pred = run.clustering.assignments(data.transactions.len());
    // Of the true outliers, a majority should not be assigned to any
    // cluster (they were random item draws).
    let (mut outliers_caught, mut outliers_total) = (0usize, 0usize);
    for (p, t) in pred.iter().zip(&data.labels) {
        if t.is_none() {
            outliers_total += 1;
            if p.is_none() {
                outliers_caught += 1;
            }
        }
    }
    assert!(outliers_total > 0);
    assert!(
        outliers_caught * 2 > outliers_total,
        "caught {outliers_caught} of {outliers_total} outliers"
    );
}

#[test]
fn deterministic_with_seed_and_sensitive_to_seed() {
    let data = small_data(6);
    let run_with = |seed: u64| {
        Rock::builder()
            .theta(0.5)
            .clusters(10)
            .sample_size(300)
            .seed(seed)
            .build()
            .unwrap()
            .run(&data.transactions, &Jaccard).unwrap().0
    };
    let a = run_with(1);
    let b = run_with(1);
    assert_eq!(a.sample_indices, b.sample_indices);
    assert_eq!(a.labeling.assignments, b.labeling.assignments);
    let c = run_with(2);
    assert_ne!(a.sample_indices, c.sample_indices);
}
