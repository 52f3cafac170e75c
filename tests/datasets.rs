//! Integration tests over the §5.1-style data sets (scaled) and the §5.3
//! market-basket data, each asserting the paper's qualitative findings.

use rand::{rngs::StdRng, SeedableRng};
use rock::governor::RunGovernor;
use rock::links_matrix::LinkMatrix;
use rock::neighbors::NeighborGraph;
use rock::points::Transaction;
use rock::rock::Rock;
use rock::sampling::sample_indices;
use rock::similarity::{CategoricalJaccard, Jaccard, MissingPolicy, PointsWith};
use rock_baselines::{centroid_hierarchical, records_to_vectors, CentroidConfig};
use rock_data::{
    generate_baskets, generate_funds, generate_mushrooms, generate_votes, Edibility, FundSpec,
    MushroomSpec, Party, SyntheticBasketSpec, VotesSpec,
};
use rock_eval::{adjusted_rand_index, ContingencyTable};

#[test]
fn votes_rock_finds_two_party_clusters() {
    let data = generate_votes(&VotesSpec::paper(), &mut StdRng::seed_from_u64(1984));
    let truth: Vec<usize> = data
        .labels
        .iter()
        .map(|p| usize::from(*p == Party::Democrat))
        .collect();
    let rock = Rock::builder()
        .theta(0.73)
        .clusters(2)
        .weed_outliers(3.0, 5)
        .build()
        .unwrap();
    let run = rock.cluster(&data.records, &CategoricalJaccard::default()).unwrap();
    assert_eq!(run.clustering.num_clusters(), 2, "two party clusters");
    let table = ContingencyTable::new(&run.clustering.assignments(truth.len()), &truth);
    // Table-2 shape: each cluster dominated by one party (≥ 85%).
    for c in 0..2 {
        let majority = *table.row(c).iter().max().unwrap();
        assert!(
            majority as f64 >= 0.85 * table.cluster_size(c) as f64,
            "cluster {c} not party-dominated: {:?}",
            table.row(c)
        );
    }
    // And the two clusters back different parties.
    let major0 = table.row(0).iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
    let major1 = table.row(1).iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
    assert_ne!(major0, major1);
}

#[test]
fn votes_rock_beats_traditional_on_ari() {
    let data = generate_votes(&VotesSpec::paper(), &mut StdRng::seed_from_u64(84));
    let truth: Vec<usize> = data
        .labels
        .iter()
        .map(|p| usize::from(*p == Party::Democrat))
        .collect();
    let flatten = |assignments: Vec<Option<usize>>| -> Vec<usize> {
        assignments.iter().map(|a| a.map_or(99, |c| c)).collect()
    };
    let rock = Rock::builder()
        .theta(0.73)
        .clusters(2)
        .weed_outliers(3.0, 5)
        .build()
        .unwrap();
    let rock_run = rock.cluster(&data.records, &CategoricalJaccard::default()).unwrap();
    let rock_ari =
        adjusted_rand_index(&flatten(rock_run.clustering.assignments(truth.len())), &truth);
    let vectors = records_to_vectors(&data.records, &data.schema);
    let trad = centroid_hierarchical(&vectors, CentroidConfig::paper(2), &RunGovernor::unlimited())
        .unwrap();
    let trad_ari = adjusted_rand_index(&flatten(trad.assignments(truth.len())), &truth);
    assert!(
        rock_ari > trad_ari,
        "ROCK ARI {rock_ari} vs traditional {trad_ari}"
    );
}

#[test]
fn mushroom_rock_clusters_are_pure_and_skewed() {
    let data = generate_mushrooms(
        &MushroomSpec::paper_scaled(0.1),
        &mut StdRng::seed_from_u64(8124),
    );
    let truth: Vec<usize> = data
        .labels
        .iter()
        .map(|e| usize::from(*e == Edibility::Poisonous))
        .collect();
    let rock = Rock::builder().theta(0.8).clusters(20).build().unwrap();
    let run = rock.cluster(&data.records, &CategoricalJaccard::default()).unwrap();
    let table = ContingencyTable::new(&run.clustering.assignments(truth.len()), &truth);
    // Table-3 shape: nearly all clusters pure…
    assert!(
        table.num_pure_clusters() + 1 >= table.num_clusters(),
        "{} of {} clusters pure",
        table.num_pure_clusters(),
        table.num_clusters()
    );
    assert!(table.purity() > 0.95, "purity {}", table.purity());
    // …with a wide variance in cluster sizes.
    let sizes = run.clustering.sizes();
    let (max, min) = (sizes[0], *sizes.last().unwrap());
    assert!(
        max >= 10 * min.max(1),
        "sizes not skewed enough: {sizes:?}"
    );
}

#[test]
fn mushroom_rock_tracks_species_better_than_traditional() {
    let data = generate_mushrooms(
        &MushroomSpec::paper_scaled(0.1),
        &mut StdRng::seed_from_u64(5),
    );
    let flatten = |assignments: Vec<Option<usize>>| -> Vec<usize> {
        assignments.iter().map(|a| a.map_or(999, |c| c)).collect()
    };
    let rock = Rock::builder().theta(0.8).clusters(20).build().unwrap();
    let run = rock.cluster(&data.records, &CategoricalJaccard::default()).unwrap();
    let rock_ari = adjusted_rand_index(
        &flatten(run.clustering.assignments(data.records.len())),
        &data.species,
    );
    let vectors = records_to_vectors(&data.records, &data.schema);
    let trad = centroid_hierarchical(&vectors, CentroidConfig::paper(20), &RunGovernor::unlimited())
        .unwrap();
    let trad_ari = adjusted_rand_index(
        &flatten(trad.assignments(data.records.len())),
        &data.species,
    );
    assert!(
        rock_ari > trad_ari,
        "ROCK species-ARI {rock_ari} vs traditional {trad_ari}"
    );
    assert!(rock_ari > 0.9, "ROCK species-ARI only {rock_ari}");
}

#[test]
fn funds_families_recovered_with_missing_values() {
    let spec = FundSpec::paper_scaled(0.3);
    let data = generate_funds(&spec, &mut StdRng::seed_from_u64(1993));
    let sim = CategoricalJaccard::new(MissingPolicy::CommonAttributes);
    let rock = Rock::builder().theta(0.8).clusters(20).build().unwrap();
    let run = rock.cluster(&data.records, &sim).unwrap();
    // Clusters of size ≥ 4 must be pure fund families.
    let mut families = 0;
    for cluster in &run.clustering.clusters {
        if cluster.len() < 4 {
            continue;
        }
        let mut groups: Vec<Option<usize>> = cluster
            .iter()
            .map(|&m| data.funds[m as usize].group)
            .collect();
        groups.sort();
        groups.dedup();
        assert_eq!(groups.len(), 1, "mixed family cluster: {cluster:?}");
        families += 1;
    }
    assert!(families >= 4, "only {families} family clusters found");
}

#[test]
fn funds_young_and_old_members_cluster_together() {
    // The §3.1.2 time-series policy must let a young fund join its
    // family despite the missing prefix.
    let spec = FundSpec::paper_scaled(0.3);
    let data = generate_funds(&spec, &mut StdRng::seed_from_u64(77));
    let sim = CategoricalJaccard::new(MissingPolicy::CommonAttributes);
    let rock = Rock::builder().theta(0.8).clusters(20).build().unwrap();
    let run = rock.cluster(&data.records, &sim).unwrap();
    let mut young_clustered = 0usize;
    for cluster in &run.clustering.clusters {
        if cluster.len() < 4 {
            continue;
        }
        for &m in cluster {
            if data.records[m as usize].num_present() < data.records[m as usize].arity() {
                young_clustered += 1;
            }
        }
    }
    assert!(
        young_clustered > 0,
        "no young fund was clustered with its family"
    );
}

/// Neighbor pairs (Σdeg / 2) and linked pairs of a random `n`-point
/// sample of `pool` at threshold `theta`.
fn fig5_counts(pool: &[Transaction], n: usize, theta: f64, seed: u64) -> (usize, usize) {
    let idx = sample_indices(pool.len(), n, &mut StdRng::seed_from_u64(seed));
    let sample: Vec<_> = idx.iter().map(|&i| pool[i].clone()).collect();
    let graph = NeighborGraph::build(&PointsWith::new(&sample, Jaccard), theta);
    let degrees: usize = (0..graph.len()).map(|i| graph.degree(i)).sum();
    let links = LinkMatrix::compute_auto(&graph, 1);
    (degrees / 2, links.num_linked_pairs())
}

#[test]
fn fig5_work_grows_with_sample_size_and_falls_with_theta() {
    // Figure 5's shape, on counters instead of wall time: doubling the
    // sample about quadruples the neighbor and link work, and a higher
    // θ leaves fewer neighbors and so fewer linked pairs. Each size
    // reuses one sample across θ, so its neighbor sets are nested.
    let spec = SyntheticBasketSpec::paper_scaled(0.05);
    let pool = generate_baskets(&spec, &mut StdRng::seed_from_u64(1)).transactions;
    let thetas = [0.5, 0.6, 0.7, 0.8];
    let counts: Vec<[(usize, usize); 4]> = [1_000usize, 2_000]
        .iter()
        .map(|&n| thetas.map(|theta| fig5_counts(&pool, n, theta, n as u64)))
        .collect();
    for (t, theta) in thetas.iter().enumerate() {
        let (small, large) = (counts[0][t], counts[1][t]);
        let pairs = [("neighbor pairs", small.0, large.0), ("linked pairs", small.1, large.1)];
        for (what, a, b) in pairs {
            let ratio = b as f64 / a as f64;
            assert!(
                (3.0..=6.0).contains(&ratio),
                "theta {theta}: {what} grew {ratio:.2}x ({a} -> {b}) when the sample doubled"
            );
        }
    }
    for (size, row) in [1_000, 2_000].iter().zip(&counts) {
        for w in row.windows(2) {
            assert!(
                w[1].0 < w[0].0 && w[1].1 < w[0].1,
                "sample {size}: counts did not fall as theta rose: {row:?}"
            );
        }
    }
}
