//! Cross-crate behaviour tests for the §2 baselines (DBSCAN, CLARANS)
//! against ROCK on shared data.

use rand::{rngs::StdRng, SeedableRng};
use rock::neighbors::NeighborGraph;
use rock::rock::Rock;
use rock::similarity::{Jaccard, PointsWith};
use rock_baselines::{clarans, dbscan, ClaransConfig, DbscanConfig};
use rock_data::{generate_baskets, SyntheticBasketSpec};
use rock_eval::adjusted_rand_index;

fn basket_data() -> rock_data::SyntheticBasketData {
    generate_baskets(
        &SyntheticBasketSpec::paper_scaled(0.02),
        &mut StdRng::seed_from_u64(9),
    )
}

fn dense_truth(labels: &[Option<usize>], outlier: usize) -> Vec<usize> {
    labels.iter().map(|l| l.map_or(outlier, |c| c)).collect()
}

#[test]
fn dbscan_close_but_below_rock_on_overlapping_baskets() {
    // The synthetic clusters share ~40% of their items, so
    // density-reachability chains a little across clusters (the §2
    // critique: "prone to errors if clusters are not well-separated"),
    // while links hold the boundary. DBSCAN lands high but below ROCK.
    let data = basket_data();
    let graph = NeighborGraph::build(&PointsWith::new(&data.transactions, Jaccard), 0.5, 1);
    let truth = dense_truth(&data.labels, 10);

    let db = dbscan(&graph, DbscanConfig::new(4));
    let db_pred = dense_truth(&db.assignments(truth.len()), db.num_clusters());
    let db_ari = adjusted_rand_index(&db_pred, &truth);

    let rock = Rock::builder()
        .theta(0.5)
        .clusters(10)
        .weed_outliers(3.0, 5)
        .build()
        .unwrap();
    let run = rock.cluster(&data.transactions, &Jaccard).unwrap();
    let rock_pred = dense_truth(
        &run.clustering.assignments(truth.len()),
        run.clustering.num_clusters(),
    );
    let rock_ari = adjusted_rand_index(&rock_pred, &truth);

    assert!(db_ari > 0.7, "DBSCAN ARI {db_ari}");
    assert!(rock_ari > 0.95, "ROCK ARI {rock_ari}");
    assert!(
        rock_ari > db_ari,
        "links should beat density-reachability here: {rock_ari} vs {db_ari}"
    );
}

#[test]
fn clarans_recovers_basket_clusters_roughly() {
    // CLARANS is a randomized local search over medoids — much weaker
    // than ROCK here, but it should still find most of the structure on
    // separated clusters.
    let data = basket_data();
    let pw = PointsWith::new(&data.transactions, Jaccard);
    let truth = dense_truth(&data.labels, 10);
    let mut rng = StdRng::seed_from_u64(3);
    let r = clarans(
        &pw,
        ClaransConfig {
            k: 10,
            num_local: 2,
            max_neighbor: 150,
        },
        &mut rng,
    );
    let pred = dense_truth(&r.clustering.assignments(truth.len()), 10);
    let ari = adjusted_rand_index(&pred, &truth);
    assert!(ari > 0.5, "CLARANS ARI {ari}");
}

#[test]
fn components_fast_path_agrees_with_rock_when_separated() {
    let data = basket_data();
    let graph = NeighborGraph::build(&PointsWith::new(&data.transactions, Jaccard), 0.6, 1);
    let comp = rock::neighbor_components(&graph, 5);
    let truth = dense_truth(&data.labels, 10);
    let pred = dense_truth(&comp.assignments(truth.len()), comp.num_clusters());
    let ari = adjusted_rand_index(&pred, &truth);
    assert!(ari > 0.9, "components ARI {ari}");
}
