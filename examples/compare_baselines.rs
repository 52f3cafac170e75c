//! ROCK vs the traditional algorithms on one categorical data set, scored
//! with external indices (adjusted Rand index and NMI) against ground
//! truth — a quantitative rendition of the paper's §5.2 comparison.
//!
//! ```text
//! cargo run --release --example compare_baselines
//! ```

use rand::{rngs::StdRng, SeedableRng};
use rock::rock::Rock;
use rock::similarity::{CategoricalJaccard, PointsWith};
use rock_baselines::{
    centroid_hierarchical, kmodes, records_to_vectors, similarity_linkage, CentroidConfig,
    KModesConfig, Linkage, LinkageConfig,
};
use rock_data::{generate_votes, Party, VotesSpec};
use rock_eval::{adjusted_rand_index, normalized_mutual_information};

fn main() {
    let data = generate_votes(&VotesSpec::paper(), &mut StdRng::seed_from_u64(84));
    let truth: Vec<usize> = data
        .labels
        .iter()
        .map(|p| usize::from(*p == Party::Democrat))
        .collect();

    // Clustered points only are scored; outliers get their own label.
    let score = |name: &str, assignments: Vec<Option<usize>>| {
        let flat: Vec<usize> = assignments.iter().map(|a| a.map_or(99, |c| c)).collect();
        let ari = adjusted_rand_index(&flat, &truth);
        let nmi = normalized_mutual_information(&flat, &truth);
        println!("{name:26} ARI {ari:5.3}  NMI {nmi:5.3}");
        ari
    };

    println!("435 congressional-vote records, 2 parties:\n");

    let rock = Rock::builder()
        .theta(0.73)
        .clusters(2)
        .weed_outliers(3.0, 5)
        .build()
        .expect("valid configuration");
    let run = rock
        .cluster(&data.records, &CategoricalJaccard::default())
        .expect("categorical Jaccard is finite; no budget is set");
    let rock_ari = score("ROCK (theta=0.73)", run.clustering.assignments(truth.len()));

    let vectors = records_to_vectors(&data.records, &data.schema);
    let centroid = centroid_hierarchical(&vectors, CentroidConfig::paper(2));
    let centroid_ari = score("centroid hierarchical", centroid.assignments(truth.len()));

    let sim = CategoricalJaccard::default();
    let avg = similarity_linkage(
        &PointsWith::new(&data.records, &sim),
        LinkageConfig::new(2, Linkage::Average),
    );
    score("group average", avg.assignments(truth.len()));

    let mst = similarity_linkage(
        &PointsWith::new(&data.records, &sim),
        LinkageConfig::new(2, Linkage::Single),
    );
    let mst_ari = score("single link (MST)", mst.assignments(truth.len()));

    let mut rng = StdRng::seed_from_u64(5);
    let km = kmodes(&data.records, KModesConfig::new(2), &mut rng);
    score("k-modes", km.clustering.assignments(truth.len()));

    assert!(
        rock_ari > mst_ari,
        "links must beat raw pairwise similarity on this data"
    );
    assert!(
        rock_ari > centroid_ari,
        "links must beat the centroid-based traditional algorithm (paper Table 2)"
    );
}
