//! Clustering categorical records: discover mushroom species and
//! describe them by their frequent attribute values (paper §5.2,
//! Tables 3/8/9 in miniature).
//!
//! ```text
//! cargo run --release --example mushroom_species
//! ```

use rand::{rngs::StdRng, SeedableRng};
use rock::rock::Rock;
use rock::similarity::CategoricalJaccard;
use rock_data::{generate_mushrooms, Edibility, MushroomSpec};
use rock_eval::{cluster_profiles, ContingencyTable};

fn main() {
    // A 10%-scale mushroom data set (~815 records, 22 species blocks).
    let data = generate_mushrooms(
        &MushroomSpec::paper_scaled(0.1),
        &mut StdRng::seed_from_u64(8124),
    );
    println!("{} mushroom records, 22 categorical attributes", data.records.len());

    let rock = Rock::builder()
        .theta(0.8)
        .clusters(20)
        .build()
        .expect("valid configuration");
    let run = rock.cluster(&data.records, &CategoricalJaccard::default())
        .expect("categorical Jaccard is finite; no budget is set");

    let truth: Vec<usize> = data
        .labels
        .iter()
        .map(|e| usize::from(*e == Edibility::Poisonous))
        .collect();
    let pred = run.clustering.assignments(truth.len());
    let table = ContingencyTable::new(&pred, &truth);
    println!(
        "ROCK found {} clusters ({} pure w.r.t. edibility, purity {:.3})",
        table.num_clusters(),
        table.num_pure_clusters(),
        table.purity()
    );

    // Describe the two largest clusters the way the paper's appendix does.
    let profiles = cluster_profiles(&data.records, &data.schema, &run.clustering.clusters, 0.45);
    for (i, profile) in profiles.iter().take(2).enumerate() {
        println!("\ncluster {} ({} mushrooms):", i + 1, profile.size);
        println!("  {}", profile.render(&data.schema));
    }
    assert!(table.purity() > 0.95);
}
