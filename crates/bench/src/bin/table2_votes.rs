//! Table 2: clustering quality on the Congressional-votes data —
//! traditional centroid-based hierarchical clustering vs ROCK (θ = 0.73,
//! k = 2).
//!
//! With `--profiles`, also prints the Table-7-style frequent-value
//! characterisation of the two ROCK clusters.
//!
//! ```text
//! cargo run --release -p bench --bin table2_votes [--profiles] \
//!     [--theta 0.73] [--seed N] [--votes-file house-votes-84.data]
//! ```

use bench::{contingency_rows, print_table, rock_on_records, Args};
use rand::{rngs::StdRng, SeedableRng};
use rock_baselines::{centroid_hierarchical, records_to_vectors, CentroidConfig};
use rock_core::goodness::GoodnessKind;
use rock_core::similarity::MissingPolicy;
use rock_data::{generate_votes, Party, VotesSpec};
use rock_eval::cluster_profiles;

fn main() {
    let args = Args::from_env();
    let theta: f64 = args.get("theta", 0.73);
    let seed: u64 = args.get("seed", 1984);
    let file: String = args.get("votes-file", String::new());

    let data = if file.is_empty() {
        generate_votes(&VotesSpec::paper(), &mut StdRng::seed_from_u64(seed))
    } else {
        rock_data::parse_votes(&std::fs::read_to_string(&file).expect("read votes file"))
            .expect("parse votes file")
    };
    let truth: Vec<usize> = data
        .labels
        .iter()
        .map(|p| usize::from(*p == Party::Democrat))
        .collect();
    let class_names = ["No of Republicans", "No of Democrats"];

    // Traditional algorithm (§5): boolean 0/1 encoding, Euclidean
    // centroid distance, singletons weeded at n/3.
    let vectors = records_to_vectors(&data.records, &data.schema);
    let traditional = centroid_hierarchical(&vectors, CentroidConfig::paper(2));
    let mut header = vec!["Cluster No"];
    header.extend(class_names);
    print_table(
        "Table 2a: Traditional Hierarchical Clustering Algorithm",
        &header,
        &contingency_rows(&traditional, &truth, &class_names),
    );

    // ROCK at θ = 0.73 with §4.6 outlier handling: weed clusters with
    // fewer than 5 members once 3·k clusters remain (the paper eliminates
    // some records as outliers; cluster sizes don't sum to 435).
    let run = rock_on_records(
        &data.records,
        theta,
        2,
        MissingPolicy::Ignore,
        GoodnessKind::Normalized,
        1,
        Some((3.0, 5)),
    );
    print_table(
        &format!("Table 2b: ROCK (theta = {theta})"),
        &header,
        &contingency_rows(&run.clustering, &truth, &class_names),
    );

    let pred = run.clustering.assignments(truth.len());
    let table = rock_eval::ContingencyTable::new(&pred, &truth);
    println!(
        "\nROCK purity {:.3} over {} clustered records ({} outliers removed).",
        table.purity(),
        table.total_clustered(),
        run.clustering.outliers.len()
    );
    let tpred = traditional.assignments(truth.len());
    let ttable = rock_eval::ContingencyTable::new(&tpred, &truth);
    println!(
        "Traditional purity {:.3} over {} clustered records.",
        ttable.purity(),
        ttable.total_clustered()
    );
    println!(
        "Paper reference: traditional cluster 1 = 157 R / 52 D, cluster 2 = 11 R / 215 D; \
         ROCK cluster 1 = 144 R / 22 D, cluster 2 = 5 R / 201 D."
    );

    if args.flag("profiles") {
        // Table 7: frequent values of the two clusters.
        let profiles = cluster_profiles(&data.records, &data.schema, &run.clustering.clusters, 0.5);
        for (i, p) in profiles.iter().enumerate() {
            println!("\nCluster {} ({} members):", i + 1, p.size);
            println!("{}", p.render(&data.schema));
        }
    }
}
