//! Table 3: clustering quality on the mushroom data — traditional
//! centroid-based hierarchical clustering vs ROCK (θ = 0.8, k = 20).
//!
//! The headline result: ROCK finds (almost all) *pure* clusters with
//! strongly non-uniform sizes and stops at 21 clusters when links run
//! out; the traditional algorithm produces impure, uniformly sized
//! clusters.
//!
//! `--profiles` prints the Table-8/9-style characterisation of the
//! largest edible and poisonous clusters. `--goodness raw` runs the §4.2
//! ablation (cross-link count without the expected-links normalisation).
//! `--scale 0.25` runs on a proportionally smaller generated data set
//! (the default is the full 8,124 records; the traditional comparator is
//! the slow part).
//!
//! ```text
//! cargo run --release -p bench --bin table3_mushroom -- \
//!     [--scale 1.0] [--theta 0.8] [--k 20] [--profiles] \
//!     [--goodness normalized|raw] [--skip-traditional] \
//!     [--mushroom-file agaricus-lepiota.data]
//! ```

use bench::{contingency_rows, default_threads, print_table, rock_on_records, timed, Args};
use rand::{rngs::StdRng, SeedableRng};
use rock_baselines::{centroid_hierarchical, records_to_vectors, CentroidConfig};
use rock_core::goodness::GoodnessKind;
use rock_core::similarity::MissingPolicy;
use rock_data::{generate_mushrooms, Edibility, MushroomSpec};
use rock_eval::{cluster_profiles, ContingencyTable};

fn main() {
    let args = Args::from_env();
    let scale: f64 = args.get("scale", 1.0);
    let theta: f64 = args.get("theta", 0.8);
    let k: usize = args.get("k", 20);
    let seed: u64 = args.get("seed", 8124);
    let goodness: String = args.get("goodness", "normalized".to_owned());
    let file: String = args.get("mushroom-file", String::new());

    let data = if file.is_empty() {
        let spec = if (scale - 1.0).abs() < 1e-9 {
            MushroomSpec::paper()
        } else {
            MushroomSpec::paper_scaled(scale)
        };
        generate_mushrooms(&spec, &mut StdRng::seed_from_u64(seed))
    } else {
        rock_data::parse_mushrooms(&std::fs::read_to_string(&file).expect("read mushroom file"))
            .expect("parse mushroom file")
    };
    println!(
        "{} records ({} edible, {} poisonous)",
        data.records.len(),
        data.labels.iter().filter(|e| **e == Edibility::Edible).count(),
        data.labels.iter().filter(|e| **e == Edibility::Poisonous).count()
    );
    let truth: Vec<usize> = data
        .labels
        .iter()
        .map(|e| usize::from(*e == Edibility::Poisonous))
        .collect();
    let class_names = ["No of Edible", "No of Poisonous"];
    let mut header = vec!["Cluster No"];
    header.extend(class_names);

    if !args.flag("skip-traditional") {
        let vectors = records_to_vectors(&data.records, &data.schema);
        let (traditional, secs) =
            timed(|| centroid_hierarchical(&vectors, CentroidConfig::paper(k)));
        print_table(
            &format!("Table 3a: Traditional Hierarchical Algorithm ({secs:.1}s)"),
            &header,
            &contingency_rows(&traditional, &truth, &class_names),
        );
        let pred = traditional.assignments(truth.len());
        let t = ContingencyTable::new(&pred, &truth);
        println!(
            "Traditional: {} clusters, {} pure, purity {:.3}",
            t.num_clusters(),
            t.num_pure_clusters(),
            t.purity()
        );
    }

    let kind = match goodness.as_str() {
        "normalized" => GoodnessKind::Normalized,
        "raw" => GoodnessKind::RawLinks,
        other => panic!("unknown goodness kind {other:?}"),
    };
    let (run, secs) = timed(|| {
        rock_on_records(
            &data.records,
            theta,
            k,
            MissingPolicy::Ignore,
            kind,
            default_threads(),
            None,
        )
    });
    print_table(
        &format!("Table 3b: ROCK (theta = {theta}, goodness = {goodness}, {secs:.1}s)"),
        &header,
        &contingency_rows(&run.clustering, &truth, &class_names),
    );
    let pred = run.clustering.assignments(truth.len());
    let t = ContingencyTable::new(&pred, &truth);
    println!(
        "ROCK: {} clusters ({} requested), {} pure, purity {:.3}, sizes {:?}",
        t.num_clusters(),
        k,
        t.num_pure_clusters(),
        t.purity(),
        run.clustering.sizes()
    );
    println!(
        "Paper reference: ROCK found 21 clusters, all pure except one (32 edible / 72 \
         poisonous); sizes ranged from 8 to 1728. The traditional algorithm produced 20 \
         impure clusters with sizes mostly between 200 and 400."
    );

    if args.flag("profiles") {
        // Tables 8/9: characteristics of the largest edible and largest
        // poisonous clusters.
        let profiles =
            cluster_profiles(&data.records, &data.schema, &run.clustering.clusters, 0.10);
        let majority_poisonous = |c: &[u32]| {
            let p = c.iter().filter(|&&m| truth[m as usize] == 1).count();
            2 * p > c.len()
        };
        for wanted in [false, true] {
            let best = run
                .clustering
                .clusters
                .iter()
                .enumerate()
                .filter(|(_, c)| majority_poisonous(c) == wanted)
                .max_by_key(|(_, c)| c.len());
            if let Some((i, c)) = best {
                println!(
                    "\nLargest {} cluster (cluster {}, {} mushrooms):",
                    if wanted { "poisonous" } else { "edible" },
                    i + 1,
                    c.len()
                );
                println!("{}", profiles[i].render(&data.schema));
            }
        }
    }
}
