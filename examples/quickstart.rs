//! Quickstart: cluster a toy market-basket data set with ROCK.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rock::points::{ItemCatalog, Transaction};
use rock::rock::Rock;
use rock::similarity::Jaccard;

fn main() {
    // Intern item names so clusters can be described in words.
    let mut items = ItemCatalog::new();
    let basket = |items: &mut ItemCatalog, names: &[&str]| -> Transaction {
        names.iter().map(|n| items.intern(n)).collect()
    };

    // Two buying patterns from the paper's introduction: young-family
    // staples and imported foods, plus one odd basket.
    let baskets = vec![
        basket(&mut items, &["diapers", "baby food", "toys", "milk"]),
        basket(&mut items, &["diapers", "baby food", "milk", "sugar"]),
        basket(&mut items, &["diapers", "toys", "milk", "butter"]),
        basket(&mut items, &["baby food", "toys", "sugar", "butter"]),
        basket(&mut items, &["french wine", "swiss cheese", "belgian chocolate"]),
        basket(&mut items, &["french wine", "swiss cheese", "italian pasta sauce"]),
        basket(&mut items, &["french wine", "belgian chocolate", "italian pasta sauce"]),
        basket(&mut items, &["swiss cheese", "belgian chocolate", "italian pasta sauce"]),
        basket(&mut items, &["lawnmower"]),
    ];

    // θ = 0.3: four-item baskets sharing two items (Jaccard 2/6 ≈ 0.33)
    // are neighbors.
    let rock = Rock::builder()
        .theta(0.3)
        .clusters(2)
        .build()
        .expect("valid configuration");
    let run = rock
        .cluster(&baskets, &Jaccard)
        .expect("Jaccard is finite; no budget is set");

    println!("found {} clusters:", run.clustering.num_clusters());
    for (c, members) in run.clustering.clusters.iter().enumerate() {
        println!("cluster {}:", c + 1);
        for &m in members {
            let names: Vec<&str> = baskets[m as usize]
                .items()
                .iter()
                .filter_map(|&i| items.name(i))
                .collect();
            println!("  {{{}}}", names.join(", "));
        }
    }
    println!("outliers (no neighbors): {:?}", run.clustering.outliers);
    assert_eq!(run.clustering.num_clusters(), 2);
    assert_eq!(run.clustering.outliers.len(), 1); // the lawnmower basket
}
