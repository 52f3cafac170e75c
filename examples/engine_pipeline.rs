//! The staged engine, driven three ways.
//!
//! The same clustering runs (1) through the uniform [`ClusterModel`]
//! fit contract (ROCK and a traditional baseline side by side), (2)
//! composed stage by stage on a [`rock::Pipeline`] session, and (3)
//! through the packaged `Rock::cluster` driver — and the staged and
//! packaged runs are asserted bit-identical, exiting non-zero on any
//! divergence.
//!
//! ```text
//! cargo run --release --example engine_pipeline
//! ```

use rock::engine::{ClusterModel, LinksStage, MergeStage, NeighborsStage};
use rock::points::Transaction;
use rock::rock::Rock;
use rock::similarity::{Jaccard, PointsWith};
use rock::{ConstantF, Goodness, RockAlgorithm, RockModel};
use rock_baselines::{transactions_to_vectors, CentroidConfig, CentroidModel};

/// Three disjoint basket populations: 3-subsets of seven items per
/// cluster, item universes 0–6, 100–106, 200–206.
fn baskets(n_each: usize) -> Vec<Transaction> {
    let mut data = Vec::new();
    for c in 0..3u32 {
        let base = c * 100;
        let mut i = 0;
        'outer: for x in 0..7u32 {
            for y in (x + 1)..7 {
                for z in (y + 1)..7 {
                    data.push(Transaction::from([base + x, base + y, base + z]));
                    i += 1;
                    if i >= n_each {
                        break 'outer;
                    }
                }
            }
        }
    }
    data
}

fn engine() -> Rock {
    Rock::builder()
        .theta(0.4)
        .clusters(3)
        .seed(7)
        .build()
        .expect("valid configuration")
}

/// Any model — ROCK or baseline — fits through the same entry point.
fn fit_and_report<D: ?Sized, M: ClusterModel<D>>(model: &M, data: &D) -> usize {
    let fit = model.fit(data).expect("ungoverned fit");
    println!(
        "  {:>8}: {} clusters, {} outliers, phases [{}]",
        model.name(),
        fit.clustering.num_clusters(),
        fit.clustering.outliers.len(),
        fit.report
            .phases
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
            .join(", "),
    );
    fit.clustering.num_clusters()
}

fn main() {
    let data = baskets(18);

    // 1. The uniform ClusterModel contract: ROCK and a traditional
    //    baseline fit through the identical generic call.
    println!("models through the ClusterModel trait:");
    let rock_model = RockModel::new(engine(), Jaccard);
    let k_rock = fit_and_report(&rock_model, &data[..]);
    let vectors = transactions_to_vectors(&data, 207);
    let centroid = CentroidModel::new(CentroidConfig::plain(3));
    let k_centroid = fit_and_report(&centroid, &vectors[..]);
    assert_eq!(k_rock, 3);
    assert_eq!(k_centroid, 3);

    // 2. The same merge, composed stage by stage on a session pipeline:
    //    θ-neighbor graph → link matrix → governed agglomeration. Each
    //    `stage` call places one governor checkpoint at the boundary.
    let rock = engine();
    let (theta, threads, k) = (
        rock.config().theta,
        rock.config().threads,
        rock.config().k,
    );
    let goodness = Goodness::new(
        theta,
        ConstantF(rock.config().ftheta),
        rock.config().goodness_kind,
    );
    let algorithm = RockAlgorithm::new(goodness, k, rock.config().outliers);
    let mut session = rock.session();
    let pw = PointsWith::new(&data, Jaccard);
    let graph = session
        .stage(NeighborsStage {
            sim: &pw,
            theta,
            threads,
        })
        .expect("ungoverned stage");
    let links = session
        .stage(LinksStage {
            graph: &graph,
            threads,
        })
        .expect("ungoverned stage");
    let staged = session
        .stage(MergeStage {
            graph: &graph,
            links: Some(&links),
            algorithm,
            threads,
        })
        .expect("ungoverned stage");

    // 3. The packaged driver runs the same stages internally — the two
    //    paths must agree bit for bit, merge trace included.
    let packaged = engine()
        .cluster(&data, &Jaccard)
        .expect("an unlimited governor never trips");
    assert_eq!(staged.clustering, packaged.clustering);
    assert_eq!(staged.merges, packaged.merges);
    println!(
        "staged composition == packaged driver: {} clusters, {} merges — bit-identical",
        staged.clustering.num_clusters(),
        staged.merges.len(),
    );
}
