//! Durable model artifact, end to end: fit a sampled ROCK model, save
//! it atomically, reload it — through a source that fails transiently
//! and through deliberate corruption — and serve assign queries with
//! deadline-triggered degradation.
//!
//! ```text
//! cargo run --release --example model_serve
//! ```
//!
//! The demo walks the full ladder of DESIGN.md §11: bit-identical
//! save/load round trip, typed rejection of a flipped bit, retry past a
//! transient fault burst, and a zero-deadline batch that downshifts to
//! centroid scoring instead of failing — with the downshift recorded in
//! the `ServeReport`.

use rock::points::Transaction;
use rock::rock::Rock;
use rock::similarity::Jaccard;
use rock::{AssignService, ModelArtifact, RockModel, ServeConfig};
use rock_data::faults::{flip_artifact_bit, FaultSpec, FaultyArtifactSource};
use std::time::Duration;

fn main() {
    // --- a small database: two buying patterns plus scattered outliers.
    let mut db: Vec<Transaction> = Vec::new();
    for i in 0..600u32 {
        db.push(match i % 10 {
            0..=3 => Transaction::from([1, 2, 3 + i % 2]),    // pattern A
            4..=7 => Transaction::from([10, 11, 12 + i % 2]), // pattern B
            _ => Transaction::from([500 + i, 700 + i]),       // outlier
        });
    }

    // --- fit the Fig.-2 pipeline and persist the fitted state.
    let rock = Rock::builder()
        .theta(0.4)
        .clusters(2)
        .sample_size(120)
        .labeling_fraction(0.5)
        .weed_outliers(1.5, 2)
        .seed(42)
        .build()
        .expect("valid config");
    let model = RockModel::new(rock, Jaccard);
    let (fit, artifact) = model.fit_artifact(&db).expect("fit");
    println!(
        "fit: {} clusters over {} transactions ({} byte artifact)",
        fit.clustering.num_clusters(),
        db.len(),
        artifact.to_bytes().len()
    );

    let path = std::env::temp_dir().join(format!("model-serve-{}.rockart", std::process::id()));
    artifact.save(&path).expect("atomic save");
    let reloaded = ModelArtifact::load(&path).expect("load");
    assert_eq!(reloaded, artifact);
    println!("save/load: round trip is bit-identical at {}", path.display());

    // --- corruption is rejected with a typed error, never a panic.
    let damaged = flip_artifact_bit(&artifact.to_bytes(), 7);
    let err = ModelArtifact::from_bytes(&damaged).expect_err("damage must not load");
    println!("corruption: one flipped bit -> {err}");

    // --- a flaky source: two transient read failures, then success.
    let spec = FaultSpec::none(11).transient(0.5, 2);
    let mut source = FaultyArtifactSource::new(artifact.to_bytes(), spec);
    let (service, retries): (AssignService<Transaction, Jaccard>, u64) =
        AssignService::from_source(&mut source, Jaccard, ServeConfig::default())
            .expect("retry budget out-lasts the burst");
    println!(
        "serve: service up after {retries} retried fetches ({} clusters)",
        service.num_clusters()
    );

    let batch = service.assign_batch(&db).expect("assign");
    println!(
        "assign: {} queries, {} assigned, {} outliers, degraded: {}",
        batch.report.queries,
        batch.report.assigned,
        batch.report.unassigned,
        if batch.report.degraded.is_none() { "no" } else { "yes" },
    );

    // --- deadline pressure: a zero budget trips on query 0; the batch
    // still completes, on centroid-of-representatives scoring.
    let pressured = ServeConfig {
        batch_deadline: Some(Duration::ZERO),
    };
    let service: AssignService<Transaction, Jaccard> =
        AssignService::new(&reloaded, Jaccard, pressured).expect("service");
    let batch = service.assign_batch(&db).expect("degraded batch completes");
    let note = batch.report.degraded.expect("zero deadline must degrade");
    println!("degradation: {note}");
    println!(
        "degradation: batch still answered {}/{} queries",
        batch.report.assigned + batch.report.unassigned,
        batch.report.queries
    );

    std::fs::remove_file(&path).ok();
    println!("done.");
}
