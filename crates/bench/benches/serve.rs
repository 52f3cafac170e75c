//! Serving-path benchmarks: assign latency through a saved-then-loaded
//! model artifact (`rock_core::serve::AssignService`).
//!
//! The `single_query` benchmark is the one that matters operationally —
//! its p99 is the tail assign latency a caller sees per query. The
//! `deadline_degraded` variant pins the batch deadline to zero so every
//! sample exercises the centroid downshift; the demo run after
//! the group prints the resulting `ServeReport` note.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::points::Transaction;
use rock_core::serve::{AssignService, ServeConfig};
use rock_core::similarity::Jaccard;
use rock_core::{ModelArtifact, Rock, RockModel};
use rock_data::{generate_baskets, SyntheticBasketSpec};
use std::hint::black_box;
use std::time::Duration;

/// Fits a sampled ROCK model, round-trips it through the on-disk
/// artifact, and returns the reloaded artifact plus query points.
fn setup() -> (ModelArtifact, Vec<Transaction>) {
    let data = generate_baskets(
        &SyntheticBasketSpec::paper_scaled(0.02),
        &mut StdRng::seed_from_u64(12),
    );
    let rock = Rock::builder()
        .theta(0.5)
        .clusters(10)
        .sample_size(300)
        .labeling_fraction(0.3)
        .seed(42)
        .build()
        .expect("valid config");
    let model = RockModel::new(rock, Jaccard);
    let (_fit, artifact) = model
        .fit_artifact(&data.transactions)
        .expect("bench data fits");

    let path = std::env::temp_dir().join(format!("rock-serve-bench-{}.rockart", std::process::id()));
    artifact.save(&path).expect("artifact save");
    let loaded = ModelArtifact::load(&path).expect("artifact load");
    std::fs::remove_file(&path).ok();
    (loaded, data.transactions)
}

fn bench_serve(c: &mut Criterion) {
    let (artifact, queries) = setup();
    let service: AssignService<Transaction, Jaccard> =
        AssignService::new(&artifact, Jaccard, ServeConfig::default()).expect("service");
    let degraded_config = ServeConfig {
        batch_deadline: Some(Duration::ZERO),
    };
    let degraded: AssignService<Transaction, Jaccard> =
        AssignService::new(&artifact, Jaccard, degraded_config).expect("service");
    let batch: Vec<Transaction> = queries.iter().take(256).cloned().collect();

    let mut group = c.benchmark_group("serve_assign");
    // Per-query tail latency: each sample assigns one (rotating) query,
    // so the harness p99 IS the p99 assign latency.
    let mut i = 0usize;
    group.bench_function("single_query", |b| {
        b.iter(|| {
            let q = std::slice::from_ref(&queries[i % queries.len()]);
            i = i.wrapping_add(1);
            black_box(service.assign_batch(q).expect("assign"))
        })
    });
    group.bench_function("batch_256_full_reps", |b| {
        b.iter(|| black_box(service.assign_batch(&batch).expect("assign")))
    });
    group.bench_function("batch_256_deadline_degraded", |b| {
        b.iter(|| black_box(degraded.assign_batch(&batch).expect("assign")))
    });
    group.finish();

    // Degradation demo: a zero deadline must trip the centroid ladder,
    // and the ServeReport must say so.
    let report = degraded.assign_batch(&batch).expect("assign").report;
    let note = report
        .degraded
        .expect("zero batch deadline must record a degradation note");
    println!("serve degradation demo: {note}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(200);
    targets = bench_serve
}
criterion_main!(benches);
