//! Evolving model, end to end: fit a ROCK model on the head of a
//! drifting basket stream, absorb the rest window by window through the
//! incremental update path, survive a mid-stream kill by replaying the
//! update WAL, and persist the evolved model as a version-2 artifact.
//!
//! ```text
//! cargo run --release --example incremental_stream
//! ```
//!
//! The demo walks DESIGN.md §14: open a fitted artifact as an
//! [`IncrementalRockState`], label arrivals against the per-cluster
//! representative pools, watch the staleness criterion trip a bounded
//! re-merge, and verify both durability stories — WAL replay to a
//! bit-identical digest and the v2 artifact round trip.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rock::governor::{Phase, RunGovernor};
use rock::points::Transaction;
use rock::rock::Rock;
use rock::similarity::Jaccard;
use rock::{
    IncrementalRockState, ModelArtifact, OnlineAssignService, RockModel, ServeConfig,
    StalenessPolicy,
};
use rock_data::{generate_drift_stream, DriftStreamSpec};

fn main() {
    // --- a drifting stream: three basket clusters whose mixture mass
    // shifts from cluster 0 toward cluster 2 across four windows.
    let spec = DriftStreamSpec::small();
    let data = generate_drift_stream(&spec, &mut StdRng::seed_from_u64(41));
    println!(
        "stream: {} windows x {} transactions, weights {:?} -> {:?}",
        spec.num_windows, spec.window_size, data.windows[0].weights, data.windows[3].weights
    );

    // --- fit the batch pipeline on window 0 and keep the servable
    // artifact (the representative sets are what updates label against).
    let w0 = &data.windows[0].transactions;
    let rock = Rock::builder()
        .theta(0.5)
        .clusters(3)
        .sample_size(w0.len())
        .labeling_fraction(1.0)
        .seed(5)
        .hash_seed(9)
        .build()
        .expect("valid config");
    let model = RockModel::new(rock, Jaccard);
    let (fit, artifact) = model.fit_artifact(w0).expect("base fit");
    println!(
        "fit: {} clusters over window 0 ({} outliers)",
        fit.clustering.num_clusters(),
        fit.clustering.outliers.len()
    );

    // --- absorb the remaining windows through the update path.
    let mut state =
        IncrementalRockState::<Transaction>::from_artifact(&artifact, StalenessPolicy::default())
            .expect("artifact opens incrementally");
    for (i, window) in data.windows[1..].iter().enumerate() {
        let outcome = state
            .update(&window.transactions, &Jaccard, model.rock().governor())
            .expect("update");
        println!(
            "update {}: absorbed {}, rejected {}, dirty links {}, re-merged {} pairs",
            i + 1,
            outcome.absorbed,
            outcome.rejected,
            outcome.dirty_links,
            outcome.remerged.len()
        );
    }
    let prov = state.provenance();
    println!(
        "provenance: {} updates, {} absorbed, {} re-merges, digest {:08x}",
        prov.updates_applied,
        prov.points_absorbed,
        prov.remerges,
        state.digest()
    );

    // --- crash drill: replay the update WAL over the base artifact and
    // land on the bit-identical evolved state.
    let wal_bytes = state.wal().as_bytes();
    let (replayed, truncated) =
        IncrementalRockState::<Transaction>::resume(&artifact, wal_bytes, &Jaccard)
            .expect("replay");
    assert!(!truncated);
    assert_eq!(replayed.digest(), state.digest());
    println!(
        "resume: {} WAL bytes replay to digest {:08x} (bit-identical)",
        wal_bytes.len(),
        replayed.digest()
    );

    // --- a kill mid-update loses only the in-flight batch.
    let killer = RunGovernor::unlimited().with_kill_at(Phase::Labeling, 0);
    let mut doomed = IncrementalRockState::<Transaction>::from_artifact(
        &artifact,
        StalenessPolicy::default(),
    )
    .expect("artifact opens");
    let err = doomed
        .update(&data.windows[1].transactions, &Jaccard, &killer)
        .expect_err("injected kill");
    println!("kill drill: {err}");

    // --- persist the evolved model as a v2 artifact and reopen it.
    let path = std::env::temp_dir().join(format!("inc-stream-{}.rockart", std::process::id()));
    state
        .to_artifact()
        .expect("evolved artifact")
        .save(&path)
        .expect("evolved save");
    let evolved = ModelArtifact::load(&path).expect("evolved load");
    let reopened =
        IncrementalRockState::<Transaction>::from_artifact(&evolved, StalenessPolicy::default())
            .expect("evolved artifact reopens");
    assert_eq!(reopened.digest(), state.digest());
    println!(
        "artifact: v2 round trip at {} preserves digest {:08x}",
        path.display(),
        reopened.digest()
    );

    // --- serve while evolving: the online service swaps snapshots
    // without blocking concurrent readers.
    let mut online: OnlineAssignService<Transaction, Jaccard> = OnlineAssignService::new(
        &artifact,
        Jaccard,
        ServeConfig::default(),
        StalenessPolicy::default(),
    )
    .expect("online service");
    let reader = online.service(); // a reader holds the old snapshot...
    let unlimited = RunGovernor::unlimited();
    online
        .absorb_batch(&data.windows[1].transactions, &unlimited)
        .expect("absorb");
    let batch = reader
        .assign_batch(&data.windows[2].transactions[..8])
        .expect("old snapshot still serves");
    println!(
        "online: absorbed a window while a held reader answered {} queries",
        batch.report.queries
    );

    std::fs::remove_file(&path).ok();
    println!("done.");
}
