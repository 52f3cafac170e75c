//! Incremental-drift faithfulness and durability — the evolving-model
//! guarantees behind the incremental clustering core:
//!
//! 1. **Faithfulness**: absorbing a drifting basket stream through the
//!    [`IncrementalRockState`] update path stays within a pinned ARI band
//!    of refitting from scratch on the full data, scored against the
//!    generator's ground truth via `rock_eval::scoring`.
//! 2. **Kill/resume matrix**: a kill injected before *any* update — or
//!    inside a bounded re-merge — loses only the in-flight batch;
//!    replaying the update WAL over the base artifact reaches a
//!    bit-identical state (same canonical digest), and continuing from
//!    it converges to the uninterrupted final digest.
//! 3. **Versioned artifacts**: evolved (v2) artifacts round-trip
//!    save → load → update → save on disk; batch (v1) artifacts still
//!    load and open incrementally; v2 bytes under a v1 reader cap fail
//!    with the typed [`RockError::ArtifactVersion`], never
//!    `ArtifactCorrupt`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rock::governor::{Phase, RunGovernor};
use rock::points::Transaction;
use rock::rock::Rock;
use rock::similarity::Jaccard;
use rock::{
    ClusterModel, IncrementalRockState, ModelArtifact, RockError, RockModel, StalenessPolicy,
};
use rock_data::{generate_drift_stream, DriftStreamData, DriftStreamSpec};
use rock_eval::scoring::score_assignments;

/// The shared fixture: a seeded three-cluster basket stream whose
/// mixture mass drifts from cluster 0 toward cluster 2 across four
/// windows (window 0 is the fit-time batch, windows 1..4 arrive as
/// update batches).
fn stream() -> DriftStreamData {
    generate_drift_stream(&DriftStreamSpec::small(), &mut StdRng::seed_from_u64(41))
}

fn model_for(n: usize) -> RockModel<Jaccard> {
    let rock = Rock::builder()
        .theta(0.5)
        .clusters(3)
        .sample_size(n)
        .labeling_fraction(1.0)
        .seed(5)
        .hash_seed(9)
        .build()
        .expect("valid fixture config");
    RockModel::new(rock, Jaccard)
}

/// Fits the base model on window 0 and returns its servable artifact.
fn base_artifact(data: &DriftStreamData) -> ModelArtifact {
    let w0 = &data.windows[0].transactions;
    let (_fit, artifact) = model_for(w0.len())
        .fit_artifact(w0)
        .expect("base fit succeeds");
    artifact
}

/// Per-point assignments over all `n` stream points from an evolved
/// state (`None` = outlier), in global stream-point-id order.
fn state_assignments(state: &IncrementalRockState<Transaction>, n: usize) -> Vec<Option<usize>> {
    let mut out = vec![None; n];
    for (c, members) in state.clusters().iter().enumerate() {
        for &p in members {
            out[p as usize] = Some(c);
        }
    }
    out
}

#[test]
fn incremental_stream_stays_within_the_pinned_ari_band_of_scratch() {
    let data = stream();
    let all = data.all_transactions();
    let truth = data.all_labels();
    let artifact = base_artifact(&data);

    // Absorb windows 1..4 through the update path.
    let mut state = IncrementalRockState::from_artifact(&artifact, StalenessPolicy::default())
        .expect("base artifact opens incrementally");
    let governor = RunGovernor::unlimited();
    for window in &data.windows[1..] {
        state
            .update(&window.transactions, &Jaccard, &governor)
            .expect("update absorbs the window");
    }

    // Refit from scratch on the full stream.
    let scratch_fit = model_for(all.len()).fit(&all).expect("scratch fit succeeds");

    let inc = state_assignments(&state, all.len());
    let scratch = scratch_fit.assignments(all.len());
    let inc_truth = score_assignments(&inc, &truth);
    let scratch_truth = score_assignments(&scratch, &truth);
    let inc_scratch = score_assignments(&inc, &scratch);

    // Pinned faithfulness band: the evolved model tracks ground truth,
    // is close to the scratch refit, and gives up only a bounded amount
    // of ARI relative to it.
    assert!(
        inc_truth.ari >= 0.80,
        "incremental ARI vs truth fell to {}",
        inc_truth.ari
    );
    assert!(
        inc_scratch.ari >= 0.75,
        "incremental ARI vs scratch fell to {}",
        inc_scratch.ari
    );
    assert!(
        scratch_truth.ari - inc_truth.ari <= 0.10,
        "incremental gave up too much ARI: scratch {} vs incremental {}",
        scratch_truth.ari,
        inc_truth.ari
    );

    // The update provenance reflects the absorbed stream.
    let prov = state.provenance();
    assert_eq!(prov.updates_applied, 3);
    assert!(prov.points_absorbed > 100, "absorbed {}", prov.points_absorbed);
    assert!(prov.relabels > 0);
    assert!(prov.dirty_links > 0);
    assert!(
        prov.remerges >= 1,
        "the drifting stream must trip at least one re-merge"
    );
}

#[test]
fn kill_at_any_update_replays_to_the_bit_identical_state() {
    let data = stream();
    let artifact = base_artifact(&data);
    let updates: Vec<&[Transaction]> = data.windows[1..]
        .iter()
        .map(|w| w.transactions.as_slice())
        .collect();
    let unlimited = RunGovernor::unlimited();

    // Uninterrupted reference: the digest after each completed update.
    let mut reference =
        IncrementalRockState::<Transaction>::from_artifact(&artifact, StalenessPolicy::default())
            .expect("artifact opens");
    let mut digests = vec![reference.digest()];
    for batch in &updates {
        reference
            .update(batch, &Jaccard, &unlimited)
            .expect("reference update succeeds");
        digests.push(reference.digest());
    }
    let final_digest = *digests.last().expect("reference digests");

    // Kill matrix: inject the kill before update #n for every n.
    for kill_n in 0..updates.len() {
        let governor =
            RunGovernor::unlimited().with_kill_at(Phase::Labeling, kill_n as u64);
        let mut state = IncrementalRockState::<Transaction>::from_artifact(
            &artifact,
            StalenessPolicy::default(),
        )
        .expect("artifact opens");
        let mut killed = None;
        for batch in &updates {
            match state.update(batch, &Jaccard, &governor) {
                Ok(_) => {}
                Err(e) => {
                    killed = Some(e);
                    break;
                }
            }
        }
        let err = killed.expect("the injected kill fires");
        assert!(
            matches!(err, RockError::Interrupted { resumable: true, .. }),
            "kill at update {kill_n} surfaced as {err:?}"
        );

        // Replay the WAL the killed process left behind: exactly the
        // completed updates survive, bit-identically.
        let wal_bytes = state.wal().as_bytes();
        let (mut resumed, truncated) =
            IncrementalRockState::<Transaction>::resume(&artifact, wal_bytes, &Jaccard)
                .expect("replay succeeds");
        assert!(!truncated, "a clean kill leaves no torn tail");
        assert_eq!(
            resumed.digest(),
            digests[kill_n],
            "kill before update {kill_n} must replay to the state after {kill_n} updates"
        );

        // Continuing from the replayed state converges to the
        // uninterrupted final state.
        for batch in &updates[kill_n..] {
            resumed
                .update(batch, &Jaccard, &unlimited)
                .expect("continuation update succeeds");
        }
        assert_eq!(resumed.digest(), final_digest);
    }

    // A torn tail (partial final frame) is detected and truncated: the
    // replay reports it and lands on the last whole update.
    let full = reference.wal().as_bytes();
    let (torn_state, torn) = IncrementalRockState::<Transaction>::resume(
        &artifact,
        &full[..full.len() - 3],
        &Jaccard,
    )
    .expect("torn replay still succeeds");
    assert!(torn, "losing the frame tail must be reported as truncation");
    assert_eq!(torn_state.digest(), digests[updates.len() - 1]);
}

#[test]
fn kill_inside_the_remerge_loses_only_the_inflight_batch() {
    let data = stream();
    let artifact = base_artifact(&data);
    let batch = data.windows[1].transactions.as_slice();
    let unlimited = RunGovernor::unlimited();
    // An eager policy so the very first update trips a re-merge.
    let eager = StalenessPolicy {
        max_pending: 8,
        ..StalenessPolicy::default()
    };

    let mut reference =
        IncrementalRockState::<Transaction>::from_artifact(&artifact, eager)
            .expect("artifact opens");
    let fresh_digest = reference.digest();
    reference
        .update(batch, &Jaccard, &unlimited)
        .expect("reference update succeeds");
    assert!(
        reference.provenance().remerges >= 1,
        "fixture must actually re-merge"
    );
    let final_digest = reference.digest();

    // Kill inside the governed re-merge: the batch was labeled and
    // absorbed in memory, but the update never reached the WAL.
    let governor = RunGovernor::unlimited().with_kill_at(Phase::Merge, 0);
    let mut state = IncrementalRockState::<Transaction>::from_artifact(&artifact, eager)
        .expect("artifact opens");
    let err = state
        .update(batch, &Jaccard, &governor)
        .expect_err("the merge kill fires");
    assert!(
        matches!(err, RockError::Interrupted { resumable: true, .. }),
        "merge kill surfaced as {err:?}"
    );

    // The torn in-memory state is discarded; its WAL holds only the
    // base record, so the replay is the fresh state — and redoing the
    // batch converges to the reference.
    let (mut resumed, truncated) =
        IncrementalRockState::<Transaction>::resume(&artifact, state.wal().as_bytes(), &Jaccard)
            .expect("replay succeeds");
    assert!(!truncated);
    assert_eq!(resumed.digest(), fresh_digest);
    resumed
        .update(batch, &Jaccard, &unlimited)
        .expect("redone update succeeds");
    assert_eq!(resumed.digest(), final_digest);
}

#[test]
fn evolved_artifacts_round_trip_and_version_errors_stay_typed() {
    let data = stream();
    let artifact = base_artifact(&data);
    let governor = RunGovernor::unlimited();
    let dir = std::env::temp_dir().join(format!("rock-incdrift-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // A batch artifact stays version 1 on the wire and still loads.
    let v1_bytes = artifact.to_bytes();
    let v1 = ModelArtifact::from_bytes(&v1_bytes).expect("v1 bytes load");
    assert!(v1.update_state().is_none(), "batch artifacts carry no update state");
    let _opens = IncrementalRockState::<Transaction>::from_artifact(&v1, StalenessPolicy::default())
        .expect("a v1 artifact opens incrementally");

    // Evolve, then drive the full on-disk v2 round trip:
    // save → load → update → save → load.
    let mut state = IncrementalRockState::from_artifact(&artifact, StalenessPolicy::default())
        .expect("artifact opens");
    state
        .update(&data.windows[1].transactions, &Jaccard, &governor)
        .expect("first update");
    let path = dir.join("evolved.rockmodel");
    state
        .to_artifact()
        .expect("evolved artifact")
        .save(&path)
        .expect("evolved save");

    let loaded = ModelArtifact::load(&path).expect("evolved artifact loads");
    assert!(loaded.update_state().is_some(), "evolved artifacts carry update state");
    let mut reopened =
        IncrementalRockState::<Transaction>::from_artifact(&loaded, StalenessPolicy::default())
            .expect("evolved artifact reopens");
    assert_eq!(
        reopened.digest(),
        state.digest(),
        "the evolved state survives the artifact round trip bit-identically"
    );

    reopened
        .update(&data.windows[2].transactions, &Jaccard, &governor)
        .expect("update after reload");
    assert_eq!(reopened.provenance().updates_applied, 2);
    reopened
        .to_artifact()
        .expect("re-evolved artifact")
        .save(&path)
        .expect("re-save after update");
    let reloaded = ModelArtifact::load(&path).expect("re-saved artifact loads");
    let ext = reloaded.update_state().expect("update state persists");
    assert_eq!(ext.provenance.updates_applied, 2);

    // A v1-capped reader rejects v2 bytes with the typed version error,
    // never a corruption error.
    let v2_bytes = reloaded.to_bytes();
    match ModelArtifact::from_bytes_capped(&v2_bytes, 1) {
        Err(RockError::ArtifactVersion { found: 2, supported: 1 }) => {}
        other => panic!("v2-under-v1-cap must be ArtifactVersion, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
}
