//! Durability and serve-path integration tests for the fitted-model
//! artifact (`rock::artifact`) and the corruption-tolerant assign
//! service (`rock::serve`).
//!
//! Three contracts are enforced end to end:
//!
//! 1. **Bit-identity**: labels produced through a saved-then-reloaded
//!    artifact are byte-for-byte the labels of the live fit, for every
//!    thread count and hash seed — and the artifact *bytes* themselves
//!    are thread-count invariant.
//! 2. **Corruption totality**: flipping any single bit or truncating
//!    the image at any offset yields a typed [`RockError`], never a
//!    panic and never a silently different clustering.
//! 3. **Crash atomicity**: a kill between tmp-write and rename leaves
//!    the previous artifact loadable (and servable through the retrying
//!    source).

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use rock::artifact::ModelArtifact;
use rock::engine::model::ModelFit;
use rock::governor::RunGovernor;
use rock::labeling::Labeler;
use rock::points::Transaction;
use rock::rock::Rock;
use rock::serve::{AssignService, ServeConfig};
use rock::similarity::Jaccard;
use rock::{ClusterModel, RockError, RockModel};
use rock_baselines::{KMeansConfig, KMeansModel};
use rock_data::faults::{flip_artifact_bit, truncate_artifact, FaultSpec, FaultyArtifactSource};
use rock_data::{generate_baskets, SyntheticBasketSpec};
use std::path::PathBuf;

fn small_data(seed: u64) -> rock_data::SyntheticBasketData {
    generate_baskets(
        &SyntheticBasketSpec::paper_scaled(0.02),
        &mut StdRng::seed_from_u64(seed),
    )
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rock-artifact-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A small but real fitted artifact: sampled pipeline, drawn labeling
/// sets, dendrogram-bearing report provenance.
fn fitted_artifact(threads: usize, hash_seed: Option<u64>) -> (ModelArtifact, Vec<Transaction>) {
    let data = small_data(7);
    let mut builder = Rock::builder()
        .theta(0.5)
        .clusters(10)
        .sample_size(300)
        .labeling_fraction(0.3)
        .seed(42)
        .threads(threads);
    if let Some(h) = hash_seed {
        builder = builder.hash_seed(h);
    }
    let rock = builder.build().unwrap();
    let model = RockModel::new(rock, Jaccard);
    let (_fit, artifact) = model.fit_artifact(&data.transactions).unwrap();
    (artifact, data.transactions)
}

#[test]
fn fit_save_load_assign_is_bit_identical_across_threads_and_seeds() {
    let data = small_data(7);
    for hash_seed in [None, Some(0xDEAD_BEEF_u64)] {
        let mut per_thread_bytes = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut builder = Rock::builder()
                .theta(0.5)
                .clusters(10)
                .sample_size(300)
                .labeling_fraction(0.3)
                .seed(42)
                .threads(threads);
            if let Some(h) = hash_seed {
                builder = builder.hash_seed(h);
            }
            let rock = builder.build().unwrap();
            let (result, report, labeler) =
                rock.session().fit_with_labeler(&data.transactions, &Jaccard).unwrap();
            let fit = ModelFit {
                clustering: result.full_clustering(),
                dendrogram: None,
                report,
            };
            let artifact =
                ModelArtifact::from_labeled("rock", &fit, &labeler, 0.3, hash_seed).unwrap();

            let path = scratch(&format!("bitid-t{threads}-h{hash_seed:?}.rockart"));
            artifact.save(&path).unwrap();
            let loaded = ModelArtifact::load(&path).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(loaded, artifact);

            // Labels through the reloaded artifact, at this thread
            // count, are bit-identical to the live run's labeling.
            let served: Labeler<Transaction> = loaded.labeler().unwrap();
            let relabeled = served
                .label_all(&data.transactions, &Jaccard, threads, &RunGovernor::unlimited())
                .unwrap();
            assert_eq!(relabeled.assignments, result.labeling.assignments);
            assert_eq!(relabeled.cluster_counts, result.labeling.cluster_counts);
            assert_eq!(relabeled.num_outliers, result.labeling.num_outliers);

            // Provenance timings are wall-clock and vary run to run;
            // everything else must be byte-identical across threads.
            let mut scrubbed = fit.clone();
            scrubbed.report = rock::report::RunReport::new();
            let canonical =
                ModelArtifact::from_labeled("rock", &scrubbed, &labeler, 0.3, hash_seed).unwrap();
            per_thread_bytes.push(canonical.to_bytes());
        }
        // Threads are a pure performance knob: the persisted artifact
        // (timings aside) is byte-identical across thread counts.
        assert_eq!(per_thread_bytes[0], per_thread_bytes[1]);
        assert_eq!(per_thread_bytes[0], per_thread_bytes[2]);
    }
}

#[test]
fn every_bit_flip_of_a_real_artifact_is_a_typed_error() {
    let (artifact, _) = fitted_artifact(2, Some(11));
    let bytes = artifact.to_bytes();
    for i in 0..bytes.len() {
        for bit in 0..8u32 {
            let mut bad = bytes.clone();
            bad[i] ^= 1u8 << bit;
            match ModelArtifact::from_bytes(&bad) {
                Err(
                    RockError::ArtifactCorrupt { .. }
                    | RockError::ArtifactVersion { .. }
                    | RockError::ArtifactMismatch { .. },
                ) => {}
                Err(other) => panic!("flip byte {i} bit {bit}: unexpected error {other}"),
                Ok(_) => panic!("flip byte {i} bit {bit}: artifact loaded successfully"),
            }
        }
    }
}

#[test]
fn every_truncation_of_a_real_artifact_is_a_typed_error() {
    let (artifact, _) = fitted_artifact(1, None);
    let bytes = artifact.to_bytes();
    for cut in 0..bytes.len() {
        match ModelArtifact::from_bytes(&bytes[..cut]) {
            Err(RockError::ArtifactCorrupt { .. }) => {}
            Err(other) => panic!("truncate at {cut}: unexpected error {other}"),
            Ok(_) => panic!("truncate at {cut}: artifact loaded successfully"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The rock-data artifact injectors (seeded single-bit flip and
    // seeded truncation) can never smuggle a damaged image past the
    // loader, whatever the seed.
    #[test]
    fn seeded_artifact_damage_is_always_typed(seed in any::<u64>()) {
        // Deterministic small artifact, built once per process.
        use std::sync::OnceLock;
        static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
        let bytes = BYTES.get_or_init(|| fitted_artifact(1, Some(3)).0.to_bytes());

        let flipped = flip_artifact_bit(bytes, seed);
        prop_assert!(matches!(
            ModelArtifact::from_bytes(&flipped),
            Err(RockError::ArtifactCorrupt { .. }
                | RockError::ArtifactVersion { .. }
                | RockError::ArtifactMismatch { .. })
        ));

        let cut = truncate_artifact(bytes, seed);
        prop_assert!(matches!(
            ModelArtifact::from_bytes(&cut),
            Err(RockError::ArtifactCorrupt { .. })
        ));
    }
}

#[test]
fn serve_through_flaky_source_matches_live_labeling() {
    let (artifact, transactions) = fitted_artifact(2, Some(5));
    // Transient faults on fetch: the default retry budget (3) out-lasts
    // a burst of 2, so the service comes up and serves exact labels.
    let spec = FaultSpec::none(1).transient(0.5, 2);
    let mut source = FaultyArtifactSource::new(artifact.to_bytes(), spec);
    let (service, _retries): (AssignService<Transaction, Jaccard>, u64) =
        AssignService::from_source(&mut source, Jaccard, ServeConfig::default()).unwrap();

    let live: Labeler<Transaction> = artifact.labeler().unwrap();
    let queries = &transactions[..200.min(transactions.len())];
    let batch = service.assign_batch(queries).unwrap();
    let expected: Vec<Option<usize>> = queries
        .iter()
        .map(|q| live.label_point(q, &Jaccard))
        .collect();
    assert_eq!(batch.assignments, expected);
    assert_eq!(batch.report.queries, queries.len() as u64);
    assert!(batch.report.degraded.is_none());
}

#[test]
fn crash_between_write_and_rename_keeps_serving_previous_model() {
    let (v1, transactions) = fitted_artifact(1, Some(9));
    let path = scratch("crashed-upgrade.rockart");
    v1.save(&path).unwrap();

    // Simulate the crash: a half-written tmp file next to the artifact,
    // rename never executed.
    let torn: Vec<u8> = v1.to_bytes().into_iter().take(37).collect();
    let mut tmp_name = path.file_name().unwrap().to_os_string();
    tmp_name.push(".tmp");
    std::fs::write(path.with_file_name(tmp_name), torn).unwrap();

    let loaded = ModelArtifact::load(&path).unwrap();
    assert_eq!(loaded, v1, "previous artifact must stay loadable");

    let service: AssignService<Transaction, Jaccard> =
        AssignService::new(&loaded, Jaccard, ServeConfig::default()).unwrap();
    let batch = service.assign_batch(&transactions[..50]).unwrap();
    assert_eq!(batch.report.queries, 50);
    std::fs::remove_file(&path).ok();
}

#[test]
fn cluster_model_save_load_round_trips_for_baselines() {
    // A geometric baseline through the generic ClusterModel save/load
    // provided methods: clustering, dendrogram and report survive; a
    // model-name mismatch is typed.
    let data: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            let c = f64::from(i % 2) * 10.0;
            vec![c + f64::from(i) * 0.01, c - f64::from(i) * 0.01]
        })
        .collect();
    let model = KMeansModel::new(KMeansConfig::new(2), 42);
    let fit = model.fit(&data).unwrap();

    let path = scratch("kmeans.rockart");
    model.save(&fit, &path).unwrap();
    let reloaded = model.load(&path).unwrap();
    assert_eq!(reloaded.clustering, fit.clustering);
    assert_eq!(reloaded.report, fit.report);
    assert!(reloaded.dendrogram.is_none());

    // Loading under the wrong model is refused, not misinterpreted.
    let rock_model = RockModel::new(Rock::builder().build().unwrap(), Jaccard);
    let err = <RockModel<Jaccard> as ClusterModel<[Transaction]>>::load(&rock_model, &path);
    assert!(matches!(err, Err(RockError::ArtifactMismatch { detail })
        if detail.contains("kmeans")));
    std::fs::remove_file(&path).ok();
}
