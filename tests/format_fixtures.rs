//! Byte-level format fixtures: the four persisted images of a fitted and
//! evolving ROCK model, pinned as files.
//!
//! `tests/fixtures/` holds one image of each persisted format:
//!
//! * `artifact_v1.rockart` — a version-1 `ROCKART1` artifact of a small
//!   basket fit ([`ModelArtifact::from_labeled`], hash seed set, a report
//!   with fixed counters and a degradation note);
//! * `merge.wal` — the `ROCKWAL1` merge log of [`Rock::cluster_wal`] on
//!   the same baskets with a snapshot every two merges (Begin, Merge,
//!   Snapshot and Finish records);
//! * `update.wal` — the `ROCKWAL1` update log of that model after three
//!   update batches under a policy that trips a re-merge;
//! * `artifact_v2.rockart` — the version-2 artifact of the evolved model.
//!
//! Each test checks that today's encoder reproduces its fixture byte
//! for byte, that today's loader accepts it, and that replaying the
//! update log over the v1 artifact reaches every logged state digest.
//!
//! **Fixtures are never regenerated.** They were written once and stand
//! for files already on disk. A format change (a new version, a dropped
//! field) adds new fixtures beside these and keeps asserting that the
//! old ones still load.

use rock::artifact::ModelArtifact;
use rock::engine::model::ModelFit;
use rock::governor::{DegradationNote, DegradationPolicy, Phase, RunGovernor, TripReason};
use rock::incremental::{IncrementalRockState, StalenessPolicy};
use rock::perf::PerfCounters;
use rock::points::Transaction;
use rock::report::RunReport;
use rock::rock::Rock;
use rock::similarity::Jaccard;
use rock::wal::{parse_update_wal, parse_wal, MergeWal};
use rock::Dendrogram;
use std::time::Duration;

const ARTIFACT_V1: &[u8] = include_bytes!("fixtures/artifact_v1.rockart");
const MERGE_WAL: &[u8] = include_bytes!("fixtures/merge.wal");
const UPDATE_WAL: &[u8] = include_bytes!("fixtures/update.wal");
const ARTIFACT_V2: &[u8] = include_bytes!("fixtures/artifact_v2.rockart");

/// The state digest of the v1 artifact opened under [`policy`].
const BASE_DIGEST: u32 = 0xf809_3906;
/// The state digest after the last logged update batch.
const FINAL_DIGEST: u32 = 0x53bf_3a72;

/// Every 3-subset of `items`, in lexicographic order.
fn triples(items: &[u32]) -> Vec<Transaction> {
    let mut out = Vec::new();
    for (a, &x) in items.iter().enumerate() {
        for (b, &y) in items.iter().enumerate().skip(a + 1) {
            for &z in items.iter().skip(b + 1) {
                out.push(Transaction::from([x, y, z]));
            }
        }
    }
    out
}

/// Three basket groups over disjoint item ranges, 10 baskets each.
fn baskets() -> Vec<Transaction> {
    let mut data = Vec::new();
    for base in [0u32, 100, 200] {
        let items: Vec<u32> = (base..base + 5).collect();
        data.extend(triples(&items));
    }
    data
}

/// Arrival batches: group members, a basket bridging two groups, and
/// strangers that share no item with any representative.
fn arrivals() -> Vec<Vec<Transaction>> {
    vec![
        vec![
            Transaction::from([0, 1, 2, 3]),
            Transaction::from([100, 101, 102, 103]),
            Transaction::from([900, 901]),
        ],
        vec![
            Transaction::from([0, 1, 100, 101]),
            Transaction::from([200, 201, 202, 203]),
            Transaction::from([1, 2, 3, 4]),
        ],
        vec![
            Transaction::from([101, 102, 103, 104]),
            Transaction::from([950]),
            Transaction::from([0, 2, 4]),
        ],
    ]
}

fn rock() -> Rock {
    Rock::builder()
        .theta(0.4)
        .clusters(3)
        .sample_size(baskets().len())
        .labeling_fraction(0.5)
        .seed(5)
        .hash_seed(9)
        .build()
        .expect("valid fixture config")
}

/// A report with fixed counters and no wall-clock values.
fn report() -> RunReport {
    let mut r = RunReport::new();
    r.records_read = 30;
    r.records_skipped = 1;
    r.quarantine(12, "unparseable item", 16);
    r.transient_io_errors = 2;
    r.io_retries = 2;
    r.outliers = 0;
    r.checkpoints_written = 3;
    r.resumed_from_offset = Some(4096);
    r.record_phase("sample", Duration::new(0, 1_500_000));
    r.record_phase("cluster", Duration::new(1, 250));
    r.record_phase_perf(
        "cluster",
        PerfCounters {
            pairs_emitted: 435,
            bytes_touched: 1 << 16,
            sim_evals: 435,
            scratch_reused: 6,
            ..PerfCounters::default()
        },
    );
    r.degraded = Some(DegradationNote {
        policy: DegradationPolicy::Subsample { fraction: 0.5 },
        phase: Phase::Links,
        reason: TripReason::MemoryBudgetExceeded,
        detail: "links over budget; refit on half the sample".into(),
    });
    r
}

fn v1_artifact() -> ModelArtifact {
    let rock = rock();
    let (result, _live_report, labeler) = rock
        .session()
        .fit_with_labeler(&baskets(), &Jaccard)
        .expect("fixture fit");
    let fit = ModelFit {
        clustering: result.full_clustering(),
        dendrogram: Dendrogram::from_run(&result.sample_run),
        report: report(),
    };
    let config = rock.config();
    ModelArtifact::from_labeled(
        "rock",
        &fit,
        &labeler,
        config.labeling_fraction,
        config.hash_seed,
    )
    .expect("fixture artifact")
}

fn merge_wal() -> MergeWal {
    let mut wal = MergeWal::new().with_snapshot_every(2);
    rock()
        .cluster_wal(&baskets(), &Jaccard, &mut wal)
        .expect("fixture run");
    wal
}

/// Trips a re-merge after every 4 absorbed points.
fn policy() -> StalenessPolicy {
    StalenessPolicy {
        max_pending: 4,
        max_dirty_fraction: 10.0,
        min_goodness: 0.0,
        max_merges: 4,
        min_clusters: 1,
        max_cluster_fraction: 1.0,
        rep_cap: 8,
    }
}

fn evolved(artifact: &ModelArtifact) -> IncrementalRockState<Transaction> {
    let mut state =
        IncrementalRockState::from_artifact(artifact, policy()).expect("artifact opens");
    let governor = RunGovernor::unlimited();
    for batch in arrivals() {
        state.update(&batch, &Jaccard, &governor).expect("update");
    }
    state
}

#[test]
fn v1_artifact_encoder_and_loader_match_the_fixture() {
    assert_eq!(v1_artifact().to_bytes(), ARTIFACT_V1);
    let loaded = ModelArtifact::from_bytes(ARTIFACT_V1).expect("v1 fixture loads");
    assert_eq!(loaded.to_bytes(), ARTIFACT_V1);
    assert_eq!(loaded.hash_seed(), Some(9));
    assert_eq!(loaded.report(), &report());
    assert!(loaded.dendrogram().is_some());
    assert!(loaded.update_state().is_none());
    let labeler = loaded.labeler::<Transaction>().expect("reps decode");
    assert_eq!(labeler.num_clusters(), loaded.clustering().num_clusters());
}

#[test]
fn merge_wal_encoder_and_parser_match_the_fixture() {
    assert_eq!(merge_wal().as_bytes(), MERGE_WAL);
    let replay = parse_wal(MERGE_WAL).expect("merge fixture parses");
    assert!(replay.finished && !replay.truncated && replay.has_snapshot());
    assert!(replay.num_merges() >= 2);
    let resumed = rock()
        .resume_cluster_snapshot(MERGE_WAL, None)
        .expect("snapshot resume");
    let live = rock().cluster(&baskets(), &Jaccard).expect("live run");
    assert_eq!(resumed.clustering, live.clustering);
}

#[test]
fn update_wal_replays_to_the_logged_digests() {
    let v1 = ModelArtifact::from_bytes(ARTIFACT_V1).expect("v1 fixture loads");
    let replay = parse_update_wal(UPDATE_WAL).expect("update fixture parses");
    assert_eq!(replay.num_updates(), arrivals().len());
    assert!(!replay.truncated);
    // `resume` checks the base digest and every logged post-batch digest.
    let (state, torn) =
        IncrementalRockState::<Transaction>::resume(&v1, UPDATE_WAL, &Jaccard).expect("resume");
    assert!(!torn);
    assert_eq!(state.digest(), FINAL_DIGEST);
    assert!(
        state.provenance().remerges >= 1,
        "policy must trip a re-merge"
    );
    assert_eq!(state.wal().as_bytes(), UPDATE_WAL);
    let base = IncrementalRockState::<Transaction>::from_artifact(&v1, policy()).expect("opens");
    assert_eq!(base.digest(), BASE_DIGEST);
    // The live update path writes the same log.
    assert_eq!(evolved(&v1).wal().as_bytes(), UPDATE_WAL);
}

#[test]
fn v2_artifact_encoder_and_loader_match_the_fixture() {
    let v1 = ModelArtifact::from_bytes(ARTIFACT_V1).expect("v1 fixture loads");
    let state = evolved(&v1);
    assert_eq!(
        state.to_artifact().expect("evolved").to_bytes(),
        ARTIFACT_V2
    );
    let loaded = ModelArtifact::from_bytes(ARTIFACT_V2).expect("v2 fixture loads");
    assert_eq!(loaded.to_bytes(), ARTIFACT_V2);
    assert!(loaded.update_state().is_some());
    let reopened =
        IncrementalRockState::<Transaction>::from_artifact(&loaded, StalenessPolicy::default())
            .expect("v2 fixture reopens");
    assert_eq!(reopened.digest(), FINAL_DIGEST);
    assert_eq!(reopened.policy(), policy());
}
