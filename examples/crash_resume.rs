//! Crash-safe clustering with the merge write-ahead log: journal every
//! merge decision, kill the run mid-merge, persist the WAL to disk, and
//! resume it — to a final clustering bit-identical to an uninterrupted
//! run.
//!
//! ```text
//! cargo run --release --example crash_resume
//! ```
//!
//! The "crash" is a deterministic governor kill point (the same
//! machinery a signal handler's cancellation token or a wall-clock
//! deadline would trip). The WAL round-trips through a real file, as it
//! would across two processes.

use rock::governor::{Phase, RunGovernor};
use rock::points::Transaction;
use rock::rock::Rock;
use rock::similarity::Jaccard;
use rock::wal::{parse_wal, MergeWal};
use rock::RockError;

fn main() {
    // Three well-separated basket clusters over disjoint item ranges.
    let mut data: Vec<Transaction> = Vec::new();
    for c in 0..3u32 {
        let base = c * 100;
        for x in 0..6u32 {
            for y in (x + 1)..6 {
                data.push(Transaction::from([base + x, base + y, base + (y + 1) % 6]));
            }
        }
    }
    println!("database: {} transactions in 3 latent clusters", data.len());

    let build = |governor: RunGovernor| {
        Rock::builder()
            .theta(0.4)
            .clusters(3)
            .governor(governor)
            .build()
            .expect("valid configuration")
    };

    // --- the reference: an uninterrupted run.
    let baseline = build(RunGovernor::unlimited())
        .cluster(&data, &Jaccard)
        .expect("an unlimited governor never trips");
    println!(
        "baseline: {} clusters after {} merges",
        baseline.clustering.num_clusters(),
        baseline.merges.len()
    );

    // --- the same run, journaled to a WAL and killed at merge 12. A
    // snapshot every 8 merges makes the log self-contained, so it could
    // even be resumed without the original data (resume_cluster_snapshot).
    let mut wal = MergeWal::new().with_snapshot_every(8);
    let killer = build(RunGovernor::unlimited().with_kill_at(Phase::Merge, 12));
    let err = killer
        .cluster_wal(&data, &Jaccard, &mut wal)
        .expect_err("the kill point must interrupt the run");
    assert!(matches!(err, RockError::Interrupted { resumable: true, .. }));
    println!("\ninterrupted: {err}");

    // --- persist the WAL as a crashing process would, then read it back.
    let path = std::env::temp_dir().join("rock_crash_resume.wal");
    wal.write_to(&path).expect("persist WAL");
    let bytes = std::fs::read(&path).expect("read WAL back");
    let replay = parse_wal(&bytes).expect("the journal parses");
    println!(
        "WAL: {} bytes, {} merges journaled, snapshot: {}",
        bytes.len(),
        replay.num_merges(),
        replay.has_snapshot()
    );

    // --- resume: replay the journaled prefix, then drive to completion.
    let resumed = build(RunGovernor::unlimited())
        .resume_cluster(&data, &Jaccard, &bytes, None)
        .expect("resume completes");
    assert_eq!(resumed.clustering, baseline.clustering);
    assert_eq!(resumed.merges, baseline.merges);
    assert_eq!(resumed.initial_points, baseline.initial_points);
    let _ = std::fs::remove_file(&path);
    println!(
        "\nOK: resumed run finished the remaining {} merges — clustering, merge \
         trace and dendrogram bit-identical to the uninterrupted run",
        baseline.merges.len() - replay.num_merges()
    );
}
