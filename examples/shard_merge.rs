//! Fault-isolated shard-and-merge: partition the input into shards,
//! cluster each under its own child governor, and merge the survivors —
//! while shards crash, hang, and go poisonous underneath.
//!
//! ```text
//! cargo run --release --example shard_merge
//! ```
//!
//! Three acts:
//!
//! 1. a clean 3-shard run reassembles the latent clusters even though
//!    sharding split one of them across a shard boundary;
//! 2. a schedule of injected faults (a mid-merge crash, a hang) burns
//!    retry rungs but heals — the result is bit-identical to act 1;
//! 3. a poisoned shard (NaN similarities) is quarantined with full
//!    provenance, and the surviving clustering is bit-identical to a
//!    fault-free run over the surviving shards alone.

use rock::points::Transaction;
use rock::rock::Rock;
use rock::similarity::Jaccard;
use rock::ShardConfig;
use rock_data::faults::{poison_range, PoisonedSimilarity, ShardFaultSchedule};

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

    let rock = Rock::builder()
        .theta(0.4)
        .clusters(3)
        .seed(11)
        .build()
        .expect("valid configuration");
    // 3 size-balanced shards — the shard boundaries do NOT line up with
    // the latent clusters, so the coarse merge pass has real work. Each
    // shard gets 3 attempts, with no sleeping between them.
    let shard = ShardConfig {
        merge_theta: Some(0.2), // θ for representative link densities
        ..ShardConfig::new(3)
    };

    // --- act 1: a clean supervised run.
    let clean = rock
        .shard_supervisor(shard.clone())
        .and_then(|supervisor| supervisor.run(&data, &Jaccard))
        .expect("clean sharded run");
    println!("\n[clean] {}", clean.report);
    println!(
        "[clean] {} final clusters from {} surviving shards",
        clean.clustering.num_clusters(),
        clean.shard_runs.len()
    );
    assert_eq!(clean.clustering.num_clusters(), 3);
    assert!(clean.report.shard_notes.is_empty());

    // --- act 2: crash shard 1 two merges in, hang shard 2's first
    // attempt. Both shards heal inside their retry ladders (the crashed
    // attempt resumes from its carried WAL), so the run is bit-identical
    // to the clean one.
    let supervisor = rock.shard_supervisor(shard.clone()).expect("supervisor");
    let schedule = ShardFaultSchedule::new()
        .crash_at_merge(1, 0, 2)
        .hang(2, 0);
    let healed = supervisor
        .run_with_plan(&data, &Jaccard, &schedule)
        .expect("faulted run heals");
    assert_eq!(healed.clustering, clean.clustering);
    assert!(healed.report.shard_notes.is_empty());
    let attempts: Vec<u32> = healed.shard_runs.iter().map(|s| s.attempts).collect();
    println!(
        "\n[faulted] healed to the identical clustering; per-shard attempts: {:?}",
        attempts
    );

    // --- act 3: poison shard 0's slice of the input. Its similarities
    // go NaN, which is deterministic corruption — quarantined on the
    // first attempt, never retried.
    let shard0 = rock::shard_ranges(data.len(), shard.shards)[0].clone();
    let mut poisoned_data = data.clone();
    poison_range(&mut poisoned_data, shard0.clone(), 9999);
    let measure = PoisonedSimilarity { marker: 9999 };
    let degraded = supervisor
        .run_with_plan(&poisoned_data, &measure, &ShardFaultSchedule::new())
        .expect("poisoned run degrades, not errors");
    println!("\n[poisoned] {}", degraded.report);
    for note in &degraded.report.shard_notes {
        println!(
            "[poisoned] shard {} quarantined after {} attempt(s): {} ({} points dropped)",
            note.shard,
            note.attempts,
            note.reason,
            note.points.len()
        );
    }
    assert_eq!(degraded.report.shard_notes.len(), 1);
    let expected: Vec<u32> = (shard0.start as u32..shard0.end as u32).collect();
    assert_eq!(degraded.excluded_points(), expected);

    // The survivors are exactly what a fault-free run over shards 1–2
    // alone would have produced.
    let oracle = supervisor
        .run_excluding(&poisoned_data, &measure, &[0])
        .expect("exclusion oracle");
    assert_eq!(degraded.clustering, oracle.clustering);
    println!(
        "\nOK: faults healed bit-identically, poison quarantined with provenance, \
         survivors match the exclusion oracle"
    );
}
