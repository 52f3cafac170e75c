//! Shard-and-merge benchmarks: what fault isolation costs when nothing
//! goes wrong, and what healing costs when something does.
//!
//! `unsharded_baseline` is the plain single-pipeline run over the same
//! data; the `shards_N` variants pay the supervisor's partition +
//! per-shard governor + coarse-merge overhead, and `shards_4_crash_heal`
//! additionally burns one retry rung (a mid-merge kill resumed from the
//! shard's carried WAL). The demo run after the group quarantines a
//! poisoned shard and prints the resulting report.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use rock_core::similarity::Jaccard;
use rock_core::{Rock, ShardConfig};
use rock_data::faults::{poison_range, PoisonedSimilarity, ShardFaultSchedule};
use rock_data::{generate_baskets, SyntheticBasketSpec};
use std::hint::black_box;

fn bench_shard_merge(c: &mut Criterion) {
    let data = generate_baskets(
        &SyntheticBasketSpec::paper_scaled(0.01),
        &mut StdRng::seed_from_u64(42),
    );
    let points = &data.transactions;
    let rock = Rock::builder()
        .theta(0.5)
        .clusters(10)
        .seed(42)
        .build()
        .expect("valid config");
    // Sub-unit representative fraction: the coarse merge pass is
    // quadratic in representative-set size, so at this scale sampling
    // Lᵢ is the intended configuration (and it is seed-deterministic).
    let shard_config = |shards: usize| ShardConfig {
        merge_theta: Some(0.2),
        representative_fraction: 0.25,
        ..ShardConfig::new(shards)
    };

    let mut group = c.benchmark_group("shard_merge");
    group.bench_function("unsharded_baseline", |b| {
        b.iter(|| black_box(rock.cluster(points, &Jaccard).expect("unsharded run")))
    });
    for shards in [2usize, 4, 8] {
        group.bench_function(format!("shards_{shards}"), |b| {
            b.iter(|| {
                black_box(
                    rock.shard_supervisor(shard_config(shards))
                        .and_then(|supervisor| supervisor.run(points, &Jaccard))
                        .expect("sharded run"),
                )
            })
        });
    }
    // Supervision under fire: shard 1's first attempt is killed eight
    // merges in, so every sample pays one retry rung plus a WAL resume.
    let supervisor = rock
        .shard_supervisor(shard_config(4))
        .expect("supervisor");
    let crash = ShardFaultSchedule::new().crash_at_merge(1, 0, 8);
    group.bench_function("shards_4_crash_heal", |b| {
        b.iter(|| {
            black_box(
                supervisor
                    .run_with_plan(points, &Jaccard, &crash)
                    .expect("faulted run heals"),
            )
        })
    });
    group.finish();

    // Quarantine demo: a poisoned shard must degrade the run with a
    // recorded note, never take it down (the bench panics otherwise).
    let shard0 = rock_core::shard_ranges(points.len(), 4)[0].clone();
    let mut poisoned = points.clone();
    poison_range(&mut poisoned, shard0, 9_999_999);
    let run = supervisor
        .run_with_plan(&poisoned, &PoisonedSimilarity { marker: 9_999_999 }, &ShardFaultSchedule::new())
        .expect("poisoned run degrades, not errors");
    let note = run
        .report
        .shard_notes
        .first()
        .expect("a poisoned shard must record a quarantine note");
    println!(
        "shard quarantine demo: shard {} dropped after {} attempt(s): {}",
        note.shard, note.attempts, note.reason
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_shard_merge
}
criterion_main!(benches);
