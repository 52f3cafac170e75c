//! The scope of `rock::perf` work counters: each thread reads only the
//! work it ran, its sharded kernels' workers included.
//!
//! * Counted work on another thread leaves this thread's reading
//!   unchanged.
//! * A fit reports the same `RunReport::phase_perf` at one and at two
//!   worker threads, and fits running at the same time in one process
//!   each report exactly that.

use rand::{rngs::StdRng, SeedableRng};
use rock::perf::{self, PerfCounters};
use rock::points::Transaction;
use rock::report::PhasePerf;
use rock::rock::Rock;
use rock::similarity::Jaccard;
use rock_data::{generate_baskets, SyntheticBasketSpec};
use std::sync::Barrier;

/// The phase counters of one fit, at `threads` workers. The 300-point
/// sample is above the neighbor scan's parallel cutoff, so two threads
/// run two shards.
fn fit_counters(data: &[Transaction], threads: usize) -> Vec<PhasePerf> {
    let rock = Rock::builder()
        .theta(0.5)
        .clusters(10)
        .sample_size(300)
        .labeling_fraction(0.3)
        .seed(42)
        .threads(threads)
        .build()
        .unwrap();
    let (_, report) = rock.run(data, &Jaccard).unwrap();
    report.phase_perf
}

fn baskets() -> Vec<Transaction> {
    generate_baskets(
        &SyntheticBasketSpec::paper_scaled(0.02),
        &mut StdRng::seed_from_u64(5),
    )
    .transactions
}

#[test]
fn work_on_another_thread_leaves_this_threads_reading_unchanged() {
    let data = baskets();
    let before = perf::snapshot();
    let there = std::thread::spawn(move || {
        let start = perf::snapshot();
        fit_counters(&data, 2);
        perf::snapshot().since(&start)
    })
    .join()
    .unwrap();
    assert!(there.sim_evals > 0, "the fit counted no work: {there}");
    assert_eq!(perf::snapshot().since(&before), PerfCounters::default());
}

#[test]
fn concurrent_fits_report_their_solo_counters() {
    let data = baskets();
    let solo = fit_counters(&data, 1);
    assert!(!solo.is_empty(), "the fit counted no work");
    // The two-shard fit's workers fold their counts into the caller.
    assert_eq!(fit_counters(&data, 2), solo, "thread-count dependent");
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        let runs: Vec<_> = [1, 2, 1, 2]
            .into_iter()
            .map(|threads| {
                let (data, start) = (&data, &start);
                scope.spawn(move || {
                    start.wait();
                    (threads, fit_counters(data, threads))
                })
            })
            .collect();
        for run in runs {
            let (threads, phases) = run.join().unwrap();
            assert_eq!(phases, solo, "threads = {threads}");
        }
    });
}
