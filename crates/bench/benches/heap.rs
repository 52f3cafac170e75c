//! Addressable-heap benchmarks (§4.3): the price of addressability.
//!
//! Compares `rock_core::heap::AddressableHeap` push/pop against
//! `std::collections::BinaryHeap`. The Fig.-3 merge loop uses both: its
//! per-cluster local heaps are `BinaryHeap`s with lazy deletion (entries
//! for dead partners are skipped when they surface), while the global
//! heap `Q` must update and delete arbitrary clusters and stays
//! addressable. The mixed workload below is `Q`'s access pattern.

use criterion::{criterion_group, criterion_main, Criterion};
use rock_core::heap::AddressableHeap;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// Deterministic pseudo-random stream.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

fn bench_push_pop(c: &mut Criterion) {
    let n = 10_000u32;
    let mut group = c.benchmark_group("heap_push_pop");
    group.bench_function("addressable", |b| {
        b.iter(|| {
            let mut h = AddressableHeap::with_capacity(n as usize);
            let mut s = 42u64;
            for k in 0..n {
                h.insert(k, (lcg(&mut s) % 1_000_000) as f64);
            }
            let mut out = 0.0;
            while let Some((_, p)) = h.pop() {
                out += p;
            }
            black_box(out)
        })
    });
    group.bench_function("std_binary_heap", |b| {
        b.iter(|| {
            let mut h = BinaryHeap::with_capacity(n as usize);
            let mut s = 42u64;
            for k in 0..n {
                h.push((lcg(&mut s) % 1_000_000, k));
            }
            let mut out = 0u64;
            while let Some((p, _)) = h.pop() {
                out += p;
            }
            black_box(out)
        })
    });
    group.finish();
}

fn bench_merge_loop_workload(c: &mut Criterion) {
    // The global heap's Fig.-3 access pattern: interleaved inserts,
    // updates, removals and pops over a shrinking key universe.
    c.bench_function("heap_merge_workload", |b| {
        b.iter(|| {
            let mut h = AddressableHeap::with_capacity(4096);
            let mut s = 7u64;
            for k in 0..4096u32 {
                h.insert(k, (lcg(&mut s) % 1000) as f64);
            }
            for _ in 0..20_000 {
                match lcg(&mut s) % 4 {
                    0 => {
                        let k = (lcg(&mut s) % 4096) as u32;
                        h.insert(k, (lcg(&mut s) % 1000) as f64);
                    }
                    1 => {
                        let k = (lcg(&mut s) % 4096) as u32;
                        h.remove(&k);
                    }
                    2 => {
                        h.pop();
                    }
                    _ => {
                        let k = (lcg(&mut s) % 4096) as u32;
                        black_box(h.priority(&k));
                    }
                }
            }
            black_box(h.len())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_push_pop, bench_merge_loop_workload
}
criterion_main!(benches);
