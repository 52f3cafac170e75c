//! Seeded violation: a marked hot loop whose enclosing function never
//! reaches a `perf::count_*` increment — scan as core library code.

/// Sums rows without metering the work.
pub(crate) fn kernel(rows: &[u32]) -> u64 {
    let mut total = 0u64;
    // tidy:kernel-hot-loop — unmetered sum
    for r in rows {
        total += u64::from(*r);
    }
    // tidy:end-kernel-hot-loop
    total
}
