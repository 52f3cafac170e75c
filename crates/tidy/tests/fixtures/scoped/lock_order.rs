//! Seeded violation: a nested lock acquisition with no stated order
//! invariant — scan as `crates/core/src/serve.rs`.
use std::sync::Mutex;

/// Two independent locks.
pub struct Pair {
    first: Mutex<u32>,
    second: Mutex<u32>,
}

impl Pair {
    /// Touches both counters under both guards.
    pub(crate) fn both(&self) {
        let a = self.first.lock();
        let b = self.second.lock();
        let _ = (a, b);
    }
}
