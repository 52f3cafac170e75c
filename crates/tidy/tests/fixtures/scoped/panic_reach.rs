//! Seeded violation: unannotated indexing directly inside a protected
//! serve-path function — scan as `crates/core/src/serve.rs`.

/// Returns the first element; panics on an empty slice.
pub(crate) fn first(v: &[u32]) -> u32 {
    v[0]
}
