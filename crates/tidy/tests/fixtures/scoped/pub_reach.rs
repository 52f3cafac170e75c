//! Seeded violation: a bare `pub fn` that nothing outside its crate
//! names — scan alone as `crates/core/src/reach.rs`.

/// Planted: public, but no other crate, test or example calls it.
pub fn unreached() -> u32 {
    7
}

/// Crate-private, so the rule does not check it.
pub(crate) fn internal() -> u32 {
    unreached()
}
