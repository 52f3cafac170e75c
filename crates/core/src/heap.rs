//! Heaps for the clustering loop (§4.3, Fig. 3).
//!
//! ROCK maintains a *local heap* `q[i]` per cluster (candidate merge
//! partners ordered by goodness) and a *global heap* `Q` of clusters
//! ordered by their best goodness.
//!
//! * The local heaps are plain `std::collections::BinaryHeap`s of
//!   `Cand` with lazy deletion: an entry whose partner has died stays
//!   in the heap and is skipped when it surfaces (see
//!   [`crate::incremental::IncrementalState`] for why that is exact).
//! * `Q` must update and delete arbitrary clusters
//!   (`update(Q, x, q[x])`, `delete(Q, v)`), so it is an
//!   [`AddressableHeap`]: a binary max-heap with a dense key → slot
//!   index, giving O(log n) push/pop/remove/update — the ingredients of
//!   the paper's O(n² log n) clustering bound (§4.5).
//!
//! Priorities are `f64` goodness values; ties are broken by the larger
//! key in both heaps, so runs are deterministic.

use std::cmp::Ordering;

/// Slot-index marker for a key that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// A binary max-heap over `(key, f64 priority)` pairs supporting O(log n)
/// removal and priority update by key.
///
/// Keys are dense small integers (cluster arena ids): the key → slot
/// index is a `Vec<u32>` indexed by key, grown to the largest key
/// inserted so far.
///
/// Priorities are ordered by [`f64::total_cmp`], so even a NaN that
/// slips past the similarity guards cannot panic the merge loop: NaN
/// sorts above `+∞`, deterministically. Goodness measures are finite in
/// any correct run (debug builds assert it).
#[derive(Clone, Debug, Default)]
pub struct AddressableHeap {
    /// Heap-ordered array.
    data: Vec<(u32, f64)>,
    /// Key → index into `data`, [`ABSENT`] for keys not in the heap.
    pos: Vec<u32>,
}

impl AddressableHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        AddressableHeap {
            data: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// Creates an empty heap with room for `cap` entries keyed `0..cap`.
    pub fn with_capacity(cap: usize) -> Self {
        AddressableHeap {
            data: Vec::with_capacity(cap),
            pos: vec![ABSENT; cap],
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &u32) -> bool {
        self.slot(*key).is_some()
    }

    /// The priority of `key`, if present.
    pub fn priority(&self, key: &u32) -> Option<f64> {
        self.slot(*key).map(|i| self.data[i].1)
    }

    /// The maximum entry, if any.
    pub(crate) fn peek(&self) -> Option<(u32, f64)> {
        self.data.first().copied()
    }

    /// Inserts `key` with `priority`, or updates its priority if present.
    pub fn insert(&mut self, key: u32, priority: f64) {
        debug_assert!(!priority.is_nan(), "NaN priority");
        if let Some(i) = self.slot(key) {
            let old = self.data[i].1;
            self.data[i].1 = priority;
            if Self::beats((key, priority), (key, old)) {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        } else {
            let k = key as usize;
            if k >= self.pos.len() {
                self.pos.resize(k + 1, ABSENT);
            }
            let i = self.data.len();
            self.data.push((key, priority));
            self.pos[k] = i as u32;
            self.sift_up(i);
        }
    }

    /// Removes and returns the maximum entry.
    pub fn pop(&mut self) -> Option<(u32, f64)> {
        if self.data.is_empty() {
            return None;
        }
        Some(self.remove_at(0))
    }

    /// Removes `key`, returning its priority if it was present.
    pub fn remove(&mut self, key: &u32) -> Option<f64> {
        let i = self.slot(*key)?;
        Some(self.remove_at(i).1)
    }

    /// Iterates over entries in arbitrary (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.data.iter().copied()
    }

    /// Iterates over keys in arbitrary (heap) order.
    pub fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.data.iter().map(|&(k, _)| k)
    }

    /// Removes every entry, keeping the allocated buffers.
    pub fn clear(&mut self) {
        for &(k, _) in &self.data {
            self.pos[k as usize] = ABSENT;
        }
        self.data.clear();
    }

    /// The data slot holding `key`, if present.
    #[inline]
    fn slot(&self, key: u32) -> Option<usize> {
        match self.pos.get(key as usize) {
            Some(&i) if i != ABSENT => Some(i as usize),
            _ => None,
        }
    }

    /// Total order: higher priority wins ([`f64::total_cmp`], so NaN is
    /// ordered instead of panicking); ties broken by larger key so the
    /// order is deterministic.
    #[inline]
    fn beats(a: (u32, f64), b: (u32, f64)) -> bool {
        match a.1.total_cmp(&b.1) {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => a.0 > b.0,
        }
    }

    /// Records slot `i` as the position of the key stored there.
    #[inline]
    fn place(&mut self, i: usize) {
        self.pos[self.data[i].0 as usize] = i as u32;
    }

    fn remove_at(&mut self, i: usize) -> (u32, f64) {
        let last = self.data.len() - 1;
        self.data.swap(i, last);
        // tidy-allow(panic): callers pass an in-bounds index, so data is non-empty after the swap
        let removed = self.data.pop().expect("non-empty");
        self.pos[removed.0 as usize] = ABSENT;
        if i < self.data.len() {
            self.place(i);
            // The swapped-in element may need to move either way.
            self.sift_up(i);
            self.sift_down(i);
        }
        removed
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::beats(self.data[i], self.data[parent]) {
                self.data.swap(i, parent);
                self.place(i);
                self.place(parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.data.len() && Self::beats(self.data[l], self.data[best]) {
                best = l;
            }
            if r < self.data.len() && Self::beats(self.data[r], self.data[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.data.swap(i, best);
            self.place(i);
            self.place(best);
            i = best;
        }
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        let indexed = self.pos.iter().filter(|&&i| i != ABSENT).count();
        assert_eq!(self.data.len(), indexed);
        for (i, &(k, _)) in self.data.iter().enumerate() {
            assert_eq!(self.pos[k as usize] as usize, i, "slot index out of sync for slot {i}");
            if i > 0 {
                let parent = (i - 1) / 2;
                assert!(
                    !Self::beats(self.data[i], self.data[parent]),
                    "heap property violated at slot {i}"
                );
            }
        }
    }
}

/// A local-heap entry: merge partner `key` at goodness `g`.
///
/// Ordered by `g` under [`f64::total_cmp`], then by the larger key — the
/// same total order as [`AddressableHeap`], so a `BinaryHeap<Cand>` pops
/// the partner the paper's `max(q[u])` names, deterministically.
///
/// Packed to 4-byte alignment: 12 bytes instead of 16, with no padding.
/// Fields are read by value (a reference to the under-aligned `g` does
/// not compile).
#[derive(Clone, Copy, Debug)]
#[repr(C, packed(4))]
pub(crate) struct Cand {
    pub(crate) g: f64,
    pub(crate) key: u32,
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> Ordering {
        { self.g }
            .total_cmp(&{ other.g })
            .then({ self.key }.cmp(&{ other.key }))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Cand {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Cand {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn push_pop_in_priority_order() {
        let mut h = AddressableHeap::new();
        for (k, p) in [(1u32, 0.5), (2, 0.9), (3, 0.1), (4, 0.7)] {
            h.insert(k, p);
            h.check_invariants();
        }
        assert_eq!(h.peek(), Some((2, 0.9)));
        let order: Vec<u32> = std::iter::from_fn(|| h.pop().map(|(k, _)| k)).collect();
        assert_eq!(order, vec![2, 4, 1, 3]);
    }

    #[test]
    fn nan_orders_deterministically_instead_of_panicking() {
        // total_cmp places NaN above +inf: a NaN that slipped past the
        // similarity guards degrades to a deterministic (wrong-ish)
        // ordering rather than a panic mid-merge.
        assert!(AddressableHeap::beats((0, f64::NAN), (1, f64::INFINITY)));
        assert!(!AddressableHeap::beats((0, f64::INFINITY), (1, f64::NAN)));
        assert!(AddressableHeap::beats((1, f64::NAN), (0, f64::NAN)));
    }

    #[test]
    fn ties_broken_by_key_deterministically() {
        let mut h = AddressableHeap::new();
        for k in [5u32, 1, 9, 3] {
            h.insert(k, 0.5);
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop().map(|(k, _)| k)).collect();
        assert_eq!(order, vec![9, 5, 3, 1]);
    }

    #[test]
    fn cand_order_matches_the_addressable_heap() {
        // Same priorities, same tie-break: a BinaryHeap<Cand> pops in the
        // order the addressable heap does.
        let entries = [(5u32, 0.5), (1, 0.5), (9, 0.25), (3, 0.5), (7, f64::NEG_INFINITY)];
        let mut h = AddressableHeap::new();
        let mut b = BinaryHeap::new();
        for (k, g) in entries {
            h.insert(k, g);
            b.push(Cand { g, key: k });
        }
        while let Some((k, g)) = h.pop() {
            let c = b.pop().unwrap();
            assert_eq!(({ c.key }, { c.g }.to_bits()), (k, g.to_bits()));
        }
        assert!(b.is_empty());
    }

    #[test]
    fn cand_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Cand>(), 12);
    }

    #[test]
    fn remove_arbitrary_key() {
        let mut h = AddressableHeap::new();
        for k in 0u32..50 {
            h.insert(k, (k as f64 * 7.3) % 1.0);
        }
        assert_eq!(h.remove(&25), Some((25.0 * 7.3) % 1.0));
        assert_eq!(h.remove(&25), None);
        assert_eq!(h.len(), 49);
        h.check_invariants();
        // Remaining pops are still ordered.
        let mut prev = f64::INFINITY;
        while let Some((_, p)) = h.pop() {
            assert!(p <= prev + 1e-15);
            prev = p;
        }
    }

    #[test]
    fn insert_updates_priority() {
        let mut h = AddressableHeap::new();
        h.insert(1u32, 0.1);
        h.insert(2, 0.2);
        h.insert(3, 0.3);
        h.insert(1, 0.99); // raise
        assert_eq!(h.peek(), Some((1, 0.99)));
        h.insert(1, 0.0); // lower
        assert_eq!(h.peek(), Some((3, 0.3)));
        assert_eq!(h.len(), 3);
        h.check_invariants();
    }

    #[test]
    fn negative_infinity_sorts_last() {
        let mut h = AddressableHeap::new();
        h.insert(1u32, f64::NEG_INFINITY);
        h.insert(2, 0.0);
        assert_eq!(h.pop(), Some((2, 0.0)));
        assert_eq!(h.pop(), Some((1, f64::NEG_INFINITY)));
    }

    #[test]
    fn empty_heap_behaviour() {
        let mut h = AddressableHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
        assert_eq!(h.peek(), None);
        assert_eq!(h.remove(&1), None);
        assert_eq!(h.priority(&1), None);
        // Keys beyond the slot index are simply absent.
        assert!(!h.contains(&1_000_000));
    }

    #[test]
    fn clear_keeps_the_heap_usable() {
        let mut h = AddressableHeap::with_capacity(8);
        for k in 0u32..8 {
            h.insert(k, f64::from(k));
        }
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(&3));
        h.check_invariants();
        h.insert(3, 1.0);
        h.insert(20, 2.0);
        assert_eq!(h.pop(), Some((20, 2.0)));
        assert_eq!(h.pop(), Some((3, 1.0)));
    }

    // The panic comes from a `debug_assert!`; release builds order NaN
    // instead (`nan_orders_deterministically_instead_of_panicking`).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_priority_panics() {
        let mut h = AddressableHeap::new();
        h.insert(1u32, f64::NAN);
    }

    #[test]
    fn randomized_against_reference() {
        // Drive the heap with a deterministic pseudo-random op sequence and
        // mirror it in a Vec-based reference implementation.
        let mut h = AddressableHeap::new();
        let mut reference: Vec<(u32, f64)> = Vec::new();
        let mut state = 0x12345678u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..2000 {
            let op = rand() % 4;
            let key = rand() % 64;
            let prio = f64::from(rand() % 1000) / 1000.0;
            match op {
                0 | 1 => {
                    h.insert(key, prio);
                    if let Some(e) = reference.iter_mut().find(|e| e.0 == key) {
                        e.1 = prio;
                    } else {
                        reference.push((key, prio));
                    }
                }
                2 => {
                    let got = h.remove(&key);
                    let idx = reference.iter().position(|e| e.0 == key);
                    assert_eq!(got, idx.map(|i| reference.swap_remove(i).1));
                }
                _ => {
                    let got = h.pop();
                    let best = reference
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            a.1.total_cmp(&b.1).then(a.0.cmp(&b.0))
                        })
                        .map(|(i, _)| i);
                    let want = best.map(|i| reference.swap_remove(i));
                    assert_eq!(got, want);
                }
            }
            h.check_invariants();
            assert_eq!(h.len(), reference.len());
        }
    }
}
