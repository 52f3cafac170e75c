//! Market-basket transactions (§3.1.1).
//!
//! A transaction is a set of purchased items. Items are dense `u32`
//! identifiers assigned by the caller (see [`crate::points::ItemCatalog`]
//! for a name ↔ id mapping helper). Internally the item list is kept sorted
//! and deduplicated so that set operations (intersection/union sizes, the
//! Jaccard coefficient) run as linear merges.

use std::fmt;

/// A market-basket transaction: a sorted, duplicate-free set of item ids.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Transaction {
    items: Box<[u32]>,
}

impl Transaction {
    /// Builds a transaction from an arbitrary item list; sorts and dedups.
    pub fn new(mut items: Vec<u32>) -> Self {
        items.sort_unstable();
        items.dedup();
        Transaction {
            items: items.into_boxed_slice(),
        }
    }

    /// Builds a transaction from items already sorted and duplicate-free.
    ///
    /// # Panics
    /// Panics (in debug builds) if the invariant does not hold.
    pub fn from_sorted(items: Vec<u32>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "items must be strictly ascending"
        );
        Transaction {
            items: items.into_boxed_slice(),
        }
    }

    /// The items, sorted ascending.
    #[inline]
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Number of items in the transaction.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the transaction is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the transaction contains `item`.
    pub fn contains(&self, item: u32) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Size of the intersection with `other`, by sorted merge.
    pub fn intersection_size(&self, other: &Transaction) -> usize {
        let (mut a, mut b, mut n) = (0usize, 0usize, 0usize);
        let (xs, ys) = (&self.items, &other.items);
        while a < xs.len() && b < ys.len() {
            match xs[a].cmp(&ys[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    a += 1;
                    b += 1;
                }
            }
        }
        n
    }

    /// Size of the union with `other`: `|A| + |B| − |A ∩ B|`.
    pub fn union_size(&self, other: &Transaction) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// The Jaccard coefficient `|A ∩ B| / |A ∪ B|` (§3.1.1).
    ///
    /// Two empty transactions have undefined overlap; we define it as 0 so
    /// that empty records never become neighbors of anything.
    pub fn jaccard(&self, other: &Transaction) -> f64 {
        let inter = self.intersection_size(other);
        jaccard_from_counts(inter, self.len() + other.len() - inter)
    }
}

/// The Jaccard coefficient from set sizes: `inter / union`, and 0 for
/// two empty sets. The one float expression behind both
/// [`Transaction::jaccard`] and the item-indexed labeling path, so the
/// two cannot drift apart.
#[inline]
pub fn jaccard_from_counts(inter: usize, union: usize) -> f64 {
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.items.iter()).finish()
    }
}

impl FromIterator<u32> for Transaction {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Transaction::new(iter.into_iter().collect())
    }
}

impl From<&[u32]> for Transaction {
    fn from(items: &[u32]) -> Self {
        Transaction::new(items.to_vec())
    }
}

impl<const N: usize> From<[u32; N]> for Transaction {
    fn from(items: [u32; N]) -> Self {
        Transaction::new(items.to_vec())
    }
}

/// Maps human-readable item names to dense `u32` ids and back.
///
/// Useful when loading raw basket files: `catalog.intern("swiss cheese")`
/// returns a stable id, and `catalog.name(id)` recovers the label for
/// reporting cluster characteristics.
#[derive(Default, Clone, Debug)]
pub struct ItemCatalog {
    names: Vec<String>,
    ids: std::collections::HashMap<String, u32>,
}

impl ItemCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `name`, allocating a new one on first sight.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        // tidy-allow(panic): item ids are u32 across the engine; vocabularies beyond u32::MAX items are out of scope by contract
        let id = u32::try_from(self.names.len()).expect("more than u32::MAX items");
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    /// Looks up an existing id without allocating.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The name for `id`, if allocated.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of distinct items interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_and_dedups() {
        let t = Transaction::new(vec![5, 1, 3, 1, 5]);
        assert_eq!(t.items(), &[1, 3, 5]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn intersection_and_union() {
        let a = Transaction::from([1, 2, 3, 5]);
        let b = Transaction::from([2, 3, 4, 5]);
        assert_eq!(a.intersection_size(&b), 3);
        assert_eq!(a.union_size(&b), 5);
    }

    #[test]
    fn jaccard_paper_example_1_2() {
        // §1.1 Example 1.2: {1,2,3} vs {1,2,4} → 0.5; {1,2,3} vs {3,4,5} → 0.2.
        let t123 = Transaction::from([1, 2, 3]);
        let t124 = Transaction::from([1, 2, 4]);
        let t345 = Transaction::from([3, 4, 5]);
        assert!((t123.jaccard(&t124) - 0.5).abs() < 1e-12);
        assert!((t123.jaccard(&t345) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn jaccard_disjoint_and_identical() {
        let a = Transaction::from([1, 4]);
        let b = Transaction::from([6]);
        assert_eq!(a.jaccard(&b), 0.0);
        assert_eq!(a.jaccard(&a), 1.0);
    }

    #[test]
    fn jaccard_empty_is_zero() {
        let e = Transaction::new(vec![]);
        assert_eq!(e.jaccard(&e), 0.0);
        assert_eq!(e.jaccard(&Transaction::from([1])), 0.0);
    }

    #[test]
    fn contains_uses_binary_search() {
        let t = Transaction::from([2, 4, 8, 16]);
        assert!(t.contains(8));
        assert!(!t.contains(3));
    }

    #[test]
    fn catalog_roundtrip() {
        let mut c = ItemCatalog::new();
        let milk = c.intern("milk");
        let wine = c.intern("french wine");
        assert_eq!(c.intern("milk"), milk);
        assert_ne!(milk, wine);
        assert_eq!(c.name(wine), Some("french wine"));
        assert_eq!(c.get("swiss cheese"), None);
        assert_eq!(c.len(), 2);
    }
}
