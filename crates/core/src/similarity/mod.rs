//! Similarity functions (§3.1).
//!
//! ROCK is agnostic to the similarity measure: anything that maps a pair of
//! points into `[0, 1]` works, including non-metric functions supplied by a
//! domain expert (§1.2). Two traits capture this:
//!
//! * [`Similarity<P>`] — a function over a pair of *point values* (Jaccard
//!   over transactions, categorical Jaccard over records, …).
//! * [`PairwiseSimilarity`] — a function over a pair of *point indices*.
//!   This is what the neighbor-computation stage consumes; it admits both
//!   "points + measure" ([`PointsWith`]) and fully materialised expert
//!   tables ([`SimilarityMatrix`]) without forcing either representation.
//!
//! [`CheckedSimilarity`] supports the robustness layer: it latches
//! non-finite values so driver entry points can surface them as typed
//! errors.

mod categorical;
mod checked;
mod jaccard;
mod table;

pub use categorical::{CategoricalJaccard, MissingPolicy};
pub use checked::CheckedSimilarity;
pub use jaccard::Jaccard;
pub use table::SimilarityMatrix;

/// A normalized similarity measure between two points of type `P`.
///
/// Implementations must return values in `[0, 1]`, with `1` meaning
/// identical and `0` totally dissimilar, and must be symmetric:
/// `sim(a, b) == sim(b, a)`.
pub trait Similarity<P: ?Sized> {
    /// The similarity of `a` and `b`, in `[0, 1]`.
    fn similarity(&self, a: &P, b: &P) -> f64;

    /// Opt-in capability: `p` as a sorted, duplicate-free set of item ids
    /// such that the measure *is* Jaccard over those sets.
    ///
    /// **Contract:** whenever this returns `Some` for both `a` and `b`,
    /// `similarity(a, b)` equals
    /// `|A ∩ B| as f64 / |A ∪ B| as f64` (0 when both sets are empty)
    /// over the two item sets, bit for bit — in particular it is finite
    /// and 0 for sets that share no item. The §4.6 labeler relies on this
    /// to score a point only against the representatives it shares an
    /// item with, and to derive their similarity from postings counts
    /// without calling [`Similarity::similarity`] at all.
    ///
    /// The default (`None`) keeps every caller on the plain pairwise
    /// path; wrappers that must observe each evaluation (fault injection,
    /// counting) simply do not forward it.
    fn item_set<'p>(&self, p: &'p P) -> Option<&'p [u32]> {
        let _ = p;
        None
    }
}

// Allow passing `&measure` wherever a measure is expected.
impl<P: ?Sized, S: Similarity<P> + ?Sized> Similarity<P> for &S {
    fn similarity(&self, a: &P, b: &P) -> f64 {
        (**self).similarity(a, b)
    }

    fn item_set<'p>(&self, p: &'p P) -> Option<&'p [u32]> {
        (**self).item_set(p)
    }
}

/// Index-addressed similarity over a fixed point set.
///
/// The neighbor stage ([`crate::neighbors::NeighborGraph`]) only ever asks
/// "how similar are points *i* and *j*?", so it consumes this trait. Use
/// [`PointsWith`] to adapt a slice of points plus a [`Similarity`] measure,
/// or [`SimilarityMatrix`] for an explicit expert-provided table.
pub trait PairwiseSimilarity {
    /// Number of points.
    fn len(&self) -> usize;

    /// Whether the point set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Similarity of points `i` and `j`, in `[0, 1]`.
    fn sim(&self, i: usize, j: usize) -> f64;

    /// Opt-in capability: point `i` as a sorted, duplicate-free set of
    /// item ids such that [`PairwiseSimilarity::sim`] *is* Jaccard over
    /// those sets — the index-addressed twin of [`Similarity::item_set`],
    /// under the same contract: whenever this returns `Some` for both `i`
    /// and `j`, `sim(i, j)` equals
    /// `|A ∩ B| as f64 / |A ∪ B| as f64` (0 when both sets are empty)
    /// bit for bit. The neighbor scan relies on this to test only the
    /// pairs that share an item.
    ///
    /// The default (`None`) keeps the neighbor scan brute force; expert
    /// tables and wrappers that must observe each evaluation (fault
    /// injection, counting) simply do not provide it.
    fn item_set(&self, i: usize) -> Option<&[u32]> {
        let _ = i;
        None
    }
}

impl<T: PairwiseSimilarity + ?Sized> PairwiseSimilarity for &T {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn sim(&self, i: usize, j: usize) -> f64 {
        (**self).sim(i, j)
    }

    fn item_set(&self, i: usize) -> Option<&[u32]> {
        (**self).item_set(i)
    }
}

/// Adapts a slice of points and a [`Similarity`] measure into a
/// [`PairwiseSimilarity`].
#[derive(Clone, Copy, Debug)]
pub struct PointsWith<'a, P, S> {
    points: &'a [P],
    measure: S,
}

impl<'a, P, S: Similarity<P>> PointsWith<'a, P, S> {
    /// Pairs `points` with `measure`.
    pub fn new(points: &'a [P], measure: S) -> Self {
        PointsWith { points, measure }
    }

    /// The underlying points.
    pub fn points(&self) -> &'a [P] {
        self.points
    }
}

impl<P, S: Similarity<P>> PairwiseSimilarity for PointsWith<'_, P, S> {
    fn len(&self) -> usize {
        self.points.len()
    }

    #[inline]
    fn sim(&self, i: usize, j: usize) -> f64 {
        self.measure.similarity(&self.points[i], &self.points[j])
    }

    fn item_set(&self, i: usize) -> Option<&[u32]> {
        self.measure.item_set(&self.points[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::Transaction;

    #[test]
    fn points_with_adapts_slice() {
        let pts = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([7, 8]),
        ];
        let pw = PointsWith::new(&pts, Jaccard);
        assert_eq!(pw.len(), 3);
        assert!((pw.sim(0, 1) - 0.5).abs() < 1e-12);
        assert_eq!(pw.sim(0, 2), 0.0);
        // symmetry
        assert_eq!(pw.sim(1, 0), pw.sim(0, 1));
        // The measure's item-set capability reaches the index-addressed
        // trait, also through a reference.
        assert_eq!(pw.item_set(2), Some(&[7, 8][..]));
        let by_ref = &pw;
        assert_eq!(PairwiseSimilarity::item_set(&by_ref, 0), Some(&[1, 2, 3][..]));
    }

    #[test]
    fn similarity_by_reference() {
        let a = Transaction::from([1, 2]);
        let b = Transaction::from([2, 3]);
        let m = &Jaccard;
        // &S implements Similarity<P>
        assert!((Similarity::similarity(&m, &a, &b) - 1.0 / 3.0).abs() < 1e-12);
    }
}
