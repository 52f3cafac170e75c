//! Dendrograms: the full merge tree of an agglomerative run, cuttable at
//! any cluster count without re-running the algorithm.
//!
//! ROCK is hierarchical (§4), so a single run down to a small `k` yields
//! the entire hierarchy above it. [`Dendrogram::from_run`] captures the
//! trace of a [`crate::algorithm::RockRun`]; [`Dendrogram::cut`] replays
//! the first merges to materialise the clustering at any intermediate
//! cluster count — useful when the right `k` is picked after the fact
//! (e.g. by scanning the criterion function `E_l` across cuts).

use crate::cluster::{Clustering, MergeRecord};

/// The merge tree of one clustering run.
#[derive(Clone, Debug, PartialEq)]
pub struct Dendrogram {
    /// Point id of each leaf (initial post-pruning singleton cluster).
    initial_points: Vec<u32>,
    /// Merges in execution order.
    merges: Vec<MergeRecord>,
    /// Points pruned before clustering (never in the tree).
    outliers: Vec<u32>,
}

impl Dendrogram {
    /// Captures the merge tree of `run`.
    ///
    /// Returns `None` if the run's final clustering cannot be replayed
    /// from the merge trace — which happens exactly when §4.6 mid-flight
    /// weeding removed clusters (the weeded points are not part of the
    /// tree). Run without a weed policy to build dendrograms.
    pub fn from_run(run: &crate::algorithm::RockRun) -> Option<Dendrogram> {
        let d = Dendrogram {
            initial_points: run.initial_points.clone(),
            merges: run.merges.clone(),
            outliers: run.clustering.outliers.clone(),
        };
        // Validate: replaying every merge must reproduce the final state.
        let replayed = d.cut(d.num_leaves() - d.merges.len());
        if replayed == run.clustering {
            Some(d)
        } else {
            None
        }
    }

    /// Rebuilds a dendrogram from persisted parts (the
    /// [`crate::artifact`] dendrogram section).
    ///
    /// Validates the merge trace structurally before accepting it: every
    /// record must mint the next dense arena id and consume two distinct,
    /// still-live cluster ids below it. Returns `None` otherwise, so an
    /// inconsistent artifact can never panic a later [`Dendrogram::cut`].
    pub(crate) fn from_parts(
        initial_points: Vec<u32>,
        merges: Vec<MergeRecord>,
        outliers: Vec<u32>,
    ) -> Option<Dendrogram> {
        let n = initial_points.len();
        let mut alive = vec![true; n + merges.len()];
        for (i, m) in merges.iter().enumerate() {
            let minted = n + i;
            let (l, r) = (m.left as usize, m.right as usize);
            if m.merged as usize != minted || l >= minted || r >= minted || l == r {
                return None;
            }
            if !alive[l] || !alive[r] {
                return None;
            }
            alive[l] = false;
            alive[r] = false;
        }
        Some(Dendrogram {
            initial_points,
            merges,
            outliers,
        })
    }

    /// Number of leaves (initial clusters).
    pub fn num_leaves(&self) -> usize {
        self.initial_points.len()
    }

    /// Point id of each leaf, in arena order.
    pub fn initial_points(&self) -> &[u32] {
        &self.initial_points
    }

    /// Points pruned before clustering (never in the tree).
    pub fn outliers(&self) -> &[u32] {
        &self.outliers
    }

    /// The recorded merges, in execution order.
    pub fn merges(&self) -> &[MergeRecord] {
        &self.merges
    }

    /// The smallest cluster count the run reached.
    pub fn min_clusters(&self) -> usize {
        self.num_leaves() - self.merges.len()
    }

    /// Materialises the clustering with `k` clusters by replaying the
    /// first `num_leaves − k` merges.
    ///
    /// # Panics
    /// Panics if `k` is outside `min_clusters()..=num_leaves()`.
    pub fn cut(&self, k: usize) -> Clustering {
        assert!(
            (self.min_clusters()..=self.num_leaves()).contains(&k),
            "cut at {k} outside {}..={}",
            self.min_clusters(),
            self.num_leaves()
        );
        let initial = self.num_leaves();
        let steps = initial - k;
        // Arena replay: slot per cluster id; merged ids append.
        let mut members: Vec<Option<Vec<u32>>> = self
            .initial_points
            .iter()
            .map(|&p| Some(vec![p]))
            .collect();
        for m in &self.merges[..steps] {
            // tidy-allow(panic): merge records reference each cluster id exactly once as an input, so the slot is still occupied during replay
            let left = members[m.left as usize].take().expect("live left");
            // tidy-allow(panic): merge records reference each cluster id exactly once as an input, so the slot is still occupied during replay
            let mut right = members[m.right as usize].take().expect("live right");
            right.extend(left);
            debug_assert_eq!(members.len(), m.merged as usize);
            members.push(Some(right));
        }
        Clustering::new(members.into_iter().flatten().collect(), self.outliers.clone())
    }

    /// Scans all cuts and returns `(k, E_l)` pairs for the criterion
    /// function under `goodness`, most-merged first — a principled way
    /// to choose `k` after one clustering run (§3.3).
    pub fn criterion_profile(
        &self,
        links: &crate::links_matrix::LinkMatrix,
        goodness: &crate::goodness::Goodness,
    ) -> Vec<(usize, f64)> {
        (self.min_clusters()..=self.num_leaves())
            .map(|k| {
                let clustering = self.cut(k);
                (
                    k,
                    crate::criterion_fn::criterion_value(links, &clustering.clusters, goodness),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{OutlierPolicy, RockAlgorithm, WeedPolicy};
    use crate::goodness::{BasketF, ConstantF, Goodness, GoodnessKind};
    use crate::neighbors::NeighborGraph;
    use crate::similarity::{Jaccard, PointsWith};

    fn figure1_run(k: usize) -> crate::algorithm::RockRun {
        let ts = crate::testdata::figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let goodness = Goodness::new(0.5, ConstantF(1.0), GoodnessKind::Normalized);
        RockAlgorithm::new(goodness, k, OutlierPolicy::default()).run(&g)
    }

    #[test]
    fn replay_matches_final_clustering() {
        let run = figure1_run(2);
        let d = Dendrogram::from_run(&run).expect("no weeding → dendrogram");
        assert_eq!(d.min_clusters(), 2);
        assert_eq!(d.cut(2), run.clustering);
    }

    #[test]
    fn cut_at_leaves_is_all_singletons() {
        let run = figure1_run(2);
        let d = Dendrogram::from_run(&run).unwrap();
        let c = d.cut(d.num_leaves());
        assert_eq!(c.num_clusters(), d.num_leaves());
        assert!(c.clusters.iter().all(|cl| cl.len() == 1));
    }

    #[test]
    fn intermediate_cuts_nest() {
        // Every cluster at cut k must be a union of clusters at cut k+1.
        let run = figure1_run(2);
        let d = Dendrogram::from_run(&run).unwrap();
        for k in d.min_clusters()..d.num_leaves() {
            let coarse = d.cut(k);
            let fine = d.cut(k + 1);
            for cl in &coarse.clusters {
                let inside: Vec<&Vec<u32>> = fine
                    .clusters
                    .iter()
                    .filter(|f| f.iter().all(|p| cl.binary_search(p).is_ok()))
                    .collect();
                let covered: usize = inside.iter().map(|f| f.len()).sum();
                assert_eq!(covered, cl.len(), "cut {k} does not nest");
            }
        }
    }

    #[test]
    fn criterion_profile_is_well_formed() {
        // E_l compares clusterings at a *fixed* k (§3.3: "the best
        // clusters are the ones that maximize the value of the criterion
        // function"); across k it is not comparable, so the profile is a
        // diagnostic, not an argmax oracle. Check its structural
        // properties: one entry per cut, finite values, zero at the
        // all-singletons cut (no intra-cluster pairs).
        let run = figure1_run(2);
        let d = Dendrogram::from_run(&run).unwrap();
        let ts = crate::testdata::figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let links = crate::links_matrix::LinkMatrix::compute_sparse(&g, 1);
        let goodness = Goodness::new(0.5, ConstantF(1.0), GoodnessKind::Normalized);
        let profile = d.criterion_profile(&links, &goodness);
        assert_eq!(profile.len(), d.num_leaves() - d.min_clusters() + 1);
        assert!(profile.iter().all(|(_, e)| e.is_finite() && *e >= 0.0));
        assert_eq!(profile.first().unwrap().0, d.min_clusters());
        let (last_k, last_e) = *profile.last().unwrap();
        assert_eq!(last_k, d.num_leaves());
        assert_eq!(last_e, 0.0);
        // At fixed k = 2, the dendrogram's cut must beat the "swallowed"
        // alternative split (see algorithm::tests::figure1_f_sensitivity).
        let cut2 = d.cut(2);
        let e_cut = crate::criterion_fn::criterion_value(&links, &cut2.clusters, &goodness);
        let swallowed = vec![(0u32..12).collect::<Vec<_>>(), (12u32..14).collect()];
        let e_swallowed = crate::criterion_fn::criterion_value(&links, &swallowed, &goodness);
        assert!(e_cut > e_swallowed);
    }

    #[test]
    fn weeded_runs_have_no_dendrogram() {
        let ts = crate::testdata::figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let goodness = Goodness::new(0.5, BasketF, GoodnessKind::Normalized);
        let run = RockAlgorithm::new(
            goodness,
            2,
            OutlierPolicy {
                min_neighbors: 1,
                weed: Some(WeedPolicy {
                    stop_multiple: 3.0,
                    min_cluster_size: 3,
                }),
            },
        )
        .run(&g);
        if !run.clustering.outliers.is_empty() {
            assert!(Dendrogram::from_run(&run).is_none());
        }
    }

    #[test]
    fn from_parts_round_trips_and_rejects_bad_traces() {
        let run = figure1_run(2);
        let d = Dendrogram::from_run(&run).unwrap();
        let rebuilt = Dendrogram::from_parts(
            d.initial_points().to_vec(),
            d.merges().to_vec(),
            d.outliers().to_vec(),
        )
        .expect("valid parts");
        assert_eq!(rebuilt.cut(2), d.cut(2));
        assert!(d.merges().len() >= 2, "figure 1 run merges enough");

        // A record consuming an already-consumed id is rejected.
        let mut dead_input = d.merges().to_vec();
        dead_input[1].left = dead_input[0].left;
        assert!(
            Dendrogram::from_parts(d.initial_points().to_vec(), dead_input, vec![]).is_none()
        );
        // A record minting a non-dense arena id is rejected.
        let mut bad_mint = d.merges().to_vec();
        bad_mint[0].merged += 1;
        assert!(Dendrogram::from_parts(d.initial_points().to_vec(), bad_mint, vec![]).is_none());
        // A self-merge is rejected.
        let mut self_merge = d.merges().to_vec();
        self_merge[0].right = self_merge[0].left;
        assert!(
            Dendrogram::from_parts(d.initial_points().to_vec(), self_merge, vec![]).is_none()
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn cut_out_of_range_panics() {
        let run = figure1_run(2);
        let d = Dendrogram::from_run(&run).unwrap();
        let _ = d.cut(1);
    }
}
