//! The labeling phase (§4.6): assigning disk-resident points to the
//! clusters found on the sample.
//!
//! For every cluster `i` a fraction of its sample points is selected as a
//! labeling set `Lᵢ`. Each remaining data point `p` is assigned to the
//! cluster maximising its *normalized* neighbor count
//! `Nᵢ / (|Lᵢ| + 1)^{f(θ)}`, where `Nᵢ` is the number of points of `Lᵢ`
//! within similarity θ of `p`; the denominator is the expected number of
//! neighbors `p` would have in `Lᵢ` if it belonged to cluster `i`. Points
//! with no neighbors in any labeling set are reported as outliers.
//!
//! One scan, `Scorer`, implements that rule for every caller, and one
//! batch pass, [`LabelPass`], is the only driver that runs it over many
//! points: [`Labeler::label_all`], phase 1 of
//! [`crate::incremental::IncrementalRockState::update`] and the
//! `rock-data` stream labeler all score through it. The single-point
//! calls [`Labeler::label_point`] and [`Labeler::label_point_checked`]
//! (serve's entry point) run the scan directly.
//!
//! ## Item-indexed scoring
//!
//! When the measure exposes item sets ([`Similarity::item_set`], e.g.
//! [`crate::similarity::Jaccard`]) and θ > 0, a representative sharing no
//! item with `p` has similarity 0 < θ and can never add to `Nᵢ`. A
//! [`LabelPass`] therefore builds one item → representative postings
//! index over all `Lᵢ` and scores each point only against the
//! representatives its items reach, deriving each similarity from the
//! intersection count with the same expression
//! [`crate::points::Transaction::jaccard`] uses. Labels are bit-identical
//! to the brute-force scan; only the work changes, from
//! `|data| × Σ|Lᵢ|` evaluations to the postings the points touch. A
//! single point is scored by brute force: the index pays off only across
//! a batch.

use crate::error::RockError;
use crate::governor::{Phase, RunGovernor};
use crate::similarity::Similarity;
use crate::util::postings::{Postings, Probe};
use crate::util::ranges::run_shards;
use rand::Rng;
use std::convert::Infallible;

/// Minimum labeling cost (points × total labeling-set size — i.e.
/// similarity evaluations) before a [`LabelPass`] spawns workers. Below
/// this the whole batch is faster than thread spawn/join. A cost, not a
/// point count, so that huge labeling sets over few points still
/// parallelise and tiny sets over many points do not.
const PARALLEL_CUTOFF_SCORES: u64 = 16 * 1024;

/// The per-cluster labeling sets drawn from the clustered sample.
#[derive(Clone, Debug)]
pub struct Labeler<P> {
    /// `sets[i]` = the points of `Lᵢ`.
    sets: Vec<Vec<P>>,
    theta: f64,
    /// `f(θ)` used in the normalisation exponent.
    ftheta: f64,
    /// `norms[i] = (|Lᵢ| + 1)^{f(θ)}`, derived from `sets` and `ftheta`.
    norms: Vec<f64>,
}

/// Result of labeling one data set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Labeling {
    /// Per input point: assigned cluster, or `None` for outliers.
    pub assignments: Vec<Option<usize>>,
    /// Number of points assigned per cluster.
    pub cluster_counts: Vec<usize>,
    /// Number of points with no neighbors in any labeling set.
    pub num_outliers: usize,
}

impl<P: Clone> Labeler<P> {
    /// Builds labeling sets by drawing `fraction` of each cluster's sample
    /// points (at least one per non-empty cluster).
    ///
    /// * `sample` — the points that were clustered;
    /// * `clusters` — the clustering of `sample`, as indices into it;
    /// * `theta`, `ftheta` — the threshold and `f(θ)` used for clustering.
    ///
    /// # Errors
    /// Returns [`RockError::InvalidLabelingFraction`] if
    /// `fraction ∉ (0, 1]` and [`RockError::InvalidTheta`] if
    /// `theta ∉ [0, 1]` — user-supplied parameters surface as typed
    /// errors, never panics.
    pub fn new<R: Rng + ?Sized>(
        sample: &[P],
        clusters: &[Vec<u32>],
        fraction: f64,
        theta: f64,
        ftheta: f64,
        rng: &mut R,
    ) -> Result<Self, RockError> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(RockError::InvalidLabelingFraction(fraction));
        }
        if !(0.0..=1.0).contains(&theta) {
            return Err(RockError::InvalidTheta(theta));
        }
        let sets = clusters
            .iter()
            .map(|members| {
                if members.is_empty() {
                    // An empty cluster gets an empty labeling set (it can
                    // never win a point); clamp(1, 0) below would panic.
                    return Vec::new();
                }
                let want = ((members.len() as f64 * fraction).round() as usize)
                    .clamp(1, members.len());
                crate::sampling::reservoir_sample_r(members.iter().copied(), want, rng)
                    .into_iter()
                    .map(|idx| sample[idx as usize].clone())
                    .collect()
            })
            .collect();
        Ok(Labeler::assemble(sets, theta, ftheta))
    }

    /// Uses every clustered sample point for labeling (fraction = 1,
    /// deterministic).
    pub fn full(sample: &[P], clusters: &[Vec<u32>], theta: f64, ftheta: f64) -> Self {
        let sets = clusters
            .iter()
            .map(|members| {
                members
                    .iter()
                    .map(|&idx| sample[idx as usize].clone())
                    .collect()
            })
            .collect();
        Labeler::assemble(sets, theta, ftheta)
    }

    /// Rebuilds a labeler from previously drawn labeling sets — the
    /// deserialization path of [`crate::artifact::ModelArtifact`], which
    /// persists the sets so loaded-artifact labeling is bit-identical to
    /// the live run that saved them.
    ///
    /// # Errors
    /// Returns [`RockError::InvalidTheta`] if `theta ∉ [0, 1]` and
    /// [`RockError::InvalidFTheta`] if `ftheta` is non-finite or
    /// negative.
    pub fn from_sets(sets: Vec<Vec<P>>, theta: f64, ftheta: f64) -> Result<Self, RockError> {
        if !(0.0..=1.0).contains(&theta) {
            return Err(RockError::InvalidTheta(theta));
        }
        if !(ftheta.is_finite() && ftheta >= 0.0) {
            return Err(RockError::InvalidFTheta(ftheta));
        }
        Ok(Labeler::assemble(sets, theta, ftheta))
    }

    fn assemble(sets: Vec<Vec<P>>, theta: f64, ftheta: f64) -> Self {
        let norms = sets.iter().map(|set| norm(set.len(), ftheta)).collect();
        Labeler {
            sets,
            theta,
            ftheta,
            norms,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.sets.len()
    }

    /// The labeling sets: `sets()[i]` holds the representatives of
    /// cluster `i`.
    pub fn sets(&self) -> &[Vec<P>] {
        &self.sets
    }

    /// The similarity threshold θ the sets were drawn under.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The `f(θ)` used in the normalisation exponent.
    pub fn ftheta(&self) -> f64 {
        self.ftheta
    }

    /// Size of labeling set `i`.
    pub(crate) fn set_size(&self, i: usize) -> usize {
        self.sets[i].len()
    }

    /// Assigns a single point: the cluster with the maximum normalized
    /// neighbor count, or `None` if the point has no neighbors in any set.
    ///
    /// Ties go to the smaller cluster index (deterministic). A single
    /// point is always scored by brute force; the item index pays off
    /// only across a batch ([`Labeler::label_all`]). A NaN similarity
    /// fails `≥ θ`, so the pair counts as no neighbor.
    pub fn label_point<S: Similarity<P>>(&self, point: &P, sim: &S) -> Option<usize> {
        infallible(Scorer::new(self, None).score(point, sim)).map(|(c, _)| c)
    }

    /// Like [`Labeler::label_point`], but surfaces a non-finite similarity
    /// value as a typed error instead of silently treating the pair as
    /// non-neighbors.
    ///
    /// This is the per-query entry point of serving
    /// ([`crate::serve::AssignService`]): a query whose similarity
    /// evaluation degenerates (NaN from a user measure) is quarantined
    /// rather than mislabeled. Batches go through
    /// [`LabelPass::label_checked`] instead.
    ///
    /// # Errors
    /// Returns [`RockError::NonFiniteSimilarity`] on the first NaN/±∞
    /// similarity encountered.
    pub fn label_point_checked<S: Similarity<P>>(
        &self,
        point: &P,
        sim: &S,
    ) -> Result<Option<usize>, RockError> {
        let scored = Scorer::new(self, None).score::<_, RockError>(point, sim)?;
        Ok(scored.map(|(c, _)| c))
    }

    /// Adds `point` to labeling set `cluster`, keeping its normaliser
    /// current.
    pub(crate) fn push_rep(&mut self, cluster: usize, point: P) {
        let set = &mut self.sets[cluster];
        set.push(point);
        self.norms[cluster] = norm(set.len(), self.ftheta);
    }

    /// Replaces the labeling sets with `f(sets)` and recomputes every
    /// normaliser.
    pub(crate) fn map_sets(&mut self, f: impl FnOnce(Vec<Vec<P>>) -> Vec<Vec<P>>) {
        let sets = f(std::mem::take(&mut self.sets));
        *self = Labeler::assemble(sets, self.theta, self.ftheta);
    }

    /// Labels every point of `data` (§4.6) — through the item index when
    /// the measure exposes item sets and θ > 0 (see the module docs), by
    /// brute force otherwise; the labels are the same either way.
    ///
    /// The pass is governed: `data` is labeled in batches of
    /// [`Labeler::GOVERNED_BATCH`] points and `governor` is consulted
    /// between batches, so cancellation, deadlines and injected kills
    /// (`with_kill_at(Phase::Labeling, batch)`) are observed within one
    /// batch. Pass [`RunGovernor::unlimited`] for an ungoverned pass.
    ///
    /// Each batch goes through one [`LabelPass`] (one index for the
    /// whole pass) on up to `threads` workers. Every point is scored
    /// independently against the fixed Lᵢ sets, so the result is
    /// bit-identical for every thread count and batch boundary (pinned
    /// in `tests/kernel_invariance.rs`).
    ///
    /// # Errors
    /// Returns [`RockError::Interrupted`] when the governor trips.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn label_all<S>(
        &self,
        data: &[P],
        sim: &S,
        threads: usize,
        governor: &RunGovernor,
    ) -> Result<Labeling, RockError>
    where
        S: Similarity<P> + Sync,
        P: Sync,
    {
        assert!(threads > 0, "need at least one thread");
        governor.check(Phase::Labeling)?;
        let pass = LabelPass::new(self, sim);
        let mut assignments: Vec<Option<usize>> = Vec::with_capacity(data.len());
        for (batch, part) in data.chunks(Self::GOVERNED_BATCH).enumerate() {
            // check_at applies the injected kill point; the unconditional
            // check keeps cancellation latency at one (coarse) batch even
            // for governors with a large merge check interval.
            governor.check_at(Phase::Labeling, batch as u64)?;
            governor.check(Phase::Labeling)?;
            infallible(pass.score(part, threads, &mut assignments, |scored| {
                Ok(infallible(scored).map(|(c, _)| c))
            }));
        }
        Ok(pass.labeling(assignments))
    }

    /// Points labeled between two governor checkpoints in
    /// [`Labeler::label_all`].
    pub const GOVERNED_BATCH: usize = 4096;
}

/// One §4.6 batch pass: the item index over a labeler's sets, built
/// once, and the chunked scan that every batch caller scores through —
/// [`Labeler::label_all`], phase 1 of the online update and the
/// `rock-data` stream labeler, which builds one pass per stream and
/// calls [`LabelPass::label_checked`] once per read round.
///
/// Every point is scored independently against the fixed Lᵢ sets, so
/// the outcome of a point does not depend on the thread count, on the
/// chunk it lands in or on how the caller splits its batches.
#[derive(Debug)]
pub struct LabelPass<'a, P, S> {
    labeler: &'a Labeler<P>,
    sim: &'a S,
    index: Option<RepIndex<'a>>,
}

impl<'a, P, S: Similarity<P>> LabelPass<'a, P, S> {
    /// Indexes `labeler`'s sets for `sim` when the index is exact (see
    /// the module docs); otherwise the pass scores by brute force.
    pub fn new(labeler: &'a Labeler<P>, sim: &'a S) -> Self {
        LabelPass {
            labeler,
            sim,
            index: rep_index(labeler, sim),
        }
    }

    /// Scores `points` in order on the calling thread, appending
    /// `keep(outcome)` to `out` until `keep` returns an error. The
    /// outcome's error type is the scan's [`NanPolicy`]. Counts the
    /// similarity evaluations it made.
    pub(crate) fn score_chunk<T, E: NanPolicy, F>(
        &self,
        points: &[P],
        out: &mut Vec<T>,
        keep: &impl Fn(Result<Option<(usize, u64)>, E>) -> Result<T, F>,
    ) -> Result<(), F> {
        let mut scorer = Scorer::new(self.labeler, self.index.as_ref());
        // tidy:kernel-hot-loop — per-point §4.6 scoring
        let stop = points.iter().try_for_each(|point| {
            out.push(keep(scorer.score(point, self.sim))?);
            Ok(())
        });
        // tidy:end-kernel-hot-loop
        crate::perf::count_sim_evals(scorer.evals);
        stop
    }

    /// Folds assignments given in input order into a [`Labeling`] over
    /// the labeler's clusters.
    pub fn labeling(&self, assignments: Vec<Option<usize>>) -> Labeling {
        let mut cluster_counts = vec![0usize; self.labeler.sets.len()];
        let mut num_outliers = 0usize;
        for a in &assignments {
            match a {
                Some(c) => cluster_counts[*c] += 1,
                None => num_outliers += 1,
            }
        }
        Labeling {
            assignments,
            cluster_counts,
            num_outliers,
        }
    }
}

impl<P: Sync, S: Similarity<P> + Sync> LabelPass<'_, P, S> {
    /// Like [`LabelPass::score_chunk`], on up to `threads` workers: the
    /// points split into equal contiguous chunks, which the crate's one
    /// shard fan-out (`util::ranges::run_shards`) scores into their own
    /// buffers; the buffers join `out` in chunk order. The points are
    /// chunked only when the cost (points × total labeling-set size)
    /// reaches [`PARALLEL_CUTOFF_SCORES`]; below it the calling thread
    /// scores straight into `out`.
    fn score<T: Send, E: NanPolicy, F: Send>(
        &self,
        points: &[P],
        threads: usize,
        out: &mut Vec<T>,
        keep: impl Fn(Result<Option<(usize, u64)>, E>) -> Result<T, F> + Sync,
    ) -> Result<(), F> {
        let set_points: usize = self.labeler.sets.iter().map(Vec::len).sum();
        let cost = points.len() as u64 * set_points.max(1) as u64;
        if cost < PARALLEL_CUTOFF_SCORES || threads == 1 {
            return self.score_chunk(points, out, &keep);
        }
        let chunk = points.len().div_ceil(threads).max(1);
        let parts = run_shards(points.chunks(chunk), |part| {
            let mut slots = Vec::with_capacity(part.len());
            let stop = self.score_chunk(part, &mut slots, &keep);
            (slots, stop)
        });
        for (slots, stop) in parts {
            out.extend(slots);
            stop?;
        }
        Ok(())
    }

    /// Labels `points` (§4.6) on up to `threads` workers, quarantining
    /// rather than mislabeling: per point, its cluster or `None` for an
    /// outlier, or [`RockError::NonFiniteSimilarity`] when a similarity
    /// the scan evaluated is NaN/±∞. A point takes the indexed branch
    /// exactly when [`Labeler::label_all`] would; otherwise the sets are
    /// evaluated in order, as [`Labeler::label_point_checked`] does, up
    /// to the first non-finite value. The result is the same for every
    /// thread count.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn label_checked(
        &self,
        points: &[P],
        threads: usize,
    ) -> Vec<Result<Option<usize>, RockError>> {
        assert!(threads > 0, "need at least one thread");
        let mut out = Vec::with_capacity(points.len());
        let keep = |scored: Result<Option<(usize, u64)>, RockError>| {
            Ok(scored.map(|s| s.map(|(c, _)| c)))
        };
        infallible(self.score(points, threads, &mut out, keep));
        out
    }
}

/// The §4.6 normaliser `(|Lᵢ| + 1)^{f(θ)}` of a labeling set of `len`
/// points: the expected neighbor count of a member point of its cluster.
fn norm(len: usize, ftheta: f64) -> f64 {
    ((len + 1) as f64).powf(ftheta)
}

/// The §4.6 decision over per-cluster neighbor counts `Nᵢ` given in
/// cluster order, against the clusters' [`norm`]s: the cluster
/// maximising `Nᵢ / normᵢ`, returned with its `Nᵢ`; ties go to the
/// smaller index, and `None` means no cluster has a neighbor (an
/// outlier).
///
/// Both branches of [`Scorer::score`] decide through this one function.
/// Counts are pulled lazily, so on the brute-force branch a failing count
/// (a non-finite similarity under [`RockError`]) stops the scan before
/// any later similarity is evaluated.
fn argmax_normalized<E>(
    neighbors: impl IntoIterator<Item = Result<u64, E>>,
    norms: &[f64],
) -> Result<Option<(usize, u64)>, E> {
    let mut best: Option<(usize, u64, f64)> = None;
    for (i, (count, &norm)) in neighbors.into_iter().zip(norms).enumerate() {
        let count = count?;
        if count == 0 {
            continue;
        }
        let score = count as f64 / norm;
        let better = match best {
            None => true,
            Some((_, _, b)) => score > b,
        };
        if better {
            best = Some((i, count, score));
        }
    }
    Ok(best.map(|(i, n, _)| (i, n)))
}

/// How the brute-force branch of [`Scorer::score`] treats a non-finite
/// similarity, chosen by the scan's error type: [`Infallible`] lets it
/// fail `≥ θ` (no neighbor) and scans every set; [`RockError`] stops at
/// the first one with [`RockError::NonFiniteSimilarity`].
pub(crate) trait NanPolicy: Sized {
    fn check(similarity: f64) -> Result<(), Self>;
}

impl NanPolicy for Infallible {
    fn check(_: f64) -> Result<(), Self> {
        Ok(())
    }
}

impl NanPolicy for RockError {
    fn check(value: f64) -> Result<(), Self> {
        if value.is_finite() {
            Ok(())
        } else {
            Err(RockError::NonFiniteSimilarity { value })
        }
    }
}

fn infallible<T>(r: Result<T, Infallible>) -> T {
    match r {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

/// The item index of a pass: postings over the representatives ("reps")
/// of every labeling set, numbered by position in `L₀ ‖ L₁ ‖ …`, with the
/// cluster of each rep. Built once per pass through the shared gate
/// ([`Postings::index`]) and shared read-only by the workers; `None`
/// keeps labeling brute force, also when there are more clusters than
/// `u32` ids address.
type RepIndex<'a> = (Postings<'a>, Vec<u32>);

fn rep_index<'a, P, S: Similarity<P>>(labeler: &'a Labeler<P>, sim: &S) -> Option<RepIndex<'a>> {
    let reps = labeler.sets.iter().flatten().map(|rep| sim.item_set(rep));
    let items = Postings::index(labeler.theta, reps)?;
    let mut rep_cluster = Vec::with_capacity(items.num_sets());
    for (c, set) in labeler.sets.iter().enumerate() {
        rep_cluster.resize(rep_cluster.len() + set.len(), u32::try_from(c).ok()?);
    }
    Some((items, rep_cluster))
}

/// The §4.6 scan: one worker's scorer. It takes the item-indexed path
/// when an index exists and the measure exposes the point's items, and
/// brute force otherwise; on the indexed path it owns the [`Probe`] it
/// reuses from point to point.
struct Scorer<'a, P> {
    labeler: &'a Labeler<P>,
    /// The probe of the pass's index, with the cluster of each rep.
    index: Option<(Probe<'a>, &'a [u32])>,
    /// `Nᵢ` per cluster; all zero between points.
    neighbors: Vec<u64>,
    /// `Σ|Lᵢ|`: the evaluations of one brute-force point.
    set_points: u64,
    /// Similarity evaluations so far: `Σ|Lᵢ|` per brute-force point, the
    /// touched reps per indexed point.
    evals: u64,
}

impl<'a, P> Scorer<'a, P> {
    fn new(labeler: &'a Labeler<P>, index: Option<&'a RepIndex<'a>>) -> Self {
        Scorer {
            labeler,
            index: index.map(|(items, clusters)| (Probe::new(items), &clusters[..])),
            // Only the indexed path tallies Nᵢ here.
            neighbors: vec![0; index.map_or(0, |_| labeler.sets.len())],
            set_points: labeler.sets.iter().map(|s| s.len() as u64).sum(),
            evals: 0,
        }
    }

    /// Scores one point: the winning cluster and its `Nᵢ`, or `None` for
    /// an outlier. The brute-force branch evaluates the sets in order and
    /// applies `E`'s [`NanPolicy`] to every value; the indexed branch
    /// evaluates no similarity, so the policy never fires there (the
    /// [`Similarity::item_set`] contract makes its values finite).
    fn score<S: Similarity<P>, E: NanPolicy>(
        &mut self,
        point: &P,
        sim: &S,
    ) -> Result<Option<(usize, u64)>, E> {
        let theta = self.labeler.theta;
        if let (Some((probe, rep_cluster)), Some(items)) =
            (self.index.as_mut(), sim.item_set(point))
        {
            // Every rep is probed, and each hit adds to its cluster's Nᵢ.
            let neighbors = &mut self.neighbors;
            self.evals += probe.run(items, 0, theta, |r| {
                neighbors[rep_cluster[r as usize] as usize] += 1;
            });
            let counts = self.neighbors.iter().map(|&n| Ok(n));
            let best = infallible(argmax_normalized(counts, &self.labeler.norms));
            self.neighbors.fill(0);
            return Ok(best);
        }
        self.evals += self.set_points;
        let counts = self.labeler.sets.iter().map(|set| {
            let mut neighbors = 0u64;
            for rep in set {
                let s = sim.similarity(point, rep);
                E::check(s)?;
                if s >= theta {
                    neighbors += 1;
                }
            }
            Ok(neighbors)
        });
        argmax_normalized(counts, &self.labeler.norms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::Transaction;
    use crate::similarity::Jaccard;
    use rand::{rngs::StdRng, SeedableRng};

    fn two_cluster_sample() -> (Vec<Transaction>, Vec<Vec<u32>>) {
        let sample = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([2, 3, 4]),
            Transaction::from([10, 11, 12]),
            Transaction::from([10, 11, 13]),
            Transaction::from([11, 12, 13]),
        ];
        let clusters = vec![vec![0, 1, 2], vec![3, 4, 5]];
        (sample, clusters)
    }

    #[test]
    fn full_labeler_assigns_to_own_cluster() {
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        assert_eq!(labeler.label_point(&Transaction::from([1, 3, 4]), &Jaccard), Some(0));
        assert_eq!(labeler.label_point(&Transaction::from([10, 12, 13]), &Jaccard), Some(1));
    }

    #[test]
    fn unrelated_point_is_outlier() {
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        assert_eq!(labeler.label_point(&Transaction::from([77, 88]), &Jaccard), None);
    }

    #[test]
    fn label_all_counts() {
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        let data = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([2, 3, 4]),
            Transaction::from([10, 11, 12]),
            Transaction::from([55, 66, 77]),
        ];
        let l = label_all(&labeler, &data, 1);
        assert_eq!(l.assignments, vec![Some(0), Some(0), Some(1), None]);
        assert_eq!(l.cluster_counts, vec![2, 1]);
        assert_eq!(l.num_outliers, 1);
    }

    #[test]
    fn fractional_sets_bounded_and_nonempty() {
        let (sample, clusters) = two_cluster_sample();
        let mut rng = StdRng::seed_from_u64(3);
        let labeler = Labeler::new(&sample, &clusters, 0.34, 0.4, 1.0 / 3.0, &mut rng).unwrap();
        for i in 0..labeler.num_clusters() {
            assert_eq!(labeler.set_size(i), 1); // 0.34 * 3 ≈ 1
        }
    }

    #[test]
    fn normalisation_prefers_denser_neighborhood() {
        // A point with 1 neighbor in a tiny set and 1 neighbor in a huge
        // set must prefer the tiny set (higher normalized count).
        let sample = vec![
            Transaction::from([1, 2]),
            // big cluster of unrelated-but-self-similar transactions plus
            // one neighbor of the query
            Transaction::from([1, 3]),
            Transaction::from([5, 6]),
            Transaction::from([5, 7]),
            Transaction::from([5, 8]),
            Transaction::from([5, 9]),
        ];
        let clusters = vec![vec![0], vec![1, 2, 3, 4, 5]];
        let labeler = Labeler::full(&sample, &clusters, 0.3, 0.5);
        // Query {1,2,3}: sim to {1,2} = 2/3 ≥ 0.3 (N₀=1, |L₀|=1);
        // sim to {1,3} = 2/3 (N₁=1, |L₁|=5). Scores 1/2^0.5 vs 1/6^0.5.
        assert_eq!(labeler.label_point(&Transaction::from([1, 2, 3]), &Jaccard), Some(0));
    }

    #[test]
    fn empty_cluster_gets_empty_labeling_set() {
        let (sample, _) = two_cluster_sample();
        let clusters = vec![vec![0, 1, 2], vec![]];
        let mut rng = StdRng::seed_from_u64(8);
        let labeler = Labeler::new(&sample, &clusters, 0.5, 0.4, 1.0 / 3.0, &mut rng).unwrap();
        assert_eq!(labeler.set_size(1), 0);
        // Points can still only land in the non-empty cluster.
        assert_eq!(
            labeler.label_point(&Transaction::from([1, 2, 4]), &Jaccard),
            Some(0)
        );
    }

    /// Thread counts every batch-labeling test sweeps.
    const THREADS: [usize; 3] = [1, 2, 8];

    /// An ungoverned [`Labeler::label_all`] pass.
    fn label_all(labeler: &Labeler<Transaction>, data: &[Transaction], threads: usize) -> Labeling {
        labeler
            .label_all(data, &Jaccard, threads, &RunGovernor::unlimited())
            .unwrap()
    }

    /// The per-point brute-force reference for `data`.
    fn label_each(labeler: &Labeler<Transaction>, data: &[Transaction]) -> Vec<Option<usize>> {
        data.iter().map(|p| labeler.label_point(p, &Jaccard)).collect()
    }

    #[test]
    fn labeling_is_thread_count_invariant() {
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        let data: Vec<Transaction> = (0..3000u32)
            .map(|i| match i % 3 {
                0 => Transaction::from([1, 2, 3]),
                1 => Transaction::from([10, 11, 12]),
                _ => Transaction::from([70 + i % 5, 90 + i % 7]),
            })
            .collect();
        let reference = label_each(&labeler, &data);
        for threads in THREADS {
            let labeling = label_all(&labeler, &data, threads);
            assert_eq!(labeling.assignments, reference, "threads={threads}");
            assert_eq!(labeling, label_all(&labeler, &data, 1), "threads={threads}");
        }
    }

    #[test]
    fn cost_based_cutoff_parallelises_small_data_over_big_sets() {
        // 200 points × 600 set points = 120k score evaluations — well
        // past the cost cutoff even though the old `len < 1024` bailout
        // would have forced this serial.
        let sample: Vec<Transaction> = (0..600u32)
            .map(|i| {
                let base = if i < 300 { 0 } else { 100 };
                Transaction::from([base + i % 7, base + i % 11 + 20, base + i % 13 + 40])
            })
            .collect();
        let clusters = vec![(0..300).collect(), (300..600).collect()];
        let labeler = Labeler::full(&sample, &clusters, 0.2, 1.0 / 3.0);
        let data: Vec<Transaction> = (0..200u32)
            .map(|i| {
                let base = if i % 2 == 0 { 0 } else { 100 };
                Transaction::from([base + i % 7, base + i % 11 + 20])
            })
            .collect();
        let reference = label_each(&labeler, &data);
        for threads in THREADS {
            assert_eq!(
                label_all(&labeler, &data, threads).assignments,
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn labeling_spans_batches_and_observes_kills() {
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        let data: Vec<Transaction> = (0..Labeler::<Transaction>::GOVERNED_BATCH as u32 + 500)
            .map(|i| match i % 3 {
                0 => Transaction::from([1, 2, 3]),
                1 => Transaction::from([10, 11, 12]),
                _ => Transaction::from([70 + i % 5, 90 + i % 7]),
            })
            .collect();
        let reference = label_each(&labeler, &data);
        for threads in THREADS {
            assert_eq!(
                label_all(&labeler, &data, threads).assignments,
                reference,
                "threads={threads}"
            );
            // An injected kill at batch 1 stops after the first batch.
            let killer = RunGovernor::unlimited().with_kill_at(Phase::Labeling, 1);
            assert!(matches!(
                labeler.label_all(&data, &Jaccard, threads, &killer),
                Err(RockError::Interrupted {
                    phase: Phase::Labeling,
                    ..
                })
            ));
        }
    }

    #[test]
    fn bad_parameters_are_typed_errors_not_panics() {
        let (sample, clusters) = two_cluster_sample();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            Labeler::new(&sample, &clusters, 0.0, 0.4, 0.3, &mut rng),
            Err(RockError::InvalidLabelingFraction(_))
        ));
        assert!(matches!(
            Labeler::new(&sample, &clusters, 1.5, 0.4, 0.3, &mut rng),
            Err(RockError::InvalidLabelingFraction(_))
        ));
        assert!(matches!(
            Labeler::new(&sample, &clusters, f64::NAN, 0.4, 0.3, &mut rng),
            Err(RockError::InvalidLabelingFraction(_))
        ));
        assert!(matches!(
            Labeler::new(&sample, &clusters, 0.5, 1.4, 0.3, &mut rng),
            Err(RockError::InvalidTheta(_))
        ));
    }

    #[test]
    fn checked_labeling_matches_unchecked_on_finite_measures() {
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        for p in [
            Transaction::from([1, 3, 4]),
            Transaction::from([10, 12, 13]),
            Transaction::from([77, 88]),
        ] {
            assert_eq!(
                labeler.label_point_checked(&p, &Jaccard).unwrap(),
                labeler.label_point(&p, &Jaccard)
            );
        }
    }

    /// Jaccard without the item capability: the brute-force reference.
    struct Opaque;

    impl Similarity<Transaction> for Opaque {
        fn similarity(&self, a: &Transaction, b: &Transaction) -> f64 {
            Jaccard.similarity(a, b)
        }
    }

    #[test]
    fn index_is_built_only_where_it_is_exact() {
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        assert!(rep_index(&labeler, &Jaccard).is_some());
        assert!(rep_index(&labeler, &&Jaccard).is_some());
        assert!(rep_index(&labeler, &Opaque).is_none());
        let at_zero = Labeler::full(&sample, &clusters, 0.0, 1.0 / 3.0);
        assert!(rep_index(&at_zero, &Jaccard).is_none());
    }

    #[test]
    fn spread_out_item_ids_fall_back_to_brute_force() {
        let top = u32::MAX;
        let sample = vec![
            Transaction::from([0, 1, top]),
            Transaction::from([1, top - 1, top]),
            Transaction::from([7, 8]),
        ];
        let labeler = Labeler::full(&sample, &[vec![0, 1], vec![2]], 0.3, 0.5);
        assert!(rep_index(&labeler, &Jaccard).is_none());
    }

    #[test]
    fn checked_labeling_surfaces_nan_similarity() {
        struct AlwaysNan;
        impl Similarity<Transaction> for AlwaysNan {
            fn similarity(&self, _: &Transaction, _: &Transaction) -> f64 {
                f64::NAN
            }
        }
        let (sample, clusters) = two_cluster_sample();
        let labeler = Labeler::full(&sample, &clusters, 0.4, 1.0 / 3.0);
        let q = Transaction::from([1, 2, 3]);
        // Unchecked: NaN silently means "no neighbors anywhere" → outlier.
        assert_eq!(labeler.label_point(&q, &AlwaysNan), None);
        // Checked: a typed error instead.
        assert!(matches!(
            labeler.label_point_checked(&q, &AlwaysNan),
            Err(RockError::NonFiniteSimilarity { .. })
        ));
    }
    #[test]
    fn label_all_through_checked_latches_nan_without_item_sets() {
        use crate::similarity::CheckedSimilarity;
        use std::sync::atomic::{AtomicU64, Ordering};
        /// NaN on every call, counted. It exposes no item set, so the
        /// labeler must take the brute-force pass.
        struct CountingNan(AtomicU64);
        impl Similarity<Transaction> for CountingNan {
            fn similarity(&self, _: &Transaction, _: &Transaction) -> f64 {
                self.0.fetch_add(1, Ordering::Relaxed);
                f64::NAN
            }
        }
        let nan = CountingNan(AtomicU64::new(0));
        let a = Transaction::from([1, 2]);
        assert_eq!(nan.item_set(&a), None);
        let sample = vec![a.clone(), Transaction::from([2, 3])];
        let labeler = Labeler::full(&sample, &[vec![0, 1]], 0.4, 1.0 / 3.0);
        let checked = CheckedSimilarity::new(&nan);
        let labeling = labeler
            .label_all(
                &[a],
                &checked,
                1,
                &crate::governor::RunGovernor::unlimited(),
            )
            .unwrap();
        assert_eq!(labeling.num_outliers, 1);
        assert!(checked.error().is_some());
        assert_eq!(nan.0.load(Ordering::Relaxed), 2);
    }
}
