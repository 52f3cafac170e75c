//! ROCK's agglomerative clustering loop (§4.3, Fig. 3) with outlier
//! handling (§4.6).
//!
//! The algorithm maintains, per live cluster `i`, a *local heap* `q[i]` of
//! merge candidates ordered by the goodness measure, plus a *global heap*
//! `Q` ordering clusters by the goodness of their best candidate. Every
//! iteration merges the globally best pair and patches the heaps of all
//! clusters linked to either side — O(n² log n) worst case (§4.5). That
//! mutable heap + link-list state lives in
//! [`crate::incremental::IncrementalState`], shared bit-for-bit with the
//! online update path; this module owns the batch driver around it.
//!
//! Deviations from Fig. 3, all from the paper's own prose:
//!
//! * the loop also stops when no remaining pair of clusters has links
//!   (§4.3: "it also stops clustering if the number of links between every
//!   pair of the remaining clusters becomes zero" — this is how the
//!   mushroom run ends at 21 clusters instead of the requested 20);
//! * §4.6 outlier handling: points with too few neighbors are discarded
//!   up front, and optionally the merge loop pauses when the cluster count
//!   falls to `⌈stop_multiple · k⌉`, weeds clusters below a support
//!   threshold, and then continues towards `k`.

use crate::cluster::{Clustering, MergeRecord};
use crate::error::RockError;
use crate::goodness::{Goodness, GoodnessKind};
use crate::governor::{Phase, RunGovernor};
use crate::incremental::{IncrementalState, Link, MergeBound};
use crate::links_matrix::LinkMatrix;
use crate::neighbors::NeighborGraph;
use crate::wal::{parse_wal, MergeWal, WalBegin, WalConfig, WalReplay, WalSnapshot};
use std::borrow::Cow;

/// §4.6 outlier handling knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutlierPolicy {
    /// Discard, before clustering, every point with fewer than this many
    /// neighbors. `0` disables pruning (every point has ≥ 0 neighbors).
    /// The paper's "first pruning": isolated points never participate.
    pub min_neighbors: usize,
    /// If set, pause the merge loop when `⌈stop_multiple · k⌉` clusters
    /// remain and weed out clusters smaller than `min_cluster_size` —
    /// the paper's "small groups of points that are loosely connected".
    pub weed: Option<WeedPolicy>,
}

/// The mid-flight weeding step of §4.6.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeedPolicy {
    /// Multiple of `k` at which to weed (the paper's "small multiple of
    /// the expected number of clusters"). Must be ≥ 1.
    pub stop_multiple: f64,
    /// Clusters strictly smaller than this are discarded as outliers.
    pub min_cluster_size: usize,
}

impl OutlierPolicy {
    /// No outlier handling at all.
    pub fn disabled() -> Self {
        OutlierPolicy {
            min_neighbors: 0,
            weed: None,
        }
    }
}

impl Default for OutlierPolicy {
    /// Prune neighbor-less points; no mid-flight weeding.
    fn default() -> Self {
        OutlierPolicy {
            min_neighbors: 1,
            weed: None,
        }
    }
}

/// The clustering engine: goodness measure + target cluster count +
/// outlier policy.
#[derive(Clone, Copy, Debug)]
pub struct RockAlgorithm {
    goodness: Goodness,
    k: usize,
    outliers: OutlierPolicy,
}

/// Full output of a clustering run, including the merge trace.
#[derive(Clone, Debug, Default)]
pub struct RockRun {
    /// The final clusters and outliers.
    pub clustering: Clustering,
    /// One record per merge, in merge order. Arena cluster ids: id `i <
    /// initial_points.len()` is the singleton `{initial_points[i]}`; each
    /// merge mints the next id.
    pub merges: Vec<MergeRecord>,
    /// Point id of each initial (post-pruning) singleton cluster.
    pub initial_points: Vec<u32>,
}

impl RockAlgorithm {
    /// Creates the engine.
    ///
    /// # Panics
    /// Panics if `k == 0` or a weed policy has `stop_multiple < 1`.
    pub fn new(goodness: Goodness, k: usize, outliers: OutlierPolicy) -> Self {
        assert!(k >= 1, "need at least one target cluster");
        if let Some(w) = &outliers.weed {
            assert!(w.stop_multiple >= 1.0, "stop_multiple must be ≥ 1");
        }
        RockAlgorithm {
            goodness,
            k,
            outliers,
        }
    }

    /// Accepts a hash seed and ignores it: the merge loop keeps its links
    /// in flat per-cluster lists and holds no hash maps, so no seed can
    /// reach it. Kept so configurations that carry a seed (persisted in
    /// artifacts and update-log fingerprints) still build an engine; the
    /// hasher-independence property test still runs this engine under
    /// several seeds and diffs the outputs.
    #[must_use]
    pub fn with_hash_seed(self, seed: u64) -> Self {
        let _ = seed;
        self
    }

    /// The goodness measure in use.
    pub fn goodness(&self) -> &Goodness {
        &self.goodness
    }

    /// The target number of clusters `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Clusters the points of `graph`, ungoverned and on one thread:
    /// computes links (auto-selected CSR kernel, see
    /// [`LinkMatrix::compute_auto`]) and runs the merge loop (Fig. 3)
    /// as [`run_governed`](Self::run_governed) does, with an unlimited
    /// governor and no WAL, owning the links (see `init_from_links`).
    /// The convenience for a prebuilt graph;
    /// [`crate::rock::Rock::cluster`] is the governed, multi-threaded
    /// entry point from points.
    pub fn run(&self, graph: &NeighborGraph) -> RockRun {
        let links = LinkMatrix::compute_auto(graph, 1);
        self.run_links(graph, Cow::Owned(links), &RunGovernor::unlimited(), None)
            // tidy-allow(panic): an unlimited governor has no budgets, no deadline and no cancel token, so drive() cannot trip
            .expect("an unlimited governor never trips")
    }

    /// Runs the merge loop (Fig. 3) over precomputed `links` (e.g.
    /// [`LinkMatrix::compute_auto`], or [`LinkMatrix::from_pairs`] for
    /// links computed elsewhere), governed: budgets and
    /// cancellation are checked every `check_every` merges, and every
    /// merge decision is appended to `wal` (if given) *before* it is
    /// counted as done, so an interrupted run can be continued by
    /// [`resume`](Self::resume).
    ///
    /// The result does not depend on the governor when it lets the run
    /// finish, nor on the thread count the links were computed with.
    /// The matrix is borrowed, so it stays alive beside the merge state
    /// for the whole loop.
    ///
    /// # Errors
    /// [`RockError::Interrupted`] when the governor trips; `resumable`
    /// is `true` iff a WAL was being written.
    ///
    /// # Panics
    /// Panics if `links` is not defined over exactly `graph.len()` points.
    pub fn run_governed(
        &self,
        graph: &NeighborGraph,
        links: &LinkMatrix,
        governor: &RunGovernor,
        wal: Option<&mut MergeWal>,
    ) -> Result<RockRun, RockError> {
        self.run_links(graph, Cow::Borrowed(links), governor, wal)
    }

    /// The one fresh-run body behind [`run`](Self::run),
    /// [`run_governed`](Self::run_governed) and the engine's merge
    /// stage: builds the merge state from `links` (`init_from_links`),
    /// then drives the loop and finishes.
    ///
    /// # Errors
    /// As [`run_governed`](Self::run_governed).
    ///
    /// # Panics
    /// Panics if `links` is not defined over exactly `graph.len()` points.
    pub(crate) fn run_links(
        &self,
        graph: &NeighborGraph,
        links: Cow<'_, LinkMatrix>,
        governor: &RunGovernor,
        mut wal: Option<&mut MergeWal>,
    ) -> Result<RockRun, RockError> {
        assert_eq!(
            links.num_points(),
            graph.len(),
            "link matrix and neighbor graph disagree on point count"
        );
        let mut engine = self.init_from_links(graph, links);
        if let Some(w) = wal.as_deref_mut() {
            w.append_begin(&self.wal_begin(graph.len(), &engine));
        }
        self.drive(&mut engine, governor, wal.as_deref_mut())?;
        Ok(self.finish(engine, wal))
    }

    /// Resumes an interrupted run from the bytes of a merge WAL:
    /// replays the logged prefix (verifying every record against the
    /// deterministically re-derived state) and continues the merge loop
    /// to completion. The final clustering, merge trace and dendrogram
    /// are **bit-identical** to those of an uninterrupted run.
    ///
    /// If the WAL carries a snapshot, `graph` may be `None` — the state
    /// is restored from the snapshot and links are not recomputed.
    /// Without a snapshot the original neighbor graph is required, and
    /// the recomputed links' bytes are charged to `governor` until the
    /// merge loop finishes, as in a journaled fit; the replayed loop
    /// observes the charge at its next budget check.
    ///
    /// A fresh, self-contained continuation log is written to `wal_out`
    /// (if given): the full merge history is re-logged and a snapshot of
    /// the restored state appended, so a chain of interruptions can be
    /// resumed WAL-from-WAL without ever revisiting the input data.
    ///
    /// # Errors
    /// * [`RockError::WalCorrupt`] — the log is damaged beyond its torn
    ///   tail (bad magic / Begin).
    /// * [`RockError::WalMismatch`] — the log is from a different
    ///   configuration or input, or contradicts the replayed state.
    /// * [`RockError::Interrupted`] — the governor tripped again.
    pub fn resume(
        &self,
        wal_bytes: &[u8],
        graph: Option<&NeighborGraph>,
        threads: usize,
        governor: &RunGovernor,
        wal_out: Option<&mut MergeWal>,
    ) -> Result<RockRun, RockError> {
        let replay = parse_wal(wal_bytes)?;
        self.validate_begin(&replay.begin, graph)?;

        let mut link_bytes = 0;
        let engine = match &replay.snapshot {
            Some(snap) => self.engine_from_snapshot(&replay.begin, &replay.merges, snap)?,
            None => {
                let Some(graph) = graph else {
                    return Err(RockError::WalMismatch {
                        detail: "WAL carries no snapshot; the neighbor graph is required \
                                 to resume"
                            .into(),
                    });
                };
                let links = LinkMatrix::compute_auto(graph, threads);
                link_bytes = links.memory_bytes() as u64;
                let engine = self.init_from_links(graph, Cow::Owned(links));
                if engine.initial_points != replay.begin.initial_points
                    || engine.outliers != replay.begin.pruned_outliers
                {
                    return Err(RockError::WalMismatch {
                        detail: "initial singletons differ from the logged run \
                                 (different input data or θ?)"
                            .into(),
                    });
                }
                engine
            }
        };
        governor.charge(link_bytes);
        // The resumed loop checks budgets only every `check_every`
        // merges, so a resume with fewer left would never observe one.
        let outcome = match governor.check(Phase::Merge) {
            Err(e) => Err(mark_resumable(e, wal_out.is_some())),
            Ok(()) => self.replay_and_drive(engine, &replay, governor, wal_out),
        };
        governor.release(link_bytes);
        outcome
    }

    /// The tail of [`RockAlgorithm::resume`]: replays the logged merges
    /// `engine` lacks, re-journals the history to `wal_out` and drives
    /// the merge loop to completion.
    fn replay_and_drive(
        &self,
        mut engine: Engine,
        replay: &WalReplay,
        governor: &RunGovernor,
        mut wal_out: Option<&mut MergeWal>,
    ) -> Result<RockRun, RockError> {
        // Replay the logged merges the snapshot hasn't already baked in.
        let already = engine.merges.len();
        for rec in &replay.merges[already..] {
            self.replay_one(&mut engine, rec)?;
        }

        // Make the continuation log self-contained before continuing.
        if let Some(w) = wal_out.as_deref_mut() {
            w.append_begin(&replay.begin);
            for rec in &engine.merges {
                w.append_merge(rec);
            }
            w.append_snapshot(&engine.snapshot());
        }
        self.drive(&mut engine, governor, wal_out.as_deref_mut())?;
        Ok(self.finish(engine, wal_out))
    }

    /// Builds the initial engine state: §4.6 first pruning, singleton
    /// clusters and their link lists; [`IncrementalState::seed`] derives
    /// the two-level heaps.
    ///
    /// A surviving point's list is its CSR row of `links` with pruned
    /// partners skipped, copied into a `Vec` of exactly that length.
    /// Clusters are numbered in point order, so the list stays ascending
    /// by partner. `links` is dropped once the lists are filled and
    /// before the heaps are seeded: an owned matrix is freed there, so
    /// the CSR, the full lists and the heaps are never alive together. A
    /// borrowed one stays with its owner.
    fn init_from_links(&self, graph: &NeighborGraph, links: Cow<'_, LinkMatrix>) -> Engine {
        let n = graph.len();

        // §4.6 first pruning: points with too few neighbors are outliers.
        let mut outliers: Vec<u32> = Vec::new();
        let mut cluster_of_point: Vec<Option<u32>> = vec![None; n];
        let mut members: Vec<Option<Vec<u32>>> = Vec::new();
        let mut initial_points: Vec<u32> = Vec::new();
        for (p, slot) in cluster_of_point.iter_mut().enumerate() {
            if graph.degree(p) < self.outliers.min_neighbors {
                outliers.push(p as u32);
            } else {
                *slot = Some(members.len() as u32);
                members.push(Some(vec![p as u32]));
                initial_points.push(p as u32);
            }
        }
        let mut state = IncrementalState::new(members, self.goodness);
        for (&p, list) in initial_points.iter().zip(&mut state.links) {
            let (cols, counts) = links.row(p as usize);
            let kept = cols
                .iter()
                .filter(|&&j| cluster_of_point[j as usize].is_some())
                .count();
            list.reserve_exact(kept);
            for (&j, &c) in cols.iter().zip(counts) {
                if let Some(cj) = cluster_of_point[j as usize] {
                    list.push(Link(cj, u64::from(c)));
                }
            }
        }
        drop(links);
        state.seed();

        Engine {
            state,
            outliers,
            initial_points,
            merges: Vec::new(),
            weeded: false,
        }
    }

    /// The §4.6 weeding trigger: live-cluster count at which to weed.
    fn weed_threshold(&self) -> Option<(usize, WeedPolicy)> {
        self.outliers.weed.map(|w| {
            let at = ((w.stop_multiple * self.k as f64).ceil() as usize).max(self.k);
            (at, w)
        })
    }

    /// One transition of the merge loop. Weeding and early stops are
    /// *derived* (not logged): replay re-takes the same transitions.
    fn step(&self, engine: &mut Engine) -> Step {
        if engine.state.live <= self.k {
            return Step::Done;
        }
        if let Some((at, w)) = self.weed_threshold() {
            if !engine.weeded && engine.state.live <= at {
                engine.state.weed(w.min_cluster_size, &mut engine.outliers);
                engine.weeded = true;
                return Step::Weeded;
            }
        }
        let towards_k = MergeBound {
            min_goodness: f64::NEG_INFINITY,
            min_clusters: self.k,
            max_merges: usize::MAX,
            max_cluster_size: usize::MAX,
        };
        engine
            .state
            .next_merge(&towards_k)
            .map_or(Step::Done, Step::Merged)
    }

    /// Runs the merge loop to completion (or a governor trip), logging
    /// each committed merge — and periodic snapshots — to `wal`.
    fn drive(
        &self,
        engine: &mut Engine,
        governor: &RunGovernor,
        mut wal: Option<&mut MergeWal>,
    ) -> Result<(), RockError> {
        loop {
            if let Err(e) = governor.check_at(Phase::Merge, engine.merges.len() as u64) {
                return Err(mark_resumable(e, wal.is_some()));
            }
            match self.step(engine) {
                Step::Done => return Ok(()),
                Step::Weeded => continue,
                Step::Merged(rec) => {
                    if let Some(w) = wal.as_deref_mut() {
                        w.append_merge(&rec);
                    }
                    engine.merges.push(rec);
                    if let Some(w) = wal.as_deref_mut() {
                        let every = w.snapshot_every();
                        if every > 0 && (engine.merges.len() as u64).is_multiple_of(every) {
                            w.append_snapshot(&engine.snapshot());
                        }
                    }
                }
            }
        }
    }

    /// Post-loop weeding (if still pending), the Finish record, and the
    /// final [`RockRun`].
    fn finish(&self, mut engine: Engine, wal: Option<&mut MergeWal>) -> RockRun {
        // If the loop ended before the weed threshold was reached (small
        // inputs), still apply the weeding so the policy is honoured.
        if let (Some(w), false) = (self.outliers.weed, engine.weeded) {
            engine.state.weed(w.min_cluster_size, &mut engine.outliers);
        }
        if let Some(w) = wal {
            w.append_finish(engine.merges.len() as u64);
        }
        let clusters: Vec<Vec<u32>> = engine.state.members.into_iter().flatten().collect();
        RockRun {
            clustering: Clustering::new(clusters, engine.outliers),
            merges: engine.merges,
            initial_points: engine.initial_points,
        }
    }

    /// Applies one logged merge during replay, verifying it against the
    /// deterministically re-derived state.
    fn replay_one(&self, engine: &mut Engine, rec: &MergeRecord) -> Result<(), RockError> {
        loop {
            match self.step(engine) {
                Step::Weeded => continue,
                Step::Done => {
                    return Err(RockError::WalMismatch {
                        detail: format!(
                            "log records merge #{} but the replayed run is already \
                             finished",
                            engine.merges.len()
                        ),
                    });
                }
                Step::Merged(applied) => {
                    if applied != *rec {
                        return Err(RockError::WalMismatch {
                            detail: format!(
                                "merge #{} diverges from the log: logged {rec:?}, \
                                 replayed {applied:?}",
                                engine.merges.len()
                            ),
                        });
                    }
                    engine.merges.push(applied);
                    return Ok(());
                }
            }
        }
    }

    /// The Begin record for a fresh WAL: configuration fingerprint plus
    /// the initial arena.
    fn wal_begin(&self, n_points: usize, engine: &Engine) -> WalBegin {
        WalBegin {
            n_points: n_points as u32,
            config: self.wal_config(),
            initial_points: engine.initial_points.clone(),
            pruned_outliers: engine.outliers.clone(),
        }
    }

    /// The configuration fingerprint a WAL of this engine carries.
    fn wal_config(&self) -> WalConfig {
        WalConfig {
            k: self.k as u32,
            exponent_bits: self.goodness.exponent().to_bits(),
            kind: kind_code(self.goodness.kind()),
            min_neighbors: self.outliers.min_neighbors as u32,
            weed: self
                .outliers
                .weed
                .map(|w| (w.stop_multiple.to_bits(), w.min_cluster_size as u32)),
        }
    }

    /// Checks a logged configuration fingerprint against this engine
    /// (and `graph`, when supplied).
    fn validate_begin(
        &self,
        begin: &WalBegin,
        graph: Option<&NeighborGraph>,
    ) -> Result<(), RockError> {
        let mismatch = |detail: String| Err(RockError::WalMismatch { detail });
        let config = self.wal_config();
        if begin.config != config {
            return mismatch(format!(
                "configuration differs from the logged run: log {:?}, engine {config:?}",
                begin.config
            ));
        }
        if let Some(g) = graph {
            if g.len() != begin.n_points as usize {
                return mismatch(format!(
                    "point count differs: log {}, graph {}",
                    begin.n_points,
                    g.len()
                ));
            }
        }
        Ok(())
    }

    /// Rebuilds the engine from a WAL snapshot. The Fig.-3 heaps are not
    /// stored in the log; they are reconstructed here from the invariant
    /// that every heap entry is `goodness(link[i][j], |i|, |j|)`.
    fn engine_from_snapshot(
        &self,
        begin: &WalBegin,
        merges: &[MergeRecord],
        snap: &WalSnapshot,
    ) -> Result<Engine, RockError> {
        let mismatch = |detail: String| RockError::WalMismatch { detail };
        let arena_len = snap.arena_len as usize;
        if arena_len != begin.initial_points.len() + snap.merges_done as usize {
            return Err(mismatch(
                "snapshot arena length inconsistent with its merge count".into(),
            ));
        }
        let mut members: Vec<Option<Vec<u32>>> = vec![None; arena_len];
        for (id, m) in &snap.clusters {
            let slot = members
                .get_mut(*id as usize)
                .ok_or_else(|| mismatch(format!("snapshot cluster id {id} out of range")))?;
            if slot.is_some() {
                return Err(mismatch(format!("snapshot repeats cluster id {id}")));
            }
            if m.is_empty() {
                return Err(mismatch(format!("snapshot cluster {id} is empty")));
            }
            *slot = Some(m.clone());
        }
        let mut state = IncrementalState::new(members, self.goodness);
        if let Err(k) = state.seed_links(&snap.links) {
            let (i, j, c) = snap.links[k];
            return Err(mismatch(format!(
                "snapshot link ({i}, {j}, {c}) is malformed, out of order or \
                 references a dead cluster"
            )));
        }
        Ok(Engine {
            state,
            outliers: snap.outliers.clone(),
            initial_points: begin.initial_points.clone(),
            merges: merges[..snap.merges_done as usize].to_vec(),
            weeded: snap.weeded,
        })
    }
}

/// Outcome of one merge-loop transition.
enum Step {
    /// The loop is finished (target reached or no links remain).
    Done,
    /// The §4.6 weeding fired; re-evaluate the loop condition.
    Weeded,
    /// One merge committed.
    Merged(MergeRecord),
}

/// In-flight run: mutable state plus the trace needed to finish, log and
/// snapshot it.
struct Engine {
    state: IncrementalState,
    /// Outliers accumulated so far (pruned up front, then weeded).
    outliers: Vec<u32>,
    initial_points: Vec<u32>,
    merges: Vec<MergeRecord>,
    weeded: bool,
}

impl Engine {
    /// A full state image for the WAL. Canonical: clusters ascend by
    /// arena id, links ascend by `(i, j)` — identical state produces
    /// identical snapshot bytes (see
    /// [`IncrementalState::live_clusters`] and
    /// [`IncrementalState::canonical_links`]).
    fn snapshot(&self) -> WalSnapshot {
        WalSnapshot {
            merges_done: self.merges.len() as u64,
            arena_len: self.state.members.len() as u64,
            weeded: self.weeded,
            outliers: self.outliers.clone(),
            clusters: self.state.live_clusters(),
            links: self.state.canonical_links(),
        }
    }
}

/// Stable on-log discriminant of the goodness kind.
fn kind_code(kind: GoodnessKind) -> u8 {
    match kind {
        GoodnessKind::Normalized => 0,
        GoodnessKind::RawLinks => 1,
    }
}

/// Sets the `resumable` flag on an [`RockError::Interrupted`].
pub(crate) fn mark_resumable(mut err: RockError, resumable: bool) -> RockError {
    if let RockError::Interrupted { resumable: r, .. } = &mut err {
        *r = resumable;
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goodness::{BasketF, GoodnessKind};
    use crate::points::Transaction;
    use crate::similarity::{Jaccard, PointsWith, SimilarityMatrix};

    fn basket_engine(theta: f64, k: usize) -> RockAlgorithm {
        RockAlgorithm::new(
            Goodness::new(theta, BasketF, GoodnessKind::Normalized),
            k,
            OutlierPolicy::default(),
        )
    }

    /// Fig. 1's two overlapping clusters must be recovered at θ = 0.5
    /// (§3.2: "our link-based approach would generate the correct
    /// clusters shown in Figure 1").
    ///
    /// §3.3 defines f(θ) by "each point belonging to cluster Cᵢ has
    /// approximately nᵢ^{f(θ)} neighbors in Cᵢ" and stresses it is
    /// data-set dependent. In the Fig.-1 construction every transaction
    /// neighbors (almost) its entire cluster, so the faithful estimate is
    /// f ≈ 1 — not the market-basket `(1−θ)/(1+θ)` derived for sparse
    /// uniformly-spread baskets. See `figure1_f_sensitivity` below.
    #[test]
    fn recovers_figure1_clusters() {
        let ts = crate::testdata::figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let engine = RockAlgorithm::new(
            Goodness::new(0.5, crate::goodness::ConstantF(1.0), GoodnessKind::Normalized),
            2,
            OutlierPolicy::default(),
        );
        let run = engine.run(&g);
        let c = &run.clustering;
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.sizes(), vec![10, 4]);
        // The big cluster is exactly the 3-subsets of {1..5} (ids 0..10).
        assert_eq!(c.clusters[0], (0u32..10).collect::<Vec<_>>());
        assert_eq!(c.clusters[1], (10u32..14).collect::<Vec<_>>());
    }

    /// Reproduction note: with the market-basket estimate f = 1/3 the
    /// criterion function E_l itself (§3.3) scores the "A swallows
    /// {1,2,6},{1,2,7}" split *higher* than the intended Fig.-1 clusters,
    /// and the greedy faithfully chases it. This pins down that behaviour
    /// so the f-sensitivity is documented rather than accidental.
    #[test]
    fn figure1_f_sensitivity() {
        use crate::criterion_fn::criterion_value;
        let ts = crate::testdata::figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let links = LinkMatrix::compute_sparse(&g, 1);
        let correct = vec![(0u32..10).collect::<Vec<_>>(), (10u32..14).collect()];
        let swallowed = vec![(0u32..12).collect::<Vec<_>>(), (12u32..14).collect()];
        let basket = Goodness::new(0.5, BasketF, GoodnessKind::Normalized);
        assert!(
            criterion_value(&links, &swallowed, &basket)
                > criterion_value(&links, &correct, &basket),
            "with f = 1/3, E_l prefers the swallowed split on this data"
        );
        let run = basket_engine(0.5, 2).run(&g);
        assert_eq!(run.clustering.sizes(), vec![12, 2]);
        // With the density-faithful f = 1 the preference flips.
        let dense = Goodness::new(0.5, crate::goodness::ConstantF(1.0), GoodnessKind::Normalized);
        assert!(
            criterion_value(&links, &correct, &dense)
                > criterion_value(&links, &swallowed, &dense)
        );
    }

    /// Example 1.1: `{1,4}` and `{6}` share no items, so ROCK must never
    /// put them in one cluster (they have no links).
    #[test]
    fn example_1_1_no_spurious_merge() {
        let ts = vec![
            Transaction::from([1, 2, 3, 5]),
            Transaction::from([2, 3, 4, 5]),
            Transaction::from([1, 4]),
            Transaction::from([6]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.2, 1);
        // Ask for 2 clusters with outlier pruning off so all points remain.
        let engine = RockAlgorithm::new(
            Goodness::new(0.2, BasketF, GoodnessKind::Normalized),
            2,
            OutlierPolicy::disabled(),
        );
        let run = engine.run(&g);
        let c = &run.clustering;
        // {6} has no neighbors ⇒ no links ⇒ it can never merge; the loop
        // stops early with ≥ 2 clusters and 2 and 3 never share a cluster
        // with disjoint transactions... 2 ({1,4}) links to 0 and 1.
        let a = c.cluster_of(2);
        let b = c.cluster_of(3);
        assert!(a.is_some() && b.is_some());
        assert_ne!(a, b, "disjoint transactions must not be merged");
    }

    #[test]
    fn stops_when_no_links_remain() {
        // Two separated cliques, k = 1: the loop cannot produce one
        // cluster because no cross links exist; it must stop at 2 (§4.3).
        let ts = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([1, 3, 4]),
            Transaction::from([10, 11, 12]),
            Transaction::from([10, 11, 13]),
            Transaction::from([10, 12, 13]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let run = basket_engine(0.5, 1).run(&g);
        assert_eq!(run.clustering.num_clusters(), 2);
        assert_eq!(run.clustering.sizes(), vec![3, 3]);
    }

    #[test]
    fn isolated_points_pruned_as_outliers() {
        let ts = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([1, 3, 4]),
            Transaction::from([99]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let run = basket_engine(0.5, 1).run(&g);
        assert_eq!(run.clustering.outliers, vec![3]);
        assert_eq!(run.clustering.num_clusters(), 1);
    }

    #[test]
    fn weeding_removes_small_clusters() {
        // One clear 4-clique plus a loose pair far away. Weeding with
        // min_cluster_size 3 must discard the pair.
        let ts = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([1, 3, 4]),
            Transaction::from([2, 3, 4]),
            Transaction::from([50, 51, 52]),
            Transaction::from([50, 51, 53]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let engine = RockAlgorithm::new(
            Goodness::new(0.5, BasketF, GoodnessKind::Normalized),
            1,
            OutlierPolicy {
                min_neighbors: 1,
                weed: Some(WeedPolicy {
                    stop_multiple: 2.0,
                    min_cluster_size: 3,
                }),
            },
        );
        let run = engine.run(&g);
        assert_eq!(run.clustering.num_clusters(), 1);
        assert_eq!(run.clustering.clusters[0], vec![0, 1, 2, 3]);
        assert_eq!(run.clustering.outliers, vec![4, 5]);
    }

    #[test]
    fn merge_records_are_consistent() {
        let ts = crate::testdata::figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let run = basket_engine(0.5, 2).run(&g);
        // 14 points → 2 clusters needs exactly 12 merges.
        assert_eq!(run.merges.len(), 12);
        for m in &run.merges {
            assert!(m.cross_links > 0, "merged pairs must share links");
            assert!(m.goodness > 0.0);
            assert!(m.sizes.0 >= 1 && m.sizes.1 >= 1);
        }
    }

    #[test]
    fn k_greater_than_n_returns_singletons() {
        let m = SimilarityMatrix::from_fn(3, |_, _| 1.0);
        let g = NeighborGraph::build(&m, 0.5, 1);
        let run = RockAlgorithm::new(
            Goodness::new(0.5, BasketF, GoodnessKind::Normalized),
            10,
            OutlierPolicy::disabled(),
        )
        .run(&g);
        assert_eq!(run.clustering.num_clusters(), 3);
        assert!(run.merges.is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let ts = crate::testdata::figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let a = basket_engine(0.5, 2).run(&g).clustering;
        let b = basket_engine(0.5, 2).run(&g).clustering;
        assert_eq!(a, b);
    }

    /// Every link pair must appear once in a snapshot: a forged repeat
    /// would double the pair's entries in the link lists, so resume
    /// rejects it instead of rebuilding from it.
    #[test]
    fn snapshot_with_a_repeated_link_pair_is_a_mismatch() {
        use crate::governor::Phase;
        let ts = crate::testdata::figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let engine = basket_engine(0.5, 2);
        let mut wal = MergeWal::new().with_snapshot_every(2);
        let killed = RunGovernor::unlimited().with_kill_at(Phase::Merge, 3);
        let links = LinkMatrix::compute_auto(&g, 1);
        assert!(engine
            .run_governed(&g, &links, &killed, Some(&mut wal))
            .is_err());
        let replay = parse_wal(wal.as_bytes()).unwrap();
        let mut snap = replay.snapshot.clone().unwrap();
        assert!(!snap.links.is_empty());

        let forge = |snap: &WalSnapshot| {
            let mut forged = MergeWal::new();
            forged.append_begin(&replay.begin);
            for rec in &replay.merges[..snap.merges_done as usize] {
                forged.append_merge(rec);
            }
            forged.append_snapshot(snap);
            engine.resume(forged.as_bytes(), None, 1, &RunGovernor::unlimited(), None)
        };
        // The untouched snapshot resumes; the forged one is refused.
        assert!(forge(&snap).is_ok());
        snap.links.insert(1, snap.links[0]);
        let err = forge(&snap).unwrap_err();
        assert!(matches!(err, RockError::WalMismatch { .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least one target cluster")]
    fn zero_k_panics() {
        let _ = RockAlgorithm::new(
            Goodness::new(0.5, BasketF, GoodnessKind::Normalized),
            0,
            OutlierPolicy::disabled(),
        );
    }
}
