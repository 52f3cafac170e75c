//! The reusable incremental clustering core.
//!
//! [`IncrementalState`] is the goodness-heap + link-list state of the
//! Fig.-3 merge loop, extracted from [`crate::algorithm`] so that two
//! drivers can share it bit-for-bit:
//!
//! * the **batch** driver ([`crate::algorithm::RockAlgorithm`]), which
//!   seeds it from a link matrix and runs the agglomeration to `k`;
//! * the **update** driver ([`IncrementalRockState`], added further down
//!   in this module), which labels arriving points against the fitted
//!   model's representative sets (§4.6), accumulates per-cluster *dirty
//!   links*, and — when a [`StalenessPolicy`] criterion trips — rebuilds
//!   an [`IncrementalState`] over the affected clusters and runs a
//!   *bounded* re-merge ([`IncrementalState::bounded_merge`]).
//!
//! The state is serializable in the same sense as the merge WAL: heaps
//! are never persisted; [`IncrementalState::live_clusters`] and
//! [`IncrementalState::canonical_links`] image the state canonically and
//! [`IncrementalState::from_clusters`] rebuilds the heaps from the
//! invariant that every heap entry is `goodness(link[i][j], |i|, |j|)`.
//!
//! The bounded re-merge is the Genie-style constraint (see PAPERS.md)
//! that keeps online updates from degenerating: a [`MergeBound`] caps
//! the number of merges, the minimum surviving cluster count, the
//! minimum acceptable goodness and the maximum merged-cluster size, so
//! drift can never collapse the model into one giant cluster.

use crate::artifact::{decode_points, point_blob, ArtifactPoint, ModelArtifact, UpdateExtension};
use crate::cluster::{canonical_order, encode_clustering, permute, Clustering, MergeRecord};
use crate::engine::model::ModelFit;
use crate::error::RockError;
use crate::goodness::{ConstantF, Goodness, GoodnessKind};
use crate::governor::{Phase, RunGovernor};
use crate::heap::{AddressableHeap, Cand};
use crate::labeling::{LabelPass, Labeler};
use crate::perf::PerfCounters;
use crate::report::RunReport;
use crate::similarity::Similarity;
use crate::util::crc32;
use crate::util::frame::{put_blobs, put_f64, put_option_u64, put_u32, put_u64, Cursor};
use crate::util::postings::cross_links;
use crate::wal::{parse_update_wal, UpdateBase, UpdateRecord, UpdateWal};
use std::collections::BinaryHeap;

/// Mutable clustering state: an arena of clusters plus the two-level heap
/// structure of Fig. 3.
///
/// Constructed either by the batch driver (from a link matrix, via
/// `RockAlgorithm`) or from explicit cluster member lists and cross-link
/// counts ([`IncrementalState::from_clusters`]). Either way the caller
/// only fills the link lists and `IncrementalState::seed` derives the
/// heaps: identical `(members, links)` always rebuild identical heaps,
/// which is what makes WAL snapshots and incremental checkpoints
/// replayable to bit-identity. When the batch driver frees its link
/// matrix is set out on `RockAlgorithm::init_from_links`.
///
/// ## Layout
///
/// Each linked pair holds one link-list entry (`Link`) and one
/// local-heap entry (`heap::Cand`) per side; both types give their
/// size.
///
/// ## Lazy deletion
///
/// Arena ids are never reused and every merge mints a fresh id, so
/// `link(x, y)`, `|x|`, `|y|` — and therefore `g(x, y)` — never change
/// while both `x` and `y` are live. A link-list or local-heap entry naming
/// partner `y` is thus current exactly when `y` is live: entries for dead
/// partners stay where they are and are skipped when read, which loses
/// nothing. A merge touches each partner with two pushes and one global
/// heap update, and no hashing. A list that grows past twice its length
/// at its last compaction plus `COMPACT_SLACK` (16) drops its dead entries
/// (and its heap's). A cluster's live partner count never grows, so
/// memory stays within about twice the seeded state plus O(clusters).
pub struct IncrementalState {
    /// Arena: `None` once a cluster has been merged away or weeded.
    pub(crate) members: Vec<Option<Vec<u32>>>,
    /// `links[i]`: `(partner, cross links)` per linked partner of `i`;
    /// entries naming dead partners are stale.
    pub(crate) links: Vec<Vec<Link>>,
    /// `links[i].len()` right after its last compaction (or seeding).
    compacted: Vec<usize>,
    /// Local heaps `q[i]`: candidates ordered by goodness, with stale
    /// entries for dead partners. The top of a live cluster's heap is
    /// always live (every partner death refreshes it).
    local: Vec<BinaryHeap<Cand>>,
    /// Global heap `Q`: cluster → goodness of its best candidate
    /// (−∞ for clusters with no linked partner).
    global: AddressableHeap,
    /// Number of live clusters.
    pub(crate) live: usize,
    goodness: PairGoodness,
    /// Dense per-arena-id scatter accumulator for `link[x, w]`; all zero
    /// between merges.
    acc: Vec<u64>,
}

/// A link-list entry: partner arena id and cross-link count.
///
/// Packed to 4-byte alignment, so 12 bytes instead of 16. Counts stay
/// `u64`: cross-cluster link sums can pass `u32` at sample sizes of a
/// few thousand. Fields are read by value, never by reference.
#[derive(Clone, Copy, Debug)]
#[repr(C, packed(4))]
pub(crate) struct Link(pub(crate) u32, pub(crate) u64);

/// A list is compacted once it exceeds `2 × (length at its last
/// compaction) + COMPACT_SLACK` entries.
const COMPACT_SLACK: usize = 16;

/// The goodness measure plus a lazily filled per-size table of
/// `expected_within(s)`, so a pair costs one division instead of three
/// `powf`s.
struct PairGoodness {
    goodness: Goodness,
    /// `expected_within(s)` at index `s`; NaN until first needed.
    within: Vec<f64>,
}

impl PairGoodness {
    fn within(&mut self, s: usize) -> f64 {
        if s >= self.within.len() {
            self.within.resize(s + 1, f64::NAN);
        }
        // tidy-allow(panic-reach): the table was grown to cover s just above
        let t = &mut self.within[s];
        if t.is_nan() {
            *t = self.goodness.expected_within(s);
        }
        *t
    }

    /// `g` of a pair with `links` cross links whose smaller arena id has
    /// size `a` and larger `b` — bit-identical to
    /// [`Goodness::merge_goodness`]`(links, a, b)`.
    fn pair(&mut self, links: u64, a: usize, b: usize) -> f64 {
        let g = match self.goodness.kind() {
            GoodnessKind::Normalized if links == 0 => 0.0,
            GoodnessKind::Normalized => {
                links as f64 / (self.within(a + b) - self.within(a) - self.within(b))
            }
            GoodnessKind::RawLinks => links as f64,
        };
        debug_assert_eq!(
            g.to_bits(),
            self.goodness.merge_goodness(links, a, b).to_bits(),
            "goodness table diverges from Goodness::merge_goodness"
        );
        g
    }
}

/// Caps for one [`IncrementalState::bounded_merge`] pass.
///
/// The constrained-agglomeration guard: without it, repeatedly re-merging
/// an evolving model would drift towards a single giant cluster (the
/// failure mode Genie's constraint is designed against — see PAPERS.md).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergeBound {
    /// Stop as soon as the best available goodness falls below this.
    pub min_goodness: f64,
    /// Never merge below this many live clusters.
    pub min_clusters: usize,
    /// At most this many merges per pass.
    pub max_merges: usize,
    /// Stop rather than commit a merge whose result would exceed this
    /// many points.
    pub max_cluster_size: usize,
}

/// When an evolving model must stop absorbing and re-merge, plus the
/// caps handed to the bounded re-merge pass when it does.
///
/// The staleness criterion trips when either `max_pending` absorbed
/// points or `max_dirty_fraction` of the clustered point count in dirty
/// links have accumulated since the last re-merge. The remaining fields
/// parameterise the [`MergeBound`] of the pass itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StalenessPolicy {
    /// Re-merge after this many absorbed points are pending (≥ 1).
    pub max_pending: u64,
    /// Re-merge once total dirty links reach this fraction of the
    /// clustered point count (finite, > 0).
    pub max_dirty_fraction: f64,
    /// Bounded re-merge: minimum acceptable merge goodness (never NaN;
    /// `f64::NEG_INFINITY` disables the floor).
    pub min_goodness: f64,
    /// Bounded re-merge: at most this many merges per pass.
    pub max_merges: u64,
    /// Bounded re-merge: never drop below this many clusters (≥ 1).
    pub min_clusters: usize,
    /// Bounded re-merge: no merged cluster may exceed this fraction of
    /// all clustered points (in `(0, 1]`).
    pub max_cluster_fraction: f64,
    /// Per-cluster representative pool cap: absorbed points join Lᵢ
    /// only while it holds fewer than this many representatives (≥ 1).
    pub rep_cap: usize,
}

impl Default for StalenessPolicy {
    fn default() -> Self {
        StalenessPolicy {
            max_pending: 64,
            max_dirty_fraction: 0.5,
            min_goodness: 0.0,
            max_merges: 32,
            min_clusters: 2,
            max_cluster_fraction: 0.6,
            rep_cap: 64,
        }
    }
}

impl StalenessPolicy {
    /// Field-range check; `Err` carries a human-readable detail (callers
    /// wrap it in the typed error of their layer).
    pub(crate) fn check(&self) -> Result<(), String> {
        if self.max_pending == 0 {
            return Err("staleness policy: max_pending must be ≥ 1".into());
        }
        if !(self.max_dirty_fraction.is_finite() && self.max_dirty_fraction > 0.0) {
            return Err(format!(
                "staleness policy: max_dirty_fraction {} not finite and positive",
                self.max_dirty_fraction
            ));
        }
        if self.min_goodness.is_nan() {
            return Err("staleness policy: min_goodness is NaN".into());
        }
        if self.min_clusters == 0 {
            return Err("staleness policy: min_clusters must be ≥ 1".into());
        }
        if !(self.max_cluster_fraction > 0.0 && self.max_cluster_fraction <= 1.0) {
            return Err(format!(
                "staleness policy: max_cluster_fraction {} outside (0, 1]",
                self.max_cluster_fraction
            ));
        }
        if self.rep_cap == 0 {
            return Err("staleness policy: rep_cap must be ≥ 1".into());
        }
        Ok(())
    }

    /// Appends the policy's persisted layout: the seven fields in
    /// declaration order, counts as `u64`, fractions and the goodness
    /// floor as exact `f64` bits. The one layout behind the update
    /// fingerprint and the artifact's Update section.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.max_pending);
        put_f64(buf, self.max_dirty_fraction);
        put_f64(buf, self.min_goodness);
        put_u64(buf, self.max_merges);
        put_u64(buf, self.min_clusters as u64);
        put_f64(buf, self.max_cluster_fraction);
        put_u64(buf, self.rep_cap as u64);
    }

    /// Decodes [`encode`](Self::encode)'s layout. Range checks are the
    /// caller's ([`check`](Self::check)), under its own error type.
    pub(crate) fn decode(c: &mut Cursor<'_>) -> Option<StalenessPolicy> {
        Some(StalenessPolicy {
            max_pending: c.u64()?,
            max_dirty_fraction: c.f64()?,
            min_goodness: c.f64()?,
            max_merges: c.u64()?,
            min_clusters: c.u64()? as usize,
            max_cluster_fraction: c.f64()?,
            rep_cap: c.u64()? as usize,
        })
    }

    /// The [`MergeBound`] a re-merge pass runs under when the model
    /// holds `clustered_points` points across its clusters.
    pub(crate) fn merge_bound(&self, clustered_points: usize) -> MergeBound {
        let cap = (clustered_points as f64 * self.max_cluster_fraction).floor() as usize;
        MergeBound {
            min_goodness: self.min_goodness,
            min_clusters: self.min_clusters,
            max_merges: self.max_merges.min(usize::MAX as u64) as usize,
            max_cluster_size: cap.max(1),
        }
    }
}

/// Cumulative provenance of an evolving model: how much the update path
/// has changed it since the batch fit it started from.
///
/// Persisted in version-2 artifacts and mirrored into
/// [`crate::report::RunReport::phase_perf`] under the `"update"` phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct UpdateProvenance {
    /// Update batches applied so far.
    pub updates_applied: u64,
    /// Arrivals absorbed into a cluster.
    pub points_absorbed: u64,
    /// Arrivals rejected as outliers (no representative neighbor).
    pub points_rejected: u64,
    /// §4.6 labeling decisions taken by the update path.
    pub relabels: u64,
    /// Dirty links accumulated across all updates.
    pub dirty_links: u64,
    /// Bounded re-merge passes triggered by the staleness criterion.
    pub remerges: u64,
    /// Merges committed across all re-merge passes.
    pub remerge_merges: u64,
}

impl UpdateProvenance {
    /// Appends the seven counters as `u64`s in declaration order — the
    /// one layout behind the artifact's Update section and the state
    /// digest.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        for v in [
            self.updates_applied,
            self.points_absorbed,
            self.points_rejected,
            self.relabels,
            self.dirty_links,
            self.remerges,
            self.remerge_merges,
        ] {
            put_u64(buf, v);
        }
    }

    /// Decodes [`encode`](Self::encode)'s layout.
    pub(crate) fn decode(c: &mut Cursor<'_>) -> Option<UpdateProvenance> {
        Some(UpdateProvenance {
            updates_applied: c.u64()?,
            points_absorbed: c.u64()?,
            points_rejected: c.u64()?,
            relabels: c.u64()?,
            dirty_links: c.u64()?,
            remerges: c.u64()?,
            remerge_merges: c.u64()?,
        })
    }
}

/// What an update log must agree on with the model it replays onto: the
/// labeling parameters the model serves under (exact bits), the hash
/// seed and the staleness policy. Built by
/// [`IncrementalRockState::fingerprint`]; its bytes open both the
/// update-WAL base record and the state digest image.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct UpdateFingerprint {
    /// Exact bits of the similarity threshold θ.
    pub theta_bits: u64,
    /// Exact bits of the resolved `f(θ)`.
    pub ftheta_bits: u64,
    /// Exact bits of the labeling fraction.
    pub fraction_bits: u64,
    /// The merge engine's hash seed, if one was configured.
    pub hash_seed: Option<u64>,
    /// The staleness/re-merge policy updates are applied under.
    pub policy: StalenessPolicy,
}

impl UpdateFingerprint {
    /// Appends θ, `f(θ)` and the fraction bits as `u64`s, the optional
    /// hash seed, then the policy.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.theta_bits);
        put_u64(buf, self.ftheta_bits);
        put_u64(buf, self.fraction_bits);
        put_option_u64(buf, self.hash_seed);
        self.policy.encode(buf);
    }

    /// Decodes [`encode`](Self::encode)'s layout.
    pub(crate) fn decode(c: &mut Cursor<'_>) -> Option<UpdateFingerprint> {
        Some(UpdateFingerprint {
            theta_bits: c.u64()?,
            ftheta_bits: c.u64()?,
            fraction_bits: c.u64()?,
            hash_seed: c.option_u64()?,
            policy: StalenessPolicy::decode(c)?,
        })
    }
}

impl IncrementalState {
    /// An unseeded state over `members` (dead slots allowed) with empty
    /// link lists: the caller fills each live cluster's list with its
    /// `(partner, links)` entries, ascending by partner and naming only
    /// live partners (so every linked pair appears once per side), and
    /// then calls [`seed`](Self::seed).
    pub(crate) fn new(members: Vec<Option<Vec<u32>>>, goodness: Goodness) -> Self {
        let n = members.len();
        IncrementalState {
            live: members.iter().filter(|m| m.is_some()).count(),
            links: vec![Vec::new(); n],
            compacted: Vec::new(),
            local: Vec::new(),
            global: AddressableHeap::with_capacity(n),
            members,
            goodness: PairGoodness {
                goodness,
                within: Vec::new(),
            },
            acc: vec![0; n],
        }
    }

    /// Derives the Fig.-3 heaps from the filled link lists, one cluster
    /// at a time: `q[i]` is heapified from one candidate per entry of
    /// `links[i]`, in list order, each goodness computed with the smaller
    /// arena id's size first (so both sides of a pair get the same bits);
    /// then `Q` is refreshed for every live cluster. Each heap reads only
    /// its own list, with no scatter into other clusters' heaps, and
    /// gets a buffer of exactly the list's length. The one seeding path
    /// of the batch driver, WAL snapshot resume and
    /// [`from_clusters`](Self::from_clusters).
    pub(crate) fn seed(&mut self) {
        let mut local = Vec::with_capacity(self.links.len());
        for (i, list) in self.links.iter().enumerate() {
            // tidy-allow(panic-reach): links and members are parallel arenas; i enumerates links
            let Some(mi) = &self.members[i] else {
                local.push(BinaryHeap::new());
                continue;
            };
            let mut cands = Vec::with_capacity(list.len());
            for &Link(j, c) in list {
                // tidy-allow(panic-reach): callers link only live arena ids, so j indexes members in range
                let sj = self.members[j as usize].as_ref().map_or(0, Vec::len);
                let (a, b) = if (j as usize) < i {
                    (sj, mi.len())
                } else {
                    (mi.len(), sj)
                };
                let g = self.goodness.pair(c, a, b);
                cands.push(Cand { g, key: j });
            }
            local.push(BinaryHeap::from(cands));
        }
        self.local = local;
        self.compacted = self.links.iter().map(Vec::len).collect();
        for id in 0..self.members.len() {
            // tidy-allow(panic-reach): id enumerates the members arena
            if self.members[id].is_some() {
                self.refresh_global(id as u32);
            }
        }
    }

    /// Rebuilds merge-ready state from explicit cluster member lists and
    /// cross-link counts, reconstructing the Fig.-3 heaps from the
    /// invariant that every heap entry is `goodness(link[i][j], |i|, |j|)`
    /// — the same reconstruction [`crate::algorithm::RockAlgorithm::resume`]
    /// performs on a WAL snapshot.
    ///
    /// `links` entries are `(i, j, count)` with `i < j` indexing
    /// `clusters`, each unordered pair at most once and `count > 0`.
    ///
    /// # Panics
    /// Panics if a cluster is empty or a link entry is malformed (out of
    /// range, `i >= j`, repeated pair, or zero count).
    pub fn from_clusters(
        clusters: Vec<Vec<u32>>,
        links: &[(u32, u32, u64)],
        goodness: Goodness,
    ) -> Self {
        assert!(
            clusters.iter().all(|c| !c.is_empty()),
            "clusters must be non-empty"
        );
        let n = clusters.len();
        let mut sorted = links.to_vec();
        sorted.sort_unstable();
        let mut state = IncrementalState::new(clusters.into_iter().map(Some).collect(), goodness);
        if let Err(k) = state.seed_links(&sorted) {
            // tidy-allow(panic-reach): seed_links reports the position of an entry of sorted
            let (i, j, c) = sorted[k];
            // Sorted input breaks the ascending order only by repeating a pair.
            // tidy-allow(panic-reach): k > 0 is checked first, so k - 1 indexes sorted
            let repeated = k > 0 && (sorted[k - 1].0, sorted[k - 1].1) == (i, j);
            assert!(!repeated, "link pair ({i}, {j}) repeated");
            // tidy-allow(panic): a malformed link is a caller bug this constructor documents as a panic
            panic!("malformed link ({i}, {j}, {c}) over {n} clusters");
        }
        state
    }

    /// Pushes `(i, j, count)` links into both endpoints' lists of an
    /// unseeded state and then [`seed`](Self::seed)s it: the one checked
    /// link fill, behind [`from_clusters`](Self::from_clusters) and WAL
    /// snapshot resume. Entries must be strictly ascending, with `i < j`,
    /// both clusters live and `count > 0`.
    ///
    /// # Errors
    /// The position of the first entry that breaks a condition; the
    /// state is then partly filled and unseeded, and must be dropped.
    pub(crate) fn seed_links(&mut self, links: &[(u32, u32, u64)]) -> Result<(), usize> {
        let mut prev = None;
        for (k, &(i, j, c)) in links.iter().enumerate() {
            let live = |x: u32| self.members.get(x as usize).is_some_and(Option::is_some);
            if i >= j || !live(i) || !live(j) || c == 0 || prev >= Some((i, j)) {
                return Err(k);
            }
            prev = Some((i, j));
            // tidy-allow(panic-reach): i and j were checked live above, so they index the links arena
            self.links[i as usize].push(Link(j, c));
            // tidy-allow(panic-reach): i and j were checked live above, so they index the links arena
            self.links[j as usize].push(Link(i, c));
        }
        self.seed();
        Ok(())
    }

    /// The live clusters as `(arena id, sorted-as-stored members)` pairs,
    /// ascending by arena id. One half of the canonical state image (the
    /// other is [`canonical_links`](Self::canonical_links)): identical
    /// state produces identical images.
    pub fn live_clusters(&self) -> Vec<(u32, Vec<u32>)> {
        let mut clusters = Vec::with_capacity(self.live);
        for (id, m) in self.members.iter().enumerate() {
            if let Some(m) = m {
                clusters.push((id as u32, m.clone()));
            }
        }
        clusters
    }

    /// The live cross-link counts as upper-triangle `(i, j, count)`
    /// entries (`i < j`), sorted ascending — the canonical link image
    /// consumed by [`from_clusters`](Self::from_clusters) (after arena
    /// ids are compacted) and by WAL snapshots. Stale entries (a dead
    /// partner) are skipped; a live pair has exactly one entry per side.
    pub fn canonical_links(&self) -> Vec<(u32, u32, u64)> {
        let mut links = Vec::new();
        for (i, l) in self.links.iter().enumerate() {
            // tidy-allow(panic-reach): links and members are parallel arenas; i enumerates links
            if self.members[i].is_none() {
                continue;
            }
            for &Link(j, c) in l {
                // tidy-allow(panic-reach): j is a cluster id minted into the arena, so it indexes members in range
                if (j as usize) > i && self.members[j as usize].is_some() {
                    links.push((i as u32, j, c));
                }
            }
        }
        links.sort_unstable();
        links
    }

    /// Runs merges while the globally best pair stays inside `bound`;
    /// returns the committed merge records in order.
    ///
    /// Unlike the batch loop (which drives towards a target `k`), this
    /// pass stops at the *first* violated cap — including a best pair
    /// whose merged size would exceed `max_cluster_size`; skipping past
    /// it would reorder the agglomeration, so the pass ends instead.
    pub fn bounded_merge(&mut self, bound: &MergeBound) -> Vec<MergeRecord> {
        std::iter::from_fn(|| self.next_merge(bound))
            .take(bound.max_merges)
            .collect()
    }

    /// Fig. 3's one stopping rule, behind the batch loop and
    /// [`bounded_merge`](Self::bounded_merge): merges the globally best
    /// pair unless `bound.min_clusters` or fewer clusters are live, `Q`
    /// is empty, no pair has links left (−∞, §4.3's early stop), the best
    /// goodness is below `bound.min_goodness`, or the merged cluster
    /// would exceed `bound.max_cluster_size`. `bound.max_merges` is the
    /// caller's to count.
    pub(crate) fn next_merge(&mut self, bound: &MergeBound) -> Option<MergeRecord> {
        if self.live <= bound.min_clusters {
            return None;
        }
        let (u, best) = self.global.peek()?;
        // Goodness is never NaN (similarities are finite-checked
        // upstream), so the total order agrees with the partial one.
        if best == f64::NEG_INFINITY || best.total_cmp(&bound.min_goodness).is_lt() {
            return None;
        }
        // tidy-allow(panic-reach): u came off the global heap, so it is a live arena id with a local heap
        let &Cand { key: v, .. } = self.local[u as usize].peek()?;
        if self.size(u) + self.size(v) > bound.max_cluster_size {
            return None;
        }
        Some(self.merge(u))
    }

    fn size(&self, id: u32) -> usize {
        // tidy-allow(panic-reach): size() is only called on live cluster ids, which index the arena in range with occupied slots
        self.members[id as usize]
            .as_ref()
            // tidy-allow(panic): size() is only called on cluster ids still live in the merge loop, whose slots are occupied
            .expect("live cluster")
            .len()
    }

    /// Re-derives cluster `id`'s entry in the global heap from its local
    /// heap (Fig. 3 steps 14 and 16), first popping entries for dead
    /// partners off the top of `q[id]`.
    fn refresh_global(&mut self, id: u32) {
        // tidy-allow(panic-reach): refresh_global is only called with arena ids minted in range
        let q = &mut self.local[id as usize];
        let mut best = f64::NEG_INFINITY;
        while let Some(&top) = q.peek() {
            // tidy-allow(panic-reach): heap keys are arena ids minted in range
            if self.members[top.key as usize].is_some() {
                best = top.g;
                break;
            }
            q.pop();
        }
        self.global.insert(id, best);
    }

    /// Drops the dead entries of `links[x]` and `q[x]` once the list has
    /// grown past twice its length at its last compaction plus
    /// [`COMPACT_SLACK`].
    fn maybe_compact(&mut self, x: u32) {
        let x = x as usize;
        // tidy-allow(panic-reach): x is a live partner id; links, local and compacted parallel members
        let (list, q) = (&mut self.links[x], &mut self.local[x]);
        // tidy-allow(panic-reach): x is a live partner id; links, local and compacted parallel members
        if list.len() <= 2 * self.compacted[x] + COMPACT_SLACK {
            return;
        }
        let members = &self.members;
        // tidy-allow(panic-reach): list and heap keys are arena ids minted in range
        list.retain(|&Link(y, _)| members[y as usize].is_some());
        // tidy-allow(panic-reach): list and heap keys are arena ids minted in range
        q.retain(|c| members[c.key as usize].is_some());
        // tidy-allow(panic-reach): x is a live partner id; compacted parallels members
        self.compacted[x] = list.len();
    }

    /// Merges the globally best cluster `u` with its best partner
    /// (Fig. 3 steps 6–17); returns the merge record.
    fn merge(&mut self, u: u32) -> MergeRecord {
        // tidy-allow(panic-reach): u is a live arena id from the global heap, in range by construction
        let &Cand { g: guv, key: v } = self.local[u as usize]
            .peek()
            // tidy-allow(panic): next_merge() peeked this local heap before calling merge
            .expect("merge called on cluster with candidates");
        let sizes = (self.size(u), self.size(v));

        // Step 9: w := merge(u, v). From here on u and v are dead, so
        // every liveness test below also skips them.
        // tidy-allow(panic): u and v come from live heap entries; each slot is taken here exactly once
        // tidy-allow(panic-reach): u and v are live heap entries indexing occupied arena slots
        let mut merged = self.members[u as usize].take().expect("live");
        // tidy-allow(panic): u and v come from live heap entries; each slot is taken here exactly once
        // tidy-allow(panic-reach): u and v are live heap entries indexing occupied arena slots
        merged.extend(self.members[v as usize].take().expect("live"));
        let w = self.members.len() as u32;
        let w_size = merged.len();
        self.members.push(Some(merged));
        self.global.remove(&u);
        self.global.remove(&v);

        // link[x, w] := link[x, u] + link[x, v]: scatter both lists into
        // the dense accumulator, then gather in list order (u's partners,
        // then v's others) into u's buffer, which becomes w's list.
        // tidy-allow(panic-reach): u indexes the links arena, which parallels members
        let mut lw = std::mem::take(&mut self.links[u as usize]);
        // tidy-allow(panic-reach): v indexes the links arena, which parallels members
        let lv = std::mem::take(&mut self.links[v as usize]);
        let mut cross = 0;
        for &Link(x, c) in lw.iter().chain(&lv) {
            if x == u || x == v {
                cross = c;
            // tidy-allow(panic-reach): list entries are arena ids minted in range; acc parallels members
            } else if self.members[x as usize].is_some() {
                // tidy-allow(panic-reach): list entries are arena ids minted in range; acc parallels members
                self.acc[x as usize] += c;
            }
        }
        let mut kept = 0;
        for r in 0..lw.len() {
            // tidy-allow(panic-reach): r < lw.len() and kept <= r
            let x = lw[r].0;
            // tidy-allow(panic-reach): list entries are arena ids minted in range; acc parallels members
            let c = std::mem::take(&mut self.acc[x as usize]);
            if c != 0 {
                // tidy-allow(panic-reach): r < lw.len() and kept <= r
                lw[kept] = Link(x, c);
                kept += 1;
            }
        }
        lw.truncate(kept);
        for &Link(x, _) in &lv {
            // tidy-allow(panic-reach): list entries are arena ids minted in range; acc parallels members
            let c = std::mem::take(&mut self.acc[x as usize]);
            if c != 0 {
                lw.push(Link(x, c));
            }
        }

        // Steps 11–14: each partner x gains w (x < w, so x's size goes
        // first). Step 17: q[u] is deallocated and q[v]'s buffer becomes
        // q[w], heapified once at the end.
        // tidy-allow(panic-reach): v indexes the local arena, which parallels members
        let mut qw = std::mem::take(&mut self.local[v as usize]).into_vec();
        qw.clear();
        // tidy-allow(panic-reach): u indexes the local arena, which parallels members
        self.local[u as usize] = BinaryHeap::new();
        crate::perf::count_scratch_reused(2);
        for &Link(x, c) in &lw {
            let g = self.goodness.pair(c, self.size(x), w_size);
            // tidy-allow(panic-reach): x is a live partner id recorded in the links arena, in range by construction
            self.links[x as usize].push(Link(w, c));
            // tidy-allow(panic-reach): x is a live partner id recorded in the links arena, in range by construction
            self.local[x as usize].push(Cand { g, key: w });
            self.maybe_compact(x);
            self.refresh_global(x);
            qw.push(Cand { g, key: x });
        }
        self.compacted.push(lw.len());
        self.links.push(lw);
        self.local.push(BinaryHeap::from(qw));
        self.acc.push(0);
        self.refresh_global(w);
        self.live -= 1;
        debug_assert!(cross > 0, "merged clusters must share links");
        MergeRecord {
            left: u,
            right: v,
            merged: w,
            sizes,
            cross_links: cross,
            goodness: guv,
        }
    }

    /// §4.6 weeding: kills every live cluster smaller than `min_size`,
    /// appending its members to `outliers`. Partners keep their stale
    /// entries for the victim; each one's `Q` entry is refreshed.
    pub(crate) fn weed(&mut self, min_size: usize, outliers: &mut Vec<u32>) {
        let victims: Vec<u32> = self
            .members
            .iter()
            .enumerate()
            .filter_map(|(id, m)| {
                m.as_ref()
                    .filter(|m| m.len() < min_size)
                    .map(|_| id as u32)
            })
            .collect();
        for o in victims {
            // tidy-allow(panic): victims were collected from occupied slots and are distinct, so each take() hits Some
            // tidy-allow(panic-reach): victims index the arena in range by construction
            let m = self.members[o as usize].take().expect("live");
            outliers.extend(m);
            // tidy-allow(panic-reach): o indexes the local arena, which parallels members
            self.local[o as usize] = BinaryHeap::new();
            self.global.remove(&o);
            self.live -= 1;
            // tidy-allow(panic-reach): o indexes the links arena, which parallels members
            for Link(x, _) in std::mem::take(&mut self.links[o as usize]) {
                // A partner may itself have just been weeded.
                // tidy-allow(panic-reach): x is a partner id recorded in the links arena, in range by construction
                if self.members[x as usize].is_some() {
                    self.refresh_global(x);
                }
            }
        }
    }
}

/// What one [`IncrementalRockState::update`] batch did.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateOutcome {
    /// Per arrival: the cluster it was absorbed into, or `None` for a
    /// rejected outlier. Indices refer to the canonical clustering *as
    /// it was when the batch arrived* — a re-merge or size change at
    /// the end of the batch may reorder clusters afterwards.
    pub assignments: Vec<Option<usize>>,
    /// Arrivals absorbed into a cluster.
    pub absorbed: u64,
    /// Arrivals rejected as outliers.
    pub rejected: u64,
    /// Dirty links this batch added.
    pub dirty_links: u64,
    /// Merges committed by the re-merge pass, if the staleness
    /// criterion tripped (empty otherwise).
    pub remerged: Vec<MergeRecord>,
}

/// An evolving fitted model: the state the online update path drives.
///
/// Built from a served [`ModelArtifact`]
/// ([`IncrementalRockState::from_artifact`]), it absorbs arrival batches
/// with [`IncrementalRockState::update`]: each arrival is labeled
/// against the per-cluster Lᵢ representative pools by the batch
/// labeler's §4.6 scan (item-indexed when the measure exposes item sets;
/// labels bit-identical to
/// [`crate::labeling::Labeler::label_point_checked`]), absorbed points
/// accumulate per-cluster *dirty links*, and when the
/// [`StalenessPolicy`] criterion trips the affected clusters are
/// rebuilt into an [`IncrementalState`] and re-merged under the
/// policy's [`MergeBound`].
///
/// ## Durability
///
/// Every applied batch is appended to an internal
/// [`crate::wal::UpdateWal`] as a self-contained record (encoded
/// arrival points + a post-state digest). Updates are deterministic, so
/// [`IncrementalRockState::resume`] replays the log from the base
/// artifact to the **bit-identical** state — each replayed batch's
/// digest is verified against the logged one. Persist the evolved model
/// itself with [`IncrementalRockState::to_artifact`] (a version-2
/// artifact carrying the evolved representative pools and update
/// provenance).
///
/// ## Failure atomicity
///
/// The WAL gains a record only *after* a batch fully applies; an error
/// mid-update (a governor trip during the re-merge, a non-finite
/// similarity after absorption began) can leave the in-memory state
/// torn. Discard the state and [`IncrementalRockState::resume`] from
/// the artifact + WAL bytes: the half-applied batch was never logged,
/// so the replay lands exactly before it.
#[derive(Clone, Debug)]
pub struct IncrementalRockState<P> {
    model: String,
    /// Canonical clustering: members sorted ascending, clusters ordered
    /// by (size desc, smallest member asc) — the [`Clustering::new`]
    /// fixpoint, so artifact round-trips never shift cluster indices.
    clusters: Vec<Vec<u32>>,
    outliers: Vec<u32>,
    /// Per-cluster representative pools Lᵢ, parallel to `clusters`,
    /// with their §4.6 normalisers, θ and `f(θ)`.
    labeler: Labeler<P>,
    /// Per-cluster dirty-link accumulators, parallel to `clusters`.
    dirty: Vec<u64>,
    labeling_fraction: f64,
    hash_seed: Option<u64>,
    next_point: u32,
    pending: u64,
    policy: StalenessPolicy,
    provenance: UpdateProvenance,
    wal: UpdateWal,
}

impl<P: ArtifactPoint + Clone> IncrementalRockState<P> {
    /// Opens an artifact for online updates under `default_policy`
    /// (an update state already stored in a version-2 artifact wins
    /// over the default, so an evolved model keeps its policy).
    ///
    /// # Errors
    /// [`RockError::ArtifactMismatch`] when the artifact has no
    /// representative sets, a pooled point does not decode as `P`, or
    /// the resolved policy fails its range checks.
    pub fn from_artifact(
        artifact: &ModelArtifact,
        default_policy: StalenessPolicy,
    ) -> Result<Self, RockError> {
        let policy = artifact
            .update_state()
            .map_or(default_policy, |ext| ext.policy);
        if let Err(detail) = policy.check() {
            return Err(RockError::ArtifactMismatch { detail });
        }
        let labeler: Labeler<P> = artifact.labeler()?;
        let clustering = artifact.clustering();
        let clusters = clustering.clusters.clone();
        let outliers = clustering.outliers.clone();
        let (dirty, pending, provenance, next_point) = match artifact.update_state() {
            Some(ext) => (
                ext.dirty.clone(),
                ext.pending,
                ext.provenance,
                ext.next_point,
            ),
            None => {
                let max_id = clusters
                    .iter()
                    .flatten()
                    .chain(outliers.iter())
                    .copied()
                    .max();
                (
                    vec![0; clusters.len()],
                    0,
                    UpdateProvenance::default(),
                    max_id.map_or(0, |m| m + 1),
                )
            }
        };
        let mut state = IncrementalRockState {
            model: artifact.model().to_string(),
            clusters,
            outliers,
            labeler,
            dirty,
            labeling_fraction: artifact.labeling_fraction(),
            hash_seed: artifact.hash_seed(),
            next_point,
            pending,
            policy,
            provenance,
            wal: UpdateWal::new(),
        };
        let base = UpdateBase {
            fingerprint: state.fingerprint(),
            base_digest: state.digest(),
        };
        state.wal.append_base(&base);
        Ok(state)
    }

    /// Rebuilds an evolving model from its base artifact and the bytes
    /// of its update WAL, replaying every intact logged batch. A torn
    /// WAL tail is truncated (the second return value reports it), the
    /// same discipline as the merge WAL.
    ///
    /// # Errors
    /// [`RockError::WalCorrupt`] for a damaged log head, and
    /// [`RockError::WalMismatch`] when the log does not belong to this
    /// artifact (fingerprint/digest mismatch), a logged point does not
    /// decode, or a replayed batch diverges from its logged digest.
    /// Replayed updates run ungoverned, so [`RockError::Interrupted`]
    /// cannot occur; labeling errors surface as in
    /// [`IncrementalRockState::update`].
    pub fn resume<S: Similarity<P>>(
        artifact: &ModelArtifact,
        wal_bytes: &[u8],
        measure: &S,
    ) -> Result<(Self, bool), RockError> {
        let replay = parse_update_wal(wal_bytes)?;
        let base = &replay.base;
        let mut state = IncrementalRockState::from_artifact(artifact, base.fingerprint.policy)?;
        if base.fingerprint != state.fingerprint() {
            return Err(RockError::WalMismatch {
                detail: "update log fingerprint does not match the artifact".into(),
            });
        }
        if base.base_digest != state.digest() {
            return Err(RockError::WalMismatch {
                detail: "update log base digest does not match the artifact".into(),
            });
        }
        let governor = RunGovernor::unlimited();
        for rec in &replay.updates {
            // A blob that does not decode exactly means the log belongs
            // to a different point type.
            let points: Vec<P> =
                decode_points(&rec.points).map_err(|_| RockError::WalMismatch {
                    detail: format!("update #{} logs a point that does not decode", rec.seq),
                })?;
            state.update(&points, measure, &governor)?;
            if state.digest() != rec.post_digest {
                return Err(RockError::WalMismatch {
                    detail: format!("replayed update #{} diverges from its logged digest", rec.seq),
                });
            }
        }
        Ok((state, replay.truncated))
    }

    /// Absorbs one batch of arrivals.
    ///
    /// The batch proceeds in phases: (1) every arrival is scored
    /// against the *pre-batch* representative pools by the batch
    /// labeler's scan, over one item index per batch (§4.6: assign to
    /// the cluster maximising `Nᵢ / (|Lᵢ| + 1)^{f(θ)}`, ties to the
    /// smaller index, no representative neighbor anywhere → outlier);
    /// (2) absorbed points join their cluster (and its representative
    /// pool while it holds fewer than `rep_cap` points), adding their
    /// representative-neighbor count to the cluster's dirty links;
    /// (3) if the [`StalenessPolicy`] trips, cross-links are recounted
    /// over the representative pools of every pair involving a dirty
    /// cluster and a bounded re-merge runs; (4) the clustering is
    /// re-canonicalised and the batch is logged to the update WAL.
    ///
    /// `governor` is consulted before the batch
    /// (`check_at(Labeling, updates_applied)`) and before a re-merge
    /// (`check_at(Merge, remerges)`) — kill/resume tests hook both.
    ///
    /// # Errors
    /// [`RockError::Interrupted`] (marked resumable) on a governor
    /// trip, [`RockError::NonFiniteSimilarity`] from a degenerate
    /// measure. See the type docs for failure atomicity: after an error
    /// past phase 1 the in-memory state is torn — discard it and
    /// [`IncrementalRockState::resume`].
    pub fn update<S: Similarity<P>>(
        &mut self,
        arrivals: &[P],
        measure: &S,
        governor: &RunGovernor,
    ) -> Result<UpdateOutcome, RockError> {
        governor
            .check_at(Phase::Labeling, self.provenance.updates_applied)
            .map_err(|e| crate::algorithm::mark_resumable(e, true))?;

        // Phase 1: pure scoring against the pre-batch pools, through the
        // batch labeler's pass on this thread, stopping at the first
        // non-finite similarity; the pass counts its own evaluations. The
        // update's own counts go into the provenance only.
        let mut scored = Vec::with_capacity(arrivals.len());
        LabelPass::new(&self.labeler, measure).score_chunk(
            arrivals,
            &mut scored,
            &|outcome: Result<_, RockError>| outcome,
        )?;

        // Phase 2: absorb.
        let mut absorbed = 0u64;
        let mut rejected = 0u64;
        let mut new_dirty = 0u64;
        let assignments: Vec<Option<usize>> = scored.iter().map(|s| s.map(|(i, _)| i)).collect();
        for (point, &slot) in arrivals.iter().zip(&scored) {
            let id = self.next_point;
            self.next_point += 1;
            match slot {
                Some((c, neighbors)) => {
                    // tidy-allow(panic-reach): c is a cluster index of the labeler, and clusters/labeler sets/dirty are parallel
                    self.clusters[c].push(id);
                    if self.labeler.set_size(c) < self.policy.rep_cap {
                        self.labeler.push_rep(c, point.clone());
                    }
                    // tidy-allow(panic-reach): c is a cluster index of the labeler, and clusters/labeler sets/dirty are parallel
                    self.dirty[c] += neighbors;
                    new_dirty += neighbors;
                    absorbed += 1;
                    self.pending += 1;
                }
                None => {
                    self.outliers.push(id);
                    rejected += 1;
                }
            }
        }

        // Phase 3: staleness check and bounded re-merge.
        let clustered_points: usize = self.clusters.iter().map(Vec::len).sum();
        let dirty_total: u64 = self.dirty.iter().sum();
        let stale = self.pending >= self.policy.max_pending
            || dirty_total as f64 >= self.policy.max_dirty_fraction * clustered_points as f64;
        let mut remerged = Vec::new();
        let mut merge_sims = 0u64;
        let mut did_remerge = false;
        if stale && self.clusters.len() > self.policy.min_clusters {
            governor
                .check_at(Phase::Merge, self.provenance.remerges)
                .map_err(|e| crate::algorithm::mark_resumable(e, true))?;
            (remerged, merge_sims) = self.remerge(measure, clustered_points)?;
            did_remerge = true;
        }

        // Phase 4: restore the canonical clustering order, account, log.
        self.canonicalize();
        self.provenance.updates_applied += 1;
        self.provenance.points_absorbed += absorbed;
        self.provenance.points_rejected += rejected;
        self.provenance.relabels += arrivals.len() as u64;
        self.provenance.dirty_links += new_dirty;
        if did_remerge {
            self.provenance.remerges += 1;
            self.provenance.remerge_merges += remerged.len() as u64;
        }
        crate::perf::count_sim_evals(merge_sims);
        let record = UpdateRecord {
            seq: self.provenance.updates_applied - 1,
            points: arrivals.iter().map(point_blob).collect(),
            post_digest: self.digest(),
        };
        self.wal.append_update(&record);

        Ok(UpdateOutcome {
            assignments,
            absorbed,
            rejected,
            dirty_links: new_dirty,
            remerged,
        })
    }

    /// Recounts representative cross-links over every pair involving a
    /// dirty cluster through [`cross_links`] (the item index where it is
    /// exact; on the brute-force path a non-finite value is
    /// [`RockError::NonFiniteSimilarity`]), runs the bounded merge, and
    /// folds the committed merges back into the parallel `clusters` and
    /// labeler pools. Dirty accumulators and the pending count reset
    /// afterwards. Returns the merge records and the number of similarity
    /// evaluations spent.
    fn remerge<S: Similarity<P>>(
        &mut self,
        measure: &S,
        clustered_points: usize,
    ) -> Result<(Vec<MergeRecord>, u64), RockError> {
        let theta = self.labeler.theta();
        let dirty = |c: usize| self.dirty.get(c).is_some_and(|&d| d != 0);
        let (links, evals, non_finite) =
            cross_links(self.labeler.sets(), measure, theta, |i, j| dirty(i) || dirty(j));
        if let Some(value) = non_finite {
            return Err(RockError::NonFiniteSimilarity { value });
        }
        // The artifact does not persist a goodness kind; re-merges always
        // run the paper's §3.3 normalised criterion, matching the batch
        // engine's default.
        let goodness = Goodness::new(
            theta,
            ConstantF(self.labeler.ftheta()),
            GoodnessKind::Normalized,
        );
        let mut st = IncrementalState::from_clusters(
            std::mem::take(&mut self.clusters),
            &links,
            goodness,
        );
        let records = st.bounded_merge(&self.policy.merge_bound(clustered_points));
        let live = st.live_clusters();

        // Fold committed merges into the parallel representative pools:
        // an arena slot per pre-merge cluster, each record concatenating
        // its operands' pools (capped) into the slot of the merged id —
        // the same id-minting order as the merge arena itself.
        let rep_cap = self.policy.rep_cap;
        self.labeler.map_sets(|sets| {
            let mut rep_arena: Vec<Option<Vec<P>>> = sets.into_iter().map(Some).collect();
            for rec in &records {
                debug_assert_eq!(rec.merged as usize, rep_arena.len());
                // tidy-allow(panic-reach): merge records reference operand ids already minted into the arena
                let mut pool = rep_arena[rec.left as usize].take().unwrap_or_default();
                // tidy-allow(panic-reach): merge records reference operand ids already minted into the arena
                pool.extend(rep_arena[rec.right as usize].take().unwrap_or_default());
                pool.truncate(rep_cap);
                rep_arena.push(Some(pool));
            }
            live.iter()
                // tidy-allow(panic-reach): live arena ids index rep_arena, which grew in lockstep with the merge arena
                .map(|&(id, _)| rep_arena[id as usize].take().unwrap_or_default())
                .collect()
        });
        self.clusters = live.into_iter().map(|(_, members)| members).collect();
        self.dirty = vec![0; self.clusters.len()];
        self.pending = 0;
        Ok((records, evals))
    }

    /// Restores the [`Clustering::new`] canonical order in place: members
    /// ascending within each cluster, clusters in [`canonical_order`],
    /// the parallel labeler pools and `dirty` permuted in lockstep,
    /// outliers sorted. Clusters are disjoint and non-empty, so the order
    /// is total and the permutation unique — which is what makes the
    /// digest canonical.
    fn canonicalize(&mut self) {
        for c in &mut self.clusters {
            c.sort_unstable();
        }
        let order = canonical_order(&self.clusters);
        self.clusters = permute(std::mem::take(&mut self.clusters), &order);
        self.dirty = permute(std::mem::take(&mut self.dirty), &order);
        self.labeler.map_sets(|sets| permute(sets, &order));
        self.outliers.sort_unstable();
    }

    /// Persists the evolved model as a (version-2) artifact: the current
    /// clustering and representative pools plus the update extension
    /// (provenance, policy, pending/dirty accumulators). Loading it back
    /// through [`IncrementalRockState::from_artifact`] reproduces this
    /// state digest-identically.
    ///
    /// # Errors
    /// Propagates [`ModelArtifact::from_labeled`] validation failures.
    pub fn to_artifact(&self) -> Result<ModelArtifact, RockError> {
        let mut report = RunReport::new();
        report.record_phase_perf(
            "update",
            PerfCounters {
                relabels: self.provenance.relabels,
                dirty_links: self.provenance.dirty_links,
                remerges: self.provenance.remerges,
                ..PerfCounters::default()
            },
        );
        let fit = ModelFit {
            clustering: Clustering::new(self.clusters.clone(), self.outliers.clone()),
            dendrogram: None,
            report,
        };
        let mut artifact = ModelArtifact::from_labeled(
            &self.model,
            &fit,
            &self.labeler,
            self.labeling_fraction,
            self.hash_seed,
        )?;
        artifact.set_update_state(Some(UpdateExtension {
            provenance: self.provenance,
            policy: self.policy,
            pending: self.pending,
            dirty: self.dirty.clone(),
            next_point: self.next_point,
        }));
        Ok(artifact)
    }

    /// The model name inherited from the base artifact.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The representative pools Lᵢ the next update scores against,
    /// parallel to [`clusters`](Self::clusters).
    pub(crate) fn labeler(&self) -> &Labeler<P> {
        &self.labeler
    }

    /// Current number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The canonical clusters (point ids, members ascending).
    pub fn clusters(&self) -> &[Vec<u32>] {
        &self.clusters
    }

    /// Point ids rejected as outliers, ascending.
    pub fn outliers(&self) -> &[u32] {
        &self.outliers
    }

    /// Absorbed points pending since the last re-merge.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// The staleness policy in force.
    pub fn policy(&self) -> StalenessPolicy {
        self.policy
    }

    /// Cumulative update provenance.
    pub fn provenance(&self) -> UpdateProvenance {
        self.provenance
    }

    /// The update WAL accumulated by this state (base record plus one
    /// record per applied batch) — persist its bytes to make
    /// [`IncrementalRockState::resume`] possible.
    pub fn wal(&self) -> &UpdateWal {
        &self.wal
    }

    /// CRC-32 digest of the canonical state image (everything but the
    /// WAL). Equal digests mean bit-identical evolved models.
    pub fn digest(&self) -> u32 {
        crc32(&self.canonical_bytes())
    }

    /// The fingerprint an update log of this model must carry.
    pub(crate) fn fingerprint(&self) -> UpdateFingerprint {
        UpdateFingerprint {
            theta_bits: self.labeler.theta().to_bits(),
            ftheta_bits: self.labeler.ftheta().to_bits(),
            fraction_bits: self.labeling_fraction.to_bits(),
            hash_seed: self.hash_seed,
            policy: self.policy,
        }
    }

    /// The canonical state image: the fingerprint, the id and pending
    /// counters, provenance, the clustering, the dirty accumulators and
    /// the representative pools as point blobs.
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.fingerprint().encode(&mut buf);
        put_u32(&mut buf, self.next_point);
        put_u64(&mut buf, self.pending);
        self.provenance.encode(&mut buf);
        encode_clustering(&mut buf, &self.clusters, &self.outliers);
        for &d in &self.dirty {
            put_u64(&mut buf, d);
        }
        put_u32(&mut buf, self.labeler.num_clusters() as u32);
        for set in self.labeler.sets() {
            put_blobs(&mut buf, set.iter().map(point_blob));
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goodness::{ConstantF, GoodnessKind};

    fn goodness() -> Goodness {
        Goodness::new(0.5, ConstantF(1.0), GoodnessKind::Normalized)
    }

    fn singleton_state(n: u32, links: &[(u32, u32, u64)]) -> IncrementalState {
        let clusters: Vec<Vec<u32>> = (0..n).map(|p| vec![p]).collect();
        IncrementalState::from_clusters(clusters, links, goodness())
    }

    #[test]
    fn link_entry_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Link>(), 12);
    }

    #[test]
    fn image_round_trips_through_from_clusters() {
        let mut a = singleton_state(4, &[(0, 1, 3), (0, 2, 1), (1, 2, 2)]);
        let rec = a.merge(a.global.peek().unwrap().0);
        assert_eq!(rec.merged, 4);

        // Re-image, compact arena ids, rebuild, and compare images.
        let clusters: Vec<Vec<u32>> = a.live_clusters().into_iter().map(|(_, m)| m).collect();
        let remap: std::collections::BTreeMap<u32, u32> = a
            .live_clusters()
            .iter()
            .enumerate()
            .map(|(new, (old, _))| (*old, new as u32))
            .collect();
        let links: Vec<(u32, u32, u64)> = a
            .canonical_links()
            .into_iter()
            .map(|(i, j, c)| {
                let (i, j) = (remap[&i], remap[&j]);
                (i.min(j), i.max(j), c)
            })
            .collect();
        let b = IncrementalState::from_clusters(clusters.clone(), &links, goodness());
        assert_eq!(
            b.live_clusters().into_iter().map(|(_, m)| m).collect::<Vec<_>>(),
            clusters
        );
        let mut want = links;
        want.sort_unstable();
        assert_eq!(b.canonical_links(), want);
        // The rebuilt heaps agree on the next merge decision.
        assert_eq!(b.global.peek().map(|(_, g)| g), a.global.peek().map(|(_, g)| g));
    }

    #[test]
    fn bounded_merge_respects_every_cap() {
        let links = &[(0, 1, 4), (1, 2, 3), (2, 3, 2), (3, 4, 1)];

        // max_merges caps the pass length.
        let mut s = singleton_state(5, links);
        let bound = MergeBound {
            min_goodness: f64::NEG_INFINITY,
            min_clusters: 1,
            max_merges: 2,
            max_cluster_size: usize::MAX,
        };
        assert_eq!(s.bounded_merge(&bound).len(), 2);

        // min_clusters floors the surviving count.
        let mut s = singleton_state(5, links);
        let merges = s.bounded_merge(&MergeBound {
            min_clusters: 3,
            max_merges: usize::MAX,
            ..bound
        });
        assert_eq!(merges.len(), 2);
        assert_eq!(s.live, 3);

        // min_goodness stops low-quality merges.
        let mut s = singleton_state(5, links);
        let all = s.bounded_merge(&MergeBound {
            min_clusters: 1,
            max_merges: usize::MAX,
            ..bound
        });
        let cutoff = all[all.len() - 1].goodness + 1e-9;
        let mut s2 = singleton_state(5, links);
        let some = s2.bounded_merge(&MergeBound {
            min_goodness: cutoff,
            min_clusters: 1,
            max_merges: usize::MAX,
            max_cluster_size: usize::MAX,
        });
        assert!(some.len() < all.len());

        // max_cluster_size stops the pass before a giant cluster forms.
        let mut s = singleton_state(5, links);
        let small = s.bounded_merge(&MergeBound {
            min_goodness: f64::NEG_INFINITY,
            min_clusters: 1,
            max_merges: usize::MAX,
            max_cluster_size: 2,
        });
        assert!(small.iter().all(|m| m.sizes.0 + m.sizes.1 <= 2));
    }

    #[test]
    fn unlinked_state_never_merges() {
        let mut s = singleton_state(3, &[]);
        let merges = s.bounded_merge(&MergeBound {
            min_goodness: f64::NEG_INFINITY,
            min_clusters: 1,
            max_merges: usize::MAX,
            max_cluster_size: usize::MAX,
        });
        assert!(merges.is_empty());
        assert_eq!(s.live, 3);
    }

    #[test]
    #[should_panic(expected = "malformed link")]
    fn malformed_link_panics() {
        let _ = singleton_state(2, &[(1, 1, 3)]);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn repeated_link_pair_panics() {
        let _ = singleton_state(3, &[(0, 2, 1), (0, 1, 3), (0, 2, 5)]);
    }

    /// A plain Fig.-3 loop over a `BTreeMap` link image (the small twin of
    /// the integration suite's reference): `merges` steps of "best
    /// goodness, then the larger ids", returning the live links.
    fn reference_links(
        mut size: Vec<usize>,
        links: &[(u32, u32, u64)],
        goodness: Goodness,
        merges: usize,
    ) -> Vec<(u32, u32, u64)> {
        use std::collections::BTreeMap;
        let mut map: BTreeMap<(u32, u32), u64> =
            links.iter().map(|&(i, j, c)| ((i, j), c)).collect();
        for _ in 0..merges {
            let g = |(&(i, j), &c): (&(u32, u32), &u64)| {
                goodness.merge_goodness(c, size[i as usize], size[j as usize])
            };
            let Some((&(v, u), _)) = map.iter().max_by(|&a, &b| {
                g(a).total_cmp(&g(b)).then(a.0 .1.cmp(&b.0 .1)).then(a.0 .0.cmp(&b.0 .0))
            }) else {
                break;
            };
            let w = size.len() as u32;
            size.push(size[u as usize] + size[v as usize]);
            size[u as usize] = 0;
            size[v as usize] = 0;
            let mut to_w: BTreeMap<u32, u64> = BTreeMap::new();
            map.retain(|&(i, j), &mut c| {
                let dead = |x: u32| x == u || x == v;
                match (dead(i), dead(j)) {
                    (false, false) => return true,
                    (true, false) => *to_w.entry(j).or_insert(0) += c,
                    (false, true) => *to_w.entry(i).or_insert(0) += c,
                    (true, true) => {}
                }
                false
            });
            map.extend(to_w.into_iter().map(|(x, c)| ((x, w), c)));
        }
        map.into_iter().map(|((i, j), c)| (i, j, c)).collect()
    }

    /// A hub absorbing a chain of singletons one at a time leaves one
    /// stale entry per merge in every remaining partner's list (the dead
    /// previous hub); compaction keeps each live list and heap within
    /// 2 × (its length at the last compaction) + 16 entries.
    #[test]
    fn stale_entries_stay_within_the_compaction_bound() {
        // Point 0 is the hub, 1..=chain its strongly linked chain, and
        // the last `partners` points link weakly to the hub only.
        let (chain, partners) = (150u32, 5u32);
        let n = 1 + chain + partners;
        let mut links = Vec::new();
        for s in 1..=chain {
            links.push((0, s, 1_000_000));
        }
        for p in (chain + 1)..n {
            links.push((0, p, 1));
        }
        let good = Goodness::new(0.5, ConstantF(0.5), GoodnessKind::Normalized);
        let clusters: Vec<Vec<u32>> = (0..n).map(|p| vec![p]).collect();
        let mut st = IncrementalState::from_clusters(clusters, &links, good);
        let step = MergeBound {
            min_goodness: f64::NEG_INFINITY,
            min_clusters: 1,
            max_merges: 1,
            max_cluster_size: usize::MAX,
        };
        let mut merges = 0;
        let mut compactions = 0;
        loop {
            let before: Vec<usize> = st.links.iter().map(Vec::len).collect();
            let recs = st.bounded_merge(&step);
            let Some(rec) = recs.first() else { break };
            merges += 1;
            if merges <= chain as usize {
                // The hub side grows by one singleton per merge.
                assert_eq!(rec.sizes.0.min(rec.sizes.1), 1, "merge {merges}: {rec:?}");
                assert_eq!(rec.sizes.0.max(rec.sizes.1), merges, "merge {merges}: {rec:?}");
            }
            for (id, m) in st.members.iter().enumerate() {
                if m.is_none() {
                    continue;
                }
                let cap = 2 * st.compacted[id] + COMPACT_SLACK;
                assert!(st.links[id].len() <= cap, "links[{id}] over the bound");
                assert!(st.local[id].len() <= cap, "q[{id}] over the bound");
                // Outside compaction a live list only grows.
                if before.get(id).is_some_and(|&b| st.links[id].len() < b) {
                    compactions += 1;
                }
            }
        }
        assert_eq!(merges, n as usize - 1);
        assert!(compactions > 0, "the chain must trigger compaction");
        assert!(st.canonical_links().is_empty());

        // The same holds mid-run, and the link image there agrees with
        // the plain loop's.
        let clusters: Vec<Vec<u32>> = (0..n).map(|p| vec![p]).collect();
        let mut st = IncrementalState::from_clusters(clusters, &links, good);
        let half = chain as usize / 2 + 7;
        st.bounded_merge(&MergeBound {
            max_merges: half,
            ..step
        });
        let want = reference_links(vec![1; n as usize], &links, good, half);
        assert_eq!(st.canonical_links(), want);
    }

    use crate::points::Transaction;
    use crate::similarity::Jaccard;

    fn t(items: &[u32]) -> Transaction {
        Transaction::new(items.to_vec())
    }

    /// Two well-separated basket clusters: "baby products" (points
    /// 0..=2) and "imported foods" (points 3..=5), θ = 0.5.
    fn baskets_artifact() -> ModelArtifact {
        let sets = vec![
            vec![t(&[0, 1, 2]), t(&[0, 1, 3]), t(&[0, 2, 3])],
            vec![t(&[10, 11, 12]), t(&[10, 11, 13]), t(&[10, 12, 13])],
        ];
        let labeler = Labeler::from_sets(sets, 0.5, 1.0).unwrap();
        let fit = ModelFit {
            clustering: Clustering::new(vec![vec![0, 1, 2], vec![3, 4, 5]], vec![]),
            dendrogram: None,
            report: RunReport::new(),
        };
        ModelArtifact::from_labeled("rock", &fit, &labeler, 1.0, Some(7)).unwrap()
    }

    /// A lenient policy that never trips staleness in short tests.
    fn calm_policy() -> StalenessPolicy {
        StalenessPolicy {
            max_pending: 1_000_000,
            max_dirty_fraction: 1e9,
            ..StalenessPolicy::default()
        }
    }

    #[test]
    fn update_absorbs_neighbors_and_rejects_strangers() {
        let artifact = baskets_artifact();
        let mut state: IncrementalRockState<Transaction> =
            IncrementalRockState::from_artifact(&artifact, calm_policy()).unwrap();
        let arrivals = vec![t(&[0, 1, 2]), t(&[99, 100])];
        let out = state
            .update(&arrivals, &Jaccard, &RunGovernor::unlimited())
            .unwrap();
        assert_eq!(out.assignments, vec![Some(0), None]);
        assert_eq!((out.absorbed, out.rejected), (1, 1));
        assert!(out.remerged.is_empty());
        // Point ids continue from the base fit: 6 absorbed, 7 rejected.
        assert_eq!(state.clusters(), &[vec![0, 1, 2, 6], vec![3, 4, 5]]);
        assert_eq!(state.outliers(), &[7]);
        assert_eq!(state.pending(), 1);
        // The duplicate of {0,1,2} neighbors all three representatives.
        assert_eq!(out.dirty_links, 3);
        let pv = state.provenance();
        assert_eq!(pv.updates_applied, 1);
        assert_eq!(pv.relabels, 2);
        assert_eq!(pv.remerges, 0);
    }

    #[test]
    fn staleness_trip_runs_a_bounded_remerge_and_resets_accumulators() {
        let artifact = baskets_artifact();
        let policy = StalenessPolicy {
            max_pending: 1,
            min_clusters: 1,
            ..StalenessPolicy::default()
        };
        let mut state: IncrementalRockState<Transaction> =
            IncrementalRockState::from_artifact(&artifact, policy).unwrap();
        let out = state
            .update(&[t(&[0, 1, 2])], &Jaccard, &RunGovernor::unlimited())
            .unwrap();
        // The two basket clusters share no items, so the pass commits no
        // merges — but it still counts as a re-merge and resets state.
        assert!(out.remerged.is_empty());
        assert_eq!(state.pending(), 0);
        assert_eq!(state.provenance().remerges, 1);
        assert_eq!(state.num_clusters(), 2);
    }

    #[test]
    fn overlapping_clusters_remerge_when_stale() {
        // Three clusters where the first two share enough items to link.
        let sets = vec![
            vec![t(&[0, 1, 2]), t(&[0, 1, 3])],
            vec![t(&[0, 2, 3]), t(&[1, 2, 3])],
            vec![t(&[10, 11, 12]), t(&[10, 11, 13])],
        ];
        let labeler = Labeler::from_sets(sets, 0.5, 1.0).unwrap();
        let fit = ModelFit {
            clustering: Clustering::new(vec![vec![0, 1], vec![2, 3], vec![4, 5]], vec![]),
            dendrogram: None,
            report: RunReport::new(),
        };
        let artifact = ModelArtifact::from_labeled("rock", &fit, &labeler, 1.0, None).unwrap();
        let policy = StalenessPolicy {
            max_pending: 1,
            min_clusters: 2,
            max_cluster_fraction: 1.0,
            ..StalenessPolicy::default()
        };
        let mut state: IncrementalRockState<Transaction> =
            IncrementalRockState::from_artifact(&artifact, policy).unwrap();
        let out = state
            .update(&[t(&[0, 1, 2])], &Jaccard, &RunGovernor::unlimited())
            .unwrap();
        assert_eq!(out.remerged.len(), 1);
        assert_eq!(state.num_clusters(), 2);
        assert_eq!(state.provenance().remerge_merges, 1);
        // The merged cluster absorbed both overlapping basket clusters
        // plus the arrival (point 6) and leads the canonical order.
        assert_eq!(state.clusters()[0], vec![0, 1, 2, 3, 6]);
    }

    #[test]
    fn wal_replay_reaches_the_bit_identical_state() {
        let artifact = baskets_artifact();
        let policy = StalenessPolicy {
            max_pending: 3,
            min_clusters: 1,
            ..StalenessPolicy::default()
        };
        let mut state: IncrementalRockState<Transaction> =
            IncrementalRockState::from_artifact(&artifact, policy).unwrap();
        state
            .update(&[t(&[0, 1, 2]), t(&[10, 11, 12])], &Jaccard, &RunGovernor::unlimited())
            .unwrap();
        state
            .update(&[t(&[0, 1, 3]), t(&[77])], &Jaccard, &RunGovernor::unlimited())
            .unwrap();
        let wal_bytes = state.wal().as_bytes().to_vec();

        let (replayed, truncated) =
            IncrementalRockState::<Transaction>::resume(&artifact, &wal_bytes, &Jaccard).unwrap();
        assert!(!truncated);
        assert_eq!(replayed.digest(), state.digest());
        assert_eq!(replayed.canonical_bytes(), state.canonical_bytes());
        // Deterministic encoding regenerates the log byte-for-byte.
        assert_eq!(replayed.wal().as_bytes(), &wal_bytes[..]);

        // A torn tail replays the intact prefix and reports truncation.
        let torn = &wal_bytes[..wal_bytes.len() - 3];
        let (prefix, truncated) =
            IncrementalRockState::<Transaction>::resume(&artifact, torn, &Jaccard).unwrap();
        assert!(truncated);
        assert_eq!(prefix.provenance().updates_applied, 1);
    }

    #[test]
    fn foreign_wal_is_a_typed_mismatch() {
        let artifact = baskets_artifact();
        let mut state: IncrementalRockState<Transaction> =
            IncrementalRockState::from_artifact(&artifact, calm_policy()).unwrap();
        state
            .update(&[t(&[0, 1, 2])], &Jaccard, &RunGovernor::unlimited())
            .unwrap();
        let wal_bytes = state.wal().as_bytes().to_vec();

        // Same shape, different θ: the fingerprint must reject it.
        let sets = vec![
            vec![t(&[0, 1, 2]), t(&[0, 1, 3]), t(&[0, 2, 3])],
            vec![t(&[10, 11, 12]), t(&[10, 11, 13]), t(&[10, 12, 13])],
        ];
        let labeler = Labeler::from_sets(sets, 0.75, 1.0).unwrap();
        let fit = ModelFit {
            clustering: Clustering::new(vec![vec![0, 1, 2], vec![3, 4, 5]], vec![]),
            dendrogram: None,
            report: RunReport::new(),
        };
        let other = ModelArtifact::from_labeled("rock", &fit, &labeler, 1.0, Some(7)).unwrap();
        let err = IncrementalRockState::<Transaction>::resume(&other, &wal_bytes, &Jaccard)
            .unwrap_err();
        assert!(matches!(err, RockError::WalMismatch { .. }), "{err}");
    }

    #[test]
    fn evolved_artifact_round_trips_digest_identically() {
        let artifact = baskets_artifact();
        let mut state: IncrementalRockState<Transaction> =
            IncrementalRockState::from_artifact(&artifact, calm_policy()).unwrap();
        state
            .update(&[t(&[0, 1, 2]), t(&[42])], &Jaccard, &RunGovernor::unlimited())
            .unwrap();

        let evolved = state.to_artifact().unwrap();
        assert!(evolved.update_state().is_some());
        let bytes = evolved.to_bytes();
        let loaded = ModelArtifact::from_bytes(&bytes).unwrap();
        let reopened: IncrementalRockState<Transaction> =
            IncrementalRockState::from_artifact(&loaded, calm_policy()).unwrap();
        assert_eq!(reopened.digest(), state.digest());
        // The stored policy wins over the caller's default.
        assert_eq!(reopened.policy(), state.policy());
        assert_eq!(reopened.provenance(), state.provenance());
    }

    #[test]
    fn interrupted_update_is_resumable_and_unlogged() {
        let artifact = baskets_artifact();
        let mut state: IncrementalRockState<Transaction> =
            IncrementalRockState::from_artifact(&artifact, calm_policy()).unwrap();
        let governor = RunGovernor::unlimited().with_kill_at(Phase::Labeling, 0);
        let err = state
            .update(&[t(&[0, 1, 2])], &Jaccard, &governor)
            .unwrap_err();
        assert!(
            matches!(err, RockError::Interrupted { resumable: true, .. }),
            "{err}"
        );
        // Nothing was applied or logged: replay lands on the base state.
        let (replayed, _) =
            IncrementalRockState::<Transaction>::resume(&artifact, state.wal().as_bytes(), &Jaccard)
                .unwrap();
        assert_eq!(replayed.provenance().updates_applied, 0);
        assert_eq!(replayed.digest(), state.digest());
    }
}
