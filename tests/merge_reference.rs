//! Differential tests of the neighbor-graph builder against a plain
//! reading of §3.1, of every link kernel against a plain reading of
//! Fig. 4 (§3.2), and of every merge-loop driver against a plain reading
//! of Fig. 3 (§4.3).
//!
//! [`naive_neighbors`] tests every pair `i < j` of a basket set for
//! `|A ∩ B| / |A ∪ B| ≥ θ` over `BTreeSet`s. `NeighborGraph::build`
//! (threads 1/2/8), with Jaccard's item index and with
//! it hidden, must reproduce it edge for edge — at θ = 0 too, where
//! baskets sharing no item are neighbors.
//!
//! [`naive_links`] counts `|N(p) ∩ N(q)|` pair by pair. The row-wise
//! sparse kernel at several thread counts and over random shard splits
//! (empty shards included), the component-blocked §4.4 dense square at
//! threads 1/2/8 and the auto selector must all reproduce it exactly,
//! also on [`blocks`] graphs of shuffled, bridged components.
//!
//! [`Reference`] is the paper's agglomeration with nothing optimised:
//! cross links in a `BTreeMap` keyed by cluster pair, and every step a
//! linear scan for the best goodness. Each step takes `g* = max g` over
//! the linked pairs (`f64::total_cmp`, `g` computed with the smaller
//! arena id's size first), merges `u` = the largest id with a partner at
//! `g*` with `v` = `u`'s largest partner at `g*`, and mints the next
//! arena id for the union. The loop stops at `k` clusters or when no
//! links are left.
//!
//! The batch engine (with and without §4.6 pruning and weeding), a run
//! interrupted mid-merge and resumed from its WAL, and
//! `IncrementalState::bounded_merge` under random caps must all produce
//! the identical merge trace — goodness compared bit for bit — on random
//! graphs of 2–200 points, including tie-heavy graphs in which every
//! link count is equal.

use proptest::prelude::*;
use rock::governor::{Phase, RunGovernor};
use rock::points::Transaction;
use rock::similarity::{Jaccard, PointsWith, Similarity};
use rock::wal::MergeWal;
use rock::{
    Clustering, ConstantF, Goodness, GoodnessKind, IncrementalState, LinkMatrix, MergeBound,
    MergeRecord, NeighborGraph, OutlierPolicy, RockAlgorithm, RockError, WeedPolicy,
};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// The plain Fig.-3 loop over an arena of clusters.
struct Reference {
    members: Vec<Option<Vec<u32>>>,
    /// `(i, j) → link[i, j]` for live `i < j` with at least one link.
    links: BTreeMap<(u32, u32), u64>,
    goodness: Goodness,
    outliers: Vec<u32>,
}

impl Reference {
    fn new(clusters: Vec<Vec<u32>>, links: &[(u32, u32, u64)], goodness: Goodness) -> Self {
        Reference {
            members: clusters.into_iter().map(Some).collect(),
            links: links.iter().map(|&(i, j, c)| ((i, j), c)).collect(),
            goodness,
            outliers: Vec::new(),
        }
    }

    fn live(&self) -> usize {
        self.members.iter().flatten().count()
    }

    fn size(&self, id: u32) -> usize {
        self.members[id as usize].as_ref().map_or(0, Vec::len)
    }

    fn g(&self, (i, j): (u32, u32), c: u64) -> f64 {
        self.goodness.merge_goodness(c, self.size(i), self.size(j))
    }

    /// `(u, v, g*)` of the next merge, or `None` when no links are left.
    fn best(&self) -> Option<(u32, u32, f64)> {
        let gstar = self
            .links
            .iter()
            .map(|(&p, &c)| self.g(p, c))
            .max_by(f64::total_cmp)?;
        let at_best: Vec<(u32, u32)> = self
            .links
            .iter()
            .filter(|&(&p, &c)| self.g(p, c).total_cmp(&gstar).is_eq())
            .map(|(&p, _)| p)
            .collect();
        let u = at_best.iter().map(|&(i, j)| i.max(j)).max()?;
        let v = at_best
            .iter()
            .filter_map(|&(i, j)| match (i == u, j == u) {
                (true, _) => Some(j),
                (_, true) => Some(i),
                _ => None,
            })
            .max()?;
        Some((u, v, gstar))
    }

    fn merge(&mut self, u: u32, v: u32, goodness: f64) -> MergeRecord {
        let w = self.members.len() as u32;
        let cross = self.links[&(u.min(v), u.max(v))];
        let mu = self.members[u as usize].take().unwrap();
        let mv = self.members[v as usize].take().unwrap();
        let sizes = (mu.len(), mv.len());
        self.members.push(Some(mu.into_iter().chain(mv).collect()));
        // link[x, w] = link[x, u] + link[x, v]; every pair naming u or v goes.
        let mut to_w: BTreeMap<u32, u64> = BTreeMap::new();
        self.links.retain(|&(i, j), &mut c| {
            let other = match (i == u || i == v, j == u || j == v) {
                (false, false) => return true,
                (true, true) => return false,
                (true, false) => j,
                (false, true) => i,
            };
            *to_w.entry(other).or_insert(0) += c;
            false
        });
        for (x, c) in to_w {
            self.links.insert((x, w), c);
        }
        MergeRecord {
            left: u,
            right: v,
            merged: w,
            sizes,
            cross_links: cross,
            goodness,
        }
    }

    /// §4.6 weeding: every live cluster smaller than `min_size` becomes
    /// outliers, its links gone.
    fn weed(&mut self, min_size: usize) {
        for id in 0..self.members.len() as u32 {
            if self.members[id as usize].as_ref().is_some_and(|m| m.len() < min_size) {
                self.outliers.extend(self.members[id as usize].take().unwrap());
                self.links.retain(|&(i, j), _| i != id && j != id);
            }
        }
    }

    /// The batch loop: merge to `k`, weeding once at `weed.0` live
    /// clusters (or at the end, if the loop never got there).
    fn run_to(&mut self, k: usize, weed: Option<(usize, usize)>) -> Vec<MergeRecord> {
        let mut merges = Vec::new();
        let mut weeded = false;
        while self.live() > k {
            if let Some((at, min_size)) = weed {
                if !weeded && self.live() <= at {
                    self.weed(min_size);
                    weeded = true;
                    continue;
                }
            }
            let Some((u, v, g)) = self.best() else { break };
            merges.push(self.merge(u, v, g));
        }
        if let (Some((_, min_size)), false) = (weed, weeded) {
            self.weed(min_size);
        }
        merges
    }

    /// The bounded re-merge: stop at the first violated cap.
    fn run_bounded(&mut self, bound: &MergeBound) -> Vec<MergeRecord> {
        let mut merges = Vec::new();
        while self.live() > bound.min_clusters && merges.len() < bound.max_merges {
            let Some((u, v, g)) = self.best() else { break };
            if g.total_cmp(&bound.min_goodness).is_lt()
                || self.size(u) + self.size(v) > bound.max_cluster_size
            {
                break;
            }
            merges.push(self.merge(u, v, g));
        }
        merges
    }

    fn clustering(&self) -> Clustering {
        Clustering::new(self.members.iter().flatten().cloned().collect(), self.outliers.clone())
    }
}

/// A merge record with goodness as raw bits, so equality is bit equality.
type RecordBits = (u32, u32, u32, (usize, usize), u64, u64);

fn bits(records: &[MergeRecord]) -> Vec<RecordBits> {
    records
        .iter()
        .map(|r| (r.left, r.right, r.merged, r.sizes, r.cross_links, r.goodness.to_bits()))
        .collect()
}

/// SplitMix64: the test's own deterministic stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A neighbor graph over `n` points of one of five shapes: random
/// (density from the seed), complete (every link count equal), disjoint
/// equal cliques, complete bipartite (two tie classes), or [`blocks`].
fn graph(n: usize, shape: u8, seed: u64) -> NeighborGraph {
    if shape == 4 {
        return blocks(n, seed);
    }
    let mut s = seed;
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
    let clique = 3 + (seed % 6) as usize;
    let density = 2 + next(&mut s) % 40; // percent
    for (i, list) in lists.iter_mut().enumerate() {
        for j in (i + 1)..n {
            let edge = match shape {
                0 => next(&mut s) % 100 < density,
                1 => true,
                2 => i / clique == j / clique,
                _ => (i % 2) != (j % 2),
            };
            if edge {
                list.push(j as u32);
            }
        }
    }
    NeighborGraph::from_lists(lists, 0.5)
}

/// Blocks of 1–141 points, each with its own random edge density, over
/// ids shuffled by the seed, so a point's position in its component
/// differs from its id. One-point blocks are isolated points, and about
/// half the graphs get one bridge edge that fuses two blocks.
fn blocks(n: usize, seed: u64) -> NeighborGraph {
    let mut s = seed;
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        ids.swap(i, (next(&mut s) % (i as u64 + 1)) as usize);
    }
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut starts = Vec::new();
    let mut start = 0;
    while start < n {
        let size = match next(&mut s) % 4 {
            0 => 1,
            _ => 2 + (next(&mut s) % 140) as usize,
        }
        .min(n - start);
        let density = 5 + next(&mut s) % 95; // percent
        let block = &ids[start..start + size];
        for (a, &p) in block.iter().enumerate() {
            for &q in &block[a + 1..] {
                if next(&mut s) % 100 < density {
                    lists[p as usize].push(q);
                }
            }
        }
        starts.push(start);
        start += size;
    }
    if starts.len() >= 2 && next(&mut s).is_multiple_of(2) {
        let pick = |s: &mut u64| {
            let b = (next(s) % starts.len() as u64) as usize;
            let end = starts.get(b + 1).copied().unwrap_or(n);
            ids[starts[b] + (next(s) % (end - starts[b]) as u64) as usize]
        };
        let (p, q) = (pick(&mut s), pick(&mut s));
        if p != q {
            lists[p as usize].push(q);
        }
    }
    NeighborGraph::from_lists(lists, 0.5)
}

/// The θ-neighbor graph of `baskets` straight from §3.1: every pair
/// `i < j` whose Jaccard coefficient `|A ∩ B| / |A ∪ B|` (0 for two
/// empty baskets) reaches θ, tested one pair at a time.
fn naive_neighbors(baskets: &[BTreeSet<u32>], theta: f64) -> NeighborGraph {
    let mut lists = vec![Vec::new(); baskets.len()];
    for (i, a) in baskets.iter().enumerate() {
        for (j, b) in baskets.iter().enumerate().skip(i + 1) {
            let inter = a.intersection(b).count();
            let union = a.union(b).count();
            let sim = if union == 0 { 0.0 } else { inter as f64 / union as f64 };
            if sim >= theta {
                lists[i].push(j as u32);
            }
        }
    }
    NeighborGraph::from_lists(lists, theta)
}

/// Jaccard with the item-set capability hidden: the builders scan every
/// pair by brute force.
struct HiddenItems;

impl Similarity<Transaction> for HiddenItems {
    fn similarity(&self, a: &Transaction, b: &Transaction) -> f64 {
        Jaccard.similarity(a, b)
    }
}

/// `|N(p) ∩ N(q)|` for every pair, counted the slow way.
fn naive_links(g: &NeighborGraph) -> BTreeMap<(u32, u32), u64> {
    let mut links = BTreeMap::new();
    for p in 0..g.len() {
        for q in (p + 1)..g.len() {
            let c = g.neighbors(p).iter().filter(|x| g.neighbors(q).contains(x)).count();
            if c > 0 {
                links.insert((p as u32, q as u32), c as u64);
            }
        }
    }
    links
}

fn goodness(kind: u8, f: f64) -> Goodness {
    let kind = if kind == 0 {
        GoodnessKind::RawLinks
    } else {
        GoodnessKind::Normalized
    };
    Goodness::new(0.5, ConstantF(f), kind)
}

/// The reference over the points that survive `min_neighbors` pruning,
/// renumbered in point order — the batch engine's initial arena.
fn point_reference(g: &NeighborGraph, min_neighbors: usize, good: Goodness) -> Reference {
    let kept: Vec<u32> = (0..g.len())
        .filter(|&p| g.degree(p) >= min_neighbors)
        .map(|p| p as u32)
        .collect();
    let arena: BTreeMap<u32, u32> = kept.iter().enumerate().map(|(a, &p)| (p, a as u32)).collect();
    let links: Vec<(u32, u32, u64)> = naive_links(g)
        .into_iter()
        .filter_map(|((p, q), c)| Some((*arena.get(&p)?, *arena.get(&q)?, c)))
        .collect();
    let mut r = Reference::new(kept.iter().map(|&p| vec![p]).collect(), &links, good);
    r.outliers = (0..g.len() as u32).filter(|p| !arena.contains_key(p)).collect();
    r
}

/// `[0, c₁, …, c_k, n]` as contiguous ranges, with `cuts` as fractions
/// of `n`: repeated or end cuts give empty ranges.
fn split(n: usize, cuts: &[f64]) -> Vec<Range<usize>> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| (c * n as f64) as usize).collect();
    points.sort_unstable();
    let mut ranges = Vec::new();
    let mut lo = 0;
    for p in points.into_iter().chain([n]) {
        ranges.push(lo..p);
        lo = p;
    }
    ranges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Random baskets over a small item universe (empty baskets, repeated
    // items and repeated baskets included), on both sides of the
    // builder's parallel cutoff, at θ ∈ {0, 0.3, 0.5, 0.8, 1}.
    #[test]
    fn neighbor_builders_match_the_reference(
        raw in proptest::collection::vec(proptest::collection::vec(0u32..30, 0..6), 0..300),
        dups in 0usize..20,
        theta_pick in 0usize..5,
    ) {
        let theta = [0.0, 0.3, 0.5, 0.8, 1.0][theta_pick];
        let mut raw = raw;
        let copies: Vec<Vec<u32>> = raw.iter().take(dups).cloned().collect();
        raw.extend(copies);
        let sets: Vec<BTreeSet<u32>> = raw.iter().map(|t| t.iter().copied().collect()).collect();
        let want = naive_neighbors(&sets, theta);
        let baskets: Vec<Transaction> = raw.into_iter().map(Transaction::new).collect();
        let indexed = PointsWith::new(&baskets, Jaccard);
        let hidden = PointsWith::new(&baskets, HiddenItems);
        prop_assert_eq!(&NeighborGraph::build(&indexed, theta, 1), &want, "build, item index");
        prop_assert_eq!(&NeighborGraph::build(&hidden, theta, 1), &want, "build, brute force");
        for threads in [1, 2, 8] {
            let got = NeighborGraph::build(&indexed, theta, threads);
            prop_assert_eq!(&got, &want, "build/{} threads, item index", threads);
            let got = NeighborGraph::build(&hidden, theta, threads);
            prop_assert_eq!(&got, &want, "build/{} threads, brute force", threads);
        }
    }

    #[test]
    fn link_kernels_match_the_reference(
        n in 0usize..=200,
        shape in 0u8..5,
        seed in any::<u64>(),
        cuts in proptest::collection::vec(0.0f64..=1.0, 0..6),
    ) {
        let g = graph(n, shape, seed);
        let want: Vec<((u32, u32), u32)> =
            naive_links(&g).into_iter().map(|(p, c)| (p, c as u32)).collect();
        let triples: Vec<(u32, u32, u32)> = want.iter().map(|&((p, q), c)| (p, q, c)).collect();
        let reference = LinkMatrix::from_pairs(n, &triples);
        let shards = split(n, &cuts);
        let kernels = [
            ("sparse/1".to_string(), LinkMatrix::compute_sparse(&g, 1)),
            ("sparse/2".to_string(), LinkMatrix::compute_sparse(&g, 2)),
            ("sparse/8".to_string(), LinkMatrix::compute_sparse(&g, 8)),
            (format!("sparse {shards:?}"), LinkMatrix::compute_sparse_ranges(&g, &shards)),
            ("dense/1".to_string(), LinkMatrix::compute_dense(&g, 1)),
            ("dense/2".to_string(), LinkMatrix::compute_dense(&g, 2)),
            ("dense/8".to_string(), LinkMatrix::compute_dense(&g, 8)),
            ("auto".to_string(), LinkMatrix::compute_auto(&g, 1)),
        ];
        for (name, links) in &kernels {
            let got: Vec<((u32, u32), u32)> = links.iter_upper().collect();
            prop_assert_eq!(&got, &want, "{}", name);
            prop_assert_eq!(links, &reference, "{}", name);
        }
    }

    #[test]
    fn batch_and_resumed_runs_match_the_reference(
        n in 2usize..=200,
        shape in 0u8..4,
        seed in any::<u64>(),
        k_frac in 0.0f64..0.5,
        min_neighbors in 0usize..4,
        weed in (0u8..3, 1usize..5),
        kind in 0u8..3,
        f in 0.05f64..1.0,
        kill_frac in 0.0f64..1.2,
        snapshot_every in 0u64..6,
    ) {
        let g = graph(n, shape, seed);
        let k = 1 + (k_frac * n as f64) as usize;
        let weed = match weed.0 {
            0 => None,
            m => Some(WeedPolicy { stop_multiple: [1.0, 1.5, 3.0][m as usize], min_cluster_size: weed.1 }),
        };
        let good = goodness(kind, f);
        let engine = RockAlgorithm::new(good, k, OutlierPolicy { min_neighbors, weed });

        let mut reference = point_reference(&g, min_neighbors, good);
        let at = weed.map(|w| (((w.stop_multiple * k as f64).ceil() as usize).max(k), w.min_cluster_size));
        let want = reference.run_to(k, at);

        let run = engine.run(&g);
        prop_assert_eq!(bits(&run.merges), bits(&want));
        prop_assert_eq!(&run.clustering, &reference.clustering());

        // Kill at some merge, then resume from the WAL (through a
        // snapshot when the cadence wrote one before the kill).
        let kill = (kill_frac * want.len() as f64) as u64;
        let mut wal = MergeWal::new().with_snapshot_every(snapshot_every);
        let governor = RunGovernor::unlimited().with_kill_at(Phase::Merge, kill);
        let links = LinkMatrix::compute_auto(&g, 1);
        let resumed = match engine.run_governed(&g, &links, &governor, Some(&mut wal)) {
            Ok(done) => done,
            Err(RockError::Interrupted { resumable: true, .. }) => engine
                .resume(wal.as_bytes(), Some(&g), 1, &RunGovernor::unlimited(), None)
                .unwrap(),
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        };
        prop_assert_eq!(bits(&resumed.merges), bits(&want));
        prop_assert_eq!(&resumed.clustering, &reference.clustering());
    }

    #[test]
    fn bounded_merge_matches_the_reference(
        n in 2usize..=200,
        seed in any::<u64>(),
        density in 1u64..60,
        equal_counts in any::<bool>(),
        kind in 0u8..3,
        f in 0.05f64..1.0,
        caps in (0usize..8, 0usize..250, 0usize..60, 0u8..3),
    ) {
        // Clusters of 1–4 points over consecutive point ids.
        let mut s = seed;
        let mut next_point = 0u32;
        let clusters: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let size = 1 + (next(&mut s) % 4) as u32;
                next_point += size;
                (next_point - size..next_point).collect()
            })
            .collect();
        let mut links = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if next(&mut s) % 100 < density {
                    let c = if equal_counts { 3 } else { 1 + next(&mut s) % 6 };
                    links.push((i, j, c));
                }
            }
        }
        let good = goodness(kind, f);
        let min_goodness = match caps.3 {
            0 => f64::NEG_INFINITY,
            1 => 0.0,
            _ => {
                // A floor somewhere inside the run's goodness range.
                let mut all = Reference::new(clusters.clone(), &links, good);
                let g: Vec<f64> = all.run_bounded(&MergeBound {
                    min_goodness: f64::NEG_INFINITY,
                    min_clusters: 1,
                    max_merges: usize::MAX,
                    max_cluster_size: usize::MAX,
                }).iter().map(|r| r.goodness).collect();
                g.get(g.len() / 2).copied().unwrap_or(0.0)
            }
        };
        let bound = MergeBound {
            min_goodness,
            min_clusters: caps.0,
            max_merges: if caps.1 >= 200 { usize::MAX } else { caps.1 },
            max_cluster_size: if caps.2 == 0 { usize::MAX } else { caps.2 },
        };

        let mut reference = Reference::new(clusters.clone(), &links, good);
        let want = reference.run_bounded(&bound);
        let mut state = IncrementalState::from_clusters(clusters, &links, good);
        let got = state.bounded_merge(&bound);
        prop_assert_eq!(bits(&got), bits(&want));
        let live: Vec<Vec<u32>> = state.live_clusters().into_iter().map(|(_, m)| m).collect();
        prop_assert_eq!(Clustering::new(live, vec![]), reference.clustering());
        let reference_links: Vec<(u32, u32, u64)> =
            reference.links.iter().map(|(&(i, j), &c)| (i, j, c)).collect();
        prop_assert_eq!(state.canonical_links(), reference_links);
    }
}
