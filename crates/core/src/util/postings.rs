//! The item → id postings index and the one probe every θ-neighbor
//! count goes through: the §3.1 neighbor scan (ids are sample points),
//! the §4.6 labeler (ids are representatives) and [`cross_links`], the
//! representative-level links of the online re-merge and the shard
//! coarse merge.
//!
//! All rely on the same fact: for Jaccard and θ > 0, two sets that share
//! no item have similarity 0 < θ, so only ids reached through a common
//! item's postings can pass the threshold.

use crate::points::jaccard_from_counts;
use crate::similarity::Similarity;

/// The slot table may spend this many slots per posting, on top of
/// [`DENSE_SLOTS_MIN`], before the item ids count as too spread out for
/// it and the caller stays brute force.
const DENSE_SLOTS_PER_POSTING: u64 = 4;
/// Slots the table may always use, however few postings there are.
const DENSE_SLOTS_MIN: u64 = 1 << 16;

/// Item → id postings over a list of item sets, in CSR form: set `k` of
/// the input has id `k`, and each item's ids are ascending.
#[derive(Debug)]
pub(crate) struct Postings<'a> {
    /// The smallest item id: item `x` has slot `x − base`.
    base: u32,
    /// The ids of slot `s` are `ids[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    /// Set ids, grouped by item slot.
    ids: Vec<u32>,
    /// The items of each set.
    sets: Vec<&'a [u32]>,
}

impl<'a> Postings<'a> {
    /// The one index gate: indexes `sets` (each sorted and duplicate-free
    /// when present) for threshold `theta`, or returns `None` when the
    /// caller must stay brute force:
    ///
    /// * θ ≤ 0 — pairs sharing no item are neighbors too;
    /// * a set is `None` — the measure exposes no item set for it
    ///   (measures without the capability, fault-injecting or counting
    ///   wrappers);
    /// * more sets or postings than `u32` ids address;
    /// * item ids spread too far for a dense slot table — more than
    ///   `4 × postings + 65,536` slots (e.g. both small ids and ids near
    ///   `u32::MAX`).
    ///
    /// A NaN θ fails every comparison on both paths alike, so it may
    /// take the index.
    pub(crate) fn index(
        theta: f64,
        sets: impl IntoIterator<Item = Option<&'a [u32]>>,
    ) -> Option<Postings<'a>> {
        if theta <= 0.0 {
            return None;
        }
        let sets = sets.into_iter().collect::<Option<Vec<&[u32]>>>()?;
        u32::try_from(sets.len()).ok()?;
        let total: usize = sets.iter().map(|items| items.len()).sum();
        u32::try_from(total).ok()?;

        let all_items = || sets.iter().flat_map(|items| items.iter().copied());
        let lo = all_items().min().unwrap_or(0);
        let hi = all_items().max().unwrap_or(0);
        let span = u64::from(hi - lo) + 1;
        if span > DENSE_SLOTS_PER_POSTING * total as u64 + DENSE_SLOTS_MIN {
            return None;
        }
        let num_slots = span as usize;

        // Counting sort of the (item, id) pairs by slot: every item lies
        // in [lo, hi], so every slot is in range, and ids are placed in
        // ascending order within each slot.
        let mut offsets = vec![0u32; num_slots + 1];
        for item in all_items() {
            offsets[(item - lo) as usize + 1] += 1;
        }
        for s in 0..num_slots {
            offsets[s + 1] += offsets[s];
        }
        let mut next: Vec<u32> = offsets[..num_slots].to_vec();
        let mut ids = vec![0u32; total];
        for (k, items) in sets.iter().enumerate() {
            for &item in *items {
                let s = (item - lo) as usize;
                ids[next[s] as usize] = k as u32;
                next[s] += 1;
            }
        }
        Some(Postings {
            base: lo,
            offsets,
            ids,
            sets,
        })
    }

    /// The ids of the sets containing `item`, ascending (empty for items
    /// no set has).
    #[inline]
    fn of(&self, item: u32) -> &[u32] {
        let Some(s) = item.checked_sub(self.base).map(|s| s as usize) else {
            return &[];
        };
        match (self.offsets.get(s), self.offsets.get(s + 1)) {
            (Some(&lo), Some(&hi)) => self.ids.get(lo as usize..hi as usize).unwrap_or(&[]),
            _ => &[],
        }
    }

    /// The items of set `id`.
    #[inline]
    pub(crate) fn items(&self, id: usize) -> &'a [u32] {
        self.sets[id]
    }

    /// Number of indexed sets.
    pub(crate) fn num_sets(&self) -> usize {
        self.sets.len()
    }
}

/// One worker's probe of a [`Postings`] index: the index plus the
/// scratch it reuses from query to query.
pub(crate) struct Probe<'a> {
    index: &'a Postings<'a>,
    /// `|query ∩ set|` per id; all zero between queries.
    inter: Vec<u32>,
    /// `n + 1` slots; during a query, the first `len` hold the ids with a
    /// non-zero `inter`, in first-touch order, and slot `len` is the
    /// cursor's scratch write.
    touched: Vec<u32>,
}

impl<'a> Probe<'a> {
    pub(crate) fn new(index: &'a Postings<'a>) -> Self {
        let n = index.num_sets();
        Probe {
            index,
            inter: vec![0; n],
            touched: vec![0; n + 1],
        }
    }

    /// The probed index.
    pub(crate) fn index(&self) -> &'a Postings<'a> {
        self.index
    }

    /// The one scatter-and-threshold kernel: reports, in first-touch
    /// order, every indexed set with id ≥ `from` whose Jaccard with
    /// `items` is at least `theta`, and returns how many sets it touched
    /// (the similarity evaluations it stands for).
    ///
    /// It scatters `|query ∩ set|` over the postings of the query's items
    /// (postings are ascending, so the prefix below `from` is skipped),
    /// then tests only the touched sets. An untouched set shares no item
    /// with the query, so its similarity is 0 < θ; a touched one gets the
    /// value the measure would compute, because both go through
    /// `jaccard_from_counts` on the same integers.
    ///
    /// The scatter records first touches without a branch: every step
    /// writes its id at the cursor and advances the cursor only when the
    /// count was zero. About one step in four is a first touch, in no
    /// pattern a predictor can learn, so the branch it replaces missed
    /// often; the extra store is cheap. The cursor never passes `n` (there
    /// are `n` distinct ids), so the write lands in the `n + 1` slots.
    pub(crate) fn run(
        &mut self,
        items: &[u32],
        from: u32,
        theta: f64,
        mut hit: impl FnMut(u32),
    ) -> u64 {
        let mut len = 0;
        for &item in items {
            let ids = self.index.of(item);
            // Labeling probes every query from 0: skip the search there
            // (it cost ~18% of `fit_wide`'s label phase, measured on a
            // 2-vCPU host).
            let first = if from == 0 {
                0
            } else {
                ids.partition_point(|&id| id < from)
            };
            for &id in &ids[first..] {
                let count = &mut self.inter[id as usize];
                self.touched[len] = id;
                len += usize::from(*count == 0);
                *count += 1;
            }
        }
        for &id in &self.touched[..len] {
            let inter = std::mem::take(&mut self.inter[id as usize]) as usize;
            let union = items.len() + self.index.sets[id as usize].len() - inter;
            if jaccard_from_counts(inter, union) >= theta {
                hit(id);
            }
        }
        len as u64
    }
}

/// Counts the representative cross-links of every pool pair `i < j`
/// that `want(i, j)` accepts: `(i, j, links)` for each such pair with a
/// link, ascending, where `links` counts the cross pairs
/// `(a ∈ pools[i], b ∈ pools[j])` with `sim(a, b) ≥ θ`. Also returns the
/// similarity evaluations and the first non-finite value evaluated.
///
/// When [`Postings::index`] accepts the pooled representatives (numbered
/// by position in `pools[0] ‖ pools[1] ‖ …`), each representative of
/// pool `i` probes only the pools after `i`, so each cross pair is
/// touched once, and the evaluations are the touched representatives.
/// Otherwise every wanted pair is evaluated in order, every
/// `a ∈ pools[i]` against every `b ∈ pools[j]`, each value compared as
/// is (NaN fails `≥ θ`); the evaluations are `Σ |pools[i]|·|pools[j]|`.
pub(crate) fn cross_links<P, S: Similarity<P>>(
    pools: &[Vec<P>],
    sim: &S,
    theta: f64,
    want: impl Fn(usize, usize) -> bool,
) -> (Vec<(u32, u32, u64)>, u64, Option<f64>) {
    let n = pools.len();
    let (mut links, mut evals, mut non_finite) = (Vec::new(), 0, None);
    let reps = pools.iter().flatten().map(|rep| sim.item_set(rep));
    if let Some(index) = Postings::index(theta, reps) {
        // The pool of each rep. Rep ids fit u32 (the gate checks); pool
        // ids are u32 in the output on both paths.
        let owner: Vec<u32> = pools
            .iter()
            .enumerate()
            .flat_map(|(i, pool)| pool.iter().map(move |_| i as u32))
            .collect();
        let (mut probe, mut row, mut end) = (Probe::new(&index), vec![0u64; n], 0);
        for (i, pool) in pools.iter().enumerate() {
            let start = end;
            end += pool.len();
            if ((i + 1)..n).any(|j| want(i, j)) {
                for r in start..end {
                    evals += probe.run(index.items(r), end as u32, theta, |b| {
                        row[owner[b as usize] as usize] += 1;
                    });
                }
            }
            for (j, count) in row.iter_mut().enumerate().skip(i + 1) {
                let count = std::mem::take(count);
                if count > 0 && want(i, j) {
                    links.push((i as u32, j as u32, count));
                }
            }
        }
        return (links, evals, non_finite);
    }
    for i in 0..n {
        for j in ((i + 1)..n).filter(|&j| want(i, j)) {
            evals += pools[i].len() as u64 * pools[j].len() as u64;
            let mut count = 0u64;
            for p in &pools[i] {
                for q in &pools[j] {
                    let s = sim.similarity(p, q);
                    if !s.is_finite() {
                        non_finite.get_or_insert(s);
                    }
                    count += u64::from(s >= theta);
                }
            }
            if count > 0 {
                links.push((i as u32, j as u32, count));
            }
        }
    }
    (links, evals, non_finite)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::Transaction;
    use crate::similarity::Jaccard;
    use proptest::collection;
    use proptest::prelude::*;

    fn index<'a>(sets: &[&'a [u32]]) -> Option<Postings<'a>> {
        Postings::index(0.5, sets.iter().map(|&s| Some(s)))
    }

    #[test]
    fn postings_list_ids_ascending_per_item() {
        let sets: [&[u32]; 4] = [&[3, 5], &[], &[1, 3], &[3]];
        let p = index(&sets).expect("compact ids");
        assert_eq!(p.num_sets(), 4);
        assert_eq!(p.of(3), &[0, 2, 3]);
        assert_eq!(p.of(5), &[0]);
        assert_eq!(p.of(1), &[2]);
        assert!(p.of(0).is_empty());
        assert!(p.of(4).is_empty());
        assert!(p.of(99).is_empty());
        assert_eq!((p.items(0), p.items(1)), (&[3, 5][..], &[][..]));
    }

    #[test]
    fn spread_out_item_ids_are_not_tabled() {
        let top = u32::MAX;
        let spread: [&[u32]; 3] = [&[0, 1, top], &[1, top - 1, top], &[7, 8]];
        assert!(index(&spread).is_none());

        // A compact range far from zero keeps the table.
        let high: [&[u32]; 2] = [&[top - 2, top], &[top - 1]];
        let p = index(&high).expect("compact high ids");
        assert_eq!(p.base, top - 2);
        assert_eq!(p.of(top), &[0]);
        assert!(p.of(3).is_empty());
    }

    #[test]
    fn no_sets_index_to_nothing() {
        let p = index(&[]).expect("empty input");
        assert_eq!(p.num_sets(), 0);
        assert!(p.of(0).is_empty());
    }

    #[test]
    fn index_is_built_only_where_it_is_exact() {
        let sets: [&[u32]; 2] = [&[1, 2], &[2]];
        let some = || sets.iter().map(|&s| Some(s));
        assert!(Postings::index(0.1, some()).is_some());
        assert!(Postings::index(f64::NAN, some()).is_some());
        assert!(Postings::index(0.0, some()).is_none());
        assert!(Postings::index(0.1, some().chain([None])).is_none());
    }

    #[test]
    fn probe_reports_sets_from_the_lowest_id_that_clear_theta() {
        let sets: [&[u32]; 4] = [&[1, 2], &[1, 2, 3], &[9], &[1, 2]];
        let p = index(&sets).expect("compact ids");
        let mut probe = Probe::new(&p);
        let mut hits = Vec::new();
        // Jaccard({1,2}, ·) = 1, 2/3, 0, 1: set 2 is never touched.
        let touched = probe.run(&[1, 2], 0, 2.0 / 3.0, |id| hits.push(id));
        hits.sort_unstable();
        assert_eq!((touched, hits), (3, vec![0, 1, 3]));
        let mut hits = Vec::new();
        let touched = probe.run(&[1, 2], 1, 0.7, |id| hits.push(id));
        assert_eq!((touched, hits), (2, vec![3]));
    }

    #[test]
    fn probe_that_touches_every_set_uses_the_spare_slot() {
        // Every set shares items 2 and 3 or item 1 with the query, so each
        // is touched two or three times; item 1's postings touch 1, 2, 3
        // first, and set 0 is first touched by item 2.
        let sets: [&[u32]; 4] = [&[2, 3], &[1, 2, 3], &[1, 3], &[1, 2]];
        let p = index(&sets).expect("compact ids");
        let mut probe = Probe::new(&p);
        let mut hits = Vec::new();
        // Jaccard({1,2,3}, ·) = 2/3, 1, 2/3, 2/3.
        let touched = probe.run(&[1, 2, 3], 0, 0.5, |id| hits.push(id));
        assert_eq!((touched, hits), (4, vec![1, 2, 3, 0]));
        assert!(probe.inter.iter().all(|&c| c == 0));
    }

    #[test]
    fn probe_skips_postings_below_from() {
        let sets: [&[u32]; 4] = [&[1, 2], &[1, 2], &[1, 2, 5], &[1, 2]];
        let p = index(&sets).expect("compact ids");
        let mut probe = Probe::new(&p);
        let mut hits = Vec::new();
        // Sets 0 and 1 equal the query but lie below `from`.
        let touched = probe.run(&[1, 2], 2, 0.6, |id| hits.push(id));
        assert_eq!((touched, hits), (2, vec![2, 3]));
        let mut hits = Vec::new();
        let touched = probe.run(&[1, 2], 4, 0.0, |id| hits.push(id));
        assert_eq!((touched, &hits), (0, &vec![]));
        let touched = probe.run(&[1, 2], 3, 1.0, |id| hits.push(id));
        assert_eq!((touched, hits), (1, vec![3]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // One probe reused across a run of queries of 0–11 items (items
        // 10–13 lie in no set), with random start ids and θ, reports
        // what a fresh probe reports for each, and its counts are all
        // zero again after every query.
        #[test]
        fn reused_probe_matches_a_fresh_probe(
            sets in collection::vec(collection::vec(0u32..10, 0..6), 1..12),
            queries in collection::vec(
                (collection::vec(0u32..14, 0..12), 0u32..14, 0.05f64..1.0),
                1..12,
            ),
        ) {
            let sorted = |mut items: Vec<u32>| {
                items.sort_unstable();
                items.dedup();
                items
            };
            let sets: Vec<Vec<u32>> = sets.into_iter().map(sorted).collect();
            let p = Postings::index(0.5, sets.iter().map(|s| Some(&s[..]))).expect("compact ids");
            let mut reused = Probe::new(&p);
            for (query, from, theta) in queries {
                let query = sorted(query);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let got_touched = reused.run(&query, from, theta, |id| got.push(id));
                let want_touched = Probe::new(&p).run(&query, from, theta, |id| want.push(id));
                prop_assert_eq!((got_touched, &got), (want_touched, &want));
                prop_assert!(reused.inter.iter().all(|&c| c == 0));
            }
        }
    }

    /// Jaccard with the item capability hidden: [`cross_links`] takes
    /// its brute-force path.
    struct BruteJaccard;

    impl Similarity<Transaction> for BruteJaccard {
        fn similarity(&self, a: &Transaction, b: &Transaction) -> f64 {
            Jaccard.similarity(a, b)
        }
    }

    /// The item [`MarkerNan`] answers NaN for.
    const MARKER: u32 = 11;

    /// Jaccard without the item capability that answers a NaN for every
    /// pair holding [`MARKER`], with a payload naming the pair, so the
    /// first non-finite value identifies the first such pair evaluated.
    struct MarkerNan;

    impl Similarity<Transaction> for MarkerNan {
        fn similarity(&self, a: &Transaction, b: &Transaction) -> f64 {
            if a.items().contains(&MARKER) || b.items().contains(&MARKER) {
                let key = a
                    .items()
                    .iter()
                    .chain(b.items())
                    .fold(0u64, |h, &x| h * 31 + u64::from(x));
                f64::from_bits(f64::NAN.to_bits() | (key & 0xF_FFFF))
            } else {
                Jaccard.similarity(a, b)
            }
        }
    }

    /// The naive reference: every wanted pool pair, every cross pair, in
    /// order. Returns the links, the evaluations and the bits of the
    /// first non-finite value.
    fn naive<S: Similarity<Transaction>>(
        pools: &[Vec<Transaction>],
        sim: &S,
        theta: f64,
        want: &impl Fn(usize, usize) -> bool,
    ) -> (Vec<(u32, u32, u64)>, u64, Option<u64>) {
        let (mut links, mut evals, mut first) = (Vec::new(), 0, None);
        for i in 0..pools.len() {
            for j in (i + 1)..pools.len() {
                if !want(i, j) {
                    continue;
                }
                let mut count = 0;
                for a in &pools[i] {
                    for b in &pools[j] {
                        let s = sim.similarity(a, b);
                        evals += 1;
                        if !s.is_finite() && first.is_none() {
                            first = Some(s.to_bits());
                        }
                        count += u64::from(s >= theta);
                    }
                }
                if count > 0 {
                    links.push((i as u32, j as u32, count));
                }
            }
        }
        (links, evals, first)
    }

    /// Cross pairs the indexed path touches: each representative of a
    /// pool with a wanted later pool, against every representative of
    /// the later pools it shares an item with.
    fn touched(pools: &[Vec<Transaction>], want: &impl Fn(usize, usize) -> bool) -> u64 {
        let n = pools.len();
        let shares =
            |a: &Transaction, b: &Transaction| a.items().iter().any(|x| b.items().contains(x));
        let mut count = 0;
        for i in (0..n).filter(|&i| ((i + 1)..n).any(|j| want(i, j))) {
            for a in &pools[i] {
                count += pools[i + 1..]
                    .iter()
                    .flatten()
                    .filter(|b| shares(a, b))
                    .count() as u64;
            }
        }
        count
    }

    /// Raw item draws `0..12` in one of three id layouts: small ids, a
    /// compact range just below `u32::MAX`, or both mixed (too spread
    /// out for the slot table unless the draws happen to be compact).
    fn place(raw: &[u32], layout: usize) -> Transaction {
        Transaction::new(
            raw.iter()
                .map(|&x| match layout {
                    0 => x,
                    1 => u32::MAX - x,
                    _ if x % 2 == 0 => x,
                    _ => u32::MAX - x,
                })
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The cross-link count equals the naive nested loop for Jaccard
        // (indexed wherever the gate accepts), Jaccard with the item
        // capability hidden and a measure answering NaN for marker
        // pairs: random pools with empty pools, empty baskets and
        // repeated representatives, the three id layouts, random want
        // masks and θ ∈ {0, 1e-9, 2/3, 0.8, 1, random}. The brute-force
        // path also matches the evaluation count and the first
        // non-finite value; the indexed path touches exactly the cross
        // pairs that share an item.
        #[test]
        fn cross_links_match_the_naive_count(
            baskets in collection::vec(collection::vec(0u32..=MARKER, 0..5), 1..10),
            pools in collection::vec(collection::vec(0usize..10, 0..6), 0..7),
            mask in collection::vec(any::<bool>(), 49),
            layout in 0usize..3,
            theta_pick in 0usize..6,
            theta_random in 0.05f64..0.95,
        ) {
            let theta = [0.0, 1e-9, 2.0 / 3.0, 0.8, 1.0, theta_random][theta_pick];
            // Boundary baskets first: their Jaccard values are exactly
            // 2/3 and 0.8.
            let mut raw: Vec<Vec<u32>> = vec![vec![0, 1], vec![0, 1, 2], vec![0, 1, 2, 3], vec![0, 1, 2, 3, 4]];
            raw.extend(baskets);
            let pools: Vec<Vec<Transaction>> = pools
                .iter()
                .map(|pool| pool.iter().map(|&b| place(&raw[b % raw.len()], layout)).collect())
                .collect();
            let want = |i: usize, j: usize| mask[i * 7 + j];

            let (links, evals, first) = naive(&pools, &Jaccard, theta, &want);
            let reps = pools.iter().flatten().map(|rep| Jaccard.item_set(rep));
            let indexed = Postings::index(theta, reps).is_some();
            let touched_evals = if indexed { touched(&pools, &want) } else { evals };
            let (got, got_evals, got_first) = cross_links(&pools, &Jaccard, theta, want);
            prop_assert_eq!(&got, &links);
            prop_assert_eq!((got_evals, got_first), (touched_evals, None), "indexed = {}", indexed);

            let (got, got_evals, got_first) = cross_links(&pools, &BruteJaccard, theta, want);
            prop_assert_eq!((&got, got_evals, got_first.map(f64::to_bits)), (&links, evals, first));

            let (links, evals, first) = naive(&pools, &MarkerNan, theta, &want);
            let (got, got_evals, got_first) = cross_links(&pools, &MarkerNan, theta, want);
            prop_assert_eq!((&got, got_evals, got_first.map(f64::to_bits)), (&links, evals, first));
        }
    }
}
