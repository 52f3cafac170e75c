//! The item → id postings index shared by the item-indexed kernels: the
//! §4.6 labeler (ids are representatives) and the §3.1 neighbor scan (ids
//! are sample points).
//!
//! Both rely on the same fact: for Jaccard and θ > 0, two sets that share
//! no item have similarity 0 < θ, so only ids reached through a common
//! item's postings can pass the threshold.

/// The slot table may spend this many slots per posting, on top of
/// [`DENSE_SLOTS_MIN`], before the item ids count as too spread out for
/// it and the caller stays brute force.
const DENSE_SLOTS_PER_POSTING: u64 = 4;
/// Slots the table may always use, however few postings there are.
const DENSE_SLOTS_MIN: u64 = 1 << 16;

/// Item → id postings over a list of item sets, in CSR form: set `k` of
/// the input has id `k`, and each item's ids are ascending.
#[derive(Debug)]
pub(crate) struct Postings {
    /// The smallest item id: item `x` has slot `x − base`.
    base: u32,
    /// The ids of slot `s` are `ids[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    /// Set ids, grouped by item slot.
    ids: Vec<u32>,
    /// Item count of each set.
    lens: Vec<u32>,
}

impl Postings {
    /// Indexes `sets`, each sorted and duplicate-free, or returns `None`
    /// when the caller must stay brute force:
    ///
    /// * more sets or postings than `u32` ids address;
    /// * item ids spread too far for a dense slot table — more than
    ///   `4 × postings + 65,536` slots (e.g. both small ids and ids near
    ///   `u32::MAX`).
    pub(crate) fn build(sets: &[&[u32]]) -> Option<Postings> {
        u32::try_from(sets.len()).ok()?;
        let total: usize = sets.iter().map(|items| items.len()).sum();
        u32::try_from(total).ok()?;
        // Every set is no longer than the total, so each length fits too.
        let lens: Vec<u32> = sets.iter().map(|items| items.len() as u32).collect();

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
            lens,
        })
    }

    /// The ids of the sets containing `item`, ascending (empty for items
    /// no set has).
    #[inline]
    pub(crate) fn of(&self, item: u32) -> &[u32] {
        let Some(s) = item.checked_sub(self.base).map(|s| s as usize) else {
            return &[];
        };
        match (self.offsets.get(s), self.offsets.get(s + 1)) {
            (Some(&lo), Some(&hi)) => self.ids.get(lo as usize..hi as usize).unwrap_or(&[]),
            _ => &[],
        }
    }

    /// Item count of set `id`.
    #[inline]
    pub(crate) fn set_len(&self, id: usize) -> usize {
        self.lens[id] as usize
    }

    /// Number of indexed sets.
    pub(crate) fn num_sets(&self) -> usize {
        self.lens.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn postings_list_ids_ascending_per_item() {
        let sets: [&[u32]; 4] = [&[3, 5], &[], &[1, 3], &[3]];
        let p = Postings::build(&sets).expect("compact ids");
        assert_eq!(p.num_sets(), 4);
        assert_eq!(p.of(3), &[0, 2, 3]);
        assert_eq!(p.of(5), &[0]);
        assert_eq!(p.of(1), &[2]);
        assert!(p.of(0).is_empty());
        assert!(p.of(4).is_empty());
        assert!(p.of(99).is_empty());
        assert_eq!((p.set_len(0), p.set_len(1)), (2, 0));
    }

    #[test]
    fn spread_out_item_ids_are_not_tabled() {
        let top = u32::MAX;
        let spread: [&[u32]; 3] = [&[0, 1, top], &[1, top - 1, top], &[7, 8]];
        assert!(Postings::build(&spread).is_none());

        // A compact range far from zero keeps the table.
        let high: [&[u32]; 2] = [&[top - 2, top], &[top - 1]];
        let p = Postings::build(&high).expect("compact high ids");
        assert_eq!(p.base, top - 2);
        assert_eq!(p.of(top), &[0]);
        assert!(p.of(3).is_empty());
    }

    #[test]
    fn no_sets_index_to_nothing() {
        let p = Postings::build(&[]).expect("empty input");
        assert_eq!(p.num_sets(), 0);
        assert!(p.of(0).is_empty());
    }
}
