//! Clustering results.

use crate::util::frame::{put_u32, put_u32_slice, put_u64, Cursor};

/// The output of a clustering run: the clusters (as sorted point-id lists)
/// plus the points set aside as outliers.
///
/// Point ids refer to whatever point set the algorithm ran over — the full
/// data set, or the random sample in the sampled pipeline (§4.1), in which
/// case [`crate::labeling`] maps the rest of the data onto these clusters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Clustering {
    /// The clusters, each a sorted list of point ids. Ordered by
    /// decreasing size (ties broken by smallest member) so cluster numbers
    /// are deterministic.
    pub clusters: Vec<Vec<u32>>,
    /// Points discarded by outlier handling (§4.6), sorted.
    pub outliers: Vec<u32>,
}

impl Clustering {
    /// Builds a clustering, normalising order: members sorted within each
    /// cluster, clusters by decreasing size then smallest member, outliers
    /// sorted.
    pub fn new(mut clusters: Vec<Vec<u32>>, mut outliers: Vec<u32>) -> Self {
        for c in &mut clusters {
            c.sort_unstable();
        }
        clusters.retain(|c| !c.is_empty());
        let order = canonical_order(&clusters);
        outliers.sort_unstable();
        Clustering {
            clusters: permute(clusters, &order),
            outliers,
        }
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Cluster sizes, in cluster order.
    pub fn sizes(&self) -> Vec<usize> {
        self.clusters.iter().map(Vec::len).collect()
    }

    /// Total points covered (clustered + outliers).
    pub fn num_points(&self) -> usize {
        self.clusters.iter().map(Vec::len).sum::<usize>() + self.outliers.len()
    }

    /// Per-point cluster index over a universe of `n` points: `Some(c)` if
    /// the point is in cluster `c`, `None` for outliers and points the
    /// clustering never saw.
    ///
    /// # Panics
    /// Panics if any member id is `≥ n`.
    pub fn assignments(&self, n: usize) -> Vec<Option<usize>> {
        let mut out = vec![None; n];
        for (c, members) in self.clusters.iter().enumerate() {
            for &p in members {
                assert!((p as usize) < n, "point id {p} out of range {n}");
                out[p as usize] = Some(c);
            }
        }
        out
    }

    /// The index of the cluster containing point `p`, if any.
    pub fn cluster_of(&self, p: u32) -> Option<usize> {
        self.clusters
            .iter()
            .position(|c| c.binary_search(&p).is_ok())
    }
}

/// The canonical cluster order of [`Clustering::new`]: cluster indices by
/// size descending, then smallest member ascending, ties kept in input
/// order. Clusters must be non-empty with ascending members. Position
/// `k` holds the input index of the cluster that becomes cluster `k`, so
/// the result is the permutation from input cluster ids to canonical
/// ones; [`permute`] applies it to any per-cluster vector.
pub(crate) fn canonical_order(clusters: &[Vec<u32>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..clusters.len()).collect();
    order.sort_by(|&a, &b| {
        let (ca, cb) = (&clusters[a], &clusters[b]);
        cb.len().cmp(&ca.len()).then(ca[0].cmp(&cb[0]))
    });
    order
}

/// `items` reordered so that position `k` holds `items[order[k]]`, for
/// a permutation `order` of its positions.
pub(crate) fn permute<T: Default>(mut items: Vec<T>, order: &[usize]) -> Vec<T> {
    order
        .iter()
        .map(|&i| std::mem::take(&mut items[i]))
        .collect()
}

/// Appends the persisted image of a clustering: a `u32` cluster count,
/// each cluster's member list, then the outliers. The one layout behind
/// the artifact's Clusters section and the update state digest.
pub(crate) fn encode_clustering(buf: &mut Vec<u8>, clusters: &[Vec<u32>], outliers: &[u32]) {
    put_u32(buf, clusters.len() as u32);
    for members in clusters {
        put_u32_slice(buf, members);
    }
    put_u32_slice(buf, outliers);
}

/// Decodes [`encode_clustering`]'s layout as stored, without
/// normalising it; `None` if the bytes do not decode.
pub(crate) fn decode_clustering(c: &mut Cursor<'_>) -> Option<Clustering> {
    let n = c.u32()? as usize;
    let clusters = c.list(n, 4, Cursor::u32_vec)?;
    let outliers = c.u32_vec()?;
    Some(Clustering { clusters, outliers })
}

/// One merge step of the agglomeration, for dendrogram-style inspection.
///
/// Cluster ids live in the run's arena: ids `0..initial` are the initial
/// singleton clusters (see [`crate::algorithm::RockRun::initial_points`]
/// for the id → point mapping) and each merge mints the next id.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergeRecord {
    /// Arena id of the cluster that was at the top of the global heap.
    pub left: u32,
    /// Arena id of its best merge partner.
    pub right: u32,
    /// Arena id of the merged cluster.
    pub merged: u32,
    /// Sizes of the two clusters merged.
    pub sizes: (usize, usize),
    /// Cross links between them at merge time.
    pub cross_links: u64,
    /// The goodness that won this merge.
    pub goodness: f64,
}

impl MergeRecord {
    /// Bytes of one encoded record.
    pub(crate) const ENCODED_LEN: usize = 44;

    /// Appends the record's persisted layout: the three arena ids
    /// (`u32`), both sizes and the cross links (`u64`), and the exact
    /// goodness bits. The one layout behind merge-WAL Merge records and
    /// the artifact's Dendrogram section.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.left);
        put_u32(buf, self.right);
        put_u32(buf, self.merged);
        put_u64(buf, self.sizes.0 as u64);
        put_u64(buf, self.sizes.1 as u64);
        put_u64(buf, self.cross_links);
        put_u64(buf, self.goodness.to_bits());
    }

    /// Decodes one record of [`encode`](Self::encode)'s layout.
    pub(crate) fn decode(c: &mut Cursor<'_>) -> Option<MergeRecord> {
        Some(MergeRecord {
            left: c.u32()?,
            right: c.u32()?,
            merged: c.u32()?,
            sizes: (c.u64()? as usize, c.u64()? as usize),
            cross_links: c.u64()?,
            goodness: c.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_orders_everything() {
        let c = Clustering::new(
            vec![vec![5, 2], vec![9, 1, 4], vec![], vec![7, 0, 3]],
            vec![8, 6],
        );
        assert_eq!(c.clusters, vec![vec![0, 3, 7], vec![1, 4, 9], vec![2, 5]]);
        assert_eq!(c.outliers, vec![6, 8]);
        assert_eq!(c.sizes(), vec![3, 3, 2]);
        assert_eq!(c.num_points(), 10);
    }

    #[test]
    fn assignments_and_cluster_of() {
        let c = Clustering::new(vec![vec![0, 1], vec![2]], vec![3]);
        let a = c.assignments(5);
        assert_eq!(a, vec![Some(0), Some(0), Some(1), None, None]);
        assert_eq!(c.cluster_of(2), Some(1));
        assert_eq!(c.cluster_of(3), None);
    }

    #[test]
    fn equal_size_tie_broken_by_smallest_member() {
        let c = Clustering::new(vec![vec![4, 5], vec![1, 2]], vec![]);
        assert_eq!(c.clusters, vec![vec![1, 2], vec![4, 5]]);
    }

    #[test]
    fn merge_record_round_trips_in_encoded_len_bytes() {
        let m = MergeRecord {
            left: 1,
            right: 2,
            merged: 3,
            sizes: (4, 5),
            cross_links: 6,
            goodness: -0.0,
        };
        let mut buf = Vec::new();
        m.encode(&mut buf);
        assert_eq!(buf.len(), MergeRecord::ENCODED_LEN);
        let mut c = Cursor::new(&buf);
        let back = MergeRecord::decode(&mut c).unwrap();
        assert!(c.done());
        assert_eq!(back, m);
        assert!(back.goodness.is_sign_negative());
    }

    #[test]
    fn clustering_image_round_trips_as_stored() {
        // Decoding does not normalise: the artifact checks canonical order.
        let clusters = vec![vec![3, 1], vec![0, 2, 4]];
        let mut buf = Vec::new();
        encode_clustering(&mut buf, &clusters, &[5]);
        let mut c = Cursor::new(&buf);
        let back = decode_clustering(&mut c).unwrap();
        assert!(c.done());
        assert_eq!(back.clusters, clusters);
        assert_eq!(back.outliers, vec![5]);
        let mut lying = Vec::new();
        put_u32(&mut lying, u32::MAX);
        assert_eq!(decode_clustering(&mut Cursor::new(&lying)), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn assignments_range_check() {
        let c = Clustering::new(vec![vec![10]], vec![]);
        let _ = c.assignments(5);
    }
}
