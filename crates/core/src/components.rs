//! Connected-components clustering over the neighbor graph — the
//! "QROCK" observation: when clusters are well-separated at threshold θ,
//! ROCK's merge loop run to exhaustion produces exactly the connected
//! components of the neighbor graph, and those can be computed in
//! O(n + edges) with a disjoint-set forest instead of O(n² log n).
//!
//! This is *not* a substitute for ROCK in general: components ignore link
//! counts entirely, so a single spurious neighbor edge chains two
//! clusters together (exactly the MST fragility of §1.1). It is provided
//! as the fast path for well-separated data and as a comparison point —
//! `tests` demonstrate both the agreement on separated data and the
//! chaining failure on Fig.-1's overlapping clusters.

use crate::cluster::Clustering;
use crate::neighbors::NeighborGraph;

/// Disjoint-set forest with path halving and union by size.
#[derive(Clone, Debug)]
pub(crate) struct DisjointSet {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl DisjointSet {
    /// `n` singleton sets.
    pub(crate) fn new(n: usize) -> Self {
        DisjointSet {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Unions the sets of `a` and `b`; returns false if already joined.
    pub(crate) fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }
}

/// The connected components of a θ-neighbor graph, labelled once.
///
/// Components are numbered in order of their smallest member, and each
/// member list is ascending, so a point's local index is its position
/// in that list. Isolated points are one-point components. The links
/// stage uses the labeling to square the adjacency matrix one block at
/// a time (no link crosses a component); the [`neighbor_components`]
/// degradation finish uses it as the clustering itself.
#[derive(Debug)]
pub(crate) struct Components {
    /// Component id of each point.
    comp: Vec<u32>,
    /// Each point's position in its component's member list.
    local: Vec<u32>,
    /// Component `c`'s members are `members[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    /// Every point, grouped by component, ascending within each.
    members: Vec<u32>,
}

impl Components {
    /// Labels the connected components of `graph` with a disjoint-set
    /// forest, in O(n + edges).
    pub(crate) fn of(graph: &NeighborGraph) -> Self {
        let n = graph.len();
        let mut dsu = DisjointSet::new(n);
        for i in 0..n {
            // Each edge once: from its smaller endpoint.
            let nbrs = graph.neighbors(i);
            let above = nbrs.partition_point(|&j| (j as usize) < i);
            for &j in &nbrs[above..] {
                dsu.union(i as u32, j);
            }
        }
        let mut id_of_root = vec![u32::MAX; n];
        let mut sizes: Vec<u32> = Vec::new();
        let mut comp = Vec::with_capacity(n);
        let mut local = Vec::with_capacity(n);
        for p in 0..n as u32 {
            let root = dsu.find(p) as usize;
            if id_of_root[root] == u32::MAX {
                id_of_root[root] = sizes.len() as u32;
                sizes.push(0);
            }
            let c = id_of_root[root] as usize;
            comp.push(c as u32);
            local.push(sizes[c]);
            sizes[c] += 1;
        }
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        let mut total = 0;
        starts.push(total);
        for &size in &sizes {
            total += size as usize;
            starts.push(total);
        }
        // Points arrive ascending, so each member list fills ascending.
        let mut members = vec![0u32; n];
        for p in 0..n {
            members[starts[comp[p] as usize] + local[p] as usize] = p as u32;
        }
        Components {
            comp,
            local,
            starts,
            members,
        }
    }

    /// Number of components.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Component `c`'s members, ascending.
    pub(crate) fn members(&self, c: usize) -> &[u32] {
        &self.members[self.starts[c]..self.starts[c + 1]]
    }

    /// The component id of point `p`.
    pub(crate) fn component(&self, p: usize) -> usize {
        self.comp[p] as usize
    }

    /// Point `p`'s position in its component's member list.
    pub(crate) fn local(&self, p: usize) -> usize {
        self.local[p] as usize
    }

    /// The size of every component, in component order.
    pub(crate) fn sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.starts.windows(2).map(|w| w[1] - w[0])
    }
}

/// Clusters points as connected components of the θ-neighbor graph.
///
/// Components smaller than `min_size` are reported as outliers (isolated
/// points always are).
pub fn neighbor_components(graph: &NeighborGraph, min_size: usize) -> Clustering {
    let components = Components::of(graph);
    let mut clusters = Vec::new();
    let mut outliers = Vec::new();
    for c in 0..components.len() {
        let members = components.members(c);
        if members.len() >= min_size.max(2) {
            clusters.push(members.to_vec());
        } else {
            outliers.extend_from_slice(members);
        }
    }
    Clustering::new(clusters, outliers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::Transaction;
    use crate::similarity::{Jaccard, PointsWith};

    #[test]
    fn dsu_basic() {
        let mut d = DisjointSet::new(5);
        assert!(d.union(0, 1));
        assert!(d.union(3, 4));
        assert!(!d.union(1, 0));
        assert_eq!(d.find(0), d.find(1));
        assert_ne!(d.find(0), d.find(3));
        let (big, single) = (d.find(4), d.find(2));
        assert_eq!((d.size[big as usize], d.size[single as usize]), (2, 1));
    }

    #[test]
    fn labeling_orders_components_and_members() {
        // Components {0, 3, 5}, {1, 4}, {2} and {6}: ids interleave.
        let lists = vec![vec![3], vec![4], vec![], vec![5], vec![], vec![], vec![]];
        let g = NeighborGraph::from_lists(lists, 0.5);
        let comps = Components::of(&g);
        assert_eq!(comps.len(), 4);
        let members: Vec<&[u32]> = (0..comps.len()).map(|c| comps.members(c)).collect();
        assert_eq!(members, [&[0, 3, 5][..], &[1, 4], &[2], &[6]]);
        assert_eq!(comps.sizes().collect::<Vec<_>>(), [3, 2, 1, 1]);
        for c in 0..comps.len() {
            for (a, &p) in comps.members(c).iter().enumerate() {
                assert_eq!(
                    (comps.component(p as usize), comps.local(p as usize)),
                    (c, a)
                );
            }
        }
    }

    #[test]
    fn separated_cliques_match_rock() {
        let ts = vec![
            Transaction::from([1, 2, 3]),
            Transaction::from([1, 2, 4]),
            Transaction::from([1, 3, 4]),
            Transaction::from([10, 11, 12]),
            Transaction::from([10, 11, 13]),
            Transaction::from([10, 12, 13]),
            Transaction::from([99]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let comp = neighbor_components(&g, 2);
        assert_eq!(comp.sizes(), vec![3, 3]);
        assert_eq!(comp.outliers, vec![6]);
        // Agreement with the full merge loop on separated data.
        let goodness = crate::goodness::Goodness::new(
            0.5,
            crate::goodness::BasketF,
            crate::goodness::GoodnessKind::Normalized,
        );
        let rock = crate::algorithm::RockAlgorithm::new(
            goodness,
            1,
            crate::algorithm::OutlierPolicy::default(),
        )
        .run(&g);
        assert_eq!(comp.clusters, rock.clustering.clusters);
    }

    #[test]
    fn overlapping_clusters_chain_together() {
        // Fig.-1 data: the two true clusters share neighbor edges through
        // the {1,2,x} transactions, so components lump everything — the
        // failure mode that motivates links.
        let ts = crate::testdata::figure1_transactions();
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let comp = neighbor_components(&g, 2);
        assert_eq!(comp.num_clusters(), 1, "components cannot separate Fig. 1");
    }

    #[test]
    fn min_size_moves_small_components_to_outliers() {
        let ts = vec![
            Transaction::from([1, 2]),
            Transaction::from([1, 2]),
            Transaction::from([5, 6, 7]),
            Transaction::from([5, 6, 8]),
            Transaction::from([5, 7, 8]),
        ];
        let g = NeighborGraph::build(&PointsWith::new(&ts, Jaccard), 0.5, 1);
        let c = neighbor_components(&g, 3);
        assert_eq!(c.sizes(), vec![3]);
        assert_eq!(c.outliers, vec![0, 1]);
    }
}
