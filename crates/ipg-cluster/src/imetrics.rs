//! Inter-cluster (off-module) metrics — paper §5.2–§5.3.
//!
//! - **I-degree**: max over modules of the average per-node off-module
//!   links (§5.3).
//! - **I-distance** between two nodes: the minimum number of off-module
//!   link traversals needed to route between them (on-module hops are
//!   free); **I-diameter** is its maximum and **average I-distance** its
//!   mean over distinct ordered pairs (§5.2).
//!
//! Two computation paths are provided: the exact 0/1-weighted BFS sweep
//! (`ipg_core::algo::sweep_01`, 64 sources per pass), and the *module
//! quotient graph* (contract each module; distances in the quotient equal
//! I-distances whenever modules induce connected subgraphs — true for every
//! packing in this workspace, and asserted in tests).

use crate::partition::Partition;
use ipg_core::algo;
use ipg_core::graph::Csr;
use rayon::prelude::*;

/// The three §5 measures for one (network, packing) pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterClusterMetrics {
    /// Max over modules of average per-node off-module links.
    pub i_degree: f64,
    /// Max I-distance over all node pairs.
    pub i_diameter: u32,
    /// Mean I-distance over distinct ordered pairs.
    pub avg_i_distance: f64,
}

/// I-degree (§5.3): for each module, sum the off-module arc endpoints of
/// its nodes and divide by the module size; take the maximum.
pub fn i_degree(g: &Csr, part: &Partition) -> f64 {
    assert_eq!(g.node_count(), part.node_count());
    let mut off = vec![0u64; part.count];
    for u in 0..g.node_count() as u32 {
        let cu = part.class[u as usize];
        for &v in g.neighbors(u) {
            if part.class[v as usize] != cu {
                off[cu as usize] += 1;
            }
        }
    }
    let sizes = part.module_sizes();
    off.iter()
        .zip(sizes.iter())
        .filter(|&(_, &s)| s > 0)
        .map(|(&o, &s)| o as f64 / s as f64)
        .fold(0.0, f64::max)
}

/// Exact I-distances from `src` (0/1 BFS; off-module arcs cost 1).
pub fn i_distances(g: &Csr, part: &Partition, src: u32) -> Vec<u32> {
    algo::bfs_01(g, src, |u, v| !part.same(u, v))
}

/// Exact I-diameter and average I-distance: one [`algo::sweep_01`] from
/// every node with off-module arcs heavy. Still `O(n·m)` at worst (64
/// sources share each arc scan) — use [`quotient_metrics`] for large
/// graphs. The I-diameter is the largest *finite* I-distance.
pub fn exact_distance_metrics(g: &Csr, part: &Partition) -> (u32, f64) {
    let t = algo::sweep_01(g, &algo::all_nodes(g), |u, v| !part.same(u, v));
    (t.max, t.average())
}

/// All three metrics, exactly.
pub fn exact_metrics(g: &Csr, part: &Partition) -> InterClusterMetrics {
    let (i_diameter, avg_i_distance) = exact_distance_metrics(g, part);
    InterClusterMetrics {
        i_degree: i_degree(g, part),
        i_diameter,
        avg_i_distance,
    }
}

/// The module quotient graph (one node per module).
pub fn module_graph(g: &Csr, part: &Partition) -> Csr {
    g.quotient(&part.class, part.count)
}

/// I-diameter and average I-distance via the quotient graph, weighting
/// module pairs by their sizes. Exact whenever every module induces a
/// connected subgraph of `g`; otherwise a lower bound.
pub fn quotient_metrics(g: &Csr, part: &Partition) -> (u32, f64) {
    let q = module_graph(g, part);
    quotient_metrics_on(&q, &part.module_sizes(), &algo::all_nodes(&q))
}

/// Quotient-based metrics estimated from a subset of quotient sources
/// (used for multi-million-node sweeps; exact for vertex-transitive
/// quotients with uniform module sizes).
pub fn quotient_metrics_sampled(g: &Csr, part: &Partition, sources: &[u32]) -> (u32, f64) {
    let q = module_graph(g, part);
    quotient_metrics_on(&q, &part.module_sizes(), sources)
}

/// Core of [`quotient_metrics`] and [`quotient_metrics_sampled`], reusable
/// when the quotient graph is constructed directly (without materializing
/// the base network). Sources are quotient nodes.
pub fn quotient_metrics_on(q: &Csr, sizes: &[usize], sources: &[u32]) -> (u32, f64) {
    let n_total: u64 = sizes.iter().map(|&s| s as u64).sum();
    let (max, sum, denom) = sources
        .par_iter()
        .map(|&a| {
            let d = algo::bfs(q, a);
            let wa = sizes[a as usize] as u64;
            let mut mx = 0u32;
            let mut sm = 0u64;
            for (b, &db) in d.iter().enumerate() {
                if db == algo::UNREACHABLE {
                    continue;
                }
                mx = mx.max(db);
                sm += db as u64 * wa * sizes[b] as u64;
            }
            // Each of the wa nodes of module a pairs with the N − 1 other
            // nodes; its wa − 1 module mates are at distance 0 but count.
            (mx, sm, wa * n_total.saturating_sub(1))
        })
        // Parallel-reduction audit: `(u32 max, u64 sum, u64 sum)` —
        // associative/commutative per component, exact for any chunking.
        .reduce(|| (0, 0, 0), |x, y| (x.0.max(y.0), x.1 + y.1, x.2 + y.2));
    (
        max,
        if denom == 0 {
            0.0
        } else {
            sum as f64 / denom as f64
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipg_core::superip::{NucleusSpec, SuperIpSpec, TupleNetwork};
    use ipg_networks::classic;

    #[test]
    fn singleton_partition_recovers_plain_metrics() {
        let g = classic::hypercube(4);
        let p = Partition::singletons(16);
        let m = exact_metrics(&g, &p);
        assert_eq!(m.i_diameter, 4);
        assert!((m.i_degree - 4.0).abs() < 1e-12);
        assert!((m.avg_i_distance - algo::average_distance(&g)).abs() < 1e-12);
    }

    #[test]
    fn single_module_zeroes_everything() {
        let g = classic::hypercube(3);
        let p = Partition::single_module(8);
        let m = exact_metrics(&g, &p);
        assert_eq!(m.i_diameter, 0);
        assert_eq!(m.i_degree, 0.0);
        assert_eq!(m.avg_i_distance, 0.0);
    }

    #[test]
    fn hypercube_subcube_idegree_matches_section_5_3() {
        // §5.3: a node in a 17-cube has 14 (or 13) off-module links when a
        // 3(or 4)-cube is placed within a module. Check the small analog:
        // Q6 with Q3 modules → 3 off-module links per node.
        let g = classic::hypercube(6);
        let p = crate::partition::subcube_partition(6, 3);
        let m = exact_metrics(&g, &p);
        assert!((m.i_degree - 3.0).abs() < 1e-12);
        assert_eq!(m.i_diameter, 3); // n − k
    }

    #[test]
    fn star_substar_idegree_matches_section_5_3() {
        // §5.3: a node in an 8-star has 6 (or 5) off-module links when a
        // 3(or 4)-star is placed within a module. Small analog: S5 with
        // S3 modules → degree 4, 2 of them inside the sub-star.
        let labels = classic::star_labels(5);
        let g = classic::star(5);
        let p = crate::partition::substar_partition(&labels, 3);
        let m = exact_metrics(&g, &p);
        assert!((m.i_degree - 2.0).abs() < 1e-12); // n − 3 = 2
    }

    #[test]
    fn ring_cn_idegree_matches_section_5_3() {
        // ring-CN: 1 off-module link per node when l = 2, 2 when l ≥ 3
        // (minus the self-loop nodes, which only lower the average below
        // the bound).
        let tn2 = ipg_networks::hier::ring_cn(2, classic::hypercube(2), "Q2");
        let p2 = crate::partition::nucleus_partition(&tn2);
        // With M = 16 one node per module has a swap self-loop, so the
        // exact average is (M−1)/M below the §5.3 bound of 1.
        let d2 = i_degree(&tn2.build(), &p2);
        assert!(d2 <= 1.0 + 1e-12);
        assert!(d2 > 0.7);

        let tn3 = ipg_networks::hier::ring_cn(3, classic::hypercube(2), "Q2");
        let p3 = crate::partition::nucleus_partition(&tn3);
        let d3 = i_degree(&tn3.build(), &p3);
        assert!(d3 <= 2.0 + 1e-12);
        assert!(d3 > 1.7);
    }

    #[test]
    fn hsn_i_diameter_is_t() {
        // With free nucleus moves, the I-diameter of an HSN/CN equals the
        // schedule length t = l − 1.
        for l in 2..=4 {
            let spec = SuperIpSpec::hsn(l, NucleusSpec::hypercube(1));
            let tn = TupleNetwork::from_spec(&spec).unwrap();
            let g = tn.build();
            let p = crate::partition::nucleus_partition(&tn);
            let (idiam, _) = exact_distance_metrics(&g, &p);
            assert_eq!(idiam as usize, l - 1, "HSN({l},Q1)");
        }
    }

    #[test]
    fn quotient_equals_exact_on_connected_modules() {
        for (g, p) in [
            (
                classic::hypercube(6),
                crate::partition::subcube_partition(6, 2),
            ),
            (
                classic::torus2d(8),
                crate::partition::torus_block_partition(8, 2, 2),
            ),
        ] {
            let (de, ae) = exact_distance_metrics(&g, &p);
            let (dq, aq) = quotient_metrics(&g, &p);
            assert_eq!(de, dq);
            assert!((ae - aq).abs() < 1e-9);
        }
        let tn = ipg_networks::hier::hsn(3, classic::hypercube(2), "Q2");
        let g = tn.build();
        let p = crate::partition::nucleus_partition(&tn);
        let (de, ae) = exact_distance_metrics(&g, &p);
        let (dq, aq) = quotient_metrics(&g, &p);
        assert_eq!(de, dq);
        assert!((ae - aq).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_metrics_are_zero() {
        let g = Csr::from_edges(0, [], true);
        let p = Partition::singletons(0);
        assert_eq!(quotient_metrics(&g, &p), (0, 0.0));
        assert_eq!(exact_distance_metrics(&g, &p), (0, 0.0));
        // One empty module as the only source: no pairs at all.
        let q = Csr::from_edges(1, [], true);
        assert_eq!(quotient_metrics_on(&q, &[0], &[0]), (0, 0.0));
    }

    #[test]
    fn sampled_equals_full_for_vertex_transitive_quotient() {
        let g = classic::hypercube(6);
        let p = crate::partition::subcube_partition(6, 2);
        let (d_full, a_full) = quotient_metrics(&g, &p);
        let (d_s, a_s) = quotient_metrics_sampled(&g, &p, &[0]);
        assert_eq!(d_full, d_s);
        assert!((a_full - a_s).abs() < 1e-9);
    }

    use ipg_core::algo;
}
