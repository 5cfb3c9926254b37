//! Graph algorithms: BFS, eccentricities, diameter, average distance,
//! 0/1-weighted BFS (for inter-cluster metrics), and connectivity.
//!
//! All-pairs quantities (diameter, average distance, and the I-metrics of
//! `ipg-cluster`) come from one kernel, [`sweep_01`]: a 64-lane
//! bit-parallel 0/1 BFS over batches of sources, run on rayon. Distances are
//! `u32`, with `UNREACHABLE` marking disconnected pairs.

use crate::graph::Csr;
use rayon::prelude::*;
use std::collections::VecDeque;

/// Distance value for unreachable pairs.
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `src` over out-arcs.
pub fn bfs(g: &Csr, src: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS with parent tracking; returns (distances, parents). `parents[src]`
/// is `src` itself; unreachable nodes have parent `UNREACHABLE`.
pub fn bfs_parents(g: &Csr, src: u32) -> (Vec<u32>, Vec<u32>) {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut parent = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    parent[src as usize] = src;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                parent[v as usize] = u;
                queue.push_back(v);
            }
        }
    }
    (dist, parent)
}

/// Shortest path from `src` to `dst` as a node sequence (inclusive), or
/// `None` if unreachable.
pub fn shortest_path(g: &Csr, src: u32, dst: u32) -> Option<Vec<u32>> {
    let (dist, parent) = bfs_parents(g, src);
    if dist[dst as usize] == UNREACHABLE {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parent[cur as usize];
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Eccentricity of `src` (max finite BFS distance); `UNREACHABLE` if any
/// node is unreachable.
pub fn eccentricity(g: &Csr, src: u32) -> u32 {
    bfs(g, src).into_iter().max().unwrap_or(0)
}

/// Exact diameter: the largest distance over ordered pairs of distinct
/// nodes, `UNREACHABLE` for disconnected graphs. One [`sweep`] from every
/// node.
pub fn diameter(g: &Csr) -> u32 {
    sweep(g, &all_nodes(g)).diameter()
}

/// Diameter estimated from a subset of sources (exact if the graph is
/// vertex-transitive and `sources` is non-empty, since then all
/// eccentricities are equal).
pub fn diameter_from_sources(g: &Csr, sources: &[u32]) -> u32 {
    sweep(g, sources).diameter()
}

/// Average distance over all ordered pairs of distinct, mutually reachable
/// nodes. One [`sweep`] from every node.
pub fn average_distance(g: &Csr) -> f64 {
    sweep(g, &all_nodes(g)).average()
}

/// Average distance estimated from the given sources only.
pub fn average_distance_from_sources(g: &Csr, sources: &[u32]) -> f64 {
    sweep(g, sources).average()
}

/// Every node id of `g`, in order: the source list of an all-pairs sweep.
pub fn all_nodes(g: &Csr) -> Vec<u32> {
    (0..g.node_count() as u32).collect()
}

/// Integer totals of a distance sweep over the ordered pairs `(s, v)` with
/// `s` a source and `v != s` (a source listed twice counts twice).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepTotals {
    /// Largest finite distance (0 if no pair is reachable).
    pub max: u32,
    /// Sum of the finite distances.
    pub sum: u64,
    /// Number of pairs at a finite distance.
    pub pairs: u64,
    /// Every pair is at a finite distance.
    pub complete: bool,
}

impl SweepTotals {
    const EMPTY: SweepTotals = SweepTotals {
        max: 0,
        sum: 0,
        pairs: 0,
        complete: true,
    };

    /// `max`, or `UNREACHABLE` if some pair is unreachable.
    pub fn diameter(&self) -> u32 {
        if self.complete {
            self.max
        } else {
            UNREACHABLE
        }
    }

    /// Mean finite distance (0.0 when no pair is reachable).
    pub fn average(&self) -> f64 {
        if self.pairs == 0 {
            0.0
        } else {
            self.sum as f64 / self.pairs as f64
        }
    }

    fn merge(self, o: SweepTotals) -> SweepTotals {
        SweepTotals {
            max: self.max.max(o.max),
            sum: self.sum + o.sum,
            pairs: self.pairs + o.pairs,
            complete: self.complete && o.complete,
        }
    }
}

/// BFS distance totals from every node of `sources`: [`sweep_01`] with
/// every arc heavy.
pub fn sweep(g: &Csr, sources: &[u32]) -> SweepTotals {
    sweep_01(g, sources, |_, _| true)
}

/// The all-sources distance kernel: 0/1-weighted BFS (arcs with
/// `heavy(u, v)` cost 1, others 0, as in [`bfs_01`]) from every node of
/// `sources`, reduced to [`SweepTotals`].
///
/// Bit-parallel (Then et al., "The More the Merrier", VLDB 2014): sources
/// run in batches of 64, one `u64` lane mask per node, so one pass over an
/// arc serves up to 64 sources. Batches run on rayon.
pub fn sweep_01(g: &Csr, sources: &[u32], heavy: impl Fn(u32, u32) -> bool + Sync) -> SweepTotals {
    let batches: Vec<&[u32]> = sources.chunks(LANES).collect();
    batches
        .into_par_iter()
        .map(|batch| sweep_batch(g, batch, &heavy))
        // Parallel-reduction audit: `(u32 max, u64 sum, u64 sum, bool and)`
        // per batch — each component is associative and commutative over
        // integers, so the merge is exact for any chunking.
        .reduce(|| SweepTotals::EMPTY, SweepTotals::merge)
}

/// Sources per batch: the bits of one lane mask.
const LANES: usize = 64;

/// One batch of [`sweep_01`]: lane `i` carries `batch[i]`. Level `d` holds
/// the lanes first reached at distance `d`; it is closed over light arcs,
/// counted, then pushed over heavy arcs to seed level `d + 1`.
fn sweep_batch(g: &Csr, batch: &[u32], heavy: &impl Fn(u32, u32) -> bool) -> SweepTotals {
    let n = g.node_count();
    // seen: lanes that have reached a node. cur/next: lanes reaching it at
    // this/the next level. pending: lanes not yet pushed over its light arcs.
    let mut seen = vec![0u64; n];
    let mut cur = vec![0u64; n];
    let mut next = vec![0u64; n];
    let mut pending = vec![0u64; n];
    let mut level_nodes: Vec<u32> = Vec::new();
    let mut next_nodes: Vec<u32> = Vec::new();
    let mut work: VecDeque<u32> = VecDeque::new();
    for (lane, &s) in batch.iter().enumerate() {
        if cur[s as usize] == 0 {
            level_nodes.push(s);
        }
        cur[s as usize] |= 1 << lane;
        seen[s as usize] |= 1 << lane;
    }
    let mut t = SweepTotals::EMPTY;
    let mut level = 0u64;
    while !level_nodes.is_empty() {
        for &u in &level_nodes {
            pending[u as usize] = cur[u as usize];
            work.push_back(u);
        }
        while let Some(u) = work.pop_front() {
            let bits = std::mem::take(&mut pending[u as usize]);
            for &v in g.neighbors(u) {
                if heavy(u, v) {
                    continue;
                }
                let new = bits & !seen[v as usize];
                if new != 0 {
                    seen[v as usize] |= new;
                    if cur[v as usize] == 0 {
                        level_nodes.push(v);
                    }
                    cur[v as usize] |= new;
                    if pending[v as usize] == 0 {
                        work.push_back(v);
                    }
                    pending[v as usize] |= new;
                }
            }
        }
        for &u in &level_nodes {
            let bits = std::mem::take(&mut cur[u as usize]);
            let c = bits.count_ones() as u64;
            t.sum += level * c;
            t.pairs += c;
            for &v in g.neighbors(u) {
                if !heavy(u, v) {
                    continue;
                }
                let new = bits & !seen[v as usize];
                if new != 0 {
                    seen[v as usize] |= new;
                    if next[v as usize] == 0 {
                        next_nodes.push(v);
                    }
                    next[v as usize] |= new;
                }
            }
        }
        t.max = level as u32;
        level += 1;
        std::mem::swap(&mut cur, &mut next);
        std::mem::swap(&mut level_nodes, &mut next_nodes);
        next_nodes.clear();
    }
    // Level 0 counted each lane's own source.
    t.pairs -= batch.len() as u64;
    t.complete = t.pairs == batch.len() as u64 * (n as u64 - 1);
    t
}

/// Distance histogram from one source: `hist[d]` = number of nodes at
/// distance `d` (unreachable nodes excluded).
pub fn distance_histogram(g: &Csr, src: u32) -> Vec<u64> {
    let d = bfs(g, src);
    let max = d
        .iter()
        .copied()
        .filter(|&x| x != UNREACHABLE)
        .max()
        .unwrap_or(0);
    let mut hist = vec![0u64; max as usize + 1];
    for &dv in &d {
        if dv != UNREACHABLE {
            hist[dv as usize] += 1;
        }
    }
    hist
}

/// 0/1-weighted BFS: arcs for which `heavy(u, v)` is true cost 1, others
/// cost 0. Used for exact inter-cluster distances (off-module hops cost 1,
/// on-module hops are free — paper §5.2).
pub fn bfs_01(g: &Csr, src: u32, mut heavy: impl FnMut(u32, u32) -> bool) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut deque = VecDeque::new();
    dist[src as usize] = 0;
    deque.push_back(src);
    while let Some(u) = deque.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            let w = if heavy(u, v) { 1 } else { 0 };
            let nd = du + w;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                if w == 0 {
                    deque.push_front(v);
                } else {
                    deque.push_back(v);
                }
            }
        }
    }
    dist
}

/// Is the graph (weakly) connected? Checks reachability in the symmetrized
/// graph.
pub fn is_connected(g: &Csr) -> bool {
    if g.node_count() == 0 {
        return true;
    }
    let sym = if g.is_symmetric() {
        g.clone()
    } else {
        g.symmetrized()
    };
    bfs(&sym, 0).iter().all(|&d| d != UNREACHABLE)
}

/// Is the directed graph strongly connected? (Every node reachable from 0
/// and 0 reachable from every node.)
pub fn is_strongly_connected(g: &Csr) -> bool {
    if g.node_count() == 0 {
        return true;
    }
    bfs(g, 0).iter().all(|&d| d != UNREACHABLE)
        && bfs(&g.reversed(), 0).iter().all(|&d| d != UNREACHABLE)
}

/// Girth (length of the shortest cycle) of an undirected simple graph, or
/// `None` for forests. O(n·m); fine for the validation sizes we use it at.
pub fn girth(g: &Csr) -> Option<u32> {
    let n = g.node_count();
    let mut best: u32 = UNREACHABLE;
    for src in 0..n as u32 {
        // BFS that detects the shortest cycle through src.
        let mut dist = vec![UNREACHABLE; n];
        let mut parent = vec![UNREACHABLE; n];
        let mut queue = VecDeque::new();
        dist[src as usize] = 0;
        parent[src as usize] = src;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            if dist[u as usize] * 2 >= best {
                break;
            }
            for &v in g.neighbors(u) {
                if dist[v as usize] == UNREACHABLE {
                    dist[v as usize] = dist[u as usize] + 1;
                    parent[v as usize] = u;
                    queue.push_back(v);
                } else if parent[u as usize] != v {
                    best = best.min(dist[u as usize] + dist[v as usize] + 1);
                }
            }
        }
    }
    (best != UNREACHABLE).then_some(best)
}

/// A cheap structural fingerprint: (n, arcs, min/max degree, diameter,
/// distance histogram from node 0, girth). Equal fingerprints do not prove
/// isomorphism but are a strong necessary condition used to cross-validate
/// direct constructions against IP-generated graphs at sizes where exact
/// isomorphism search is too slow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Node count.
    pub nodes: usize,
    /// Arc count.
    pub arcs: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Exact diameter.
    pub diameter: u32,
    /// Sorted multiset of all-node distance histograms (vertex-invariant).
    pub sorted_histograms: Vec<Vec<u64>>,
    /// Girth (None for forests).
    pub girth: Option<u32>,
}

/// Compute the [`Fingerprint`] of a graph.
pub fn fingerprint(g: &Csr) -> Fingerprint {
    let mut hists: Vec<Vec<u64>> = (0..g.node_count() as u32)
        .into_par_iter()
        .map(|s| distance_histogram(g, s))
        .collect();
    hists.sort();
    let diameter = hists.iter().map(|h| h.len() as u32 - 1).max().unwrap_or(0);
    Fingerprint {
        nodes: g.node_count(),
        arcs: g.arc_count(),
        min_degree: g.min_degree(),
        max_degree: g.max_degree(),
        diameter,
        sorted_histograms: hists,
        girth: girth(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> Csr {
        Csr::from_fn(n, |u, out| {
            out.push((u + 1) % n as u32);
            out.push((u + n as u32 - 1) % n as u32);
        })
    }

    #[test]
    fn bfs_on_cycle() {
        let g = cycle(6);
        let d = bfs(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn diameter_of_cycles() {
        assert_eq!(diameter(&cycle(6)), 3);
        assert_eq!(diameter(&cycle(7)), 3);
        assert_eq!(diameter(&cycle(8)), 4);
    }

    #[test]
    fn average_distance_of_c4() {
        // C4: each node sees distances 1,1,2 => mean 4/3.
        let avg = average_distance(&cycle(4));
        assert!((avg - 4.0 / 3.0).abs() < 1e-12);
    }

    /// Per-source scalar fold of [`bfs_01`]: the oracle for [`sweep_01`].
    fn scalar_totals(g: &Csr, heavy: impl Fn(u32, u32) -> bool) -> SweepTotals {
        let mut t = SweepTotals::EMPTY;
        for s in 0..g.node_count() as u32 {
            for (v, &d) in bfs_01(g, s, &heavy).iter().enumerate() {
                if v as u32 == s {
                    continue;
                }
                if d == UNREACHABLE {
                    t.complete = false;
                } else {
                    t.max = t.max.max(d);
                    t.sum += d as u64;
                    t.pairs += 1;
                }
            }
        }
        t
    }

    #[test]
    fn sweep_on_empty_and_single_node_graphs() {
        for n in [0, 1] {
            let g = Csr::from_edges(n, [], true);
            assert_eq!(sweep(&g, &all_nodes(&g)), SweepTotals::EMPTY);
            assert_eq!(diameter(&g), 0);
            assert_eq!(average_distance(&g), 0.0);
        }
        assert_eq!(diameter_from_sources(&cycle(5), &[]), 0);
        assert_eq!(average_distance_from_sources(&cycle(5), &[]), 0.0);
    }

    #[test]
    fn sweep_across_batch_boundaries() {
        // 63, 64 and 65 sources: one partial batch, one full batch, and a
        // full batch plus a one-lane batch.
        for n in [63usize, 64, 65] {
            let c = cycle(n);
            let nn = n as u64;
            // Distance sum from one node of C_n: ⌊n²/4⌋.
            let expect = SweepTotals {
                max: n as u32 / 2,
                sum: nn * (nn * nn / 4),
                pairs: nn * (nn - 1),
                complete: true,
            };
            assert_eq!(sweep(&c, &all_nodes(&c)), expect, "C{n}");
            let ring = Csr::from_fn(n, |u, out| out.push((u + 1) % n as u32));
            let module = |u: u32, v: u32| u / 4 != v / 4;
            for g in [&c, &ring] {
                assert_eq!(sweep(g, &all_nodes(g)), scalar_totals(g, |_, _| true));
                assert_eq!(sweep_01(g, &all_nodes(g), module), scalar_totals(g, module));
            }
        }
    }

    #[test]
    fn repeated_sources_count_per_lane() {
        let g = cycle(6);
        let once = sweep(&g, &[2]);
        let thrice = sweep(&g, &[2, 2, 2]);
        assert_eq!(thrice.sum, 3 * once.sum);
        assert_eq!(thrice.pairs, 3 * once.pairs);
        assert_eq!(thrice.max, once.max);
    }

    #[test]
    fn disconnected_diameter_is_unreachable_and_average_uses_reachable_pairs() {
        // A path 0-1-2 and an edge 3-4: reachable ordered pairs are the
        // 6 inside the path (distances 1,1,1,1,2,2) and the 2 inside the edge.
        let g = Csr::from_edges(5, [(0, 1), (1, 2), (3, 4)], true);
        let t = sweep(&g, &all_nodes(&g));
        assert!(!t.complete);
        assert_eq!((t.max, t.sum, t.pairs), (2, 10, 8));
        assert_eq!(diameter(&g), UNREACHABLE);
        assert!((average_distance(&g) - 10.0 / 8.0).abs() < 1e-12);
        assert_eq!(t, scalar_totals(&g, |_, _| true));
    }

    #[test]
    fn shortest_path_endpoints() {
        let g = cycle(8);
        let p = shortest_path(&g, 0, 4).unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), 4);
        for w in p.windows(2) {
            assert!(g.has_arc(w[0], w[1]));
        }
    }

    #[test]
    fn unreachable_marked() {
        let g = Csr::from_edges(4, [(0, 1), (2, 3)], true);
        let d = bfs(&g, 0);
        assert_eq!(d[2], UNREACHABLE);
        assert!(!is_connected(&g));
    }

    #[test]
    fn directed_connectivity() {
        let ring = Csr::from_fn(5, |u, out| out.push((u + 1) % 5));
        assert!(!ring.is_symmetric());
        assert!(is_strongly_connected(&ring));
        let path = Csr::from_edges(3, [(0, 1), (1, 2)], false);
        assert!(!is_strongly_connected(&path));
        assert!(is_connected(&path));
    }

    #[test]
    fn zero_one_bfs_prefers_free_arcs() {
        // 0-1-2 with heavy arc 0->2 direct: distance should be 0 via free path.
        let g = Csr::from_edges(3, [(0, 1), (1, 2), (0, 2)], true);
        let d = bfs_01(&g, 0, |u, v| (u, v) == (0, 2) || (u, v) == (2, 0));
        assert_eq!(d, vec![0, 0, 0]);
        let d2 = bfs_01(&g, 0, |_, _| true);
        assert_eq!(d2, vec![0, 1, 1]);
    }

    #[test]
    fn girth_values() {
        assert_eq!(girth(&cycle(5)), Some(5));
        assert_eq!(girth(&cycle(4)), Some(4));
        let tree = Csr::from_edges(4, [(0, 1), (0, 2), (0, 3)], true);
        assert_eq!(girth(&tree), None);
    }

    #[test]
    fn fingerprints_distinguish() {
        let c6 = fingerprint(&cycle(6));
        let two_triangles = {
            let g = Csr::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], true);
            fingerprint(&g)
        };
        assert_ne!(c6, two_triangles); // same n, arcs, degrees — girth differs
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = cycle(9);
        let h = distance_histogram(&g, 2);
        assert_eq!(h.iter().sum::<u64>(), 9);
    }
}
