//! Shortest paths on weighted graphs: Dijkstra and hop-limited
//! Bellman–Ford (the computation behind `(S,d)`-source detection).
//!
//! [`hop_limited`] is the one hop-limited kernel of the workspace. It runs
//! one synchronous-hop search per source, sharded over worker threads,
//! and hands each source's finished row to the caller **source-major**:
//! row `i` belongs to `sources[i]`, and a parent row rides along when the
//! [`HopLanes`] track parents. Callers keep a full row, a subset, or a
//! reduction of it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::dist::{dadd, Dist, INF};
use crate::graph::WeightedGraph;

/// Single-source shortest path distances on a weighted graph (Dijkstra).
pub fn sssp(g: &WeightedGraph, src: usize) -> Vec<Dist> {
    let mut dist = vec![INF; g.n()];
    let mut heap = BinaryHeap::new();
    dist[src] = 0;
    heap.push(Reverse((0 as Dist, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(v, w) in g.neighbors(u) {
            let v = v as usize;
            let nd = dadd(d, w);
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Exact all-pairs distances on a weighted graph (one Dijkstra per vertex).
pub fn apsp_exact(g: &WeightedGraph) -> Vec<Vec<Dist>> {
    (0..g.n()).map(|v| sssp(g, v)).collect()
}

/// Dijkstra with predecessor tracking: returns `(dist, parent)` where
/// `parent[v]` is the predecessor of `v` on a shortest path from `src`
/// (`None` for `src` and unreachable vertices). Ties are broken toward the
/// smaller predecessor id, making paths deterministic.
pub fn sssp_with_parents(g: &WeightedGraph, src: usize) -> (Vec<Dist>, Vec<Option<u32>>) {
    let mut dist = vec![INF; g.n()];
    let mut parent: Vec<Option<u32>> = vec![None; g.n()];
    let mut heap = BinaryHeap::new();
    dist[src] = 0;
    heap.push(Reverse((0 as Dist, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(v, w) in g.neighbors(u) {
            let v = v as usize;
            let nd = dadd(d, w);
            if nd < dist[v] || (nd == dist[v] && parent[v].is_some_and(|p| (u as u32) < p)) {
                let improved = nd < dist[v];
                dist[v] = nd;
                parent[v] = Some(u as u32);
                if improved {
                    heap.push(Reverse((nd, v)));
                }
            }
        }
    }
    (dist, parent)
}

/// A rooted shortest-path tree: distances plus deterministic predecessors,
/// the exact reference object route reconstruction is validated against.
///
/// Built by [`sssp_tree`]; wraps the `(dist, parent)` arrays of
/// [`sssp_with_parents`] behind path-level queries so tests and benches stop
/// re-implementing parent walking by hand.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShortestPathTree {
    src: usize,
    dist: Vec<Dist>,
    parent: Vec<Option<u32>>,
}

impl ShortestPathTree {
    /// The root.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Distance from the root to `v` ([`INF`] when unreachable).
    pub fn dist(&self, v: usize) -> Dist {
        self.dist[v]
    }

    /// The full distance row.
    pub fn dists(&self) -> &[Dist] {
        &self.dist
    }

    /// The predecessor of `v` on its shortest path from the root (`None`
    /// for the root and unreachable vertices).
    pub fn parent(&self, v: usize) -> Option<u32> {
        self.parent[v]
    }

    /// The shortest path `src, …, v` as a vertex sequence, or `None` when
    /// `v` is unreachable.
    pub fn path_to(&self, v: usize) -> Option<Vec<usize>> {
        path_from_parents(&self.parent, self.src, v)
    }

    /// The shortest path to `v` as directed edges `(x, y)`, or `None` when
    /// unreachable. An empty vector for `v == src`.
    pub fn edges_to(&self, v: usize) -> Option<Vec<(u32, u32)>> {
        let verts = self.path_to(v)?;
        Some(
            verts
                .windows(2)
                .map(|w| (w[0] as u32, w[1] as u32))
                .collect(),
        )
    }
}

/// Single-source shortest paths with deterministic predecessor tracking,
/// packaged as a [`ShortestPathTree`].
pub fn sssp_tree(g: &WeightedGraph, src: usize) -> ShortestPathTree {
    let (dist, parent) = sssp_with_parents(g, src);
    ShortestPathTree { src, dist, parent }
}

/// Reconstructs the shortest path from `src` to `dst` using the parent
/// array of [`sssp_with_parents`]. Returns the vertex sequence
/// `src, …, dst`, or `None` if `dst` is unreachable.
pub fn path_from_parents(parent: &[Option<u32>], src: usize, dst: usize) -> Option<Vec<usize>> {
    if src == dst {
        return Some(vec![src]);
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while let Some(p) = parent[cur] {
        cur = p as usize;
        path.push(cur);
        if cur == src {
            path.reverse();
            return Some(path);
        }
        if path.len() > parent.len() {
            return None; // cycle guard (corrupt parent array)
        }
    }
    None
}

/// Reusable per-worker scratch and worker count for [`hop_limited`].
///
/// One lane per worker holds a distance row, an optional parent row, the
/// frontier/next-frontier lists and the dedup slots of the synchronous-hop
/// sweep. The calling thread grows the lanes (the `MinplusWorkspace`
/// discipline of `cc_matrix`), so workers never allocate; between sources
/// every lane is restored to all-∞ / no-parent / no-slot, so a lane is
/// reused across sources, calls and hop bounds.
#[derive(Debug)]
pub struct HopLanes {
    threads: usize,
    parents: bool,
    lanes: Vec<HopLane>,
}

#[derive(Debug, Default)]
struct HopLane {
    dist: Vec<Dist>,
    /// Empty unless the lanes track parents.
    parent: Vec<u32>,
    /// Position of a vertex in `next`, or `u32::MAX`.
    slot: Vec<u32>,
    frontier: Vec<(u32, Dist)>,
    next: Vec<(u32, Dist)>,
}

impl HopLanes {
    /// Lanes for `threads` workers (`0` and `1` both mean serial), with
    /// per-source parent rows when `parents` is set.
    pub fn new(threads: usize, parents: bool) -> Self {
        HopLanes {
            threads: threads.max(1),
            parents,
            lanes: Vec::new(),
        }
    }

    /// Whether searches record parents.
    pub fn parents(&self) -> bool {
        self.parents
    }

    /// `count` lanes, each grown to `n` vertices.
    fn lanes(&mut self, count: usize, n: usize) -> &mut [HopLane] {
        if self.lanes.len() < count {
            self.lanes.resize_with(count, HopLane::default);
        }
        for lane in &mut self.lanes[..count] {
            if lane.dist.len() < n {
                lane.dist.resize(n, INF);
                lane.slot.resize(n, u32::MAX);
            }
            if self.parents && lane.parent.len() < n {
                lane.parent.resize(n, u32::MAX);
            }
        }
        &mut self.lanes[..count]
    }
}

impl HopLane {
    /// The synchronous-hop sweep from `src`: frontier entries carry the
    /// distance at enqueue time, so a value improved during hop `j` only
    /// propagates at hop `j+1`.
    fn sweep(&mut self, g: &WeightedGraph, src: usize, h: usize) {
        let HopLane {
            dist,
            parent,
            slot,
            frontier,
            next,
        } = self;
        let track = !parent.is_empty();
        dist[src] = 0;
        frontier.clear();
        frontier.push((src as u32, 0));
        for _hop in 0..h {
            next.clear();
            for &(u, du) in frontier.iter() {
                // `dadd` without its clamp: every `dist` entry is ≤ INF, so a
                // sum ≥ INF never passes the test, and a passing sum equals
                // its clamped value.
                let mut relax = |v: u32, w: Dist, dist: &mut [Dist]| {
                    let vi = v as usize;
                    let nd = du.saturating_add(w);
                    if nd < dist[vi] {
                        dist[vi] = nd;
                        if track {
                            parent[vi] = u;
                        }
                        match slot[vi] {
                            u32::MAX => {
                                slot[vi] = next.len() as u32;
                                next.push((v, nd));
                            }
                            s => next[s as usize].1 = nd,
                        }
                    }
                };
                // Improvements are rare: one branch tests four edges, and
                // only a block holding an improvement is relaxed edge by
                // edge, in order.
                let (blocks, rest) = g.neighbors(u as usize).as_chunks::<4>();
                for block in blocks {
                    let [(v0, w0), (v1, w1), (v2, w2), (v3, w3)] = *block;
                    let hit = (du.saturating_add(w0) < dist[v0 as usize])
                        | (du.saturating_add(w1) < dist[v1 as usize])
                        | (du.saturating_add(w2) < dist[v2 as usize])
                        | (du.saturating_add(w3) < dist[v3 as usize]);
                    if hit {
                        for &(v, w) in block {
                            relax(v, w, dist);
                        }
                    }
                }
                for &(v, w) in rest {
                    relax(v, w, dist);
                }
            }
            if next.is_empty() {
                break;
            }
            for &(v, _) in next.iter() {
                slot[v as usize] = u32::MAX;
            }
            std::mem::swap(frontier, next);
        }
    }

    /// The finished row over the first `n` vertices.
    fn row(&self, n: usize) -> HopRow<'_> {
        HopRow {
            dist: &self.dist[..n],
            parent: (!self.parent.is_empty()).then(|| &self.parent[..n]),
        }
    }

    /// Restores the between-sources invariant (all-∞, no parents).
    fn reset(&mut self, n: usize) {
        self.dist[..n].fill(INF);
        if !self.parent.is_empty() {
            self.parent[..n].fill(u32::MAX);
        }
    }
}

/// One source's finished hop-limited search, handed to the `emit` callback
/// of [`hop_limited`]. Borrowed from a worker lane: copy out what is kept.
#[derive(Clone, Copy, Debug)]
pub struct HopRow<'a> {
    dist: &'a [Dist],
    parent: Option<&'a [u32]>,
}

impl<'a> HopRow<'a> {
    /// `dists()[v]`: length of the shortest `≤ h`-edge path from the source
    /// to `v` ([`INF`] if none).
    pub fn dists(&self) -> &'a [Dist] {
        self.dist
    }

    /// `parents()[v]`: predecessor of `v` on the search (`u32::MAX` for the
    /// source and unreached vertices); `None` unless the lanes track
    /// parents.
    pub fn parents(&self) -> Option<&'a [u32]> {
        self.parent
    }
}

/// `h`-hop-limited multi-source Bellman–Ford: for every `sources[i]`, the
/// length of the shortest path to each vertex using at most `h` edges of
/// `g`, computed with strict synchronous-hop semantics. This is the
/// centralized computation behind `(S,d)`-source detection (Thm 11); round
/// costs are charged by the caller.
///
/// Output is **source-major**: each source's finished row (plus its parent
/// row when `lanes` track parents) is passed to `emit` together with
/// `out[i]`, which keeps whatever the caller reads (a full row, a subset,
/// a reduction). `out` is allocated by the caller and has one slot per
/// source.
///
/// Sources are sharded into contiguous ranges over the lanes' worker
/// count (the calling thread runs the first range). Every source is searched
/// alone, in the same relaxation order, on a lane restored to the same
/// state, so the rows — and hence `out` — are **bit-identical** at any
/// thread count.
///
/// Parent rows: every parent assignment strictly lowered the tentative
/// distance, so distances strictly decrease along a parent chain (it
/// terminates at the source, see [`hop_chain_into`]) and the chain's walk
/// weighs **at most** the reported distance — late relaxations can only
/// shorten the recorded prefix.
///
/// # Panics
///
/// Panics if `out.len() != sources.len()` or a source is out of range.
pub fn hop_limited<T, F>(
    g: &WeightedGraph,
    sources: &[usize],
    h: usize,
    lanes: &mut HopLanes,
    out: &mut [T],
    emit: F,
) where
    T: Send,
    F: Fn(HopRow<'_>, &mut T) + Sync,
{
    assert_eq!(out.len(), sources.len(), "one output slot per source");
    let n = g.n();
    assert!(
        sources.iter().all(|&s| s < n),
        "source out of range for n = {n}"
    );
    let threads = lanes.threads.clamp(1, sources.len().max(1));
    let shard = sources.len().div_ceil(threads).max(1);
    let lanes = lanes.lanes(threads, n);
    let run = |srcs: &[usize], outs: &mut [T], lane: &mut HopLane| {
        for (&src, slot) in srcs.iter().zip(outs) {
            lane.sweep(g, src, h);
            emit(lane.row(n), slot);
            lane.reset(n);
        }
    };
    let mut parts = sources
        .chunks(shard)
        .zip(out.chunks_mut(shard))
        .zip(lanes.iter_mut());
    let Some(((first_srcs, first_outs), first_lane)) = parts.next() else {
        return;
    };
    std::thread::scope(|scope| {
        for ((srcs, outs), lane) in parts {
            scope.spawn(move || run(srcs, outs, lane));
        }
        run(first_srcs, first_outs, first_lane);
    });
}

/// Walks a hop-limited parent row back from `v`, writing the vertex
/// sequence `src, …, v` into `out` (cleared first). Returns `false` — with
/// `out` unspecified — when `v` was not reached or `parents` is
/// inconsistent.
pub fn hop_chain_into(parents: &[u32], src: usize, v: usize, out: &mut Vec<u32>) -> bool {
    out.clear();
    out.push(v as u32);
    let mut cur = v;
    while cur != src {
        let p = parents[cur];
        if p == u32::MAX || out.len() > parents.len() {
            return false; // unreached, or a cycle (corrupt parent row)
        }
        cur = p as usize;
        out.push(p);
    }
    out.reverse();
    true
}

/// `h`-hop-limited single-pair check: length of the shortest `≤ h`-edge path
/// between `u` and `v` (`INF` if none). `O(h·m)`; used by tests to verify
/// hopset guarantees.
pub fn hop_limited_pair(g: &WeightedGraph, u: usize, v: usize, h: usize) -> Dist {
    let mut out = [INF];
    hop_limited(
        g,
        &[u],
        h,
        &mut HopLanes::new(1, false),
        &mut out,
        |row, d| {
            *d = row.dists()[v];
        },
    );
    out[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Graph;

    #[test]
    fn dijkstra_matches_bfs_on_unit_weights() {
        let g = generators::grid(4, 4);
        let wg = WeightedGraph::from_unweighted(&g);
        for v in 0..g.n() {
            assert_eq!(sssp(&wg, v), crate::bfs::sssp(&g, v));
        }
    }

    #[test]
    fn dijkstra_prefers_light_path() {
        // 0 -5- 1, 0 -1- 2 -1- 1: the two-hop path is shorter.
        let g = WeightedGraph::from_edges(3, &[(0, 1, 5), (0, 2, 1), (2, 1, 1)]);
        let d = sssp(&g, 0);
        assert_eq!(d[1], 2);
    }

    #[test]
    fn parallel_edges_take_min() {
        let g = WeightedGraph::from_edges(2, &[(0, 1, 7), (0, 1, 3)]);
        assert_eq!(sssp(&g, 0)[1], 3);
    }

    #[test]
    fn hop_limit_binds() {
        // Path of weight-1 edges: 0-1-2-3; and a heavy direct edge 0-3.
        let g = WeightedGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 10)]);
        assert_eq!(hop_limited_pair(&g, 0, 3, 3), 3);
        assert_eq!(hop_limited_pair(&g, 0, 3, 2), 10);
        assert_eq!(hop_limited_pair(&g, 0, 3, 1), 10);
        let iso = WeightedGraph::from_edges(4, &[(0, 1, 1)]);
        assert_eq!(hop_limited_pair(&iso, 0, 3, 5), INF);
    }

    /// Full `(dist, parent)` rows per source (parent rows empty unless
    /// tracked).
    fn rows(
        g: &WeightedGraph,
        sources: &[usize],
        h: usize,
        threads: usize,
        parents: bool,
    ) -> Vec<(Vec<Dist>, Vec<u32>)> {
        let mut out = vec![(Vec::new(), Vec::new()); sources.len()];
        let mut lanes = HopLanes::new(threads, parents);
        hop_limited(g, sources, h, &mut lanes, &mut out, |row, slot| {
            *slot = (
                row.dists().to_vec(),
                row.parents().map(<[u32]>::to_vec).unwrap_or_default(),
            );
        });
        out
    }

    #[test]
    fn hop_limited_multi_source_agrees_with_single() {
        let g = generators::gnp(40, 0.1, &mut seeded(3));
        let wg = WeightedGraph::from_unweighted(&g);
        let sources = [0usize, 5, 17];
        let all = rows(&wg, &sources, 4, 2, false);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(all[i], rows(&wg, &[s], 4, 1, false)[0]);
        }
    }

    #[test]
    fn enough_hops_equals_dijkstra() {
        let g = generators::gnp(30, 0.15, &mut seeded(9));
        let wg = WeightedGraph::from_unweighted(&g);
        let hl = rows(&wg, &[0], g.n(), 1, false);
        assert_eq!(hl[0].0, sssp(&wg, 0));
    }

    #[test]
    fn lanes_are_reused_across_calls() {
        let g = generators::grid(6, 6);
        let wg = WeightedGraph::from_unweighted(&g);
        let sources: Vec<usize> = (0..wg.n()).step_by(3).collect();
        let mut lanes = HopLanes::new(3, true);
        for h in [2usize, 5, 2] {
            let mut warm = vec![(Vec::new(), Vec::new()); sources.len()];
            hop_limited(&wg, &sources, h, &mut lanes, &mut warm, |row, slot| {
                *slot = (row.dists().to_vec(), row.parents().unwrap().to_vec());
            });
            assert_eq!(warm, rows(&wg, &sources, h, 1, true), "h={h}");
        }
    }

    /// Weight of a path (vertex sequence) in `g`, taking the minimum over
    /// parallel edges; panics if a hop is not an edge.
    fn path_weight(g: &WeightedGraph, path: &[usize]) -> Dist {
        path.windows(2)
            .map(|w| {
                g.neighbors(w[0])
                    .iter()
                    .filter(|&&(x, _)| x as usize == w[1])
                    .map(|&(_, wt)| wt)
                    .min()
                    .expect("consecutive path vertices are adjacent")
            })
            .sum()
    }

    #[test]
    fn tree_reconstructs_shortest_paths() {
        let g = generators::grid(5, 5);
        let wg = WeightedGraph::from_unweighted(&g);
        let tree = sssp_tree(&wg, 0);
        for v in 0..g.n() {
            let path = tree.path_to(v).expect("grid is connected");
            assert_eq!(path[0], 0);
            assert_eq!(*path.last().unwrap(), v);
            // Path length (in weight) must equal the distance.
            assert_eq!(path_weight(&wg, &path), tree.dist(v), "path to {v}");
            let edges = tree.edges_to(v).unwrap();
            assert_eq!(edges.len(), path.len() - 1);
        }
    }

    #[test]
    fn unreachable_path_is_none() {
        let wg = WeightedGraph::from_edges(3, &[(0, 1, 1)]);
        let tree = sssp_tree(&wg, 0);
        assert_eq!(tree.path_to(2), None);
        assert_eq!(tree.edges_to(2), None);
        assert_eq!(tree.path_to(0), Some(vec![0]));
        assert_eq!(tree.edges_to(0), Some(vec![]));
        assert_eq!(tree.parent(0), None);
        assert_eq!(tree.src(), 0);
    }

    #[test]
    fn parent_distances_agree_with_plain_sssp() {
        let g = generators::gnp(40, 0.12, &mut seeded(17));
        let wg = WeightedGraph::from_unweighted(&g);
        let tree = sssp_tree(&wg, 3);
        assert_eq!(tree.dists(), &sssp(&wg, 3)[..]);
    }

    #[test]
    fn hop_limited_parents_agree_and_chains_are_real_walks() {
        let g = generators::gnp(40, 0.1, &mut seeded(23));
        let mut wg = WeightedGraph::from_unweighted(&g);
        wg.add_edge(0, 30, 7); // a heavy shortcut exercises weighted hops
        let sources = [0usize, 5, 17];
        let mut chain = Vec::new();
        for h in [2usize, 4, 40] {
            let plain = rows(&wg, &sources, h, 1, false);
            let tracked = rows(&wg, &sources, h, 1, true);
            for (i, &s) in sources.iter().enumerate() {
                let (dist, parents) = &tracked[i];
                assert_eq!(
                    dist, &plain[i].0,
                    "h={h}: parents must not change distances"
                );
                for v in 0..wg.n() {
                    if dist[v] >= INF {
                        assert!(!hop_chain_into(parents, s, v, &mut chain));
                        continue;
                    }
                    assert!(
                        hop_chain_into(parents, s, v, &mut chain),
                        "no chain for ({s},{v}) h={h}"
                    );
                    let walk: Vec<usize> = chain.iter().map(|&x| x as usize).collect();
                    assert_eq!(walk[0], s);
                    assert_eq!(*walk.last().unwrap(), v);
                    // The chain is a real walk of weight ≤ the reported
                    // distance (late relaxations can only shorten it).
                    assert!(path_weight(&wg, &walk) <= dist[v], "({s},{v}) h={h}");
                }
            }
        }
    }

    #[test]
    fn empty_graph_all_inf() {
        let g = Graph::from_edges(3, &[]);
        let wg = WeightedGraph::from_unweighted(&g);
        let d = sssp(&wg, 0);
        assert_eq!(d, vec![0, INF, INF]);
    }

    fn seeded(s: u64) -> impl rand::Rng {
        use rand::SeedableRng;
        rand_chacha::ChaCha8Rng::seed_from_u64(s)
    }
}
