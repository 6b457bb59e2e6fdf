//! The `(S,d)`-source detection problem (Thm 11 of the paper, from \[3\]).
//!
//! Given a set `S` of sources and a hop bound `d`, every vertex learns, for
//! each source, the length of the shortest path to it that uses at most `d`
//! edges. Works on weighted graphs (in this workspace: unions `G ∪ H` of the
//! input graph with hopset/emulator edges).
//!
//! Round cost: `O((m^{1/3}|S|^{2/3}/n + 1)·d)` — linear in `d`, which is
//! exactly why the paper pairs it with hopsets: a `(β, ε, t)`-hopset lets one
//! call it with `d = β = O(log t / ε)` instead of `d = t`.
//!
//! The local computation is `cc_graphs::dijkstra::hop_limited`, one
//! hop-limited search per source sharded over worker threads. Results are
//! kept **source-major** — one distance row (and optional parent row) per
//! source, in source order — because that is the unit the kernel finishes.
//! Folds that only lower a symmetric estimate table may read them row by
//! row; folds that intern witnesses walk `(v, i)` vertex-major, since the
//! first equal-valued offer wins a route slot and the order decides which
//! walk is kept.

use cc_clique::RoundLedger;
use cc_graphs::dijkstra::{self, HopLanes};
use cc_graphs::{Dist, WeightedGraph, INF};

/// Result of an `(S,d)`-source detection run.
///
/// Stored **source-major**, the layout the hop-limited kernel produces:
/// one distance row per source (`row[c]` for each target column `c`) and,
/// when parents are tracked, one full parent row per source. The targets
/// are every vertex ([`SourceDetection::run_with`]) or only the sources
/// themselves ([`SourceDetection::run_among`]), for callers that read just
/// the `S × S` block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceDetection {
    sources: Vec<usize>,
    hops: usize,
    /// `dist[i][col(v)]` = length of the shortest `≤ hops`-edge path from
    /// `v` to `sources[i]`.
    dist: Vec<Vec<Dist>>,
    /// Vertex → column map of a sources-only run (`u32::MAX` off the
    /// sources); `None` when every vertex is a column.
    cols: Option<Vec<u32>>,
    /// Per-source predecessor rows (see [`SourceDetection::run_with`]).
    parents: Option<Vec<Vec<u32>>>,
}

impl SourceDetection {
    /// Runs `(S,d)`-source detection on the weighted graph `g`, charging the
    /// Thm 11 round cost to `ledger`. Serial; see
    /// [`SourceDetection::run_with`].
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or contains an out-of-range vertex.
    pub fn run(
        g: &WeightedGraph,
        sources: &[usize],
        hops: usize,
        ledger: &mut RoundLedger,
    ) -> Self {
        Self::run_with(g, sources, hops, 1, false, ledger)
    }

    /// [`SourceDetection::run`] with per-source predecessor tracking.
    /// Serial; see [`SourceDetection::run_with`].
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or contains an out-of-range vertex.
    pub fn run_with_parents(
        g: &WeightedGraph,
        sources: &[usize],
        hops: usize,
        ledger: &mut RoundLedger,
    ) -> Self {
        Self::run_with(g, sources, hops, 1, true, ledger)
    }

    /// Runs `(S,d)`-source detection with the sources sharded over
    /// `threads` workers (`0` and `1` both mean serial). The detection is
    /// bit-identical at any thread count, and the Thm 11 charge depends
    /// only on `m`, `|S|` and `hops`.
    ///
    /// With `parents`, every detected distance comes with a reconstructible
    /// walk over `g` ([`SourceDetection::chain_into`]). Distances and
    /// charged rounds are identical either way — in the model the
    /// witnesses ride the very messages that carry the distances.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or contains an out-of-range vertex.
    pub fn run_with(
        g: &WeightedGraph,
        sources: &[usize],
        hops: usize,
        threads: usize,
        parents: bool,
        ledger: &mut RoundLedger,
    ) -> Self {
        charge(g, sources, hops, ledger);
        Self::detect(
            g,
            sources,
            hops,
            &mut HopLanes::new(threads, parents),
            false,
        )
    }

    /// [`SourceDetection::run_with`] keeping distances only between the
    /// sources: `dist_to_source_index(v, i)` and the other per-vertex
    /// queries accept only `v ∈ sources`, and an `|S| × n` table is never
    /// materialised. Same charge, same detected values; parent rows (when
    /// asked for) are still full, so chains reach every source.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or contains an out-of-range vertex.
    pub fn run_among(
        g: &WeightedGraph,
        sources: &[usize],
        hops: usize,
        threads: usize,
        parents: bool,
        ledger: &mut RoundLedger,
    ) -> Self {
        charge(g, sources, hops, ledger);
        Self::detect(g, sources, hops, &mut HopLanes::new(threads, parents), true)
    }

    /// The detection itself, uncharged: callers that account for it under
    /// their own label (the hopset's pivot interconnection) and reuse
    /// `lanes` across calls.
    pub(crate) fn detect(
        g: &WeightedGraph,
        sources: &[usize],
        hops: usize,
        lanes: &mut HopLanes,
        among: bool,
    ) -> Self {
        assert!(!sources.is_empty(), "source detection needs ≥ 1 source");
        let n = g.n();
        let cols = among.then(|| {
            let mut cols = vec![u32::MAX; n];
            for (c, &s) in sources.iter().enumerate() {
                if cols[s] == u32::MAX {
                    cols[s] = c as u32;
                }
            }
            cols
        });
        let width = if among { sources.len() } else { n };
        let keep_parents = lanes.parents();
        // Rows are allocated here, on the calling thread; workers only fill
        // them.
        let mut rows: Vec<(Vec<Dist>, Vec<u32>)> = (0..sources.len())
            .map(|_| {
                let parent = if keep_parents { vec![0; n] } else { Vec::new() };
                (vec![INF; width], parent)
            })
            .collect();
        dijkstra::hop_limited(g, sources, hops, lanes, &mut rows, |row, (dist, parent)| {
            if among {
                for (d, &s) in dist.iter_mut().zip(sources) {
                    *d = row.dists()[s];
                }
            } else {
                dist.copy_from_slice(row.dists());
            }
            if let Some(p) = row.parents() {
                parent.copy_from_slice(p);
            }
        });
        let (dist, parents): (Vec<Vec<Dist>>, Vec<Vec<u32>>) = rows.into_iter().unzip();
        SourceDetection {
            sources: sources.to_vec(),
            hops,
            dist,
            cols,
            parents: keep_parents.then_some(parents),
        }
    }

    /// The column of vertex `v` in the distance rows.
    ///
    /// # Panics
    ///
    /// Panics if the run kept only the sources and `v` is not one.
    #[inline]
    fn col(&self, v: usize) -> usize {
        match &self.cols {
            None => v,
            Some(cols) => {
                let c = cols[v];
                assert!(c != u32::MAX, "vertex {v} is not a detection target");
                c as usize
            }
        }
    }

    /// The walk behind the detected distance of `(v, sources[i])`, written
    /// into a caller-owned buffer (cleared first) so folds that walk many
    /// chains reuse one allocation: the vertex sequence `sources[i], …, v`
    /// over `g`, whose weight is at most `dist_to_source_index(v, i)`.
    /// Returns `false` — leaving `out` unspecified — when `v` was not
    /// detected or parents were not recorded.
    pub fn chain_into(&self, i: usize, v: usize, out: &mut Vec<u32>) -> bool {
        match &self.parents {
            Some(parents) => dijkstra::hop_chain_into(&parents[i], self.sources[i], v, out),
            None => false,
        }
    }

    /// The sources, in the order used for indexing.
    pub fn sources(&self) -> &[usize] {
        &self.sources
    }

    /// The hop bound `d`.
    pub fn hops(&self) -> usize {
        self.hops
    }

    /// The detected distances of `sources[i]`, one per target: indexed by
    /// vertex after [`SourceDetection::run_with`], by source index after
    /// [`SourceDetection::run_among`] (`INF` where nothing was detected).
    pub fn source_row(&self, i: usize) -> &[Dist] {
        &self.dist[i]
    }

    /// Distance from `v` to the `i`-th source (`INF` if unreachable within
    /// the hop bound).
    pub fn dist_to_source_index(&self, v: usize, i: usize) -> Dist {
        self.dist[i][self.col(v)]
    }

    /// Distance from `v` to source vertex `s` (`None` if `s` is not a
    /// source).
    pub fn dist_to(&self, v: usize, s: usize) -> Option<Dist> {
        let c = self.col(v);
        self.sources
            .iter()
            .position(|&x| x == s)
            .map(|i| self.dist[i][c])
    }

    /// Iterator over `(source, distance)` pairs of `v`, skipping `INF`.
    pub fn detected(&self, v: usize) -> impl Iterator<Item = (usize, Dist)> + '_ {
        let c = self.col(v);
        self.sources
            .iter()
            .zip(&self.dist)
            .map(move |(&s, row)| (s, row[c]))
            .filter(|&(_, d)| d < INF)
    }

    /// The nearest source to `v` (ties by source order), if any is within
    /// the hop bound.
    pub fn nearest_source(&self, v: usize) -> Option<(usize, Dist)> {
        self.nearest_sources(v, 1).into_iter().next()
    }

    /// The `k` nearest detected sources to `v`, sorted by
    /// `(distance, source id)` — the `(S, d, k)`-source detection output of
    /// \[3\] (footnote 7 of the paper: the applications use `k = |S|`, but
    /// the general variant restricts each vertex's output to its `k`
    /// closest sources).
    pub fn nearest_sources(&self, v: usize, k: usize) -> Vec<(usize, Dist)> {
        let mut found: Vec<(Dist, usize)> = self.detected(v).map(|(s, d)| (d, s)).collect();
        found.sort_unstable();
        found.truncate(k);
        found.into_iter().map(|(d, s)| (s, d)).collect()
    }
}

/// The Thm 11 charge of one detection run.
fn charge(g: &WeightedGraph, sources: &[usize], hops: usize, ledger: &mut RoundLedger) {
    ledger.charge_source_detection(
        "(S,d)-source detection",
        g.m() as u64,
        sources.len() as u64,
        hops as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators, Graph};

    fn weighted(g: &Graph) -> WeightedGraph {
        WeightedGraph::from_unweighted(g)
    }

    #[test]
    fn full_hops_matches_bfs() {
        let g = generators::grid(5, 4);
        let wg = weighted(&g);
        let sources = [0usize, 7, 19];
        let mut ledger = RoundLedger::new(g.n());
        let sd = SourceDetection::run(&wg, &sources, g.n(), &mut ledger);
        for &s in &sources {
            let exact = bfs::sssp(&g, s);
            for v in 0..g.n() {
                assert_eq!(sd.dist_to(v, s), Some(exact[v]));
            }
        }
    }

    #[test]
    fn hop_bound_truncates() {
        let g = generators::path(8);
        let wg = weighted(&g);
        let mut ledger = RoundLedger::new(8);
        let sd = SourceDetection::run(&wg, &[0], 3, &mut ledger);
        assert_eq!(sd.dist_to(3, 0), Some(3));
        assert_eq!(sd.dist_to(4, 0), Some(INF));
        assert_eq!(sd.detected(4).count(), 0);
    }

    #[test]
    fn weighted_hops_count_edges_not_weight() {
        // One heavy edge: 2 hops reach weight-10 path.
        let wg = WeightedGraph::from_edges(3, &[(0, 1, 10), (1, 2, 10)]);
        let mut ledger = RoundLedger::new(3);
        let sd = SourceDetection::run(&wg, &[0], 2, &mut ledger);
        assert_eq!(sd.dist_to(2, 0), Some(20));
        let sd = SourceDetection::run(&wg, &[0], 1, &mut ledger);
        assert_eq!(sd.dist_to(2, 0), Some(INF));
    }

    #[test]
    fn nearest_source_picks_minimum() {
        let g = generators::path(9);
        let wg = weighted(&g);
        let mut ledger = RoundLedger::new(9);
        let sd = SourceDetection::run(&wg, &[0, 8], 8, &mut ledger);
        assert_eq!(sd.nearest_source(1), Some((0, 1)));
        assert_eq!(sd.nearest_source(7), Some((8, 1)));
        // Midpoint ties break by source order.
        assert_eq!(sd.nearest_source(4), Some((0, 4)));
    }

    #[test]
    fn nearest_k_sources_sorted_and_truncated() {
        let g = generators::path(9);
        let wg = weighted(&g);
        let mut ledger = RoundLedger::new(9);
        let sd = SourceDetection::run(&wg, &[0, 4, 8], 8, &mut ledger);
        // From vertex 3: sources at distances 3 (v0), 1 (v4), 5 (v8).
        assert_eq!(sd.nearest_sources(3, 2), vec![(4, 1), (0, 3)]);
        assert_eq!(sd.nearest_sources(3, 10).len(), 3);
        // Hop-bounded: from vertex 0 with 2 hops only sources within 2 hops.
        let sd = SourceDetection::run(&wg, &[0, 4, 8], 2, &mut ledger);
        assert_eq!(sd.nearest_sources(3, 10), vec![(4, 1)]);
    }

    #[test]
    fn parent_chains_are_real_bounded_walks() {
        let g = generators::caveman(4, 5);
        let wg = weighted(&g);
        let sources = [0usize, 9, 17];
        let mut l1 = RoundLedger::new(g.n());
        let mut l2 = RoundLedger::new(g.n());
        let plain = SourceDetection::run(&wg, &sources, 6, &mut l1);
        let sd = SourceDetection::run_with_parents(&wg, &sources, 6, &mut l2);
        assert_eq!(l1.total_rounds(), l2.total_rounds(), "same charge");
        let mut chain = Vec::new();
        assert!(!plain.chain_into(0, 3, &mut chain), "no parents recorded");
        for (i, &s) in sources.iter().enumerate() {
            for v in 0..g.n() {
                let d = sd.dist_to_source_index(v, i);
                assert_eq!(d, plain.dist_to_source_index(v, i), "same distances");
                if d >= INF {
                    continue;
                }
                assert!(
                    sd.chain_into(i, v, &mut chain),
                    "detected vertices have chains"
                );
                assert_eq!(chain[0] as usize, s);
                assert_eq!(*chain.last().unwrap() as usize, v);
                let weight: Dist = chain
                    .windows(2)
                    .map(|w| {
                        wg.neighbors(w[0] as usize)
                            .iter()
                            .filter(|&&(x, _)| x == w[1])
                            .map(|&(_, wt)| wt)
                            .min()
                            .expect("chain hop is an edge")
                    })
                    .sum();
                assert!(weight <= d, "chain weight {weight} exceeds estimate {d}");
            }
        }
    }

    #[test]
    fn among_keeps_the_source_block_of_the_full_run() {
        let g = generators::caveman(4, 5);
        let mut wg = weighted(&g);
        wg.add_edge(1, 18, 3); // a weighted shortcut
        let sources = [3usize, 9, 17, 9];
        let mut l1 = RoundLedger::new(g.n());
        let mut l2 = RoundLedger::new(g.n());
        let full = SourceDetection::run_with(&wg, &sources, 4, 1, true, &mut l1);
        let among = SourceDetection::run_among(&wg, &sources, 4, 3, true, &mut l2);
        assert_eq!(l1.total_rounds(), l2.total_rounds(), "same charge");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..sources.len() {
            for &v in &sources {
                assert_eq!(
                    among.dist_to_source_index(v, i),
                    full.dist_to_source_index(v, i)
                );
                assert_eq!(
                    among.chain_into(i, v, &mut a),
                    full.chain_into(i, v, &mut b)
                );
                assert_eq!(a, b);
            }
            let row: Vec<Dist> = sources
                .iter()
                .map(|&v| full.dist_to_source_index(v, i))
                .collect();
            assert_eq!(among.source_row(i), &row[..]);
        }
    }

    #[test]
    #[should_panic(expected = "not a detection target")]
    fn among_rejects_non_source_queries() {
        let g = generators::path(6);
        let mut ledger = RoundLedger::new(6);
        let sd = SourceDetection::run_among(&weighted(&g), &[0, 5], 5, 1, false, &mut ledger);
        let _ = sd.dist_to_source_index(2, 0);
    }

    #[test]
    fn rounds_linear_in_hops() {
        let g = generators::cycle(64);
        let wg = weighted(&g);
        let mut l1 = RoundLedger::new(64);
        let mut l2 = RoundLedger::new(64);
        let _ = SourceDetection::run(&wg, &[0, 1], 10, &mut l1);
        let _ = SourceDetection::run(&wg, &[0, 1], 20, &mut l2);
        assert_eq!(l2.total_rounds(), 2 * l1.total_rounds());
    }

    #[test]
    #[should_panic(expected = "≥ 1 source")]
    fn empty_sources_rejected() {
        let g = generators::path(4);
        let wg = weighted(&g);
        let mut ledger = RoundLedger::new(4);
        let _ = SourceDetection::run(&wg, &[], 2, &mut ledger);
    }
}
