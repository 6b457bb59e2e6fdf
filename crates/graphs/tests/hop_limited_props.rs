//! Property tests pinning the sharded hop-limited kernel to a naive
//! reference.
//!
//! Over gnp / grid / caveman graphs with random weighted shortcuts,
//! `h ∈ {1, 4, n}` and source sets both smaller and larger than the worker
//! count:
//!
//! 1. **Distances** equal a dense synchronous-hop Bellman–Ford (every hop
//!    relaxes every edge from the previous hop's table), with and without
//!    parent tracking.
//! 2. **Parent rows** are sound — each parent is a neighbour that explains
//!    the distance, and each chain is a real walk back to the source of
//!    weight at most the distance — and, like the distances, are
//!    bit-identical at `threads ∈ {1, 2, 3, 8}`, including on warm lanes.

use cc_graphs::dijkstra::{hop_chain_into, hop_limited, HopLanes};
use cc_graphs::{dadd, generators, Dist, Graph, WeightedGraph, INF};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One random base graph from the (family, size, seed) triple, with a few
/// weighted shortcut edges overlaid.
fn graph_for(family: usize, size: usize, seed: u64) -> WeightedGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g: Graph = match family {
        0 => generators::gnp(size, 0.12, &mut rng),
        1 => generators::grid(3 + size % 5, 3 + size / 5),
        _ => generators::caveman(3 + size % 4, 3 + size % 5),
    };
    let n = g.n();
    let mut wg = WeightedGraph::from_unweighted(&g);
    for _ in 0..n / 3 {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            wg.add_edge(u, v, rng.gen_range(1..3 * n as Dist + 1));
        }
    }
    wg
}

/// `h`-hop distances from `src` by the textbook recurrence
/// `d_j(v) = min(d_{j-1}(v), min_u d_{j-1}(u) + w(u, v))`.
fn reference(g: &WeightedGraph, src: usize, h: usize) -> Vec<Dist> {
    let mut prev = vec![INF; g.n()];
    prev[src] = 0;
    for _ in 0..h {
        let mut cur = prev.clone();
        for (u, &du) in prev.iter().enumerate() {
            if du < INF {
                for &(v, w) in g.neighbors(u) {
                    let v = v as usize;
                    cur[v] = cur[v].min(dadd(du, w));
                }
            }
        }
        prev = cur;
    }
    prev
}

/// Full `(dist, parent)` rows per source from the kernel.
fn kernel(
    g: &WeightedGraph,
    sources: &[usize],
    h: usize,
    lanes: &mut HopLanes,
) -> Vec<(Vec<Dist>, Vec<u32>)> {
    let mut out = vec![(Vec::new(), Vec::new()); sources.len()];
    hop_limited(g, sources, h, lanes, &mut out, |row, slot| {
        *slot = (
            row.dists().to_vec(),
            row.parents().map(<[u32]>::to_vec).unwrap_or_default(),
        );
    });
    out
}

/// Smallest weight of an edge `u — v` in `g`, if any.
fn edge_weight(g: &WeightedGraph, u: usize, v: usize) -> Option<Dist> {
    g.neighbors(u)
        .iter()
        .filter(|&&(x, _)| x as usize == v)
        .map(|&(_, w)| w)
        .min()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_matches_reference_at_every_thread_count(
        (family, size, seed, source_count, hop_case) in
            (0usize..3, 10usize..36, 0u64..1 << 40, 1usize..12, 0usize..3)
    ) {
        let g = graph_for(family, size, seed);
        let n = g.n();
        let h = [1, 4, n][hop_case];
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let sources: Vec<usize> = (0..source_count).map(|_| rng.gen_range(0..n)).collect();

        let serial = kernel(&g, &sources, h, &mut HopLanes::new(1, true));
        let plain = kernel(&g, &sources, h, &mut HopLanes::new(1, false));
        let mut chain = Vec::new();
        for (i, &s) in sources.iter().enumerate() {
            let (dist, parent) = &serial[i];
            prop_assert_eq!(dist, &reference(&g, s, h), "source {} h {}", s, h);
            prop_assert_eq!(dist, &plain[i].0, "parents changed distances");
            prop_assert!(plain[i].1.is_empty(), "untracked run returned parents");
            for v in 0..n {
                if v == s || dist[v] >= INF {
                    prop_assert_eq!(parent[v], u32::MAX, "({}, {}) has a parent", s, v);
                    continue;
                }
                let p = parent[v] as usize;
                let w = edge_weight(&g, p, v);
                prop_assert!(w.is_some(), "parent {} of {} is not a neighbour", p, v);
                prop_assert!(
                    dadd(dist[p], w.unwrap_or(INF)) <= dist[v],
                    "parent {} does not explain {}", p, v
                );
                prop_assert!(hop_chain_into(parent, s, v, &mut chain), "no chain ({}, {})", s, v);
                prop_assert_eq!((chain[0] as usize, chain[chain.len() - 1] as usize), (s, v));
                let weight = chain.windows(2).try_fold(0, |acc: Dist, e| {
                    edge_weight(&g, e[0] as usize, e[1] as usize).map(|w| dadd(acc, w))
                });
                prop_assert!(
                    weight.is_some_and(|wt| wt <= dist[v]),
                    "chain ({}, {}) too heavy", s, v
                );
            }
        }

        for threads in [2usize, 3, 8] {
            let mut lanes = HopLanes::new(threads, true);
            prop_assert_eq!(&kernel(&g, &sources, h, &mut lanes), &serial, "threads {}", threads);
            // Warm lanes, with a different hop bound in between.
            let _ = kernel(&g, &sources, 2, &mut lanes);
            prop_assert_eq!(&kernel(&g, &sources, h, &mut lanes), &serial, "warm threads {}", threads);
            let plain_t = kernel(&g, &sources, h, &mut HopLanes::new(threads, false));
            prop_assert_eq!(&plain_t, &plain, "untracked threads {}", threads);
        }
    }
}

#[test]
fn empty_source_set_is_a_no_op() {
    let g = graph_for(1, 12, 7);
    let mut out: Vec<u8> = Vec::new();
    hop_limited(&g, &[], 4, &mut HopLanes::new(4, true), &mut out, |_, _| {
        panic!("no source, no row");
    });
}
