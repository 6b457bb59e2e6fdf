//! The distance-through-sets problem (Thm 35 of the paper, from \[3\]).
//!
//! Every vertex `v` holds a set `W_v` and distance estimates `δ(v, w)` for
//! `w ∈ W_v`. The task: for every ordered pair `(u, v)`, compute
//! `min_{w ∈ W_u ∩ W_v} (δ(u,w) + δ(w,v))`.
//!
//! Round cost: `O(ρ^{2/3}/n^{1/3} + 1)` where `ρ` is the average set size —
//! constant for `ρ = O(√n)`, which is how the APSP algorithms use it
//! (`W_v = S` for a hitting set `S` of size `O(√n)`, or `W_v = N_{k,t}(v)`).
//!
//! [`distance_through_sets_with_witness`] also reports the realizing `w`
//! per pair. It is the same computation with a witness lane switched on:
//! both entry points run one accumulation body and charge the same
//! rounds, since the witness id rides the message of the sum it
//! annotates.

use cc_clique::RoundLedger;
use cc_graphs::{dadd, Dist, INF};

/// Solves distance-through-sets: `out[u][v] = min_{w ∈ W_u ∩ W_v}
/// (δ(u,w) + δ(w,v))`, with `INF` when the intersection is empty or no
/// finite estimates exist.
///
/// `estimate(v, w)` supplies `δ(v, w)` and is only queried for `w ∈ W_v`.
/// The Thm 35 round cost is charged to `ledger`.
///
/// # Panics
///
/// Panics if a set contains an element `≥ n`.
pub fn distance_through_sets<F>(
    n: usize,
    sets: &[Vec<usize>],
    estimate: F,
    ledger: &mut RoundLedger,
) -> Vec<Vec<Dist>>
where
    F: Fn(usize, usize) -> Dist,
{
    through_sets(n, sets, estimate, ledger, None)
}

/// [`distance_through_sets`] that additionally reports, per ordered pair,
/// the **witness** `w` that realized the minimum (`u32::MAX` where no finite
/// route exists, and on the diagonal). Distances are identical to the plain
/// variant; the intermediate vertices are swept in ascending order with
/// strict improvement, so the witness is the smallest realizing `w` —
/// deterministic regardless of set order.
///
/// The round charge is unchanged: in the model the witness ids ride the same
/// messages as the sums they annotate.
///
/// # Panics
///
/// Panics if a set contains an element `≥ n`.
pub fn distance_through_sets_with_witness<F>(
    n: usize,
    sets: &[Vec<usize>],
    estimate: F,
    ledger: &mut RoundLedger,
) -> (Vec<Vec<Dist>>, Vec<Vec<u32>>)
where
    F: Fn(usize, usize) -> Dist,
{
    let mut wit = vec![vec![u32::MAX; n]; n];
    let out = through_sets(n, sets, estimate, ledger, Some(&mut wit));
    (out, wit)
}

/// The one accumulation body of both entry points: sweeps the intermediate
/// vertices `w` in ascending order, lowering `out[u][v]` on strict
/// improvement, and records `w` in the witness lane when one is given.
fn through_sets<F>(
    n: usize,
    sets: &[Vec<usize>],
    estimate: F,
    ledger: &mut RoundLedger,
    mut wit: Option<&mut Vec<Vec<u32>>>,
) -> Vec<Vec<Dist>>
where
    F: Fn(usize, usize) -> Dist,
{
    assert_eq!(sets.len(), n, "one set per vertex required");
    let total: usize = sets.iter().map(Vec::len).sum();
    let rho = (total as u64 / n.max(1) as u64).max(1);
    ledger.charge_through_sets("distance through sets", rho);

    // Invert: for each w, the vertices whose set contains w, with δ(v, w).
    let mut members: Vec<Vec<(u32, Dist)>> = vec![Vec::new(); n];
    for (v, set) in sets.iter().enumerate() {
        for &w in set {
            assert!(w < n, "set element {w} out of range");
            let d = estimate(v, w);
            if d < INF {
                members[w].push((v as u32, d));
            }
        }
    }
    let mut out = vec![vec![INF; n]; n];
    for v in 0..n {
        out[v][v] = 0;
    }
    for w in 0..n {
        let list = &members[w];
        for &(u, du) in list {
            let row = &mut out[u as usize];
            let mut wrow = wit.as_deref_mut().map(|wit| &mut wit[u as usize]);
            for &(v, dv) in list {
                let cand = dadd(du, dv);
                if cand < row[v as usize] {
                    row[v as usize] = cand;
                    if let Some(wrow) = wrow.as_deref_mut() {
                        wrow[v as usize] = w as u32;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators};

    #[test]
    fn through_single_shared_vertex() {
        // W_0 = W_2 = {1}; δ taken from the path 0-1-2.
        let g = generators::path(3);
        let exact = bfs::apsp_exact(&g);
        let sets = vec![vec![1], vec![1], vec![1]];
        let mut ledger = RoundLedger::new(3);
        let out = distance_through_sets(3, &sets, |u, v| exact[u][v], &mut ledger);
        assert_eq!(out[0][2], 2);
        assert_eq!(out[2][0], 2);
        assert_eq!(out[0][0], 0);
    }

    #[test]
    fn empty_intersection_gives_inf() {
        let sets = vec![vec![0], vec![1], vec![]];
        let mut ledger = RoundLedger::new(3);
        let out = distance_through_sets(3, &sets, |_, _| 1, &mut ledger);
        assert_eq!(out[0][1], INF);
        assert_eq!(out[0][2], INF);
    }

    #[test]
    fn matches_bruteforce_on_random_instance() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let n = 24;
        let g = generators::connected_gnp(n, 0.12, &mut rng);
        let exact = bfs::apsp_exact(&g);
        let sets: Vec<Vec<usize>> = (0..n)
            .map(|_| {
                let size = rng.gen_range(1..5);
                (0..size).map(|_| rng.gen_range(0..n)).collect::<Vec<_>>()
            })
            .map(|mut s| {
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let mut ledger = RoundLedger::new(n);
        let out = distance_through_sets(n, &sets, |u, v| exact[u][v], &mut ledger);
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                let mut want = INF;
                for &w in &sets[u] {
                    if sets[v].contains(&w) {
                        want = want.min(dadd(exact[u][w], exact[w][v]));
                    }
                }
                assert_eq!(out[u][v], want, "({u},{v})");
            }
        }
    }

    #[test]
    fn witness_variant_matches_plain_and_realizes_minima() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let n = 20;
        let g = generators::connected_gnp(n, 0.15, &mut rng);
        let exact = bfs::apsp_exact(&g);
        let sets: Vec<Vec<usize>> = (0..n)
            .map(|_| {
                let mut s: Vec<usize> = (0..rng.gen_range(1..4))
                    .map(|_| rng.gen_range(0..n))
                    .collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        let mut l1 = RoundLedger::new(n);
        let mut l2 = RoundLedger::new(n);
        let plain = distance_through_sets(n, &sets, |u, v| exact[u][v], &mut l1);
        let (rows, wit) = distance_through_sets_with_witness(n, &sets, |u, v| exact[u][v], &mut l2);
        assert_eq!(rows, plain, "witness tracking must not change distances");
        assert_eq!(l1.total_rounds(), l2.total_rounds());
        for u in 0..n {
            for v in 0..n {
                if u == v || rows[u][v] >= INF {
                    assert_eq!(wit[u][v], u32::MAX, "({u},{v})");
                    continue;
                }
                let w = wit[u][v] as usize;
                assert!(sets[u].contains(&w) && sets[v].contains(&w));
                assert_eq!(dadd(exact[u][w], exact[w][v]), rows[u][v], "({u},{v})");
                // Smallest realizing witness.
                for smaller in 0..w {
                    if sets[u].contains(&smaller) && sets[v].contains(&smaller) {
                        assert!(
                            dadd(exact[u][smaller], exact[smaller][v]) > rows[u][v],
                            "({u},{v}): {smaller} also realizes"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn infinite_estimates_are_skipped() {
        let sets = vec![vec![1], vec![1]];
        let mut ledger = RoundLedger::new(2);
        let out = distance_through_sets(2, &sets, |_, _| INF, &mut ledger);
        assert_eq!(out[0][1], INF);
    }

    #[test]
    fn constant_rounds_for_sqrt_sets() {
        let n = 4096;
        let sets: Vec<Vec<usize>> = (0..n).map(|v| vec![v % 64]).collect();
        let mut ledger = RoundLedger::new(n);
        let _ = distance_through_sets(n, &sets, |_, _| 1, &mut ledger);
        assert!(ledger.total_rounds() <= 2);
    }

    #[test]
    #[should_panic(expected = "one set per vertex")]
    fn wrong_set_count_panics() {
        let mut ledger = RoundLedger::new(3);
        let _ = distance_through_sets(3, &[vec![]], |_, _| 1, &mut ledger);
    }
}
