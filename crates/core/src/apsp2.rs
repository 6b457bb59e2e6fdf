//! `(2+ε)`-approximate APSP (Thm 34, deterministic: Thm 53) — the paper's
//! most intricate pipeline.
//!
//! Essentially the best approximation achievable in sub-polynomial time: a
//! `(2−ε)`-approximation would imply sub-polynomial matrix multiplication
//! (§1.1). Distances split by a threshold `t = Θ(β/ε)`:
//!
//! * **`d ≥ t`** — the `(1+ε/2, β)`-emulator is already a `(1+ε)`
//!   approximation (Claim 37).
//! * **short, through a high-degree vertex** — a hitting set `S` of size
//!   `O(√n)` touches some neighbor of the path; `(1+ε/2)`-approximate
//!   distances to `S` (bounded hopset + source detection) plus
//!   distance-through-`S` give `2+ε` (Claims 38/39).
//! * **short, low-degree-only paths** — on the subgraph `G'` of low-degree
//!   edges: `(k,t)`-nearest lists; routing through a pivot set `A` hitting
//!   full lists (Case 2); routing through `A'`-attached neighbors for
//!   high-`G'`-degree border vertices (Case 3a); and an exact three-hop
//!   min-plus product `W₁·W₂·W₃` over the low-degree border edges `E''`
//!   (Case 3b) — Claims 40/41.
//!
//! Total: `O(log²β/ε)` rounds.

use cc_clique::RoundLedger;
use cc_emulator::clique::CliqueEmulatorConfig;
use cc_emulator::EmulatorParams;
use cc_graphs::{dadd, Dist, Graph, INF};
use cc_matrix::{MinplusWorkspace, RowBuilder, SparseMatrix};
use cc_routes::{PathStore, RecId};
use cc_toolkit::hopset::BoundedHopset;
use cc_toolkit::knearest::{KNearest, Strategy};
use cc_toolkit::source_detection::SourceDetection;
use cc_toolkit::through_sets::{distance_through_sets, distance_through_sets_with_witness};
use rand::Rng;

use crate::error::CcError;
use crate::estimates::DistanceMatrix;
use crate::oracle::{DistOracle, Guarantee};
use crate::pipeline::{self, Mode, Substrates};
use cc_graphs::StorageKind;

/// Configuration of the `(2+ε)` pipeline.
#[derive(Clone, Debug)]
pub struct Apsp2Config {
    /// Accuracy `ε`.
    pub eps: f64,
    /// Emulator configuration (long range).
    pub emulator: CliqueEmulatorConfig,
    /// Low-degree-phase nearest-list width `k` (paper: `n^{1/4} log²n`).
    pub k: usize,
    /// High-degree threshold (paper: `√n log n`).
    pub high_degree_threshold: usize,
    /// Override of the short/long threshold `t`.
    pub t_override: Option<Dist>,
}

impl Apsp2Config {
    /// Paper profile with explicit level count `r`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn new(n: usize, eps: f64, r: usize) -> Result<Self, cc_emulator::params::ParamError> {
        let ln = (n.max(2) as f64).ln();
        Ok(Apsp2Config {
            eps,
            emulator: CliqueEmulatorConfig::paper(EmulatorParams::new(n, eps, r)?),
            k: (((n as f64).powf(0.25) * ln * ln).ceil() as usize).clamp(2, n),
            high_degree_threshold: (((n as f64).sqrt() * ln).ceil() as usize).max(2),
            t_override: None,
        })
    }

    /// Benchmark-scale profile: `r = ⌊log₂log₂ n⌋`, `k = n^{1/4}·ln n`, and
    /// tempered hopset constants.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn scaled(n: usize, eps: f64) -> Result<Self, cc_emulator::params::ParamError> {
        let ln = (n.max(2) as f64).ln();
        Ok(Apsp2Config {
            eps,
            emulator: CliqueEmulatorConfig::scaled(EmulatorParams::loglog(n, eps)?),
            k: (((n as f64).powf(0.25) * ln).ceil() as usize).clamp(2, n),
            high_degree_threshold: (((n as f64).sqrt() * ln).ceil() as usize).max(2),
            t_override: None,
        })
    }

    /// The short/long threshold `t`.
    pub fn threshold(&self) -> Dist {
        self.t_override
            .unwrap_or_else(|| pipeline::default_threshold(&self.emulator, self.eps))
    }
}

/// Result of the `(2+ε)` pipeline.
#[derive(Clone, Debug)]
pub struct Apsp2 {
    /// The estimates.
    pub estimates: DistanceMatrix,
    /// The threshold `t` used.
    pub t: Dist,
    /// The proven guarantee for pairs within `t`: `2+ε`.
    pub short_range_guarantee: f64,
    /// High-degree hitting set `S`.
    pub high_degree_pivots: Vec<usize>,
    /// Low-degree pivot set `A`.
    pub low_degree_pivots: Vec<usize>,
    /// Per-pair path witnesses, recorded when the configuration set
    /// `record_paths`. `Arc`-shared so memoized results clone cheaply.
    pub paths: Option<std::sync::Arc<PathStore>>,
}

impl Apsp2 {
    /// The provenance every estimate of this result is served under.
    pub fn guarantee(&self) -> Guarantee {
        Guarantee::mult2(self.short_range_guarantee - 2.0)
    }

    /// Freezes the estimates into an immutable, `Arc`-shareable
    /// [`DistOracle`]. The pipeline's output is symmetric, so the oracle
    /// uses the symmetric-packed layout (half the memory of the square).
    pub fn into_oracle(self) -> DistOracle {
        let guarantee = self.guarantee();
        DistOracle::from_matrix(&self.estimates, guarantee, StorageKind::SymmetricPacked)
    }
}

/// Randomized `(2+ε)`-APSP (Thm 34).
///
/// # Errors
///
/// Returns [`CcError`] if a pipeline-internal hitting-set instance fails
/// validation.
pub fn run(
    g: &Graph,
    cfg: &Apsp2Config,
    rng: &mut impl Rng,
    ledger: &mut RoundLedger,
) -> Result<Apsp2, CcError> {
    run_mode(g, cfg, Mode::Rng(rng), ledger, &mut Substrates::new())
}

/// Deterministic `(2+ε)`-APSP (Thm 53).
///
/// # Errors
///
/// Returns [`CcError`] if a pipeline-internal hitting-set instance fails
/// validation.
pub fn run_deterministic(
    g: &Graph,
    cfg: &Apsp2Config,
    ledger: &mut RoundLedger,
) -> Result<Apsp2, CcError> {
    run_mode(g, cfg, Mode::Det, ledger, &mut Substrates::new())
}

pub(crate) fn run_mode(
    g: &Graph,
    cfg: &Apsp2Config,
    mut mode: Mode<'_>,
    ledger: &mut RoundLedger,
    substrates: &mut Substrates,
) -> Result<Apsp2, CcError> {
    let mut phase = ledger.enter("apsp2");
    let n = g.n();
    let t = cfg.threshold();
    let threads = cfg.emulator.threads;
    let mut delta = DistanceMatrix::new(n);
    // Witness shadowing: every `delta` improvement below is mirrored by an
    // offer with the same strict-improvement rule, so the estimates (and the
    // rounds — witnesses ride the same messages) are identical with
    // recording on or off.
    let mut paths = cfg.emulator.record_paths.then(|| PathStore::new(n));

    // ── Long range (Claim 37): emulator + adjacency. ──────────────────────
    let _ = pipeline::collect_emulator(
        g,
        &cfg.emulator,
        &mut mode,
        &mut delta,
        substrates,
        paths.as_mut(),
        &mut phase,
    );

    // ── Short paths through a high-degree vertex (Claims 38/39). ─────────
    let hdt = cfg.high_degree_threshold;
    let high_sets: Vec<Vec<usize>> = (0..n)
        .filter(|&v| g.degree(v) >= hdt)
        .map(|v| g.neighbors(v).iter().map(|&u| u as usize).collect())
        .collect();
    let s_pivots = substrates.hitting_set_for(
        "apsp2/high-degree",
        n,
        hdt,
        &high_sets,
        &mut mode,
        &mut phase,
    )?;
    if !s_pivots.is_empty() {
        let hs = substrates.hopset_for(
            "input",
            g,
            2 * t,
            cfg.eps / 2.0,
            cfg.emulator.scaled_hopset,
            threads,
            cfg.emulator.record_paths,
            &mut mode,
            &mut phase,
        );
        if let Some(p) = paths.as_mut() {
            p.absorb_routes(hs.routes.as_ref().expect("hopset built with paths"));
        }
        detect_sources(
            g,
            &hs,
            g,
            &s_pivots,
            threads,
            &mut delta,
            paths.as_mut(),
            &mut phase,
        );
        let sets: Vec<Vec<usize>> = vec![s_pivots.clone(); n];
        merge_through_sets(n, &sets, &mut delta, paths.as_mut(), &mut phase);
    }

    // ── Short low-degree-only paths (Claims 40/41), on G'. ───────────────
    let gp = g.low_degree_subgraph(hdt);
    let k = cfg.k;

    // Step 2: (k,t)-nearest in G' (exact distances). G' edges are G edges,
    // so the parent chains unroll into the input graph directly.
    let mut kn = KNearest::compute_with(&gp, k, t, Strategy::TruncatedBfs, threads, &mut phase);
    if paths.is_some() {
        kn = kn.with_parents(&gp);
    }
    // Per-entry records of the lists (recording only), reused by the kn
    // offers and as the W₁/W₃ factor provenance of Case 3b.
    let kn_recs: Vec<Vec<Option<RecId>>> = match paths.as_mut() {
        Some(p) => (0..n)
            .map(|u| kn.route_recs(u, p.routes_mut().arena_mut()))
            .collect(),
        None => Vec::new(),
    };
    for u in 0..n {
        for (idx, &(v, d)) in kn.list(u).iter().enumerate() {
            if v as usize != u {
                delta.improve(u, v as usize, d);
                if let Some(p) = paths.as_mut() {
                    p.offer_rec(u, v as usize, d, kn_recs[u][idx].expect("non-root entry"));
                }
            }
        }
    }

    // Step 3: distance through the nearest-lists (Case 1 pairs).
    let kn_sets: Vec<Vec<usize>> = (0..n)
        .map(|u| kn.list(u).iter().map(|&(v, _)| v as usize).collect())
        .collect();
    merge_through_sets(n, &kn_sets, &mut delta, paths.as_mut(), &mut phase);

    // Steps 4–7: pivot set A over full lists; route through p_A (Case 2).
    let full_sets: Vec<Vec<usize>> = (0..n)
        .filter(|&v| kn.list(v).len() >= k)
        .map(|v| kn_sets[v].clone())
        .collect();
    let a_pivots = substrates.hitting_set_for(
        "apsp2/low-degree-A",
        n,
        k,
        &full_sets,
        &mut mode,
        &mut phase,
    )?;
    // One hopset of G' serves steps 5 and 9.
    let gp_hopset = if a_pivots.is_empty() && gp.m() == 0 {
        None
    } else {
        Some(substrates.hopset_for(
            "low-degree",
            &gp,
            2 * t,
            cfg.eps / 2.0,
            cfg.emulator.scaled_hopset,
            threads,
            cfg.emulator.record_paths,
            &mut mode,
            &mut phase,
        ))
    };
    if let (Some(hs), Some(p)) = (&gp_hopset, paths.as_mut()) {
        p.absorb_routes(hs.routes.as_ref().expect("hopset built with paths"));
    }
    if let (Some(hs), false) = (&gp_hopset, a_pivots.is_empty()) {
        detect_sources(
            g,
            hs,
            &gp,
            &a_pivots,
            threads,
            &mut delta,
            paths.as_mut(),
            &mut phase,
        );
        phase.charge_broadcast("announce nearest A-pivots");
        let mut a_mask = vec![false; n];
        for &a in &a_pivots {
            a_mask[a] = true;
        }
        let mut changed = Vec::new();
        for u in 0..n {
            if let Some((a, _)) = kn.nearest_in(u, &a_mask) {
                let a = a as usize;
                if let Some(p) = paths.as_mut() {
                    offer_via_row(p, &delta, u, a);
                }
                delta.fold_via(u, a, &mut changed);
            }
        }
    }

    // Steps 8–11: A' hits the neighborhoods of high-G'-degree vertices;
    // route through list-attached A'-members (Case 3a).
    let (thresh2, a2_pivots) = attachment_pivots(&gp, k, substrates, &mut mode, &mut phase)?;
    if let (Some(hs), false) = (&gp_hopset, a2_pivots.is_empty()) {
        detect_sources(
            g,
            hs,
            &gp,
            &a2_pivots,
            threads,
            &mut delta,
            paths.as_mut(),
            &mut phase,
        );
        // Step 10: every vertex announces one A'-neighbor (1 round); each u
        // assembles A'_u from its list.
        phase.charge_broadcast("announce A'-attachments");
        let mut a2_mask = vec![false; n];
        for &a in &a2_pivots {
            a2_mask[a] = true;
        }
        let attachment: Vec<Option<u32>> = (0..n)
            .map(|v| {
                gp.neighbors(v)
                    .iter()
                    .copied()
                    .find(|&w| a2_mask[w as usize])
            })
            .collect();
        // Step 11: min-plus product of the (u, A'_u) estimates with the
        // (A', V) estimates — charged as a sparse product (Thm 36).
        phase.charge_sparse_minplus(
            "route through A'_u",
            k as u64,
            a2_pivots.len() as u64,
            n as u64,
        );
        // The fold reads estimates lowered for earlier `u`, so it stays
        // sequential over `u` and over `w ∈ A'_u` rather than becoming a
        // product over a snapshot of `delta`.
        let mut a_u: Vec<usize> = Vec::new();
        let mut changed = Vec::new();
        for u in 0..n {
            a_u.clear();
            a_u.extend(
                kn_sets[u]
                    .iter()
                    .filter_map(|&v| attachment[v].map(|w| w as usize)),
            );
            a_u.sort_unstable();
            a_u.dedup();
            for &w in &a_u {
                if let Some(p) = paths.as_mut() {
                    offer_via_row(p, &delta, u, w);
                }
                delta.fold_via(u, w, &mut changed);
            }
        }
    }

    // Steps 12–14: exact three-hop product over the border edges E''
    // (Case 3b): W₁ = nearest-lists, W₂ = edges leaving low-G'-degree
    // vertices, W₃ = W₁ᵀ.
    if gp.m() > 0 {
        let minplus_started = substrates.stages.borrow().start();
        let mut w1 = RowBuilder::new(n);
        for u in 0..n {
            for &(v, d) in kn.list(u) {
                w1.push(u, v as usize, d);
            }
        }
        let w1 = w1.build();
        let mut w2 = RowBuilder::new(n);
        for x in 0..n {
            if gp.degree(x) <= thresh2 {
                for &y in gp.neighbors(x) {
                    w2.push(x, y as usize, 1);
                }
            }
        }
        let w2 = w2.build();
        let w3 = w1.transpose();
        let mut ws = MinplusWorkspace::with_threads(threads);
        // When recording, the witness-carrying kernels run instead; their
        // outputs are bit-identical and the Thm 36 charge is the same
        // density formula either way.
        let (pm, wp) = match &paths {
            Some(_) => {
                let (pm, wp) = w1.minplus_with_witness(&w2, &mut ws);
                (pm, Some(wp))
            }
            None => (w1.minplus_with(&w2, &mut ws), None),
        };
        phase.charge_sparse_minplus(
            "E'' product W1·W2",
            w1.density(),
            w2.density(),
            pm.density(),
        );
        let (q, wq) = match &paths {
            Some(_) => {
                let (q, wq) = pm.minplus_with_witness(&w3, &mut ws);
                (q, Some(wq))
            }
            None => (pm.minplus_with(&w3, &mut ws), None),
        };
        phase.charge_sparse_minplus(
            "E'' product (W1·W2)·W3",
            pm.density(),
            w3.density(),
            q.density(),
        );
        if let (Some(p), Some(wp), Some(wq)) = (paths.as_mut(), &wp, &wq) {
            offer_product_routes(p, &kn, &kn_recs, &w1, &pm, wp, &q, wq);
        }
        for u in 0..n {
            for &(v, d) in q.row(u) {
                let v = v as usize;
                if v != u && d < INF {
                    delta.improve(u, v, d);
                }
            }
        }
        substrates
            .stages
            .borrow_mut()
            .stop("minplus_products", minplus_started);
    }

    Ok(Apsp2 {
        estimates: delta,
        t,
        short_range_guarantee: 2.0 + cfg.eps,
        high_degree_pivots: s_pivots,
        low_degree_pivots: a_pivots,
        paths: paths.map(std::sync::Arc::new),
    })
}

/// Steps 8–9: the `G'`-degree threshold `max(n/k², 1)` and the pivot set
/// `A'` hitting the `G'`-neighbourhoods of vertices at or above it. At
/// benchmark scale (`k ≈ n^{1/4}·ln n`) `k² > n`, so the threshold clamps
/// to 1, every vertex with a `G'`-edge is "high-degree", and the
/// randomized hitting set samples with probability 1: `A'` is every
/// vertex, and Case 3a runs source detection from all of them.
fn attachment_pivots(
    gp: &Graph,
    k: usize,
    substrates: &mut Substrates,
    mode: &mut Mode<'_>,
    ledger: &mut RoundLedger,
) -> Result<(usize, Vec<usize>), CcError> {
    let n = gp.n();
    let thresh2 = (n / (k * k)).max(1);
    let big_sets: Vec<Vec<usize>> = (0..n)
        .filter(|&v| gp.degree(v) >= thresh2)
        .map(|v| gp.neighbors(v).iter().map(|&u| u as usize).collect())
        .collect();
    let a2_pivots =
        substrates.hitting_set_for("apsp2/low-degree-A2", n, thresh2, &big_sets, mode, ledger)?;
    Ok((thresh2, a2_pivots))
}

/// `β`-hop source detection from `sources` over `base ∪ H` (`hs`), folded
/// into `delta`. When recording, each improvement is shadowed by the
/// detection walk behind it: the chains step over `base ∪ H`, and hopset
/// hops resolve against the routes the store already absorbed from `hs`.
/// Values are lowered row by row from the source-major rows; the witness
/// offers walk `(v, i)` vertex-major, because the first of several equal
/// offers wins a pair's slot.
#[allow(clippy::too_many_arguments)]
fn detect_sources(
    g: &Graph,
    hs: &BoundedHopset,
    base: &Graph,
    sources: &[usize],
    threads: usize,
    delta: &mut DistanceMatrix,
    paths: Option<&mut PathStore>,
    ledger: &mut RoundLedger,
) {
    let union = hs.union_with(base);
    let sd = SourceDetection::run_with(&union, sources, hs.beta, threads, paths.is_some(), ledger);
    let mut changed = Vec::new();
    for (i, &s) in sources.iter().enumerate() {
        delta.improve_row(s, sd.source_row(i), &mut changed);
    }
    let Some(p) = paths else {
        return;
    };
    let mut chain = Vec::new();
    for v in 0..g.n() {
        for (i, &s) in sources.iter().enumerate() {
            let d = sd.dist_to_source_index(v, i);
            // `offer_walk` rejects a walk that does not improve the pair;
            // skip walking its chain.
            if v != s && d < p.value(s, v) && sd.chain_into(i, v, &mut chain) {
                p.offer_walk(g, d, &chain);
            }
        }
    }
}

/// The witness offers of one `fold_via(u, w)`: the midpoint `w` at
/// `δ(u,w) + δ(w,v)` for every finite leg, in `v` order, read before the
/// fold (the fold never writes row `w`).
fn offer_via_row(p: &mut PathStore, delta: &DistanceMatrix, u: usize, w: usize) {
    let via = delta.get(u, w);
    if via >= INF {
        return;
    }
    for (v, &leg) in delta.row(w).iter().enumerate() {
        if v != u && leg < INF {
            p.offer_via(u, v, dadd(via, leg), w);
        }
    }
}

/// `distance_through_sets` followed by the symmetric merge, shadowed with
/// `Via` witnesses when recording. Values and round charges are identical in
/// both branches (the witness variant is pinned to the plain one by test).
fn merge_through_sets(
    n: usize,
    sets: &[Vec<usize>],
    delta: &mut DistanceMatrix,
    paths: Option<&mut PathStore>,
    ledger: &mut RoundLedger,
) {
    match paths {
        None => {
            let rows = distance_through_sets(n, sets, |v, w| delta.get(v, w), ledger);
            delta.merge_rows(&rows);
        }
        Some(p) => {
            let (rows, wit) =
                distance_through_sets_with_witness(n, sets, |v, w| delta.get(v, w), ledger);
            // The witnesses were computed against the pre-merge estimates,
            // which is exactly what the store still mirrors: d ≥
            // value(u,w) + value(w,v) holds at offer time.
            for (u, row) in rows.iter().enumerate() {
                for (v, &d) in row.iter().enumerate() {
                    if u != v && d < INF {
                        p.offer_via(u, v, d, wit[u][v] as usize);
                    }
                }
            }
            delta.merge_rows(&rows);
        }
    }
}

/// Offers routes for the Case 3b three-hop product `q = (W₁·W₂)·W₃`: each
/// winning entry's walk is assembled from the kernel witnesses — `u ⇝ k`
/// from the `(k,t)`-nearest record, the border edge `k → y`, and the
/// reversed nearest record `y ⇝ v`.
#[allow(clippy::too_many_arguments)]
fn offer_product_routes(
    store: &mut PathStore,
    kn: &KNearest,
    kn_recs: &[Vec<Option<RecId>>],
    w1: &SparseMatrix,
    pm: &SparseMatrix,
    wp: &[u32],
    q: &SparseMatrix,
    wq: &[u32],
) {
    let n = w1.n();
    // Column-indexed nearest-list records per vertex: rec_of[u] is sorted by
    // column, mirroring w1.row(u).
    let rec_of: Vec<Vec<(u32, RecId)>> = (0..n)
        .map(|u| {
            let mut row: Vec<(u32, RecId)> = kn
                .list(u)
                .iter()
                .zip(&kn_recs[u])
                .filter(|&(&(c, _), _)| c as usize != u)
                .map(|(&(c, _), rec)| (c, rec.expect("non-root entry")))
                .collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            row
        })
        .collect();
    let lookup = |row: &[(u32, RecId)], col: u32| -> RecId {
        let pos = row
            .binary_search_by_key(&col, |&(c, _)| c)
            .expect("witness column is a list entry");
        row[pos].1
    };
    // The arena is append-only, so only intern records for offers that will
    // actually win (and only the pm prefixes those winners reference) —
    // losing records would otherwise sit in the arena for the session and
    // bloat the CCRO snapshot.
    let mut precs: Vec<Option<RecId>> = Vec::new();
    for u in 0..n {
        let prow = pm.row(u);
        let pwit = &wp[pm.row_range(u)];
        let qwit = &wq[q.row_range(u)];
        precs.clear();
        precs.resize(prow.len(), None);
        for (&(v, d), &y) in q.row(u).iter().zip(qwit) {
            let v = v as usize;
            if v == u || d >= INF || d >= store.value(u, v) {
                continue;
            }
            // q(u,v) = pm(u,y) + w3(y,v); w3 = W₁ᵀ, so the right leg is the
            // reversed nearest record of v toward y.
            let pos = prow
                .binary_search_by_key(&y, |&(c, _)| c)
                .expect("witness column is a pm entry");
            let left = *precs[pos].get_or_insert_with(|| {
                // pm(u,y) = w1(u,k) + w2(k,y); w2 entries are G' ⊆ G edges.
                let kk = pwit[pos];
                let hop = store.routes_mut().arena_mut().edge(kk, y);
                if kk as usize == u {
                    hop // w1 diagonal (distance 0): the border edge alone
                } else {
                    let prefix = lookup(&rec_of[u], kk);
                    store.routes_mut().arena_mut().cat(prefix, hop)
                }
            });
            let rec = if y as usize == v {
                left // w1 diagonal on the right: nothing to append
            } else {
                let fwd = lookup(&rec_of[v], y);
                let back = store.routes_mut().arena_mut().rev(fwd);
                store.routes_mut().arena_mut().cat(left, back)
            };
            store.offer_rec(u, v, d, rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators, stretch};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn assert_short_range(g: &Graph, out: &Apsp2, label: &str) {
        let exact = bfs::apsp_exact(g);
        let report = stretch::evaluate_range(&exact, out.estimates.as_fn(), 0.0, 1, out.t);
        assert_eq!(report.lower_violations, 0, "{label}");
        assert_eq!(report.missed, 0, "{label}");
        assert!(
            report.max_multiplicative <= out.short_range_guarantee + 1e-9,
            "{label}: stretch {} exceeds {}",
            report.max_multiplicative,
            out.short_range_guarantee
        );
    }

    /// Pins the regime the `solve-grid` benchmark measures: on
    /// `grid(32,32)` at the benchmark-scale profile, the Case 3a threshold
    /// clamps to 1 and `A'` is every vertex, so Case 3a source detection
    /// runs from all 1024 of them. A parameter change that leaves this
    /// regime must fail here, not silently change the benchmark.
    #[test]
    fn bench_scale_grid_runs_case3a_from_every_vertex() {
        let g = generators::grid(32, 32);
        let cfg = Apsp2Config::scaled(g.n(), 0.25).unwrap();
        let gp = g.low_degree_subgraph(cfg.high_degree_threshold);
        assert_eq!(gp.m(), g.m(), "every grid edge is low-degree");
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ledger = RoundLedger::new(g.n());
        let (thresh2, a2) = attachment_pivots(
            &gp,
            cfg.k,
            &mut Substrates::new(),
            &mut Mode::Rng(&mut rng),
            &mut ledger,
        )
        .unwrap();
        assert_eq!(thresh2, 1, "k = {}", cfg.k);
        assert_eq!(a2, (0..g.n()).collect::<Vec<_>>());
    }

    #[test]
    fn two_plus_eps_on_families() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        for (name, g) in [
            ("cycle", generators::cycle(56)),
            ("grid", generators::grid(8, 8)),
            ("caveman", generators::caveman(8, 8)),
            ("gnp", generators::connected_gnp(72, 0.07, &mut rng)),
            ("star+path", generators::barbell(12, 16)),
        ] {
            let cfg = Apsp2Config::new(g.n(), 0.5, 2).unwrap();
            let mut ledger = RoundLedger::new(g.n());
            let out = run(&g, &cfg, &mut rng, &mut ledger).unwrap();
            assert_short_range(&g, &out, name);
        }
    }

    #[test]
    fn deterministic_two_plus_eps() {
        for (name, g) in [
            ("caveman", generators::caveman(7, 7)),
            ("grid", generators::grid(7, 7)),
        ] {
            let cfg = Apsp2Config::new(g.n(), 0.5, 2).unwrap();
            let mut ledger = RoundLedger::new(g.n());
            let out = run_deterministic(&g, &cfg, &mut ledger).unwrap();
            assert_short_range(&g, &out, name);
        }
    }

    #[test]
    fn dense_graph_exercises_high_degree_phase() {
        // A star-heavy graph: the hub exceeds the √n·log n threshold.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut edges: Vec<(usize, usize)> = (1..40).map(|v| (0, v)).collect();
        edges.extend((1..39).map(|v| (v, v + 1)));
        let g = Graph::from_edges(40, &edges);
        let mut cfg = Apsp2Config::new(40, 0.5, 2).unwrap();
        cfg.high_degree_threshold = 10; // force the phase at this scale
        let mut ledger = RoundLedger::new(40);
        let out = run(&g, &cfg, &mut rng, &mut ledger).unwrap();
        assert!(!out.high_degree_pivots.is_empty());
        assert_short_range(&g, &out, "hub");
    }

    #[test]
    fn estimates_are_symmetric() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = generators::connected_gnp(48, 0.08, &mut rng);
        let cfg = Apsp2Config::new(48, 0.5, 2).unwrap();
        let mut ledger = RoundLedger::new(48);
        let out = run(&g, &cfg, &mut rng, &mut ledger).unwrap();
        for u in 0..48 {
            for v in 0..48 {
                assert_eq!(out.estimates.get(u, v), out.estimates.get(v, u));
            }
        }
    }

    #[test]
    fn scaled_profile_also_meets_guarantee() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = generators::caveman(8, 8);
        let cfg = Apsp2Config::scaled(g.n(), 0.5).unwrap();
        let mut ledger = RoundLedger::new(g.n());
        let out = run(&g, &cfg, &mut rng, &mut ledger).unwrap();
        assert_short_range(&g, &out, "scaled");
    }
}
