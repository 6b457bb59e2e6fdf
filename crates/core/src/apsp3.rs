//! `(3+ε)`-approximate APSP — the warm-up pipeline described at the start of
//! §4.3.
//!
//! Sample a hitting set `A` of size `O(√n)` so every vertex with a full
//! `(k, t)`-nearest list (`k = √n log n`) has an `A`-member among its
//! nearest. For a pair `(u, v)` within distance `t`: either `v` is among the
//! `(k,t)`-nearest of `u` (exact), or the nearest `A`-pivot `p_A(u)`
//! satisfies `d(u, p_A(u)) ≤ d(u,v)`, so routing through it costs at most
//! `3·d(u,v)`. Distances to `A` are `(1+ε/2)`-approximated via a bounded
//! hopset, giving `3+ε` overall. Long pairs come from the emulator.
//!
//! The full `(2+ε)` algorithm ([`crate::apsp2`]) refines exactly this
//! pipeline; keeping the `(3+ε)` variant makes the refinement measurable
//! (experiment T2 reports both).

use cc_clique::RoundLedger;
use cc_emulator::clique::CliqueEmulatorConfig;
use cc_emulator::EmulatorParams;
use cc_graphs::{Dist, Graph, INF};
use cc_toolkit::knearest::{KNearest, Strategy};
use cc_toolkit::source_detection::SourceDetection;
use rand::Rng;

use crate::error::CcError;
use crate::estimates::DistanceMatrix;
use crate::oracle::{DistOracle, Guarantee};
use crate::pipeline::{self, Mode, Substrates};
use cc_graphs::StorageKind;

/// Configuration of the `(3+ε)` pipeline.
#[derive(Clone, Debug)]
pub struct Apsp3Config {
    /// Accuracy `ε`.
    pub eps: f64,
    /// Emulator configuration (long range).
    pub emulator: CliqueEmulatorConfig,
    /// Nearest-list width `k` (paper: `√n log n`).
    pub k: usize,
    /// Override of the short/long threshold `t`.
    pub t_override: Option<Dist>,
}

impl Apsp3Config {
    /// Paper profile.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn new(n: usize, eps: f64, r: usize) -> Result<Self, cc_emulator::params::ParamError> {
        let k = (((n as f64).sqrt() * (n.max(2) as f64).ln()).ceil() as usize).clamp(2, n);
        Ok(Apsp3Config {
            eps,
            emulator: CliqueEmulatorConfig::paper(EmulatorParams::new(n, eps, r)?),
            k,
            t_override: None,
        })
    }

    /// Benchmark-scale profile.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn scaled(n: usize, eps: f64) -> Result<Self, cc_emulator::params::ParamError> {
        let k = ((n as f64).sqrt().ceil() as usize).clamp(2, n);
        Ok(Apsp3Config {
            eps,
            emulator: CliqueEmulatorConfig::scaled(EmulatorParams::loglog(n, eps)?),
            k,
            t_override: None,
        })
    }

    /// The short/long threshold `t`.
    pub fn threshold(&self) -> Dist {
        self.t_override
            .unwrap_or_else(|| pipeline::default_threshold(&self.emulator, self.eps))
    }
}

/// Result of the `(3+ε)` pipeline.
#[derive(Clone, Debug)]
pub struct Apsp3 {
    /// The estimates.
    pub estimates: DistanceMatrix,
    /// The threshold `t` used.
    pub t: Dist,
    /// The pivot set `A`.
    pub pivots: Vec<usize>,
    /// The proven short-range guarantee `3+ε`.
    pub short_range_guarantee: f64,
    /// Per-pair path witnesses, recorded when the configuration set
    /// `record_paths`. `Arc`-shared so memoized results clone cheaply.
    pub paths: Option<std::sync::Arc<cc_routes::PathStore>>,
}

impl Apsp3 {
    /// The provenance every estimate of this result is served under.
    pub fn guarantee(&self) -> Guarantee {
        Guarantee::mult3(self.short_range_guarantee - 3.0)
    }

    /// Freezes the estimates into an immutable, `Arc`-shareable
    /// [`DistOracle`] (symmetric-packed layout).
    pub fn into_oracle(self) -> DistOracle {
        let guarantee = self.guarantee();
        DistOracle::from_matrix(&self.estimates, guarantee, StorageKind::SymmetricPacked)
    }
}

/// Randomized `(3+ε)`-APSP.
///
/// # Errors
///
/// Returns [`CcError`] if a pipeline-internal hitting-set instance fails
/// validation.
pub fn run(
    g: &Graph,
    cfg: &Apsp3Config,
    rng: &mut impl Rng,
    ledger: &mut RoundLedger,
) -> Result<Apsp3, CcError> {
    run_mode(g, cfg, Mode::Rng(rng), ledger, &mut Substrates::new())
}

/// Deterministic `(3+ε)`-APSP.
///
/// # Errors
///
/// Returns [`CcError`] if a pipeline-internal hitting-set instance fails
/// validation.
pub fn run_deterministic(
    g: &Graph,
    cfg: &Apsp3Config,
    ledger: &mut RoundLedger,
) -> Result<Apsp3, CcError> {
    run_mode(g, cfg, Mode::Det, ledger, &mut Substrates::new())
}

pub(crate) fn run_mode(
    g: &Graph,
    cfg: &Apsp3Config,
    mut mode: Mode<'_>,
    ledger: &mut RoundLedger,
    substrates: &mut Substrates,
) -> Result<Apsp3, CcError> {
    let mut phase = ledger.enter("apsp3");
    let n = g.n();
    let t = cfg.threshold();
    let mut delta = DistanceMatrix::new(n);
    // Witness shadowing: every `delta` improvement below is mirrored by an
    // offer with the same strict-improvement rule, so the estimates (and the
    // rounds — witnesses ride the same messages) are identical with
    // recording on or off.
    let mut paths = cfg
        .emulator
        .record_paths
        .then(|| cc_routes::PathStore::new(n));

    // Long range + adjacency.
    let _ = pipeline::collect_emulator(
        g,
        &cfg.emulator,
        &mut mode,
        &mut delta,
        substrates,
        paths.as_mut(),
        &mut phase,
    );

    // (k, t)-nearest: exact short distances to the k nearest.
    let mut kn = KNearest::compute_with(
        g,
        cfg.k,
        t,
        Strategy::TruncatedBfs,
        cfg.emulator.threads,
        &mut phase,
    );
    if paths.is_some() {
        kn = kn.with_parents(g);
    }
    for u in 0..n {
        let recs = paths
            .as_mut()
            .map(|p| kn.route_recs(u, p.routes_mut().arena_mut()))
            .unwrap_or_default();
        for (idx, &(v, d)) in kn.list(u).iter().enumerate() {
            if v as usize != u {
                delta.improve(u, v as usize, d);
                if let Some(p) = paths.as_mut() {
                    p.offer_rec(u, v as usize, d, recs[idx].expect("non-root entry"));
                }
            }
        }
    }

    // Pivot set A hitting every full (k,t)-list.
    let full_sets: Vec<Vec<usize>> = (0..n)
        .filter(|&v| kn.list(v).len() >= cfg.k)
        .map(|v| kn.list(v).iter().map(|&(u, _)| u as usize).collect())
        .collect();
    let pivots =
        substrates.hitting_set_for("apsp3/pivots", n, cfg.k, &full_sets, &mut mode, &mut phase)?;

    if !pivots.is_empty() {
        // (1+ε/2)-approximate distances to A within 2t.
        let hs = substrates.hopset_for(
            "input",
            g,
            2 * t,
            cfg.eps / 2.0,
            cfg.emulator.scaled_hopset,
            cfg.emulator.threads,
            cfg.emulator.record_paths,
            &mut mode,
            &mut phase,
        );
        let union = hs.union_with(g);
        let sd = SourceDetection::run_with(
            &union,
            &pivots,
            hs.beta,
            cfg.emulator.threads,
            paths.is_some(),
            &mut phase,
        );
        if let Some(p) = paths.as_mut() {
            p.absorb_routes(hs.routes.as_ref().expect("hopset built with paths"));
        }
        let mut chain = Vec::new();
        for v in 0..n {
            for (i, &a) in pivots.iter().enumerate() {
                let d = sd.dist_to_source_index(v, i);
                if d < INF {
                    delta.improve(v, a, d);
                    if let Some(p) = paths.as_mut() {
                        assert!(sd.chain_into(i, v, &mut chain), "detected pair has a chain");
                        p.offer_walk(g, d, &chain);
                    }
                }
            }
        }
        // Route every pair through the nearer endpoint's pivot. Each vertex
        // broadcasts its pivot and the distance to it: 1 round.
        phase.charge_broadcast("announce nearest pivots");
        let mut pivot_mask = vec![false; n];
        for &a in &pivots {
            pivot_mask[a] = true;
        }
        for u in 0..n {
            if let Some((a, _)) = kn.nearest_in(u, &pivot_mask) {
                let a = a as usize;
                let via = delta.get(u, a);
                if via >= INF {
                    continue;
                }
                for v in 0..n {
                    if v != u {
                        let leg = delta.get(a, v);
                        if leg < INF {
                            delta.improve_via(u, v, via, leg);
                            if let Some(p) = paths.as_mut() {
                                p.offer_via(u, v, cc_graphs::dadd(via, leg), a);
                            }
                        }
                    }
                }
            }
        }
    }

    Ok(Apsp3 {
        estimates: delta,
        t,
        pivots,
        short_range_guarantee: 3.0 + cfg.eps,
        paths: paths.map(std::sync::Arc::new),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators, stretch};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn assert_short_range(g: &Graph, out: &Apsp3) {
        let exact = bfs::apsp_exact(g);
        let report = stretch::evaluate_range(&exact, out.estimates.as_fn(), 0.0, 1, out.t);
        assert_eq!(report.lower_violations, 0);
        assert_eq!(report.missed, 0);
        assert!(
            report.max_multiplicative <= out.short_range_guarantee + 1e-9,
            "stretch {} exceeds {}",
            report.max_multiplicative,
            out.short_range_guarantee
        );
    }

    #[test]
    fn three_plus_eps_on_families() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for (name, g) in [
            ("grid", generators::grid(8, 8)),
            ("caveman", generators::caveman(8, 8)),
            ("gnp", generators::connected_gnp(72, 0.06, &mut rng)),
        ] {
            let cfg = Apsp3Config::new(g.n(), 0.5, 2).unwrap();
            let mut ledger = RoundLedger::new(g.n());
            let out = run(&g, &cfg, &mut rng, &mut ledger).unwrap();
            let _ = name;
            assert_short_range(&g, &out);
        }
    }

    #[test]
    fn deterministic_three_plus_eps() {
        let g = generators::caveman(7, 7);
        let cfg = Apsp3Config::new(g.n(), 0.5, 2).unwrap();
        let mut ledger = RoundLedger::new(g.n());
        let out = run_deterministic(&g, &cfg, &mut ledger).unwrap();
        assert_short_range(&g, &out);
    }

    #[test]
    fn small_graph_with_tiny_k_still_covered() {
        // k ≥ n: every list covers the whole ball, so estimates are exact
        // within t and no pivots are needed.
        let g = generators::cycle(12);
        let mut cfg = Apsp3Config::new(12, 0.5, 2).unwrap();
        cfg.k = 12;
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut ledger = RoundLedger::new(12);
        let out = run(&g, &cfg, &mut rng, &mut ledger).unwrap();
        let exact = bfs::apsp_exact(&g);
        for u in 0..12 {
            for v in 0..12 {
                if exact[u][v] <= out.t {
                    assert_eq!(out.estimates.get(u, v), exact[u][v]);
                }
            }
        }
    }
}
