//! `(1+ε)`-approximate multi-source shortest paths from `O(√n)` sources
//! (Thm 33, deterministic: Thm 52).
//!
//! For far pairs the `(1+ε/2, β)`-emulator is already a
//! `(1+ε)`-approximation; for pairs within `t = 2β/ε` a bounded
//! `(h, ε, t)`-hopset plus one `(S, h)`-source detection recovers
//! `(1+ε)`-approximate distances. Taking the minimum of the two estimates
//! covers every pair. Total: `O(log²β/ε)` rounds.

use cc_clique::RoundLedger;
use cc_emulator::clique::CliqueEmulatorConfig;
use cc_emulator::EmulatorParams;
use cc_graphs::{Dist, DistStorage, Graph, INF};
use cc_toolkit::source_detection::SourceDetection;
use rand::Rng;

use crate::error::CcError;
use crate::oracle::{DistOracle, Guarantee};
use crate::pipeline::{self, Mode, Substrates};

/// Configuration of the MSSP algorithm.
#[derive(Clone, Debug)]
pub struct MsspConfig {
    /// Short-range accuracy `ε` (the hopset/source-detection stretch).
    pub eps: f64,
    /// The emulator configuration for the long range.
    pub emulator: CliqueEmulatorConfig,
    /// Override of the short/long threshold `t` (default `⌈2β̂/ε⌉`).
    pub t_override: Option<Dist>,
    /// Maximum sources as a multiple of `√n` (paper: `O(√n)`; default 4).
    pub max_sources_factor: f64,
}

impl MsspConfig {
    /// Paper profile with explicit level count `r`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn new(n: usize, eps: f64, r: usize) -> Result<Self, cc_emulator::params::ParamError> {
        Ok(MsspConfig {
            eps,
            emulator: CliqueEmulatorConfig::paper(EmulatorParams::new(n, eps, r)?),
            t_override: None,
            max_sources_factor: 4.0,
        })
    }

    /// Benchmark-scale profile (`r = ⌊log₂log₂ n⌋`, tempered hopset
    /// constants).
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors.
    pub fn scaled(n: usize, eps: f64) -> Result<Self, cc_emulator::params::ParamError> {
        Ok(MsspConfig {
            eps,
            emulator: CliqueEmulatorConfig::scaled(EmulatorParams::loglog(n, eps)?),
            t_override: None,
            max_sources_factor: 4.0,
        })
    }

    /// The short/long threshold `t`.
    pub fn threshold(&self) -> Dist {
        self.t_override
            .unwrap_or_else(|| pipeline::default_threshold(&self.emulator, self.eps))
    }

    /// Maximum admissible number of sources.
    pub fn max_sources(&self, n: usize) -> usize {
        ((self.max_sources_factor * (n as f64).sqrt()).ceil() as usize).max(1)
    }

    /// The proven multiplicative guarantee: `1+ε` for short pairs, and the
    /// emulator's long-range stretch `M + ε/2` beyond `t` (with the default
    /// threshold). Measured stretch is reported by experiment T1.
    pub fn guarantee(&self) -> f64 {
        let m = self
            .emulator
            .params
            .clique_multiplicative_bound(self.emulator.eps_prime);
        (1.0 + self.eps).max(m + self.eps / 2.0)
    }
}

/// Errors of the MSSP entry points.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MsspError {
    /// More sources than the `O(√n)` regime admits (the sparse matrix
    /// multiplication bottleneck — §1.1 of the paper).
    TooManySources {
        /// Sources given.
        given: usize,
        /// Maximum admissible.
        max: usize,
    },
    /// A source vertex is out of range.
    SourceOutOfRange {
        /// The offending vertex.
        source: usize,
        /// Graph order.
        n: usize,
    },
    /// No sources given.
    NoSources,
}

impl std::fmt::Display for MsspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsspError::TooManySources { given, max } => write!(
                f,
                "{given} sources exceed the O(√n) limit of {max} (sparse matrix multiplication bound)"
            ),
            MsspError::SourceOutOfRange { source, n } => {
                write!(f, "source {source} out of range for n = {n}")
            }
            MsspError::NoSources => write!(f, "at least one source required"),
        }
    }
}

impl std::error::Error for MsspError {}

/// Result of an MSSP computation.
#[derive(Clone, Debug)]
pub struct Mssp {
    /// The sources, in input order.
    pub sources: Vec<usize>,
    /// `estimates[i][v]` = estimate of `d(sources[i], v)`.
    pub estimates: Vec<Vec<Dist>>,
    /// The threshold `t` used.
    pub t: Dist,
    /// The proven multiplicative guarantee.
    pub guarantee: f64,
    /// Per-row path witnesses, recorded when the configuration set
    /// `record_paths`. `Arc`-shared so memoized results clone cheaply.
    pub paths: Option<std::sync::Arc<cc_routes::RowStore>>,
}

impl Mssp {
    /// Estimate for `(sources[i], v)`.
    pub fn dist(&self, i: usize, v: usize) -> Dist {
        self.estimates[i][v]
    }

    /// The provenance every estimate of this result is served under.
    pub fn guarantee_tag(&self) -> Guarantee {
        Guarantee::mssp(self.guarantee - 1.0)
    }

    /// Freezes the source rows into an immutable, `Arc`-shareable
    /// [`DistOracle`] in the row-sparse layout (`|S| × n` entries — the
    /// natural shape of an MSSP result). Point queries answer both
    /// orientations of a source pair; rows of non-sources are served from
    /// the source columns.
    pub fn into_oracle(self) -> DistOracle {
        let guarantee = self.guarantee_tag();
        let n = self.estimates.first().map_or(0, Vec::len);
        let sources: Vec<u32> = self.sources.iter().map(|&s| s as u32).collect();
        let mut data = Vec::with_capacity(sources.len() * n);
        for row in &self.estimates {
            data.extend_from_slice(row);
        }
        DistOracle::from_storage(DistStorage::row_sparse(n, sources, data), guarantee)
    }
}

/// Randomized `(1+ε)`-MSSP (Thm 33).
///
/// # Errors
///
/// Returns [`CcError::Mssp`] if sources are invalid or exceed the `O(√n)`
/// limit.
pub fn run(
    g: &Graph,
    sources: &[usize],
    cfg: &MsspConfig,
    rng: &mut impl Rng,
    ledger: &mut RoundLedger,
) -> Result<Mssp, CcError> {
    run_mode(
        g,
        sources,
        cfg,
        Mode::Rng(rng),
        ledger,
        &mut Substrates::new(),
    )
}

/// Deterministic `(1+ε)`-MSSP (Thm 52).
///
/// # Errors
///
/// Returns [`CcError::Mssp`] if sources are invalid or exceed the `O(√n)`
/// limit.
pub fn run_deterministic(
    g: &Graph,
    sources: &[usize],
    cfg: &MsspConfig,
    ledger: &mut RoundLedger,
) -> Result<Mssp, CcError> {
    run_mode(g, sources, cfg, Mode::Det, ledger, &mut Substrates::new())
}

pub(crate) fn run_mode(
    g: &Graph,
    sources: &[usize],
    cfg: &MsspConfig,
    mut mode: Mode<'_>,
    ledger: &mut RoundLedger,
    substrates: &mut Substrates,
) -> Result<Mssp, CcError> {
    if sources.is_empty() {
        return Err(MsspError::NoSources.into());
    }
    let max = cfg.max_sources(g.n());
    if sources.len() > max {
        return Err(MsspError::TooManySources {
            given: sources.len(),
            max,
        }
        .into());
    }
    if let Some(&s) = sources.iter().find(|&&s| s >= g.n()) {
        return Err(MsspError::SourceOutOfRange {
            source: s,
            n: g.n(),
        }
        .into());
    }
    let mut phase = ledger.enter("mssp");
    let t = cfg.threshold();
    // Witness shadowing: every estimate update below is mirrored by an offer
    // with the same improvement rule, so estimates and rounds are identical
    // with recording on or off.
    let mut paths = cfg
        .emulator
        .record_paths
        .then(|| cc_routes::RowStore::new(g.n(), sources));

    // Long range: the emulator, learned by everyone (cached across queries
    // by the session's substrate store); each vertex runs local Dijkstra
    // from the sources.
    let mut estimates: Vec<Vec<Dist>> = {
        let emu = substrates.emulator_for(g, &cfg.emulator, &mut mode, &mut phase);
        match paths.as_mut() {
            None => sources.iter().map(|&s| emu.sssp(s)).collect(),
            // The recording pass's Dijkstra trees carry the same distances
            // `emu.sssp` computes — start the estimates from them instead of
            // running a second per-source sweep.
            Some(store) => pipeline::record_emulator_rows(g, emu, sources, store),
        }
    };

    // Short range: bounded hopset + source detection with h = β hops.
    let hs = substrates.hopset_for(
        "input",
        g,
        t,
        cfg.eps,
        cfg.emulator.scaled_hopset,
        cfg.emulator.threads,
        cfg.emulator.record_paths,
        &mut mode,
        &mut phase,
    );
    let union = hs.union_with(g);
    let sd = SourceDetection::run_with(
        &union,
        sources,
        hs.beta,
        cfg.emulator.threads,
        paths.is_some(),
        &mut phase,
    );
    if let Some(store) = paths.as_mut() {
        store.absorb_routes(hs.routes.as_ref().expect("hopset built with paths"));
    }
    let mut chain = Vec::new();
    for (i, row) in estimates.iter_mut().enumerate() {
        for (v, est) in row.iter_mut().enumerate() {
            let short = sd.dist_to_source_index(v, i);
            if short < *est {
                *est = short;
            }
            if short < INF {
                if let Some(store) = paths.as_mut() {
                    assert!(sd.chain_into(i, v, &mut chain), "detected pair has a chain");
                    store.offer_walk(g, i, short, &chain);
                }
            }
            if v == sources[i] {
                *est = 0;
            }
        }
    }
    // Adjacency is known locally.
    for (i, &s) in sources.iter().enumerate() {
        for &u in g.neighbors(s) {
            let e = &mut estimates[i][u as usize];
            *e = (*e).min(1);
            if let Some(store) = paths.as_mut() {
                store.offer_edge(i, u as usize);
            }
        }
    }
    Ok(Mssp {
        sources: sources.to_vec(),
        estimates,
        t,
        guarantee: cfg.guarantee(),
        paths: paths.map(std::sync::Arc::new),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Short-range pairs (d ≤ t) must get a genuine (1+ε) guarantee.
    #[test]
    fn short_range_is_one_plus_eps() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for (name, g) in [
            ("grid", generators::grid(8, 8)),
            ("caveman", generators::caveman(8, 8)),
            ("gnp", generators::connected_gnp(80, 0.05, &mut rng)),
        ] {
            let cfg = MsspConfig::new(g.n(), 0.5, 2).unwrap();
            let sources: Vec<usize> = (0..g.n()).step_by(9).collect();
            let mut ledger = RoundLedger::new(g.n());
            let out = run(&g, &sources, &cfg, &mut rng, &mut ledger).unwrap();
            for (i, &s) in sources.iter().enumerate() {
                let exact = bfs::sssp(&g, s);
                for v in 0..g.n() {
                    if exact[v] == 0 || exact[v] > out.t {
                        continue;
                    }
                    let est = out.dist(i, v);
                    assert!(est >= exact[v], "{name}: undercut at ({s},{v})");
                    assert!(
                        (est as f64) <= (1.0 + cfg.eps) * exact[v] as f64 + 1e-9,
                        "{name}: est {est} vs d {} at ({s},{v})",
                        exact[v]
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_variant_matches_guarantee() {
        let g = generators::caveman(6, 6);
        let cfg = MsspConfig::new(g.n(), 0.5, 2).unwrap();
        let sources = [0usize, 10, 20, 30];
        let mut ledger = RoundLedger::new(g.n());
        let out = run_deterministic(&g, &sources, &cfg, &mut ledger).unwrap();
        for (i, &s) in sources.iter().enumerate() {
            let exact = bfs::sssp(&g, s);
            for v in 0..g.n() {
                if exact[v] == 0 || exact[v] > out.t {
                    continue;
                }
                let est = out.dist(i, v);
                assert!(est >= exact[v]);
                assert!((est as f64) <= (1.0 + cfg.eps) * exact[v] as f64 + 1e-9);
            }
        }
    }

    #[test]
    fn source_count_validation() {
        let g = generators::cycle(16);
        let cfg = MsspConfig::new(16, 0.5, 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ledger = RoundLedger::new(16);
        let too_many: Vec<usize> = (0..16).fold(Vec::new(), |mut acc, v| {
            acc.push(v);
            acc.push(v);
            acc
        });
        let err = run(&g, &too_many, &cfg, &mut rng, &mut ledger).unwrap_err();
        assert!(matches!(
            err,
            CcError::Mssp(MsspError::TooManySources { .. })
        ));
        let err = run(&g, &[], &cfg, &mut rng, &mut ledger).unwrap_err();
        assert_eq!(err, CcError::Mssp(MsspError::NoSources));
        let err = run(&g, &[99], &cfg, &mut rng, &mut ledger).unwrap_err();
        assert!(matches!(
            err,
            CcError::Mssp(MsspError::SourceOutOfRange { .. })
        ));
    }

    #[test]
    fn sources_have_zero_self_distance() {
        let g = generators::grid(6, 6);
        let cfg = MsspConfig::new(g.n(), 0.5, 2).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut ledger = RoundLedger::new(g.n());
        let sources = [3usize, 17];
        let out = run(&g, &sources, &cfg, &mut rng, &mut ledger).unwrap();
        assert_eq!(out.dist(0, 3), 0);
        assert_eq!(out.dist(1, 17), 0);
    }

    #[test]
    fn long_range_estimates_exist_and_upper_bound() {
        // A long cycle with a small override threshold exercises the
        // emulator path for pairs beyond t.
        let g = generators::cycle(100);
        let mut cfg = MsspConfig::new(100, 0.5, 2).unwrap();
        cfg.t_override = Some(8);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut ledger = RoundLedger::new(100);
        let out = run(&g, &[0], &cfg, &mut rng, &mut ledger).unwrap();
        let exact = bfs::sssp(&g, 0);
        for v in 0..100 {
            assert!(out.dist(0, v) >= exact[v]);
            assert!(out.dist(0, v) < INF, "missing estimate at {v}");
        }
    }
}
