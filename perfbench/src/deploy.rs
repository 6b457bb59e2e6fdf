//! The build half of the deployment path: graph → `Solver` → pipelines →
//! freeze → v2 snapshot on disk, timed from outside through public calls.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use cc_core::apsp2::Apsp2;
use cc_core::{DistOracle, Execution, PathOracle, PointEstimate, Route, Solver, SolverBuilder};
use cc_graphs::{generators, Graph};
use cc_serve::protocol::PathItem;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::spans::Spans;
use crate::Workload;

/// Accuracy every workload solves at.
pub const EPS: f64 = 0.25;

/// The input graph of a workload, generated from the run's seed.
pub fn graph(w: &Workload, seed: u64) -> Graph {
    if w.hubs {
        // Max degree ≈ 250 > √n·ln n ≈ 222: the high-degree branch runs.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generators::preferential_attachment(1024, 24, &mut rng)
    } else {
        generators::grid(32, 32)
    }
}

pub fn execution(w: &Workload, seed: u64) -> Execution {
    if w.deterministic {
        Execution::Deterministic
    } else {
        Execution::Seeded(seed)
    }
}

/// The frozen artefact one build produces.
pub enum Frozen {
    Dist(DistOracle),
    Paths(PathOracle),
}

impl Frozen {
    pub fn dist(&self, u: usize, v: usize) -> Option<PointEstimate> {
        match self {
            Frozen::Dist(o) => o.dist(u, v),
            Frozen::Paths(o) => o.dist(u, v),
        }
    }

    pub fn dist_batch(&self, pairs: &[(usize, usize)]) -> Vec<Option<PointEstimate>> {
        match self {
            Frozen::Dist(o) => o.dist_batch(pairs),
            Frozen::Paths(o) => o.dist_oracle().dist_batch(pairs),
        }
    }

    /// Routes as `ccd` puts them on the wire; a snapshot without routes
    /// answers every pair absent.
    pub fn path_items(&self, pairs: &[(usize, usize)]) -> Vec<Option<PathItem>> {
        match self {
            Frozen::Dist(_) => vec![None; pairs.len()],
            Frozen::Paths(o) => o
                .path_batch(pairs)
                .into_iter()
                .map(|r| r.map(|r| (r.weight, r.guarantee, r.edges)))
                .collect(),
        }
    }

    pub fn path(&self, u: usize, v: usize) -> Option<Route> {
        match self {
            Frozen::Dist(_) => None,
            Frozen::Paths(o) => o.path(u, v),
        }
    }

    fn save_v2_to_path(&self, path: &Path) -> std::io::Result<()> {
        match self {
            Frozen::Dist(o) => o.save_v2_to_path(path),
            Frozen::Paths(o) => o.save_v2_to_path(path),
        }
    }
}

/// Everything one build leaves behind, kept from the last repetition for
/// the checks, the layer replay and the in-process serving reference.
pub struct Built {
    pub graph: Graph,
    pub solver: Solver,
    pub apsp2: Apsp2,
    pub frozen: Frozen,
}

/// Timings of one build repetition.
pub struct Rep {
    /// Graph generation plus `SolverBuilder::build`.
    pub setup_s: f64,
    /// From the built `Solver` to the v2 file on disk.
    pub build_s: f64,
    /// Stage profile after `apsp_2eps` (profiled repetitions only).
    pub stages: BTreeMap<&'static str, cc_obs::StageStat>,
}

/// One full build: `apsp_2eps` → `apsp_near_additive` → freeze → `save_v2`.
/// `profiled` turns on the solver's stage profiling and the spans around
/// each call; the end-to-end `build_s` is timed either way.
pub fn build_once(
    w: &Workload,
    seed: u64,
    threads: usize,
    profiled: bool,
    snapshot: &Path,
    spans: &mut Spans,
) -> std::io::Result<(Rep, Built)> {
    let t0 = Instant::now();
    let g = graph(w, seed);
    let mut solver = SolverBuilder::new(g.clone())
        .eps(EPS)
        .execution(execution(w, seed))
        .threads(threads)
        .record_paths(w.record_paths)
        .profile_stages(profiled)
        .build()
        .map_err(std::io::Error::other)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let apsp2 = spans
        .time("core.apsp2", || solver.apsp_2eps())
        .map_err(std::io::Error::other)?;
    let stages = solver.stage_times().into_iter().collect();
    spans
        .time("core.additive", || solver.apsp_near_additive())
        .map_err(std::io::Error::other)?;
    let frozen = spans
        .time("core.freeze", || {
            if w.record_paths {
                solver.freeze_with_paths().map(Frozen::Paths)
            } else {
                solver.freeze().map(Frozen::Dist)
            }
        })
        .map_err(std::io::Error::other)?;
    spans.time("core.save_v2", || frozen.save_v2_to_path(snapshot))?;
    let build_s = t1.elapsed().as_secs_f64();

    Ok((
        Rep {
            setup_s,
            build_s,
            stages,
        },
        Built {
            graph: g,
            solver,
            apsp2,
            frozen,
        },
    ))
}
