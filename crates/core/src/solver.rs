//! The session-style entry point over the paper's algorithm portfolio.
//!
//! The paper's three applications (Thms 3–5) all stand on the same expensive
//! substrates — the near-additive emulator and bounded hopsets. A
//! [`Solver`], configured once through [`SolverBuilder`], owns the graph,
//! the round ledger and a substrate cache, so a multi-query workload
//! (`apsp_2eps()` then `mssp(..)`, repeated point queries, mixed accuracy
//! profiles) pays for each substrate **once**:
//!
//! ```
//! use cc_core::{Execution, SolverBuilder};
//! use cc_graphs::generators;
//!
//! let g = generators::caveman(6, 6);
//! let mut solver = SolverBuilder::new(g)
//!     .eps(0.5)
//!     .execution(Execution::Seeded(7))
//!     .build()?;
//! let apsp = solver.apsp_2eps()?;
//! assert!(apsp.estimates.get(0, 20) >= 1);
//! // The MSSP query reuses the emulator the APSP query built.
//! let landmarks = solver.mssp(&[0, 9, 18])?;
//! assert_eq!(landmarks.dist(0, 0), 0);
//! // Cheap tagged point lookups over everything computed so far.
//! let answer = solver.estimate(0, 20).expect("estimate cached");
//! println!("d(0,20) ≤ {} under {}", answer.dist, answer.guarantee);
//! // Freeze the read side for lock-free concurrent serving.
//! let oracle = std::sync::Arc::new(solver.freeze()?);
//! assert_eq!(oracle.dist(0, 20).map(|e| e.dist), Some(answer.dist));
//! println!("{}", solver.ledger().report());
//! # Ok::<(), cc_core::CcError>(())
//! ```

use cc_clique::RoundLedger;
use cc_graphs::{Dist, DistStorage, Graph, INF};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::apsp2::{self, Apsp2, Apsp2Config};
use crate::apsp3::{self, Apsp3, Apsp3Config};
use crate::apsp_additive::{self, AdditiveApsp, AdditiveApspConfig};
use crate::error::CcError;
use crate::mssp::{self, Mssp, MsspConfig};
use crate::oracle::{DistOracle, Guarantee, PointEstimate};
use crate::path_oracle::{PathOracle, PathProvider};
use crate::pipeline::{Mode, Substrates};

/// Randomized (seeded) or deterministic execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Execution {
    /// Randomized with the given seed (Thms 3–5). Every query draws a fresh
    /// generator from the seed, so the **first** query of a session matches
    /// the corresponding free-function call with the same seed bit-for-bit.
    /// Later queries reuse cached substrates and therefore consume the
    /// random stream from a different position than a cold run would — still
    /// deterministic per (seed, query history), and every approximation
    /// guarantee holds, but not stream-identical to a fresh call.
    Seeded(u64),
    /// Deterministic (Thms 51–53): bit-for-bit reproducible.
    Deterministic,
}

/// Which parameter schedule the solver instantiates its pipelines with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamProfile {
    /// The paper's constants with an explicit emulator level count `r`.
    Paper {
        /// Number of emulator levels.
        levels: usize,
    },
    /// Benchmark-scale profile: `r = max(2, ⌊log₂log₂ n⌋)` and tempered
    /// hopset constants (same exponents as the paper).
    Scaled,
}

/// Builder for a [`Solver`]: graph in, validated session out.
///
/// Validation (accuracy range, graph order, level schedule) happens in
/// [`SolverBuilder::build`], which returns [`CcError`] — queries on a built
/// solver can then only fail for query-specific reasons (e.g. an invalid
/// MSSP source set).
#[derive(Clone, Debug)]
pub struct SolverBuilder {
    graph: Graph,
    eps: f64,
    execution: Execution,
    profile: ParamProfile,
    threads: usize,
    record_paths: bool,
    profile_stages: bool,
}

impl SolverBuilder {
    /// Starts a builder over `graph` with the defaults `eps = 0.5`,
    /// [`Execution::Seeded(0)`](Execution::Seeded), [`ParamProfile::Scaled`],
    /// serial execution (`threads = 1`), no path recording and no stage
    /// profiling.
    pub fn new(graph: Graph) -> Self {
        SolverBuilder {
            graph,
            eps: 0.5,
            execution: Execution::Seeded(0),
            profile: ParamProfile::Scaled,
            threads: 1,
            record_paths: false,
            profile_stages: false,
        }
    }

    /// Makes every query record path witnesses alongside its estimates, so
    /// [`Solver::freeze_with_paths`] can serve routes, not just distances.
    ///
    /// Purely local bookkeeping: estimates and charged rounds are
    /// **bit-identical** with recording on or off (in the model, witnesses
    /// ride the same messages as the distances they annotate — pinned by
    /// tests against `cost::model`). The cost is wall-clock and memory for
    /// the witness arenas.
    #[must_use]
    pub fn record_paths(mut self, record_paths: bool) -> Self {
        self.record_paths = record_paths;
        self
    }

    /// Sets the worker-thread count the pipelines' local computation runs
    /// with (`0` and `1` both mean serial): the min-plus kernels, `(k,d)`-
    /// nearest lists and hopset construction shard across scoped threads.
    ///
    /// Purely wall-clock — results and charged rounds are **bit-identical**
    /// at any thread count (every sharded unit depends only on the inputs;
    /// same argument as the engine's sharded node execution, DESIGN.md §1.2).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Turns on wall-clock profiling of the pipeline stages (emulator and
    /// hopset construction, hitting sets, the `E''` min-plus products, the
    /// freeze merge), readable afterwards via [`Solver::stage_times`] /
    /// [`Solver::profile_exposition`].
    ///
    /// Purely observational: timing is recorded after each stage completes
    /// and never feeds back, so estimates **and** charged rounds are
    /// bit-identical with profiling on or off (pinned by tests, same
    /// contract as [`SolverBuilder::record_paths`]). When off (the
    /// default), the timers never read the clock.
    #[must_use]
    pub fn profile_stages(mut self, profile_stages: bool) -> Self {
        self.profile_stages = profile_stages;
        self
    }

    /// Sets the accuracy `ε ∈ (0, 1)` shared by all queries.
    #[must_use]
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sets seeded-randomized or deterministic execution.
    #[must_use]
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Sets the parameter schedule (paper constants or benchmark scale).
    #[must_use]
    pub fn profile(mut self, profile: ParamProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Validates the configuration and builds the session.
    ///
    /// # Errors
    ///
    /// Returns [`CcError::Params`] for `ε ∉ (0,1)`, graphs with fewer than
    /// two vertices, a zero level count, or a radius schedule that overflows
    /// the distance type.
    pub fn build(self) -> Result<Solver, CcError> {
        let n = self.graph.n();
        let (mut apsp2_cfg, mut apsp3_cfg, mut additive_cfg, mut mssp_cfg) = match self.profile {
            ParamProfile::Paper { levels } => (
                Apsp2Config::new(n, self.eps, levels)?,
                Apsp3Config::new(n, self.eps, levels)?,
                AdditiveApspConfig::new(n, self.eps, levels)?,
                MsspConfig::new(n, self.eps, levels)?,
            ),
            ParamProfile::Scaled => (
                Apsp2Config::scaled(n, self.eps)?,
                Apsp3Config::scaled(n, self.eps)?,
                AdditiveApspConfig::scaled(n, self.eps)?,
                MsspConfig::scaled(n, self.eps)?,
            ),
        };
        apsp2_cfg.emulator.threads = self.threads;
        apsp3_cfg.emulator.threads = self.threads;
        additive_cfg.emulator.threads = self.threads;
        mssp_cfg.emulator.threads = self.threads;
        apsp2_cfg.emulator.record_paths = self.record_paths;
        apsp3_cfg.emulator.record_paths = self.record_paths;
        additive_cfg.emulator.record_paths = self.record_paths;
        mssp_cfg.emulator.record_paths = self.record_paths;
        let ledger = RoundLedger::new(n);
        let substrates = Substrates::new();
        substrates
            .stages
            .borrow_mut()
            .set_enabled(self.profile_stages);
        Ok(Solver {
            graph: self.graph,
            eps: self.eps,
            execution: self.execution,
            profile: self.profile,
            threads: self.threads,
            record_paths: self.record_paths,
            apsp2_cfg,
            apsp3_cfg,
            additive_cfg,
            mssp_cfg,
            ledger,
            substrates,
            apsp2_result: None,
            apsp3_result: None,
            additive_result: None,
            mssp_results: Vec::new(),
        })
    }
}

/// A prepared shortest-path session over one graph.
///
/// Created by [`SolverBuilder`]. All queries charge simulated rounds to the
/// solver-owned [`RoundLedger`] (accessible via [`Solver::ledger`]), and the
/// expensive substrates — emulator, bounded hopsets, hitting sets — are
/// built once and memoized (keyed by mode and threshold) across queries.
/// Query results themselves are memoized too, so repeating a query is free,
/// and [`Solver::estimate`] answers point lookups from everything computed
/// so far without charging any rounds.
#[derive(Debug)]
pub struct Solver {
    graph: Graph,
    eps: f64,
    execution: Execution,
    profile: ParamProfile,
    threads: usize,
    record_paths: bool,
    apsp2_cfg: Apsp2Config,
    apsp3_cfg: Apsp3Config,
    additive_cfg: AdditiveApspConfig,
    mssp_cfg: MsspConfig,
    ledger: RoundLedger,
    substrates: Substrates,
    apsp2_result: Option<Apsp2>,
    apsp3_result: Option<Apsp3>,
    additive_result: Option<AdditiveApsp>,
    mssp_results: Vec<(Vec<usize>, Mssp)>,
}

/// Output of the shared freeze merge (packed upper-triangle indexing).
struct MergedTables {
    data: Vec<Dist>,
    tags: Vec<u8>,
    guarantees: Vec<Guarantee>,
    /// Index of the winning result per pair (provider numbering of
    /// [`Solver::freeze_with_paths`]).
    origins: Vec<u8>,
}

/// Runs `body` with a fresh per-query mode derived from `execution`.
macro_rules! with_mode {
    ($execution:expr, |$mode:ident| $body:expr) => {{
        match $execution {
            Execution::Seeded(seed) => {
                let mut rng = StdRng::seed_from_u64(seed);
                let $mode = Mode::Rng(&mut rng);
                $body
            }
            Execution::Deterministic => {
                let $mode = Mode::Det;
                $body
            }
        }
    }};
}

impl Solver {
    /// Shorthand for [`SolverBuilder::new`].
    pub fn builder(graph: Graph) -> SolverBuilder {
        SolverBuilder::new(graph)
    }

    /// The graph this session answers queries about.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Graph order `n`.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// The accuracy `ε` shared by all queries.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The execution mode.
    pub fn execution(&self) -> Execution {
        self.execution
    }

    /// The parameter profile.
    pub fn profile(&self) -> ParamProfile {
        self.profile
    }

    /// The worker-thread count of the pipelines' local computation.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` when queries record path witnesses
    /// ([`SolverBuilder::record_paths`]).
    pub fn records_paths(&self) -> bool {
        self.record_paths
    }

    /// `true` when the session records wall-clock stage timings
    /// ([`SolverBuilder::profile_stages`]).
    pub fn profiles_stages(&self) -> bool {
        self.substrates.stages.borrow().enabled()
    }

    /// Snapshot of the accumulated per-stage wall-clock, name-sorted.
    /// Empty unless the session was built with
    /// [`SolverBuilder::profile_stages`]`(true)`.
    pub fn stage_times(&self) -> Vec<(&'static str, cc_obs::StageStat)> {
        self.substrates.stages.borrow().entries().collect()
    }

    /// Renders the stage timers plus the round ledger in the workspace's
    /// integer metrics-text style (`cc_solver_stage_ns{stage="…"}`,
    /// `cc_solver_rounds_total`, `cc_solver_phase_rounds{phase="…"}`, …).
    /// The ledger lines are present whether or not profiling is on; the
    /// stage lines require it.
    pub fn profile_exposition(&self) -> String {
        let mut out = self.substrates.stages.borrow().exposition("cc_solver");
        out.push_str(&self.ledger.exposition("cc_solver"));
        out
    }

    /// The session's round ledger: every query's simulated communication,
    /// attributed by phase. Substrate reuse shows up here as construction
    /// entries appearing once rather than once per query.
    pub fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }

    /// Total simulated rounds charged so far.
    pub fn total_rounds(&self) -> u64 {
        self.ledger.total_rounds()
    }

    /// `(2+ε)`-approximate APSP (Thm 4/34). Memoized: the first call runs
    /// the pipeline, later calls return the cached result without charging
    /// rounds (they still copy the `n × n` result; use [`Solver::estimate`]
    /// for repeated point lookups).
    ///
    /// # Errors
    ///
    /// Returns [`CcError`] if a pipeline-internal hitting-set instance
    /// fails validation.
    pub fn apsp_2eps(&mut self) -> Result<Apsp2, CcError> {
        if self.apsp2_result.is_none() {
            let started = self.substrates.stages.borrow().start();
            let out = with_mode!(self.execution, |mode| apsp2::run_mode(
                &self.graph,
                &self.apsp2_cfg,
                mode,
                &mut self.ledger,
                &mut self.substrates,
            ))?;
            self.substrates.stages.borrow_mut().stop("apsp2", started);
            self.apsp2_result = Some(out);
        }
        Ok(self.apsp2_result.clone().expect("memoized above"))
    }

    /// `(3+ε)`-approximate APSP (the §4.3 warm-up pipeline). Memoized.
    ///
    /// # Errors
    ///
    /// Returns [`CcError`] if a pipeline-internal hitting-set instance
    /// fails validation.
    pub fn apsp_3eps(&mut self) -> Result<Apsp3, CcError> {
        if self.apsp3_result.is_none() {
            let started = self.substrates.stages.borrow().start();
            let out = with_mode!(self.execution, |mode| apsp3::run_mode(
                &self.graph,
                &self.apsp3_cfg,
                mode,
                &mut self.ledger,
                &mut self.substrates,
            ))?;
            self.substrates.stages.borrow_mut().stop("apsp3", started);
            self.apsp3_result = Some(out);
        }
        Ok(self.apsp3_result.clone().expect("memoized above"))
    }

    /// `(1+ε, β)`-approximate APSP (Thm 5/32). Memoized.
    ///
    /// # Errors
    ///
    /// Currently infallible after [`SolverBuilder::build`]; returns
    /// `Result` for uniformity with the other queries.
    pub fn apsp_near_additive(&mut self) -> Result<AdditiveApsp, CcError> {
        if self.additive_result.is_none() {
            let started = self.substrates.stages.borrow().start();
            let out = with_mode!(self.execution, |mode| apsp_additive::run_mode(
                &self.graph,
                &self.additive_cfg,
                mode,
                &mut self.ledger,
                &mut self.substrates,
            ));
            self.substrates
                .stages
                .borrow_mut()
                .stop("additive", started);
            self.additive_result = Some(out);
        }
        Ok(self.additive_result.clone().expect("memoized above"))
    }

    /// `(1+ε)`-approximate multi-source shortest paths from `O(√n)` sources
    /// (Thm 3/33). Memoized per source set (order-sensitive, matching the
    /// row order of the result).
    ///
    /// # Errors
    ///
    /// Returns [`CcError::Mssp`] for an empty, out-of-range, or
    /// over-the-`O(√n)`-limit source set.
    pub fn mssp(&mut self, sources: &[usize]) -> Result<Mssp, CcError> {
        if let Some((_, out)) = self.mssp_results.iter().find(|(s, _)| s == sources) {
            return Ok(out.clone());
        }
        let started = self.substrates.stages.borrow().start();
        let out = with_mode!(self.execution, |mode| mssp::run_mode(
            &self.graph,
            sources,
            &self.mssp_cfg,
            mode,
            &mut self.ledger,
            &mut self.substrates,
        ))?;
        self.substrates.stages.borrow_mut().stop("mssp", started);
        self.mssp_results.push((sources.to_vec(), out.clone()));
        Ok(out)
    }

    /// Feeds every estimate any computed result holds for `(u, v)` — with
    /// the guarantee that result proved — to `consider`.
    fn for_each_candidate(&self, u: usize, v: usize, mut consider: impl FnMut(Dist, Guarantee)) {
        if let Some(r) = &self.apsp3_result {
            consider(r.estimates.get(u, v), r.guarantee());
        }
        if let Some(r) = &self.apsp2_result {
            consider(r.estimates.get(u, v), r.guarantee());
        }
        if let Some(r) = &self.additive_result {
            consider(r.estimates.get(u, v), r.guarantee());
        }
        for (_, m) in &self.mssp_results {
            let g = m.guarantee_tag();
            for (i, &s) in m.sources.iter().enumerate() {
                if s == u {
                    consider(m.estimates[i][v], g);
                }
                if s == v {
                    consider(m.estimates[i][u], g);
                }
            }
        }
    }

    /// The strongest guarantee among the results computed so far.
    fn strongest_computed(&self) -> Option<Guarantee> {
        let mut best: Option<Guarantee> = None;
        let mut upd = |g: Guarantee| {
            if best.is_none_or(|b| g.stronger_than(&b)) {
                best = Some(g);
            }
        };
        if let Some(r) = &self.apsp3_result {
            upd(r.guarantee());
        }
        if let Some(r) = &self.apsp2_result {
            upd(r.guarantee());
        }
        if let Some(r) = &self.additive_result {
            upd(r.guarantee());
        }
        for (_, m) in &self.mssp_results {
            upd(m.guarantee_tag());
        }
        best
    }

    /// Cheap tagged point lookup over everything computed so far: the best
    /// estimate for `d(u, v)` together with the [`Guarantee`] of the
    /// pipeline that actually produced it, or `None` if no query has
    /// produced one yet. Charges no rounds — in the model, estimates are
    /// already local to their vertices.
    ///
    /// When several pipelines (possibly run with different `ε`) hold equal
    /// best estimates, the answer is tagged with the strongest of their
    /// guarantees; a strictly better estimate always wins regardless of its
    /// guarantee, so a weak-`ε` pipeline can improve the *value* but never
    /// silently upgrade the *bound* of an answer.
    pub fn estimate(&self, u: usize, v: usize) -> Option<PointEstimate> {
        let n = self.graph.n();
        if u >= n || v >= n {
            return None;
        }
        if u == v {
            return self
                .strongest_computed()
                .map(|guarantee| PointEstimate { dist: 0, guarantee });
        }
        let mut best: Option<PointEstimate> = None;
        self.for_each_candidate(u, v, |d, g| {
            if d >= INF {
                return;
            }
            let wins = match &best {
                Some(b) => d < b.dist || (d == b.dist && g.stronger_than(&b.guarantee)),
                None => true,
            };
            if wins {
                best = Some(PointEstimate {
                    dist: d,
                    guarantee: g,
                });
            }
        });
        best
    }

    /// Freezes everything computed so far into an immutable,
    /// `Arc`-shareable [`DistOracle`] for lock-free concurrent serving.
    ///
    /// The oracle stores the pointwise-best estimate per pair in the
    /// symmetric-packed layout (all session pipelines produce symmetric
    /// estimates) with a per-entry provenance tag, so
    /// [`DistOracle::dist`] answers exactly like [`Solver::estimate`] —
    /// same values, same guarantees. The solver remains usable afterwards;
    /// re-freezing after further queries produces a new oracle.
    ///
    /// # Errors
    ///
    /// Returns [`CcError::UnsupportedQuery`] when no pipeline query has run
    /// yet (there is nothing to freeze).
    pub fn freeze(&self) -> Result<DistOracle, CcError> {
        let n = self.graph.n();
        let started = self.substrates.stages.borrow().start();
        let merged = self.merged_tables()?;
        let oracle = DistOracle::from_tagged_packed(n, merged.data, merged.tags, merged.guarantees);
        self.substrates.stages.borrow_mut().stop("freeze", started);
        Ok(oracle)
    }

    /// Freezes everything computed so far into an immutable,
    /// `Arc`-shareable [`PathOracle`] serving **routes** — real walks in `G`
    /// with their exact weight and the winning pipeline's [`Guarantee`] —
    /// beside the same tagged distances [`Solver::freeze`] serves. Requires
    /// the session to have been built with
    /// [`SolverBuilder::record_paths`]`(true)`.
    ///
    /// The embedded distance oracle is identical to [`Solver::freeze`]'s
    /// (same merge, same provenance tags); per pair, the witness of the
    /// pipeline whose estimate won serves the route, so every route's
    /// weight is bounded by the answered estimate.
    ///
    /// # Errors
    ///
    /// Returns [`CcError::UnsupportedQuery`] when path recording is off or
    /// no pipeline query has run yet.
    pub fn freeze_with_paths(&self) -> Result<PathOracle, CcError> {
        if !self.record_paths {
            return Err(CcError::UnsupportedQuery {
                reason: "path freezing requires SolverBuilder::record_paths(true)".into(),
            });
        }
        // Origins are one byte per pair: more than 256 results cannot be
        // addressed. (Distance-only `freeze()` has no such limit.)
        if 3 + self.mssp_results.len() > 256 {
            return Err(CcError::UnsupportedQuery {
                reason: "freeze_with_paths supports at most 253 MSSP batches per session".into(),
            });
        }
        let n = self.graph.n();
        let started = self.substrates.stages.borrow().start();
        let merged = self.merged_tables()?;
        // Providers in the exact order `merged_tables` numbered them.
        let mut providers: Vec<PathProvider> = Vec::new();
        if let Some(r) = &self.apsp3_result {
            providers.push(PathProvider::Pairs(
                r.paths.clone().expect("recorded session result"),
            ));
        }
        if let Some(r) = &self.apsp2_result {
            providers.push(PathProvider::Pairs(
                r.paths.clone().expect("recorded session result"),
            ));
        }
        if let Some(r) = &self.additive_result {
            providers.push(PathProvider::Pairs(
                r.paths.clone().expect("recorded session result"),
            ));
        }
        for (_, m) in &self.mssp_results {
            providers.push(PathProvider::Rows(
                m.paths.clone().expect("recorded session result"),
            ));
        }
        let oracle = DistOracle::from_tagged_packed(n, merged.data, merged.tags, merged.guarantees);
        let frozen = PathOracle::new(oracle, merged.origins, providers);
        self.substrates.stages.borrow_mut().stop("freeze", started);
        Ok(frozen)
    }

    /// The shared freeze merge: pointwise-best packed values, provenance
    /// tags, and — for the path oracle — the index of the result whose
    /// estimate (and therefore witness) won each pair. Results are numbered
    /// in the order they are merged: apsp3, apsp2, additive, then each MSSP
    /// batch.
    fn merged_tables(&self) -> Result<MergedTables, CcError> {
        let n = self.graph.n();
        // Dedup guarantees into a small table (repeat MSSP batches share
        // one entry); the per-entry tag bytes index into it.
        let mut guarantees: Vec<Guarantee> = Vec::new();
        let tag_for = |g: Guarantee, table: &mut Vec<Guarantee>| -> u8 {
            if let Some(i) = table.iter().position(|&h| h == g) {
                return i as u8;
            }
            assert!(table.len() < 256, "provenance table overflow");
            table.push(g);
            (table.len() - 1) as u8
        };
        let entries = n * (n + 1) / 2;
        let mut data = vec![INF; entries];
        let mut tags = vec![0u8; entries];
        let mut origins = vec![0u8; entries];
        let merge = |idx: usize,
                     d: Dist,
                     tag: u8,
                     origin: u8,
                     data: &mut [Dist],
                     tags: &mut [u8],
                     origins: &mut [u8],
                     table: &[Guarantee]| {
            let wins = d < data[idx]
                || (d < INF
                    && d == data[idx]
                    && table[tag as usize].stronger_than(&table[tags[idx] as usize]));
            if wins {
                data[idx] = d;
                tags[idx] = tag;
                origins[idx] = origin;
            }
        };
        // One origin byte per winning result. The byte can only wrap past
        // 256 results; `freeze()` never reads origins, and
        // `freeze_with_paths()` rejects such sessions before using them.
        let mut origin: usize = 0;
        let mut frozen_any = false;
        let mut matrix_layers = Vec::new();
        if let Some(r) = &self.apsp3_result {
            matrix_layers.push((&r.estimates, r.guarantee()));
        }
        if let Some(r) = &self.apsp2_result {
            matrix_layers.push((&r.estimates, r.guarantee()));
        }
        if let Some(r) = &self.additive_result {
            matrix_layers.push((&r.estimates, r.guarantee()));
        }
        for (m, g) in matrix_layers {
            frozen_any = true;
            let tag = tag_for(g, &mut guarantees);
            let mut idx = 0;
            for u in 0..n {
                let row = m.row(u);
                for &d in &row[u..] {
                    merge(
                        idx,
                        d,
                        tag,
                        origin as u8,
                        &mut data,
                        &mut tags,
                        &mut origins,
                        &guarantees,
                    );
                    idx += 1;
                }
            }
            origin += 1;
        }
        for (_, m) in &self.mssp_results {
            frozen_any = true;
            let tag = tag_for(m.guarantee_tag(), &mut guarantees);
            for (i, &s) in m.sources.iter().enumerate() {
                for (v, &d) in m.estimates[i].iter().enumerate() {
                    merge(
                        DistStorage::packed_index(n, s, v),
                        d,
                        tag,
                        origin as u8,
                        &mut data,
                        &mut tags,
                        &mut origins,
                        &guarantees,
                    );
                }
            }
            origin += 1;
        }
        if !frozen_any {
            return Err(CcError::UnsupportedQuery {
                reason: "nothing to freeze: run a pipeline query (apsp_2eps, mssp, …) first".into(),
            });
        }
        Ok(MergedTables {
            data,
            tags,
            guarantees,
            origins,
        })
    }

    /// Number of ordered vertex pairs with a cached finite estimate —
    /// a single union pass over the stored results (one packed coverage
    /// flag per unordered pair; no freeze-sized value/tag materialization).
    pub fn cached_pairs(&self) -> usize {
        let n = self.graph.n();
        let mut covered = vec![false; n * (n + 1) / 2];
        let mut matrices = Vec::new();
        if let Some(r) = &self.apsp3_result {
            matrices.push(&r.estimates);
        }
        if let Some(r) = &self.apsp2_result {
            matrices.push(&r.estimates);
        }
        if let Some(r) = &self.additive_result {
            matrices.push(&r.estimates);
        }
        for m in matrices {
            let mut idx = 0;
            for u in 0..n {
                let row = m.row(u);
                for (v, &d) in row.iter().enumerate().skip(u) {
                    covered[idx] |= v != u && d < INF;
                    idx += 1;
                }
            }
        }
        for (_, m) in &self.mssp_results {
            for (i, &s) in m.sources.iter().enumerate() {
                for (v, &d) in m.estimates[i].iter().enumerate() {
                    if v != s && d < INF {
                        covered[DistStorage::packed_index(n, s, v)] = true;
                    }
                }
            }
        }
        // Estimates are symmetric, so each covered unordered pair counts
        // for both orientations.
        2 * covered.iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mssp::MsspError;
    use cc_emulator::params::ParamError;
    use cc_graphs::{bfs, generators, Graph};

    #[test]
    fn builder_defaults_and_accessors() {
        let g = generators::cycle(24);
        let solver = SolverBuilder::new(g).build().unwrap();
        assert_eq!(solver.n(), 24);
        assert_eq!(solver.eps(), 0.5);
        assert_eq!(solver.execution(), Execution::Seeded(0));
        assert_eq!(solver.profile(), ParamProfile::Scaled);
        assert_eq!(solver.total_rounds(), 0);
        assert_eq!(solver.cached_pairs(), 0);
    }

    #[test]
    fn builder_rejects_bad_eps_and_tiny_graphs() {
        let g = generators::cycle(16);
        let err = SolverBuilder::new(g.clone()).eps(2.0).build().unwrap_err();
        assert!(matches!(err, CcError::Params(ParamError::BadEps(_))));
        let err = SolverBuilder::new(g.clone()).eps(0.0).build().unwrap_err();
        assert!(matches!(err, CcError::Params(ParamError::BadEps(_))));
        let tiny = Graph::from_edges(1, &[]);
        let err = SolverBuilder::new(tiny).build().unwrap_err();
        assert!(matches!(err, CcError::Params(ParamError::BadN(1))));
        let err = SolverBuilder::new(g)
            .profile(ParamProfile::Paper { levels: 0 })
            .build()
            .unwrap_err();
        assert!(matches!(err, CcError::Params(ParamError::BadLevels(0))));
    }

    #[test]
    fn repeated_apsp_queries_are_free() {
        let g = generators::caveman(6, 6);
        let mut solver = SolverBuilder::new(g)
            .execution(Execution::Seeded(3))
            .build()
            .unwrap();
        let first = solver.apsp_2eps().unwrap();
        let rounds_after_first = solver.total_rounds();
        assert!(rounds_after_first > 0);
        let second = solver.apsp_2eps().unwrap();
        assert_eq!(first.estimates, second.estimates);
        assert_eq!(solver.total_rounds(), rounds_after_first);
    }

    #[test]
    fn estimate_reflects_computed_estimates() {
        let g = generators::grid(6, 6);
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.25)
            .execution(Execution::Deterministic)
            .build()
            .unwrap();
        assert_eq!(solver.estimate(0, 5), None, "nothing computed yet");
        solver.apsp_near_additive().unwrap();
        let exact = bfs::apsp_exact(&g);
        for v in 1..g.n() {
            let est = solver.estimate(0, v).expect("estimate cached");
            assert!(est.dist >= exact[0][v]);
            assert_eq!(
                est.guarantee.kind,
                crate::oracle::GuaranteeKind::NearAdditive
            );
        }
        assert_eq!(solver.estimate(99, 0), None, "out of range is None");
    }

    #[test]
    fn estimates_keep_the_provenance_of_the_winning_pipeline() {
        // The old `query` returned the pointwise min across pipelines with
        // no tag — a (3+ε) estimate could masquerade under a caller-assumed
        // stronger bound. Run the weak pipeline plus an MSSP batch: answers
        // improved by MSSP must be tagged Mssp, the rest Mult3Eps.
        let g = generators::caveman(6, 6);
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(Execution::Seeded(11))
            .build()
            .unwrap();
        let weak = solver.apsp_3eps().unwrap();
        let sources = [0usize, 14, 28];
        let strong = solver.mssp(&sources).unwrap();
        let mut mssp_tagged = 0;
        for (i, &s) in sources.iter().enumerate() {
            for v in 0..g.n() {
                if v == s {
                    continue;
                }
                let est = solver.estimate(s, v).expect("covered by both");
                let weak_d = weak.estimates.get(s, v);
                let strong_d = strong.estimates[i][v];
                assert_eq!(est.dist, weak_d.min(strong_d), "min wins at ({s},{v})");
                let expected_kind = if strong_d <= weak_d {
                    crate::oracle::GuaranteeKind::Mssp
                } else {
                    crate::oracle::GuaranteeKind::Mult3Eps
                };
                assert_eq!(est.guarantee.kind, expected_kind, "tag at ({s},{v})");
                if expected_kind == crate::oracle::GuaranteeKind::Mssp {
                    mssp_tagged += 1;
                }
            }
        }
        assert!(mssp_tagged > 0, "MSSP should win somewhere");
        // A pair not covered by any source keeps the weak pipeline's tag.
        let est = solver.estimate(1, 2).unwrap();
        assert_eq!(est.guarantee.kind, crate::oracle::GuaranteeKind::Mult3Eps);
    }

    #[test]
    fn freeze_matches_estimate_everywhere() {
        let g = generators::caveman(6, 6);
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(Execution::Seeded(4))
            .build()
            .unwrap();
        assert!(matches!(
            solver.freeze(),
            Err(CcError::UnsupportedQuery { .. })
        ));
        solver.apsp_3eps().unwrap();
        solver.mssp(&[0, 9, 18]).unwrap();
        let oracle = solver.freeze().unwrap();
        assert_eq!(oracle.n(), g.n());
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(oracle.dist(u, v), solver.estimate(u, v), "({u},{v})");
            }
        }
        assert_eq!(oracle.finite_pairs(), solver.cached_pairs());
    }

    #[test]
    fn mssp_is_memoized_per_source_set() {
        let g = generators::cycle(36);
        let mut solver = SolverBuilder::new(g)
            .execution(Execution::Seeded(2))
            .build()
            .unwrap();
        let a = solver.mssp(&[0, 9, 18]).unwrap();
        let rounds = solver.total_rounds();
        let b = solver.mssp(&[0, 9, 18]).unwrap();
        assert_eq!(a.estimates, b.estimates);
        assert_eq!(solver.total_rounds(), rounds, "repeat is free");
        let _ = solver.mssp(&[1, 2]).unwrap();
        assert!(solver.total_rounds() > rounds, "new source set runs");
        let err = solver.mssp(&[]).unwrap_err();
        assert!(matches!(err, CcError::Mssp(MsspError::NoSources)));
    }

    #[test]
    fn threaded_sessions_are_bit_identical() {
        // The threads knob is wall-clock only: estimates AND charged rounds
        // must match the serial session exactly — and, when recording, so
        // must every interned walk (the frozen route snapshot's bytes).
        let g = generators::caveman(6, 6);
        let run = |threads: usize, record: bool| {
            let mut solver = SolverBuilder::new(g.clone())
                .eps(0.5)
                .execution(Execution::Seeded(9))
                .threads(threads)
                .record_paths(record)
                .build()
                .unwrap();
            let apsp = solver.apsp_2eps().unwrap();
            let apsp3 = solver.apsp_3eps().unwrap();
            let mssp = solver.mssp(&[0, 14, 28]).unwrap();
            let mut routes = Vec::new();
            if record {
                solver
                    .freeze_with_paths()
                    .unwrap()
                    .save_v2(&mut routes)
                    .unwrap();
            }
            (
                apsp.estimates,
                apsp3.estimates,
                mssp.estimates,
                solver.total_rounds(),
                routes,
            )
        };
        for record in [false, true] {
            let serial = run(1, record);
            assert_eq!(serial.4.is_empty(), !record);
            for threads in [2, 4] {
                assert_eq!(
                    run(threads, record),
                    serial,
                    "threads = {threads}, record_paths = {record}"
                );
            }
        }
        let solver = SolverBuilder::new(g).threads(3).build().unwrap();
        assert_eq!(solver.threads(), 3);
    }

    /// Asserts `route` is a real walk `u → v` in `g` whose weight equals
    /// `Route::weight` and stays within the estimate and guarantee.
    fn assert_route_valid(
        g: &Graph,
        exact: &[Vec<cc_graphs::Dist>],
        route: &crate::Route,
        est: crate::PointEstimate,
    ) {
        let (u, v) = (route.src as usize, route.dst as usize);
        if u == v {
            assert_eq!(route.weight, 0);
            assert!(route.edges.is_empty());
            return;
        }
        assert_eq!(route.edges[0].0 as usize, u);
        assert_eq!(route.edges[route.edges.len() - 1].1 as usize, v);
        for w in route.edges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "consecutive edges must chain");
        }
        for &(x, y) in &route.edges {
            assert!(g.has_edge(x as usize, y as usize), "({x},{y}) not in G");
        }
        assert_eq!(route.weight, route.edges.len() as cc_graphs::Dist);
        assert!(route.weight >= exact[u][v], "walk cannot undercut d_G");
        assert!(route.weight <= est.dist, "walk heavier than the estimate");
        assert!(
            (route.weight as f64) <= est.guarantee.bound(exact[u][v]) + 1e-9,
            "walk outside the tagged guarantee at ({u},{v})"
        );
        assert_eq!(route.guarantee, est.guarantee);
    }

    #[test]
    fn recording_paths_changes_neither_estimates_nor_rounds() {
        // The tentpole invariant: witnesses ride the same messages — per
        // pipeline, estimates AND charged rounds are bit-identical with
        // recording on or off.
        let g = generators::caveman(6, 6);
        let run = |record: bool| {
            let mut solver = SolverBuilder::new(g.clone())
                .eps(0.5)
                .execution(Execution::Seeded(5))
                .record_paths(record)
                .build()
                .unwrap();
            let a2 = solver.apsp_2eps().unwrap();
            let a3 = solver.apsp_3eps().unwrap();
            let add = solver.apsp_near_additive().unwrap();
            let ms = solver.mssp(&[0, 14, 28]).unwrap();
            (
                a2.estimates,
                a3.estimates,
                add.estimates,
                ms.estimates,
                solver.total_rounds(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stage_profiling_changes_neither_estimates_nor_rounds() {
        // Same contract as path recording: timing is observed, never fed
        // back — per pipeline, estimates AND charged rounds are
        // bit-identical with profiling on or off.
        let g = generators::caveman(6, 6);
        let run = |profile: bool| {
            let mut solver = SolverBuilder::new(g.clone())
                .eps(0.5)
                .execution(Execution::Seeded(5))
                .profile_stages(profile)
                .build()
                .unwrap();
            let a2 = solver.apsp_2eps().unwrap();
            let a3 = solver.apsp_3eps().unwrap();
            let add = solver.apsp_near_additive().unwrap();
            let ms = solver.mssp(&[0, 14, 28]).unwrap();
            let oracle = solver.freeze().unwrap();
            (
                a2.estimates,
                a3.estimates,
                add.estimates,
                ms.estimates,
                oracle,
                solver.total_rounds(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn stage_profiling_records_only_when_enabled() {
        let g = generators::caveman(6, 6);
        let mut off = SolverBuilder::new(g.clone())
            .execution(Execution::Seeded(5))
            .build()
            .unwrap();
        assert!(!off.profiles_stages());
        off.apsp_2eps().unwrap();
        off.freeze().unwrap();
        assert!(
            off.stage_times().is_empty(),
            "disabled recorder stays empty"
        );
        // The ledger lines render regardless; no stage lines when off.
        let text = off.profile_exposition();
        assert!(text.contains("cc_solver_rounds_total "));
        assert!(!text.contains("cc_solver_stage_ns"));

        let mut on = SolverBuilder::new(g)
            .execution(Execution::Seeded(5))
            .profile_stages(true)
            .build()
            .unwrap();
        assert!(on.profiles_stages());
        on.apsp_2eps().unwrap();
        on.mssp(&[0, 14]).unwrap();
        on.freeze().unwrap();
        let names: Vec<&str> = on.stage_times().iter().map(|(n, _)| *n).collect();
        for expected in [
            "apsp2",
            "emulator_build",
            "freeze",
            "hitting_sets",
            "hopset_build",
            "minplus_products",
            "mssp",
        ] {
            assert!(names.contains(&expected), "missing stage {expected}");
        }
        for (name, stat) in on.stage_times() {
            assert!(stat.calls > 0, "stage {name} recorded no calls");
        }
        let text = on.profile_exposition();
        assert!(text.contains("cc_solver_stage_ns{stage=\"hopset_build\"}"));
        assert!(text.contains("cc_solver_stage_calls{stage=\"freeze\"} 1"));
        assert!(text.contains("cc_solver_phase_rounds{phase="));
    }

    #[test]
    fn freeze_with_paths_serves_verified_routes() {
        let g = generators::caveman(6, 6);
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(Execution::Seeded(8))
            .record_paths(true)
            .build()
            .unwrap();
        solver.apsp_2eps().unwrap();
        solver.mssp(&[0, 9, 18]).unwrap();
        let oracle = solver.freeze_with_paths().unwrap();
        let dist_oracle = solver.freeze().unwrap();
        assert_eq!(*oracle.dist_oracle(), dist_oracle, "same frozen distances");
        let exact = bfs::apsp_exact(&g);
        for u in 0..g.n() {
            for v in 0..g.n() {
                match (oracle.path(u, v), dist_oracle.dist(u, v)) {
                    (Some(route), Some(est)) => assert_route_valid(&g, &exact, &route, est),
                    (None, None) => {}
                    (p, d) => panic!("route/dist coverage mismatch at ({u},{v}): {p:?} {d:?}"),
                }
            }
        }
    }

    #[test]
    fn freeze_with_paths_requires_recording() {
        let g = generators::cycle(24);
        let mut solver = SolverBuilder::new(g)
            .execution(Execution::Seeded(1))
            .build()
            .unwrap();
        solver.apsp_near_additive().unwrap();
        let err = solver.freeze_with_paths().unwrap_err();
        assert!(matches!(err, CcError::UnsupportedQuery { .. }));
        assert!(err.to_string().contains("record_paths"));
        assert!(!solver.records_paths());
    }

    #[test]
    fn path_oracle_round_trips_through_ccro_snapshot() {
        let g = generators::caveman(5, 5);
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.5)
            .execution(Execution::Deterministic)
            .record_paths(true)
            .build()
            .unwrap();
        solver.apsp_3eps().unwrap();
        solver.mssp(&[0, 12]).unwrap();
        let oracle = solver.freeze_with_paths().unwrap();
        let mut buf = Vec::new();
        oracle.save_v2(&mut buf).unwrap();
        let back = crate::PathOracle::load(&mut &buf[..]).unwrap();
        assert_eq!(back, oracle);
        for u in (0..g.n()).step_by(3) {
            for v in (0..g.n()).step_by(4) {
                assert_eq!(back.path(u, v), oracle.path(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn deterministic_sessions_reproduce() {
        let g = generators::caveman(6, 6);
        let run = || {
            let mut solver = SolverBuilder::new(g.clone())
                .eps(0.25)
                .execution(Execution::Deterministic)
                .build()
                .unwrap();
            solver.apsp_near_additive().unwrap().estimates
        };
        assert_eq!(run(), run());
    }
}
