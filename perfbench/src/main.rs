//! End-to-end, layer-attributed benchmark of the deployment path
//! graph → solve → freeze → v2 snapshot → mmap open → `ccd` answer.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve-grid --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` is a separate
//! run that turns on the solver's stage profiling, replays the tool-kit
//! layers and scrapes `ccd`'s histograms for the per-layer metrics; its
//! spans go to `.perfbench/spans-<workload>-seed<seed>.jsonl`. Every
//! metric is printed by name with its unit; the last stdout line is one
//! JSON object. See `perfbench/README.md` for which layer metric should
//! move which end-to-end metric on which workload.

mod checks;
mod deploy;
mod replay;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use cc_core::apsp2::Apsp2Config;

use checks::Tally;
use deploy::{Built, Rep, EPS};
use serve::{Pool, SplitMix};
use spans::Spans;
use stats::{cumulative, hist_quantile, median};

/// One workload: an input family and how its run splits `--seconds`.
pub struct Workload {
    pub name: &'static str,
    /// Preferential-attachment hubs instead of the 32×32 grid.
    pub hubs: bool,
    pub deterministic: bool,
    pub record_paths: bool,
    /// Shares of `--seconds` spent on build repetitions, open-loop phase A
    /// and closed-loop phase B.
    build_share: f64,
    phase_a_share: f64,
    phase_b_share: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "solve-grid",
        hubs: false,
        deterministic: false,
        record_paths: false,
        build_share: 0.6,
        phase_a_share: 0.25,
        phase_b_share: 0.15,
    },
    Workload {
        name: "solve-hubs-routes",
        hubs: true,
        deterministic: true,
        record_paths: true,
        build_share: 0.6,
        phase_a_share: 0.25,
        phase_b_share: 0.15,
    },
    Workload {
        name: "serve-mixed",
        hubs: false,
        deterministic: false,
        record_paths: true,
        build_share: 0.5,
        phase_a_share: 0.3,
        phase_b_share: 0.2,
    },
];

/// Fewest build repetitions a run makes, whatever its budget.
const MIN_REPS: usize = 3;
/// Layer replays per traced run.
const REPLAY_REPS: usize = 3;
/// Server start-ups per run (`snapshot::open` + `serve` + first ping): at
/// least the first count, and more while the time budget lasts. A start-up
/// takes 5 or 10 ms on the small snapshot, depending on whether the first
/// ping lands in the acceptor's 5 ms poll, so its median needs many.
const SERVE_SETUPS: (usize, usize) = (7, 64);
const SETUP_BUDGET_S: f64 = 0.5;
/// Sources of the exact-BFS estimate check, and sampled route pairs.
const CHECK_SOURCES: usize = 32;
const CHECK_ROUTES: usize = 256;
/// Phase A: open-loop rate, and the window p50 and p90 are taken over
/// (0.5 s at 2,000 req/s: 250 path samples, 25 beyond p90).
const RATE: f64 = 2000.0;
const WINDOW_A: f64 = 0.5;
/// Untimed closed-loop warm-up before phase A: first-touch of the mapped
/// snapshot pages otherwise lands in phase A's tail.
const WARMUP_S: f64 = 1.0;
/// Phase B rate window.
const WINDOW_B: f64 = 0.5;
/// Phases A and B each run as this many segments on fresh connections.
const SEGMENTS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Named metrics in output order: (name, value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of the whole process so far, in clock ticks.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

/// `count` distinct vertices below `n`, drawn from `rng`.
fn sample_vertices(rng: &mut SplitMix, n: usize, count: usize) -> Vec<usize> {
    let mut picked = vec![false; n];
    let mut out = Vec::new();
    while out.len() < count.min(n) {
        let v = rng.below(n);
        if !std::mem::replace(&mut picked[v], true) {
            out.push(v);
        }
    }
    out
}

/// Maps an I/O error to a message naming the step that failed.
fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

fn seconds_of(spans: &Spans, name: &str) -> f64 {
    median(&spans.durations_by_rep(name))
}

/// The build repetitions of one run, and what the last one left behind.
struct Builds {
    /// `(profiled, timings)` per repetition, in order.
    reps: Vec<(bool, Rep)>,
    last: Built,
}

impl Builds {
    /// The fastest plain (or profiled) repetition. The host's speed shifts
    /// by a quarter for seconds at a time, and that only ever slows a build.
    fn fastest(&self, profiled: bool) -> f64 {
        self.reps
            .iter()
            .filter(|(p, _)| *p == profiled)
            .map(|(_, r)| r.build_s)
            .fold(f64::INFINITY, f64::min)
    }

    fn median_of(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        median(&self.reps.iter().map(|(_, r)| f(r)).collect::<Vec<_>>())
    }

    /// Median over the profiled repetitions of one solver stage.
    fn stage(&self, name: &str, f: fn(&cc_obs::StageStat) -> f64) -> f64 {
        let xs: Vec<f64> = self
            .reps
            .iter()
            .filter(|(p, _)| *p)
            .map(|(_, r)| r.stages.get(name).map_or(0.0, f))
            .collect();
        median(&xs)
    }
}

/// Repeats graph → `Solver` → pipelines → freeze → v2 file for the
/// workload's share of `--seconds`, at least `MIN_REPS` times.
fn build_phase(
    args: &Args,
    threads: usize,
    snapshot: &std::path::Path,
    spans: &mut Spans,
) -> Result<Builds, String> {
    let w = args.workload;
    let mut untraced = Spans::new(false);
    let budget = args.seconds * w.build_share;
    let started = Instant::now();
    let mut reps: Vec<(bool, Rep)> = Vec::new();
    let mut last: Option<Built> = None;
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < budget {
        // Traced runs alternate profiled and plain repetitions, so the
        // profiling overhead is measured in the same process.
        let profiled = args.trace && reps.len().is_multiple_of(2);
        drop(last.take());
        spans.set_rep(reps.len());
        let rec = if profiled { &mut *spans } else { &mut untraced };
        let entered = rec.enter("build");
        let (rep, built) = deploy::build_once(w, args.seed, threads, profiled, snapshot, rec)
            .map_err(io("build"))?;
        rec.exit(entered);
        reps.push((profiled, rep));
        last = Some(built);
    }
    Ok(Builds {
        reps,
        last: last.expect("at least one repetition"),
    })
}

/// What the serving half of a run measured.
struct Served {
    setup_s: Vec<f64>,
    open_s: Vec<f64>,
    mapped: bool,
    zero_copy: bool,
    warm: Tally,
    phase_a: serve::OpenLoop,
    phase_b: Tally,
    rates: Vec<f64>,
    /// Process CPU time (every thread, client and server) per completed
    /// phase B request, in µs.
    cpu_us_per_request: f64,
    /// Metrics scrapes before and after phase A and at the end (traced
    /// runs only).
    before_a: BTreeMap<String, u64>,
    after_a: BTreeMap<String, u64>,
    finals: BTreeMap<String, u64>,
}

/// Starts `ccd` on the snapshot `SERVE_SETUPS` times (keeping the last),
/// warms it up, then runs phase A (open loop) and phase B (closed loop).
fn serve_phase(
    args: &Args,
    threads: usize,
    snapshot: &std::path::Path,
    pool: &Pool,
    spans: &mut Spans,
) -> Result<Served, String> {
    let w = args.workload;
    let (mut setup_s, mut open_s) = (Vec::new(), Vec::new());
    let mut server: Option<serve::Started> = None;
    let started = Instant::now();
    while setup_s.len() < SERVE_SETUPS.0
        || (setup_s.len() < SERVE_SETUPS.1 && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        if let Some(s) = server.take() {
            s.handle.shutdown();
        }
        let entered = spans.enter("serve.setup");
        let s = serve::start(snapshot, threads).map_err(io("serve"))?;
        spans.exit(entered);
        setup_s.push(s.setup_s);
        open_s.push(s.open_s);
        server = Some(s);
    }
    let server = server.expect("at least one server start");
    let addr = server.handle.addr();
    let scrape = || -> Result<BTreeMap<String, u64>, String> {
        if args.trace {
            serve::scrape(addr).map_err(io("metrics"))
        } else {
            Ok(BTreeMap::new())
        }
    };
    let (warm, _) = spans.time("serve.warmup", || {
        serve::closed_loop(addr, pool, threads, WARMUP_S, WARMUP_S)
    });
    let before_a = scrape()?;
    let windows_a = ((args.seconds * w.phase_a_share / WINDOW_A).round() as usize).max(4);
    let phase_a = spans
        .time("serve.phase_a", || {
            serve::open_loop(addr, pool, RATE, windows_a, WINDOW_A, SEGMENTS)
        })
        .map_err(io("phase A"))?;
    let after_a = scrape()?;
    let seconds_b = (args.seconds * w.phase_b_share).max(1.0);
    let mut phase_b = Tally::default();
    let mut rates = Vec::new();
    let entered = spans.enter("serve.phase_b");
    let cpu_before = cpu_ticks();
    for _ in 0..SEGMENTS {
        let (t, r) = serve::closed_loop(addr, pool, threads, seconds_b / SEGMENTS as f64, WINDOW_B);
        phase_b.add(t);
        rates.extend(r);
    }
    let cpu_s = (cpu_ticks() - cpu_before) as f64 / USER_HZ;
    spans.exit(entered);
    let finals = scrape()?;
    server.handle.shutdown();
    Ok(Served {
        setup_s,
        open_s,
        mapped: server.mapped,
        zero_copy: server.zero_copy,
        warm,
        phase_a,
        phase_b,
        rates,
        cpu_us_per_request: cpu_s * 1e6 / phase_b.attempted.max(1) as f64,
        before_a,
        after_a,
        finals,
    })
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(builds: &Builds, served: &Served, snapshot_bytes: u64) -> Metrics {
    let mut m = Metrics::default();
    m.put("build_s", builds.fastest(false), "s");
    m.put(
        "setup_s",
        builds.median_of(|r| r.setup_s) + median(&served.setup_s),
        "s",
    );
    m.put("rounds", builds.last.solver.total_rounds() as f64, "count");
    m.put("snapshot_bytes", snapshot_bytes as f64, "bytes");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("serve_cpu_us", served.cpu_us_per_request, "us");
    m
}

/// Rounds charged per tool-kit layer, classified by ledger phase and label.
fn rounds_by_layer(ledger: &cc_clique::RoundLedger) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for e in ledger.entries() {
        let layer = if e.phase.starts_with("apsp2/emulator") {
            "emulator"
        } else if e.phase == "apsp2/hopset" {
            "hopset"
        } else if e.label.contains("source detection") {
            "sd"
        } else if e.label.contains("nearest") && !e.label.contains("announce") {
            "knearest"
        } else if e.label.contains("through sets") {
            "through_sets"
        } else if e.label.contains("product") || e.label.contains("route through") {
            "minplus"
        } else if e.label.contains("hitting set") {
            "hitting"
        } else {
            "other"
        };
        *by_layer.entry(layer).or_default() += e.rounds;
    }
    by_layer
}

/// The per-layer metrics of a traced run.
fn per_layer(
    builds: &Builds,
    served: &Served,
    shapes: &replay::Shapes,
    pool: &Pool,
    spans: &Spans,
) -> Metrics {
    let mut m = Metrics::default();
    for name in ["core.apsp2", "core.additive", "core.freeze", "core.save_v2"] {
        m.put(format!("{name}_s"), seconds_of(spans, name), "s");
    }
    let secs = |s: &cc_obs::StageStat| s.total_ns as f64 / 1e9;
    let stages = [
        ("emulator.build_s", "emulator_build"),
        ("hopset.build_s", "hopset_build"),
        ("hitting.select_s", "hitting_sets"),
        ("minplus.products_s", "minplus_products"),
    ];
    let layers = [
        ("knearest.compute_s", "knearest"),
        ("sd.case2_s", "sd.case2"),
        ("sd.case3a_s", "sd.case3a"),
        ("sd.high_s", "sd.high"),
        ("through_sets.s", "through_sets"),
    ];
    let mut attributed = 0.0;
    for (metric, stage) in stages {
        let v = builds.stage(stage, secs);
        attributed += v;
        m.put(metric, v, "s");
    }
    m.put(
        "hopset.builds",
        builds.stage("hopset_build", |s| s.calls as f64),
        "count",
    );
    for (metric, span) in layers {
        let v = seconds_of(spans, span);
        attributed += v;
        m.put(metric, v, "s");
    }
    m.put(
        "apsp2.unattributed_s",
        seconds_of(spans, "core.apsp2") - attributed,
        "s",
    );
    m.put("sd.high_sources", shapes.high_sources as f64, "count");
    m.put("sd.case2_sources", shapes.case2_sources as f64, "count");
    m.put("sd.case3a_sources", shapes.case3a_sources as f64, "count");
    m.put("sd.hops", shapes.hops as f64, "count");
    m.put("sd.union_edges", shapes.union_edges as f64, "count");

    let ledger = builds.last.solver.ledger();
    let apsp2_rounds = ledger.by_phase().get("apsp2").copied().unwrap_or(0);
    m.put("rounds.apsp2", apsp2_rounds as f64, "count");
    let by_layer = rounds_by_layer(ledger);
    for layer in [
        "emulator",
        "hopset",
        "sd",
        "knearest",
        "through_sets",
        "minplus",
        "hitting",
        "other",
    ] {
        let rounds = by_layer.get(layer).copied().unwrap_or(0);
        m.put(format!("rounds.{layer}"), rounds as f64, "count");
    }
    m.put("messages", ledger.total_messages() as f64, "count");

    m.put("snapshot.open_s", median(&served.open_s), "s");
    let hist = |name: &str, q: f64| {
        hist_quantile(
            &cumulative(&served.before_a, name),
            &cumulative(&served.after_a, name),
            q,
        )
    };
    let (queue_p50, oracle_p50, outbox_p50) = (
        hist("ccd_queue_wait_ns", 0.5),
        hist("ccd_oracle_batch_ns", 0.5),
        hist("ccd_outbox_write_ns", 0.5),
    );
    m.put("ccd.queue_wait_ns.p50", queue_p50, "ns");
    m.put(
        "ccd.queue_wait_ns.p99",
        hist("ccd_queue_wait_ns", 0.99),
        "ns",
    );
    m.put("ccd.outbox_write_ns.p50", outbox_p50, "ns");
    m.put(
        "ccd.outbox_write_ns.p99",
        hist("ccd_outbox_write_ns", 0.99),
        "ns",
    );
    m.put("ccd.batch_jobs.p50", hist("ccd_batch_jobs", 0.5), "count");
    m.put("ccd.oracle_batch_ns.p50", oracle_p50, "ns");
    m.put(
        "ccd.oracle_batch_ns.p99",
        hist("ccd_oracle_batch_ns", 0.99),
        "ns",
    );
    let counter = |name: &str| served.finals.get(name).copied().unwrap_or(0) as f64;
    m.put("ccd.served", counter("ccd_served_total"), "count");
    m.put("ccd.shed", counter("ccd_shed_total"), "count");
    m.put(
        "ccd.deadline_missed",
        counter("ccd_deadline_missed_total"),
        "count",
    );
    let phase_a = &served.phase_a;
    m.put(
        "ccd.unattributed_us",
        phase_a.dist_p50_us - (queue_p50 + oracle_p50 + outbox_p50) / 1e3,
        "us",
    );
    m.put("oracle.dist_batch_us", median(&pool.oracle_dist_us), "us");
    m.put("oracle.path_batch_us", median(&pool.oracle_path_us), "us");
    m.put("serve_rps", median(&served.rates), "1/s");
    m.put("dist_p50_us", phase_a.dist_p50_us, "us");
    m.put("path_p50_us", phase_a.path_p50_us, "us");
    m.put("dist_p90_us", phase_a.dist_p90_us, "us");
    m.put("path_p90_us", phase_a.path_p90_us, "us");
    m.put("dist_p99_us", phase_a.dist_p99_us, "us");
    m.put("path_p99_us", phase_a.path_p99_us, "us");
    m.put("gen.late_p99_us", phase_a.late_p99_us, "us");
    m.put(
        "trace.overhead",
        builds.fastest(true) / builds.fastest(false),
        "ratio",
    );

    let g = &builds.last.graph;
    m.put("regime.n", g.n() as f64, "count");
    m.put("regime.m", g.m() as f64, "count");
    m.put("regime.t", f64::from(shapes.t), "count");
    m.put("regime.k", shapes.k as f64, "count");
    m.put("regime.thresh2", shapes.thresh2 as f64, "count");
    m.put("regime.hopset_edges", shapes.hopset_edges as f64, "count");
    m.put("regime.mapped", f64::from(u8::from(served.mapped)), "count");
    m.put(
        "regime.zero_copy",
        f64::from(u8::from(served.zero_copy)),
        "count",
    );
    m
}

/// One run; returns the metrics and the checks' tally.
fn run(args: &Args) -> Result<(Metrics, Tally), String> {
    let w = args.workload;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    // Solver threads, ccd workers and client connections: at most the
    // available cores, and the 2-core machine the load is sized for.
    let threads = cores.min(2);
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let snapshot = dir.join(format!("{}-{}.snap", w.name, std::process::id()));
    let mut spans = Spans::new(args.trace);
    let mut tally = Tally::default();

    println!(
        "perfbench workload={} seed={} eps={EPS} mode={} record_paths={} threads={threads} \
         ccd_workers={threads} connections={threads} available_cores={cores} profile={} \
         seconds={} trace={}",
        w.name,
        args.seed,
        if w.deterministic {
            "deterministic"
        } else {
            "seeded"
        },
        w.record_paths,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.seconds,
        u8::from(args.trace)
    );

    let run_span = spans.enter("run");
    let builds = build_phase(args, threads, &snapshot, &mut spans)?;
    let built = &builds.last;
    let n = built.graph.n();
    let snapshot_bytes = std::fs::metadata(&snapshot)
        .map_err(io("stat snapshot"))?
        .len();

    // ── Checks on the last build, outside every timed region. ────────────
    let mut rng = SplitMix::new(args.seed ^ 0xc4ec);
    let sources = sample_vertices(&mut rng, n, CHECK_SOURCES);
    let estimates = checks::check_estimates(&built.graph, &sources, |u, v| built.frozen.dist(u, v));
    let mut route_checks = Tally::default();
    if w.record_paths {
        let pairs: Vec<(usize, usize)> = (0..CHECK_ROUTES)
            .map(|_| (rng.below(n), rng.below(n)))
            .collect();
        route_checks = checks::check_routes(
            &built.graph,
            &pairs,
            |u, v| built.frozen.dist(u, v),
            |u, v| built.frozen.path(u, v),
        );
    }
    tally.add(estimates);
    tally.add(route_checks);

    // ── Layer replay (traced runs). ──────────────────────────────────────
    let mut cfg = Apsp2Config::scaled(n, EPS).map_err(|e| format!("config: {e}"))?;
    cfg.emulator.threads = threads;
    cfg.emulator.record_paths = w.record_paths;
    let mut replayed = None;
    for i in 0..if args.trace { REPLAY_REPS } else { 0 } {
        spans.set_rep(i);
        let entered = spans.enter("replay");
        replayed = Some(replay::replay(
            &built.graph,
            &cfg,
            deploy::execution(w, args.seed),
            &built.apsp2,
            built.solver.ledger(),
            &mut spans,
        ));
        spans.exit(entered);
    }
    if let Some(r) = &replayed {
        for m in &r.mismatches {
            println!("replay fidelity FAILED: {m}");
        }
        tally.add(r.fidelity);
    }

    // ── Serve: open → ccd → warm-up → phase A (open) → phase B (closed). ─
    let pool = Pool::new(&built.frozen, n, args.seed);
    let served = serve_phase(args, threads, &snapshot, &pool, &mut spans);
    std::fs::remove_file(&snapshot).ok();
    let served = served?;
    spans.exit(run_span);
    let requests = [served.warm, served.phase_a.tally, served.phase_b];
    for t in requests {
        tally.add(t);
    }

    let phase_a = &served.phase_a;
    println!(
        "checks: estimates {}/{} failed over {} BFS sources, routes {}/{} failed, \
         requests {}/{} failed; error_rate {}",
        estimates.failed,
        estimates.attempted,
        sources.len(),
        route_checks.failed,
        route_checks.attempted,
        requests.iter().map(|t| t.failed).sum::<u64>(),
        requests.iter().map(|t| t.attempted).sum::<u64>(),
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    println!(
        "serve: warm-up {WARMUP_S} s closed loop; phase A open loop at {RATE} req/s in \
         {SEGMENTS} segments on fresh connections: p50/p90 per {WINDOW_A} s window ({} dist / \
         {} path samples, {} / {} beyond p90), median over {} windows; p99 over the phase ({} \
         dist / {} path samples, {} / {} beyond); phase B {} s closed loop over {threads} \
         connections in {SEGMENTS} segments, rate median over {} windows of {WINDOW_B} s; \
         requests: {}-pair dist x3 per {}-pair path",
        phase_a.window_dist_samples,
        phase_a.window_path_samples,
        phase_a.window_dist_samples / 10,
        phase_a.window_path_samples / 10,
        phase_a.windows,
        phase_a.dist_samples,
        phase_a.path_samples,
        phase_a.dist_samples / 100,
        phase_a.path_samples / 100,
        (args.seconds * w.phase_b_share).max(1.0),
        served.rates.len(),
        serve::DIST_BATCH,
        serve::PATH_BATCH,
    );
    println!(
        "latency and rate (reported, not gated): dist p50 {} us, path p50 {} us, dist p90 {} us, \
         path p90 {} us, dist p99 {} us, path p99 {} us, generator late p99 {} us; phase B {} \
         req/s at {} CPU us per request",
        phase_a.dist_p50_us,
        phase_a.path_p50_us,
        phase_a.dist_p90_us,
        phase_a.path_p90_us,
        phase_a.dist_p99_us,
        phase_a.path_p99_us,
        phase_a.late_p99_us,
        median(&served.rates),
        served.cpu_us_per_request,
    );
    println!(
        "build: {} repetitions ({} profiled), median {} s; regime n={n} m={} t={} k={} \
         thresh2={} |S|={} |A|={} mapped={} zero_copy={}",
        builds.reps.len(),
        builds.reps.iter().filter(|(p, _)| *p).count(),
        builds.median_of(|r| r.build_s),
        built.graph.m(),
        built.apsp2.t,
        cfg.k,
        replay::thresh2(n, cfg.k),
        built.apsp2.high_degree_pivots.len(),
        built.apsp2.low_degree_pivots.len(),
        served.mapped,
        served.zero_copy,
    );

    let Some(replayed) = replayed else {
        return Ok((end_to_end(&builds, &served, snapshot_bytes), tally));
    };
    let metrics = per_layer(&builds, &served, &replayed.shapes, &pool, &spans);
    let out = dir.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
    std::fs::write(&out, spans.to_jsonl(w.name)).map_err(io("write spans"))?;
    println!("spans: {}", out.display());
    Ok((metrics, tally))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <solve-grid|solve-hubs-routes|serve-mixed> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((metrics, tally)) => {
            for (name, value, unit) in &metrics.0 {
                println!("metric {name} = {value} {unit}");
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                tally.failed == 0,
                tally.attempted,
                tally.failed,
                metrics.json()
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
