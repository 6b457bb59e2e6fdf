//! The dynamic half of the determinism audit: a schedule-perturbation
//! harness (`cc-analyze schedule`).
//!
//! The static rules ([`crate::rules`], [`crate::concurrency`]) ban the
//! *patterns* that produce nondeterminism; this module attacks the running
//! code. Every iteration re-runs the workspace's parallel surfaces — the
//! plain and witness-carrying min-plus kernels (sparse and dense), the
//! source-sharded hop-limited kernel with parent rows, the sharded
//! congested-clique engine, and periodically a loopback `ccd` burst —
//! under a perturbed schedule: randomized thread counts, worker
//! and batch-size choices (which move the queue-pop coalescing points),
//! client-side send jitter, and background yield-spinner threads that
//! shuffle OS scheduling. Outputs must be **bit-identical** to a serial
//! baseline computed once up front; any divergence is reported with the
//! xorshift seed and iteration so the exact schedule roll can be replayed
//! with `cc-analyze schedule --seed <s> --iters <i>`.
//!
//! This is a determinism fuzzer, not a stress test: inputs are fixed by
//! the seed, only the *schedule* varies. TSan and Miri catch racy access;
//! this catches racy *results* — the thing the paper reproduction actually
//! promises (`DESIGN.md` §11.4).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cc_clique::engine::{Engine, EngineConfig};
use cc_clique::programs::AllGather;
use cc_clique::NodeId;
use cc_core::{DistOracle, DistanceMatrix, Guarantee, PointEstimate};
use cc_graphs::dijkstra::{hop_limited, HopLanes};
use cc_graphs::{Dist, StorageKind, WeightedGraph};
use cc_matrix::{DenseMatrix, MinplusWorkspace, RowBuilder, SparseMatrix};
use cc_serve::snapshot::Oracles;
use cc_serve::{serve, Client, ServerConfig};

use crate::fuzz::Xorshift;

/// Harness parameters (all deterministic given `seed`).
#[derive(Clone, Copy, Debug)]
pub struct ScheduleConfig {
    /// Perturbed iterations to run.
    pub iters: u64,
    /// Root seed; every iteration derives its own stream from it.
    pub seed: u64,
    /// Maximum worker threads rolled per component (min 1).
    pub max_threads: usize,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            iters: 50,
            seed: 0x5eed_dec0de,
            max_threads: 4,
        }
    }
}

/// Outcome of a harness run.
#[derive(Debug, Default)]
pub struct ScheduleSummary {
    /// Iterations completed.
    pub iterations: u64,
    /// Kernel comparisons performed (sparse/dense × plain/witness,
    /// hop-limited, engine).
    pub comparisons: u64,
    /// Loopback `ccd` bursts performed.
    pub serve_bursts: u64,
    /// Divergences from the serial baseline, with replay coordinates.
    pub failures: Vec<String>,
}

/// Matrix dimension for the kernel inputs.
const KERNEL_N: usize = 48;
/// Vertex count of the hop-limited kernel's input graph.
const HOP_N: usize = 40;
/// Hop bound of the hop-limited searches.
const HOP_H: usize = 6;
/// Node count for the engine program.
const ENGINE_N: usize = 24;
/// Vertex count for the served oracle.
const SERVE_N: usize = 40;
/// A `ccd` burst runs every this-many iterations (spawning a TCP server
/// per iteration would dominate the schedule search).
const SERVE_EVERY: u64 = 8;

/// Serial ground truth, computed once at `threads = 1`.
struct Baseline {
    sparse_a: SparseMatrix,
    sparse_b: SparseMatrix,
    dense_a: DenseMatrix,
    dense_b: DenseMatrix,
    sparse_plain: SparseMatrix,
    sparse_witness: (SparseMatrix, Vec<u32>),
    dense_plain: DenseMatrix,
    dense_witness: (DenseMatrix, Vec<u32>),
    hop_graph: WeightedGraph,
    hop_sources: Vec<usize>,
    hop_rows: Vec<HopRows>,
    engine_words: Vec<Vec<u64>>,
    engine_collected: Vec<Vec<u64>>,
    oracle: Arc<DistOracle>,
    query_pairs: Vec<(u32, u32)>,
    query_answers: Vec<Option<PointEstimate>>,
}

/// Deterministic sparse/dense input pair: ~6 entries per row, weights
/// below 1000, mirrored into the dense form entry for entry.
fn seeded_inputs(seed: u64) -> (SparseMatrix, DenseMatrix) {
    let mut rng = Xorshift::new(seed);
    let mut rb = RowBuilder::new(KERNEL_N);
    let mut dense = DenseMatrix::infinite(KERNEL_N);
    for i in 0..KERNEL_N {
        for _ in 0..6 {
            let j = rng.below(KERNEL_N);
            let w = rng.below(1000) as Dist;
            rb.push(i, j, w);
            if w < dense.get(i, j) {
                dense.set(i, j, w);
            }
        }
    }
    (rb.build(), dense)
}

/// One source's hop-limited `(distance row, parent row)`.
type HopRows = (Vec<Dist>, Vec<u32>);

/// Deterministic weighted input of the hop-limited kernel: a ring plus
/// random chords of weight below 50, and a source list with repeats.
fn hop_inputs(seed: u64) -> (WeightedGraph, Vec<usize>) {
    let mut rng = Xorshift::new(seed ^ 0x40b5);
    let mut g = WeightedGraph::new(HOP_N);
    for v in 0..HOP_N {
        g.add_edge(v, (v + 1) % HOP_N, 1 + rng.below(3) as Dist);
    }
    for _ in 0..2 * HOP_N {
        let (u, v) = (rng.below(HOP_N), rng.below(HOP_N));
        if u != v {
            g.add_edge(u, v, 1 + rng.below(50) as Dist);
        }
    }
    let sources = (0..13).map(|_| rng.below(HOP_N)).collect();
    (g, sources)
}

/// Every source's rows, with parents, on `threads` workers.
fn run_hop_limited(g: &WeightedGraph, sources: &[usize], threads: usize) -> Vec<HopRows> {
    let mut out = vec![(Vec::new(), Vec::new()); sources.len()];
    let mut lanes = HopLanes::new(threads, true);
    hop_limited(g, sources, HOP_H, &mut lanes, &mut out, |row, slot| {
        *slot = (
            row.dists().to_vec(),
            row.parents().map(<[u32]>::to_vec).unwrap_or_default(),
        );
    });
    out
}

fn engine_words(seed: u64) -> Vec<Vec<u64>> {
    let mut rng = Xorshift::new(seed ^ 0xe9_61);
    (0..ENGINE_N)
        .map(|i| {
            (0..1 + rng.below(3))
                .map(|k| ((i as u64) << 32) | ((k as u64) ^ (rng.next_u64() >> 48)))
                .collect()
        })
        .collect()
}

fn run_engine(words: &[Vec<u64>], threads: usize) -> Result<Vec<Vec<u64>>, String> {
    let nodes: Vec<AllGather> = words
        .iter()
        .enumerate()
        .map(|(i, w)| AllGather::new(NodeId::new(i), w.clone()))
        .collect();
    let mut engine = Engine::with_config(nodes, EngineConfig::threaded(threads));
    engine.run().map_err(|e| format!("engine error: {e:?}"))?;
    Ok(engine
        .nodes()
        .iter()
        .map(|n| n.collected().to_vec())
        .collect())
}

/// A frozen oracle plus the seeded query pairs and their serial answers.
type OracleBaseline = (Arc<DistOracle>, Vec<(u32, u32)>, Vec<Option<PointEstimate>>);

fn build_oracle(seed: u64) -> OracleBaseline {
    let mut rng = Xorshift::new(seed ^ 0x07ac1e);
    let mut m = DistanceMatrix::new(SERVE_N);
    for u in 0..SERVE_N {
        for v in (u + 1)..SERVE_N {
            let d = 1 + rng.below(500) as Dist;
            m.improve(u, v, d);
            m.improve(v, u, d);
        }
    }
    let oracle = Arc::new(DistOracle::from_matrix(
        &m,
        Guarantee::mult2(0.25),
        StorageKind::SymmetricPacked,
    ));
    let pairs: Vec<(u32, u32)> = (0..200)
        .map(|_| (rng.below(SERVE_N) as u32, rng.below(SERVE_N) as u32))
        .collect();
    let upairs: Vec<(usize, usize)> = pairs
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect();
    let answers = oracle.dist_batch(&upairs);
    (oracle, pairs, answers)
}

fn baseline(seed: u64) -> Result<Baseline, String> {
    let (sparse_a, dense_a) = seeded_inputs(seed ^ 0xa);
    let (sparse_b, dense_b) = seeded_inputs(seed ^ 0xb);
    let mut serial = MinplusWorkspace::with_threads(1);
    let sparse_plain = sparse_a.minplus_with(&sparse_b, &mut serial);
    let sparse_witness = sparse_a.minplus_with_witness(&sparse_b, &mut serial);
    let dense_plain = dense_a.minplus_with(&dense_b, &serial);
    let dense_witness = dense_a.minplus_with_witness(&dense_b, &serial);
    let (hop_graph, hop_sources) = hop_inputs(seed);
    let hop_rows = run_hop_limited(&hop_graph, &hop_sources, 1);
    let engine_words = engine_words(seed);
    let engine_collected = run_engine(&engine_words, 1)?;
    let (oracle, query_pairs, query_answers) = build_oracle(seed);
    Ok(Baseline {
        sparse_a,
        sparse_b,
        dense_a,
        dense_b,
        sparse_plain,
        sparse_witness,
        dense_plain,
        dense_witness,
        hop_graph,
        hop_sources,
        hop_rows,
        engine_words,
        engine_collected,
        oracle,
        query_pairs,
        query_answers,
    })
}

/// Background yield-spinners: pure scheduling noise, no shared state.
struct Spinners {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Spinners {
    fn start(count: usize) -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..count)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        Spinners { stop, handles }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One loopback `ccd` burst under a rolled server schedule: random worker
/// count and `batch_max` (both move the queue-pop coalescing points), two
/// concurrent clients with jittered send pacing, answers compared
/// entry-for-entry against the in-process oracle baseline.
fn serve_burst(base: &Baseline, rng: &mut Xorshift) -> Result<(), String> {
    let config = ServerConfig {
        threads: 1 + rng.below(4),
        queue_capacity: 4096, // never shed: shedding is *load* behavior, not schedule
        batch_max: 1 + rng.below(64),
        default_deadline_ms: 0,
        ..ServerConfig::default()
    };
    let handle = serve(
        Oracles::DistOnly(Arc::clone(&base.oracle)),
        "127.0.0.1:0",
        config,
    )
    .map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr();

    let requests = 6 + rng.below(6);
    let client_seeds = [rng.next_u64(), rng.next_u64()];
    let outcome = std::thread::scope(|scope| {
        let workers: Vec<_> = client_seeds
            .iter()
            .map(|&cs| {
                let pairs = &base.query_pairs;
                let want = &base.query_answers;
                scope.spawn(move || -> Result<(), String> {
                    let mut jrng = Xorshift::new(cs);
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    for r in 0..requests {
                        // Jitter the send points so requests interleave
                        // differently with queue pops on every roll.
                        std::thread::sleep(Duration::from_micros(jrng.below(200) as u64));
                        let lo = jrng.below(pairs.len());
                        let hi = (lo + 1 + jrng.below(pairs.len() - lo)).min(pairs.len());
                        let got = client
                            .dist_batch(&pairs[lo..hi], 0)
                            .map_err(|e| format!("dist_batch: {e}"))?
                            .map_err(|s| format!("unexpected status {s:?}"))?;
                        if got[..] != want[lo..hi] {
                            return Err(format!(
                                "request {r}: served answers for pairs[{lo}..{hi}] \
                                 diverge from the in-process oracle"
                            ));
                        }
                    }
                    // The trace ring is bounded and contention-dropping,
                    // yet a synchronous client (one outstanding request)
                    // must see a deterministic drain: exactly one span per
                    // request, in issue order, every one Ok — under every
                    // perturbed schedule.
                    let trace = client.trace().map_err(|e| format!("trace: {e}"))?;
                    let spans: Vec<&str> = trace.lines().collect();
                    if spans.len() != requests {
                        return Err(format!(
                            "trace ring drained {} spans for {requests} requests",
                            spans.len()
                        ));
                    }
                    for (i, span) in spans.iter().enumerate() {
                        let prefix = format!("span req_id={} op=1 status=0 batch=", i + 1);
                        if !span.starts_with(&prefix) {
                            return Err(format!(
                                "span {i} diverges under this schedule: {span:?} \
                                 (want prefix {prefix:?})"
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect::<Result<Vec<()>, String>>()
    });
    handle.shutdown();
    outcome.map(|_| ())
}

/// Runs the harness. Every failure string carries the root seed, the
/// iteration, and the component, so `--seed`/`--iters` replay it exactly.
pub fn run(cfg: &ScheduleConfig) -> ScheduleSummary {
    let mut summary = ScheduleSummary::default();
    let base = match baseline(cfg.seed) {
        Ok(b) => b,
        Err(e) => {
            summary.failures.push(format!("baseline: {e}"));
            return summary;
        }
    };
    let max_threads = cfg.max_threads.max(1);

    for iter in 0..cfg.iters {
        let mut rng = Xorshift::new(cfg.seed ^ iter.wrapping_mul(0x9e37_79b9));
        let fail = |summary: &mut ScheduleSummary, component: &str, detail: String| {
            summary.failures.push(format!(
                "component={component} iter={iter} seed={:#x}: {detail} \
                 (replay: cc-analyze schedule --seed {} --iters {})",
                cfg.seed,
                cfg.seed,
                iter + 1,
            ));
        };

        // Scheduling noise for this iteration's kernels.
        let _spin = Spinners::start(rng.below(3));

        let threads = 1 + rng.below(max_threads);
        let mut ws = MinplusWorkspace::with_threads(threads);

        let got = base.sparse_a.minplus_with(&base.sparse_b, &mut ws);
        if got != base.sparse_plain {
            fail(
                &mut summary,
                "sparse-minplus",
                format!("threads={threads}: output differs from serial"),
            );
        }
        let got = base.sparse_a.minplus_with_witness(&base.sparse_b, &mut ws);
        if got != base.sparse_witness {
            fail(
                &mut summary,
                "sparse-witness",
                format!("threads={threads}: matrix or witnesses differ from serial"),
            );
        }
        let got = base.dense_a.minplus_with(&base.dense_b, &ws);
        if got != base.dense_plain {
            fail(
                &mut summary,
                "dense-minplus",
                format!("threads={threads}: output differs from serial"),
            );
        }
        let got = base.dense_a.minplus_with_witness(&base.dense_b, &ws);
        if got != base.dense_witness {
            fail(
                &mut summary,
                "dense-witness",
                format!("threads={threads}: matrix or witnesses differ from serial"),
            );
        }

        let hop_threads = 1 + rng.below(max_threads);
        if run_hop_limited(&base.hop_graph, &base.hop_sources, hop_threads) != base.hop_rows {
            fail(
                &mut summary,
                "hop-limited",
                format!("threads={hop_threads}: distance or parent rows differ from serial"),
            );
        }

        let engine_threads = 1 + rng.below(max_threads);
        match run_engine(&base.engine_words, engine_threads) {
            Ok(collected) if collected == base.engine_collected => {}
            Ok(_) => fail(
                &mut summary,
                "engine",
                format!("threads={engine_threads}: per-node collected words differ from serial"),
            ),
            Err(e) => fail(
                &mut summary,
                "engine",
                format!("threads={engine_threads}: {e}"),
            ),
        }
        summary.comparisons += 6;

        if iter % SERVE_EVERY == 0 {
            summary.serve_bursts += 1;
            if let Err(e) = serve_burst(&base, &mut rng) {
                fail(&mut summary, "ccd-loopback", e);
            }
        }

        summary.iterations += 1;
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_run_is_bit_identical() {
        let summary = run(&ScheduleConfig {
            iters: 9, // crosses one serve burst
            seed: 0x7e57,
            max_threads: 3,
        });
        assert_eq!(summary.iterations, 9);
        assert_eq!(summary.serve_bursts, 2);
        assert!(
            summary.failures.is_empty(),
            "determinism violations: {:#?}",
            summary.failures
        );
    }

    #[test]
    fn baselines_are_reproducible() {
        let a = baseline(42).expect("baseline");
        let b = baseline(42).expect("baseline");
        assert_eq!(a.sparse_plain, b.sparse_plain);
        assert_eq!(a.dense_witness, b.dense_witness);
        assert_eq!(a.hop_rows, b.hop_rows);
        assert_eq!(a.engine_collected, b.engine_collected);
        assert_eq!(a.query_answers, b.query_answers);
    }
}
