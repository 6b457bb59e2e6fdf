//! Layer replay (traced runs only): re-issues the tool-kit calls the
//! `(2+ε)` pipeline makes, through their public functions, so each layer
//! gets its own span. The pipeline's own `Solver` call is one opaque span.
//!
//! Inputs come from the public `Apsp2Config::scaled` fields and the
//! pipeline's result. A seeded run draws from a generator seeded exactly as
//! the `Solver` seeds it, in the pipeline's order, so the replay repeats the
//! pipeline's random choices too. Fidelity is checked, not assumed: the
//! replayed hitting sets must equal the result's pivot sets, and the
//! replay's `RoundLedger` entries must equal the pipeline's for every step
//! replayed, label for label.

use std::hint::black_box;

use cc_clique::RoundLedger;
use cc_core::apsp2::{Apsp2, Apsp2Config};
use cc_core::Execution;
use cc_derand::hitting;
use cc_emulator::{deterministic, whp};
use cc_graphs::{Dist, Graph, WeightedGraph};
use cc_toolkit::hopset::{self, BoundedHopset, HopsetParams};
use cc_toolkit::knearest::{KNearest, Strategy};
use cc_toolkit::source_detection::SourceDetection;
use cc_toolkit::through_sets::{distance_through_sets, distance_through_sets_with_witness};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checks::Tally;
use crate::spans::Spans;

/// Ledger labels the pipeline charges by hand rather than through a
/// tool-kit call; the replay does not re-issue them.
const HAND_CHARGED: [&str; 6] = [
    "collect emulator at all vertices",
    "announce nearest A-pivots",
    "announce A'-attachments",
    "route through A'_u",
    "E'' product W1·W2",
    "E'' product (W1·W2)·W3",
];

/// The randomized hitting-set constant the pipeline selects pivots with.
const HITTING_C: f64 = 2.5;

/// Parameter regime and work shapes of one replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shapes {
    pub t: Dist,
    pub k: usize,
    pub thresh2: usize,
    pub high_sources: usize,
    pub case2_sources: usize,
    pub case3a_sources: usize,
    /// Hop bound β of the low-degree hopset (the SD hop count of Cases 2/3a).
    pub hops: usize,
    /// Edges of `G' ∪ H'`, the graph Cases 2/3a run SD on.
    pub union_edges: usize,
    /// Edges of the low-degree hopset `H'`.
    pub hopset_edges: usize,
}

/// The Case 3a degree threshold `max(n/k², 1)`: it clamps to 1 once
/// `k² > n`, and then every vertex with a `G'` edge is an A′ candidate.
pub fn thresh2(n: usize, k: usize) -> usize {
    (n / (k * k)).max(1)
}

/// What one replay found.
pub struct Replayed {
    pub shapes: Shapes,
    pub fidelity: Tally,
    pub mismatches: Vec<String>,
}

fn hitting_set(
    rng: &mut Option<StdRng>,
    universe: usize,
    k: usize,
    sets: &[Vec<usize>],
    ledger: &mut RoundLedger,
) -> Vec<usize> {
    if sets.is_empty() {
        return Vec::new();
    }
    // The promised set size is clamped to the smallest set, as the
    // pipeline's substrate cache does.
    let k = k.min(sets.iter().map(Vec::len).min().unwrap_or(k)).max(1);
    match rng {
        Some(rng) => hitting::random_hitting_set(universe, k, sets, HITTING_C, rng, ledger),
        None => hitting::deterministic_hitting_set(universe, k, sets, ledger),
    }
    .expect("pipeline sets are valid hitting-set input")
}

fn bounded_hopset(
    rng: &mut Option<StdRng>,
    g: &Graph,
    cfg: &Apsp2Config,
    ledger: &mut RoundLedger,
) -> BoundedHopset {
    let t = 2 * cfg.threshold();
    let eps = cfg.eps / 2.0;
    let params = if cfg.emulator.scaled_hopset {
        HopsetParams::scaled(g.n(), t, eps)
    } else {
        HopsetParams::paper(g.n(), t, eps)
    }
    .with_threads(cfg.emulator.threads)
    .with_paths(cfg.emulator.record_paths);
    match rng {
        Some(rng) => hopset::build_randomized(g, params, rng, ledger),
        None => hopset::build_deterministic(g, params, ledger),
    }
}

fn source_detection(
    union: &WeightedGraph,
    sources: &[usize],
    hops: usize,
    record_paths: bool,
    ledger: &mut RoundLedger,
) -> SourceDetection {
    if record_paths {
        SourceDetection::run_with_parents(union, sources, hops, ledger)
    } else {
        SourceDetection::run(union, sources, hops, ledger)
    }
}

fn through_sets(
    sets: &[Vec<usize>],
    apsp2: &Apsp2,
    record_paths: bool,
    ledger: &mut RoundLedger,
) -> Vec<Vec<Dist>> {
    let n = sets.len();
    let estimate = |v: usize, w: usize| apsp2.estimates.get(v, w);
    if record_paths {
        distance_through_sets_with_witness(n, sets, estimate, ledger).0
    } else {
        distance_through_sets(n, sets, estimate, ledger)
    }
}

/// Replays the `(2+ε)` pipeline's tool-kit calls on `g`. Spans: `sd.high`,
/// `sd.case2`, `sd.case3a`, `knearest`, `through_sets` (twice when the
/// high-degree branch runs), plus `replay.*` spans for the substrates the
/// calls need. `pipeline` is the ledger of the `Solver` that produced
/// `apsp2`.
pub fn replay(
    g: &Graph,
    cfg: &Apsp2Config,
    execution: Execution,
    apsp2: &Apsp2,
    pipeline: &RoundLedger,
    spans: &mut Spans,
) -> Replayed {
    let n = g.n();
    let t = cfg.threshold();
    let record = cfg.emulator.record_paths;
    let mut rng = match execution {
        Execution::Seeded(seed) => Some(StdRng::seed_from_u64(seed)),
        Execution::Deterministic => None,
    };
    let mut ledger = RoundLedger::new(n);
    let mut phase = ledger.enter("apsp2");
    let mut shapes = Shapes {
        t,
        k: cfg.k,
        thresh2: thresh2(n, cfg.k),
        ..Shapes::default()
    };
    let mut fidelity = Tally::default();
    let mut mismatches = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        fidelity.record(ok);
        if !ok {
            mismatches.push(what.to_string());
        }
    };

    // The emulator draws first from the generator, as in the pipeline.
    spans.time("replay.emulator", || match rng.as_mut() {
        Some(rng) => drop(whp::build(g, &cfg.emulator, rng, &mut phase)),
        None => drop(deterministic::build(g, &cfg.emulator, &mut phase)),
    });

    // Claims 38/39: S hits the neighbourhoods of high-degree vertices.
    let hdt = cfg.high_degree_threshold;
    let high_sets: Vec<Vec<usize>> = (0..n)
        .filter(|&v| g.degree(v) >= hdt)
        .map(|v| g.neighbors(v).iter().map(|&u| u as usize).collect())
        .collect();
    let s = spans.time("replay.hitting", || {
        hitting_set(&mut rng, n, hdt, &high_sets, &mut phase)
    });
    expect(s == apsp2.high_degree_pivots, "S differs from the result's");
    shapes.high_sources = s.len();
    let high_hopset = (!s.is_empty()).then(|| {
        spans.time("replay.hopset", || {
            bounded_hopset(&mut rng, g, cfg, &mut phase)
        })
    });
    let high_union = high_hopset.as_ref().map(|hs| hs.union_with(g));
    spans.time("sd.high", || {
        if let (Some(hs), Some(union)) = (&high_hopset, &high_union) {
            black_box(source_detection(union, &s, hs.beta, record, &mut phase));
        }
    });
    if !s.is_empty() {
        let sets = vec![s.clone(); n];
        spans.time("through_sets", || {
            black_box(through_sets(&sets, apsp2, record, &mut phase))
        });
    }

    // Claims 40/41 on the low-degree subgraph G'.
    let gp = g.low_degree_subgraph(hdt);
    let kn = spans.time("knearest", || {
        let kn = KNearest::compute_with(
            &gp,
            cfg.k,
            t,
            Strategy::TruncatedBfs,
            cfg.emulator.threads,
            &mut phase,
        );
        if record {
            kn.with_parents(&gp)
        } else {
            kn
        }
    });
    let kn_sets: Vec<Vec<usize>> = (0..n)
        .map(|u| kn.list(u).iter().map(|&(v, _)| v as usize).collect())
        .collect();
    spans.time("through_sets", || {
        black_box(through_sets(&kn_sets, apsp2, record, &mut phase))
    });
    let full_sets: Vec<Vec<usize>> = (0..n)
        .filter(|&v| kn.list(v).len() >= cfg.k)
        .map(|v| kn_sets[v].clone())
        .collect();
    let a = spans.time("replay.hitting", || {
        hitting_set(&mut rng, n, cfg.k, &full_sets, &mut phase)
    });
    expect(a == apsp2.low_degree_pivots, "A differs from the result's");
    let gp_hopset = (!(a.is_empty() && gp.m() == 0)).then(|| {
        spans.time("replay.hopset", || {
            bounded_hopset(&mut rng, &gp, cfg, &mut phase)
        })
    });
    let gp_union = gp_hopset.as_ref().map(|hs| hs.union_with(&gp));
    if let (Some(hs), Some(union)) = (&gp_hopset, &gp_union) {
        shapes.hops = hs.beta;
        shapes.union_edges = union.m();
        shapes.hopset_edges = hs.edges.m();
    }
    // Case 2 runs from the result's own pivot set A.
    let a = &apsp2.low_degree_pivots;
    shapes.case2_sources = a.len();
    spans.time("sd.case2", || {
        if let (Some(hs), Some(union), false) = (&gp_hopset, &gp_union, a.is_empty()) {
            black_box(source_detection(union, a, hs.beta, record, &mut phase));
        }
    });
    // Case 3a: A' hits the neighbourhoods of high-G'-degree vertices.
    let big_sets: Vec<Vec<usize>> = (0..n)
        .filter(|&v| gp.degree(v) >= shapes.thresh2)
        .map(|v| gp.neighbors(v).iter().map(|&u| u as usize).collect())
        .collect();
    let a2 = spans.time("replay.hitting", || {
        hitting_set(&mut rng, n, shapes.thresh2, &big_sets, &mut phase)
    });
    shapes.case3a_sources = a2.len();
    spans.time("sd.case3a", || {
        if let (Some(hs), Some(union), false) = (&gp_hopset, &gp_union, a2.is_empty()) {
            black_box(source_detection(union, &a2, hs.beta, record, &mut phase));
        }
    });
    drop(phase);

    let charged: Vec<_> = pipeline
        .entries()
        .iter()
        .filter(|e| e.phase.starts_with("apsp2") && !HAND_CHARGED.contains(&e.label.as_str()))
        .collect();
    let replayed: Vec<_> = ledger.entries().iter().collect();
    expect(
        charged == replayed,
        &format!(
            "ledger: pipeline charged {} replayable entries, replay {}; first difference at {:?}",
            charged.len(),
            replayed.len(),
            charged
                .iter()
                .zip(&replayed)
                .position(|(a, b)| a != b)
                .unwrap_or(charged.len().min(replayed.len()))
        ),
    );
    Replayed {
        shapes,
        fidelity,
        mismatches,
    }
}
