#![allow(clippy::needless_range_loop)]
//! End-to-end integration tests: every APSP variant against exact ground
//! truth, across graph families, in randomized and deterministic modes.

use congested_clique::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn families(seed: u64) -> Vec<(&'static str, Graph)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    vec![
        ("cycle", generators::cycle(48)),
        ("grid", generators::grid(7, 7)),
        ("caveman", generators::caveman(7, 7)),
        ("gnp", generators::connected_gnp(64, 0.07, &mut rng)),
        ("tree", generators::random_tree(48, &mut rng)),
        (
            "pref-attach",
            generators::preferential_attachment(64, 2, &mut rng),
        ),
    ]
}

#[test]
fn additive_apsp_respects_bounds_everywhere() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for (name, g) in families(10) {
        let cfg = AdditiveApspConfig::new(g.n(), 0.25, 2).expect("valid");
        let mut ledger = RoundLedger::new(g.n());
        let out = apsp_additive::run(&g, &cfg, Some(&mut rng), &mut ledger);
        let exact = bfs::apsp_exact(&g);
        let report = stretch::evaluate(
            &exact,
            out.estimates.as_fn(),
            out.multiplicative_bound - 1.0,
        );
        assert!(
            report.satisfies(out.multiplicative_bound - 1.0, out.additive_bound),
            "{name}: {report:?}"
        );
    }
}

#[test]
fn two_plus_eps_short_range_everywhere() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    for (name, g) in families(20) {
        let cfg = Apsp2Config::new(g.n(), 0.5, 2).expect("valid");
        let mut ledger = RoundLedger::new(g.n());
        let out = apsp2::run(&g, &cfg, Some(&mut rng), &mut ledger).expect("apsp2");
        let exact = bfs::apsp_exact(&g);
        let report = stretch::evaluate_range(&exact, out.estimates.as_fn(), 0.0, 1, out.t);
        assert_eq!(report.lower_violations, 0, "{name}");
        assert_eq!(report.missed, 0, "{name}");
        assert!(
            report.max_multiplicative <= out.short_range_guarantee + 1e-9,
            "{name}: {} > {}",
            report.max_multiplicative,
            out.short_range_guarantee
        );
    }
}

#[test]
fn deterministic_variants_agree_with_bounds_and_reproduce() {
    for (name, g) in families(30) {
        let cfg = Apsp2Config::new(g.n(), 0.5, 2).expect("valid");
        let mut l1 = RoundLedger::new(g.n());
        let a = apsp2::run(&g, &cfg, None, &mut l1).expect("apsp2 det");
        let mut l2 = RoundLedger::new(g.n());
        let b = apsp2::run(&g, &cfg, None, &mut l2).expect("apsp2 det");
        assert_eq!(a.estimates, b.estimates, "{name}: determinism violated");
        assert_eq!(l1.total_rounds(), l2.total_rounds(), "{name}");
        let exact = bfs::apsp_exact(&g);
        let report = stretch::evaluate_range(&exact, a.estimates.as_fn(), 0.0, 1, a.t);
        assert!(
            report.max_multiplicative <= a.short_range_guarantee + 1e-9,
            "{name}: {}",
            report.max_multiplicative
        );
    }
}

#[test]
fn three_plus_eps_is_weaker_but_valid() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for (name, g) in families(40) {
        let cfg = Apsp3Config::new(g.n(), 0.5, 2).expect("valid");
        let mut ledger = RoundLedger::new(g.n());
        let out = apsp3::run(&g, &cfg, Some(&mut rng), &mut ledger).expect("apsp3");
        let exact = bfs::apsp_exact(&g);
        let report = stretch::evaluate_range(&exact, out.estimates.as_fn(), 0.0, 1, out.t);
        assert_eq!(report.lower_violations, 0, "{name}");
        assert!(
            report.max_multiplicative <= out.short_range_guarantee + 1e-9,
            "{name}: {}",
            report.max_multiplicative
        );
    }
}

#[test]
fn estimates_obey_triangle_inequality_through_merges() {
    // δ(u,v) values produced by the pipelines are path lengths in G, so
    // δ(u,v) ≤ δ(u,w) + δ(w,v) need not hold exactly — but the *exact lower
    // bound* d ≤ δ must, and δ must be symmetric. Check both.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let g = generators::caveman(6, 6);
    let cfg = Apsp2Config::new(g.n(), 0.5, 2).expect("valid");
    let mut ledger = RoundLedger::new(g.n());
    let out = apsp2::run(&g, &cfg, Some(&mut rng), &mut ledger).expect("apsp2");
    let exact = bfs::apsp_exact(&g);
    for u in 0..g.n() {
        for v in 0..g.n() {
            assert_eq!(out.estimates.get(u, v), out.estimates.get(v, u));
            if u != v {
                assert!(out.estimates.get(u, v) >= exact[u][v]);
            }
        }
    }
}

#[test]
fn baselines_sanity_against_exact() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let g = generators::connected_gnp(48, 0.1, &mut rng);
    let exact = bfs::apsp_exact(&g);

    let mut l1 = RoundLedger::new(g.n());
    assert_eq!(
        congested_clique::baselines::full_gather::apsp(&g, &mut l1),
        exact
    );

    let mut l2 = RoundLedger::new(g.n());
    assert_eq!(
        congested_clique::baselines::matrix_squaring::apsp_rows(&g, &mut l2),
        exact
    );
    // Algebraic rounds must exceed gather rounds on sparse inputs, and both
    // must be consistent with their formulas.
    assert!(l2.total_rounds() > l1.total_rounds());
}
