//! Criterion wall-clock benchmarks for the APSP/MSSP applications.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use cc_clique::RoundLedger;
use cc_core::apsp2::{self, Apsp2Config};
use cc_core::apsp_additive::{self, AdditiveApspConfig};
use cc_core::mssp::{self, MsspConfig};
use cc_graphs::generators;

fn bench_apsp(c: &mut Criterion) {
    let mut group = c.benchmark_group("apsp");
    group.sample_size(10);
    for n in [128usize, 256] {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::caveman(n / 8, 8);
        let nn = g.n();

        group.bench_with_input(BenchmarkId::new("additive", nn), &nn, |b, _| {
            let cfg = AdditiveApspConfig::scaled(nn, 0.25).expect("valid");
            b.iter(|| {
                let mut ledger = RoundLedger::new(nn);
                apsp_additive::run(&g, &cfg, Some(&mut rng), &mut ledger)
            })
        });
        group.bench_with_input(BenchmarkId::new("two-plus-eps", nn), &nn, |b, _| {
            let cfg = Apsp2Config::scaled(nn, 0.5).expect("valid");
            b.iter(|| {
                let mut ledger = RoundLedger::new(nn);
                apsp2::run(&g, &cfg, Some(&mut rng), &mut ledger).expect("apsp2")
            })
        });
        group.bench_with_input(BenchmarkId::new("mssp", nn), &nn, |b, _| {
            let cfg = MsspConfig::scaled(nn, 0.25).expect("valid");
            let sources: Vec<usize> = (0..nn).step_by(11).take(12).collect();
            b.iter(|| {
                let mut ledger = RoundLedger::new(nn);
                mssp::run(&g, &sources, &cfg, Some(&mut rng), &mut ledger).expect("mssp")
            })
        });
        group.bench_with_input(BenchmarkId::new("baseline-polylog", nn), &nn, |b, _| {
            b.iter(|| {
                let mut ledger = RoundLedger::new(nn);
                cc_baselines::polylog::apsp(&g, 0.5, &mut rng, &mut ledger)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_apsp);
criterion_main!(benches);
