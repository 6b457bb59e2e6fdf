//! T15 — min-plus kernel throughput: the CSR sparse kernel and the
//! cache-blocked dense kernel, serial vs row-sharded parallel.
//!
//! Sweeps `kernel × n × density × threads` over gnp adjacency matrices and
//! their squares, measuring semiring operations per second (one operation =
//! one `min(acc, a + b)` accumulation; the operation count is a property of
//! the inputs, so every kernel on a cell does identical work). Emits one
//! JSON document on stdout (human-readable table on stderr) with:
//!
//! * ops/sec per `(kernel, n, ρ, threads)` cell,
//! * the parallel-vs-serial speedup per dense cell (**hardware-dependent**:
//!   row shards are independent, so on a machine with ≥ 4 cores 4 threads
//!   approach 4×; on a single-core container it stays near 1 — the
//!   bit-identical cross-checks still validate the sharding either way),
//! * cross-checks: the two kernels check each other. Every serial CSR
//!   product is compared entry-for-entry (values and nnz) against the
//!   blocked dense product of the same adjacency, every serial dense
//!   product against the CSR product, and every threaded product must be
//!   **bit-identical** to its serial run. Any divergence fails the run.
//!
//! Run with: `cargo run --release --bin t15_minplus_kernels -- [--threads T] [--reps R] [--quick]`

#![forbid(unsafe_code)]

use cc_bench::cli::Args;
use cc_bench::json::{fixed, Json};
use cc_bench::{available_cores, best_secs, gnp_with_density, thread_sweep, Table};
use cc_matrix::{DenseMatrix, MinplusWorkspace, SparseMatrix};

/// Semiring operations of `a · b`: one per `(i, k, j)` with `(i,k)` finite
/// in `a` and `(k,j)` finite in `b` — identical for every sparse kernel.
fn sparse_ops(a: &SparseMatrix, b: &SparseMatrix) -> u64 {
    (0..a.n())
        .map(|i| {
            a.row(i)
                .iter()
                .map(|&(k, _)| b.row_nnz(k as usize) as u64)
                .sum::<u64>()
        })
        .sum()
}

/// Semiring operations of the dense kernels: finite `(i,k)` cells × row
/// length (the skip-∞ prefilter makes all-∞ `k` cells free in both kernels).
fn dense_ops(a: &DenseMatrix) -> u64 {
    a.finite_entries() as u64 * a.n() as u64
}

/// Asserts that a sparse and a dense product agree entry for entry,
/// values and nnz.
fn assert_same(sparse: &SparseMatrix, dense: &DenseMatrix, what: &str) {
    let n = dense.n();
    for i in 0..n {
        for j in 0..n {
            assert_eq!(
                sparse.get(i, j),
                dense.get(i, j),
                "{what}: CSR and dense products diverged at ({i},{j})"
            );
        }
    }
    assert_eq!(sparse.nnz(), dense.finite_entries(), "{what}: nnz");
}

/// One result row: `kernel` on an `n`-vertex, density-`rho` input at
/// `threads`, best of the reps in `secs`.
fn row(kernel: &str, n: usize, rho: u64, threads: usize, ops: u64, secs: f64) -> Json {
    Json::obj()
        .field("kernel", kernel)
        .field("n", n)
        .field("rho", rho)
        .field("threads", threads)
        .field("ops", ops)
        .field("wall_ms", fixed(secs * 1e3, 3))
        .field("ops_per_sec", fixed(ops as f64 / secs, 0))
}

fn main() {
    let args = Args::parse(&["--quick"], &["--threads N", "--reps N"]);
    let max_threads = args.threads(4);
    let reps = args
        .value("--reps")
        .unwrap_or(if args.flag("--quick") { 2 } else { 5 });
    let cores = available_cores();
    let thread_counts = thread_sweep(max_threads);

    let mut rows: Vec<Json> = Vec::new();
    let mut dense_speedups: Vec<(usize, f64)> = Vec::new(); // (n, max-threads/serial)

    // ── Sparse: CSR per (n, ρ), threads sweep. ───────────────────────────
    for &n in &[256usize, 1024] {
        for &target_rho in &[8usize, 32] {
            let g = gnp_with_density(n, target_rho, (n + target_rho) as u64);
            let a = SparseMatrix::adjacency(&g);
            let rho = a.density();
            let ops = sparse_ops(&a, &a);

            let mut serial_out = None;
            for &threads in &thread_counts {
                let mut ws = MinplusWorkspace::with_threads(threads);
                // Warm the workspace so steady-state (allocation-free)
                // products are what the timer sees.
                let _ = a.minplus_with(&a, &mut ws);
                let (secs, out) = best_secs(reps, || a.minplus_with(&a, &mut ws));
                if threads == 1 {
                    let d = DenseMatrix::adjacency(&g);
                    assert_same(&out, &d.minplus(&d), &format!("n={n} rho={rho}"));
                    serial_out = Some(out);
                } else {
                    let serial = serial_out.as_ref().expect("serial ran first");
                    assert_eq!(
                        &out, serial,
                        "threaded sparse product not bit-identical at n={n} rho={rho} threads={threads}"
                    );
                    assert_eq!(out.nnz(), serial.nnz());
                }
                rows.push(row("sparse-csr", n, rho, threads, ops, secs));
            }
        }
    }

    // ── Dense: the blocked kernel, threads sweep. ─────────────────────────
    for &n in &[256usize, 1024] {
        let g = gnp_with_density(n, 32, n as u64);
        let a = DenseMatrix::adjacency(&g);
        let rho = (a.finite_entries() as u64).div_ceil(n as u64);
        let ops = dense_ops(&a);

        let mut serial_out = None;
        let mut serial_secs = 0.0;
        let mut max_threads_secs = 0.0;
        for &threads in &thread_counts {
            let ws = MinplusWorkspace::with_threads(threads);
            let (secs, out) = best_secs(reps, || a.minplus_with(&a, &ws));
            if threads == 1 {
                let s = SparseMatrix::adjacency(&g);
                assert_same(&s.minplus(&s), &out, &format!("dense n={n}"));
                serial_secs = secs;
                serial_out = Some(out);
            } else {
                assert_eq!(
                    Some(&out),
                    serial_out.as_ref(),
                    "threaded dense product not bit-identical at n={n} threads={threads}"
                );
            }
            if threads == *thread_counts.last().expect("non-empty") {
                max_threads_secs = secs;
            }
            rows.push(row("dense-blocked", n, rho, threads, ops, secs));
        }
        dense_speedups.push((n, serial_secs / max_threads_secs));
    }

    // ── Report. ───────────────────────────────────────────────────────────
    let max_threads_swept = *thread_counts.last().expect("non-empty");
    eprint!(
        "{}",
        Table::from_results("t15_minplus_kernels", &rows).render()
    );
    for &(n, s) in &dense_speedups {
        eprintln!("dense n={n}: {max_threads_swept} threads vs serial = {s:.2}x (cores available: {cores})");
    }

    let doc = Json::obj()
        .field("bench", "t15_minplus_kernels")
        .field("max_threads", max_threads_swept)
        .field("available_cores", cores)
        .field("reps", reps)
        .field("cross_checks_ok", true)
        .field(
            "dense_parallel_vs_serial_speedup",
            dense_speedups
                .iter()
                .map(|(n, s)| (format!("n{n}"), fixed(*s, 3)))
                .collect::<Json>(),
        )
        .field("results", rows);
    println!("{}", doc.render());
}
