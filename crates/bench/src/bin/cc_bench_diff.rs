//! `cc-bench-diff` — the CI perf-regression gate over BENCH_*.json files.
//!
//! ```text
//! cc-bench-diff BASELINE.json CURRENT.json
//! ```
//!
//! Compares a freshly produced bench document against the committed
//! baseline and exits non-zero on a regression beyond tolerance. The
//! tolerances are deliberately loose — CI runners are noisy, often
//! single-core boxes (the documents record `available_cores` for exactly
//! this reason) — so the gate catches *order-of-magnitude* breakage
//! (an accidental O(n²) in the hot path, a lost zero-copy path, serving
//! suddenly shedding), not microbenchmark jitter:
//!
//! * **Correctness booleans** (`bit_identical`, `cross_checks_ok`,
//!   `dropped_requests == 0`): must not flip. Zero tolerance.
//! * **Latency quantiles** (`*_latency_us.p50/p95/p99`, `*_ns.p50/p90/p99`,
//!   lower is better): current ≤ 2× baseline + 500 (absolute grace for
//!   near-zero baselines).
//! * **Throughput** (`requests_per_sec`, `queries_per_sec`, `*ops_per_sec`,
//!   higher is better): current ≥ 0.5× baseline.
//! * **Row identity**: arrays are compared index by index
//!   (`results.3.ops_per_sec`), so every string leaf present in both
//!   documents (`results.3.kernel`) must be equal. A row added, removed or
//!   reordered then fails by name instead of comparing one row's numbers
//!   against another row's baseline.
//!
//! Fields present in only one document are reported but never fail the
//! gate (so adding a metric to a bench does not break the first CI run
//! that carries it).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::ExitCode;

use cc_bench::json::{flatten, Leaf};

/// Correctness booleans that must never flip away from the baseline `true`.
const PINNED_TRUE: &[&str] = &["bit_identical", "cross_checks_ok", "zero_copy_storage"];

/// Lower-is-better when the key's last segment is a latency quantile and
/// the containing object is a latency/duration block.
fn is_latency(key: &str) -> bool {
    let Some((parent, leaf)) = key.rsplit_once('.') else {
        return false;
    };
    matches!(leaf, "p50" | "p90" | "p95" | "p99" | "max")
        && (parent.ends_with("_latency_us") || parent.ends_with("_ns"))
}

/// Higher-is-better throughput scalars (`*_per_sec`, `*qps*` — including
/// leaves of a `*_qps_by_threads` block).
fn is_throughput(key: &str) -> bool {
    key == "requests_per_sec"
        || key == "queries_per_sec"
        || key.contains("qps")
        || key.rsplit('.').next().is_some_and(|l| l == "ops_per_sec")
}

/// Latency tolerance: 2× the baseline plus an absolute grace (µs-scale
/// numbers sit near zero on fast runs; ns-scale numbers dwarf it either way).
const LAT_FACTOR: f64 = 2.0;
const LAT_GRACE: f64 = 500.0;
/// Throughput floor relative to baseline.
const TPUT_FLOOR: f64 = 0.5;

/// The gate's verdict on one baseline/current pair.
struct Verdict {
    checks: usize,
    failures: usize,
    /// One line per skipped or failed field, in key order.
    report: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, line: String) {
        self.failures += 1;
        self.report.push(format!("  [FAIL] {line}"));
    }
}

/// Checks every field of `base` that `cur` also has.
fn compare(base: &BTreeMap<String, Leaf>, cur: &BTreeMap<String, Leaf>) -> Verdict {
    let mut v = Verdict {
        checks: 0,
        failures: 0,
        report: Vec::new(),
    };
    for (key, base_leaf) in base {
        let Some(cur_leaf) = cur.get(key) else {
            v.report
                .push(format!("  [skip] {key}: absent in current run"));
            continue;
        };
        if PINNED_TRUE.contains(&key.as_str()) {
            v.checks += 1;
            if *base_leaf == Leaf::Bool(true) && *cur_leaf != Leaf::Bool(true) {
                v.fail(format!("{key}: baseline true, current {cur_leaf:?}"));
            }
            continue;
        }
        if key == "dropped_requests" {
            v.checks += 1;
            if let (Leaf::Num(b), Leaf::Num(c)) = (base_leaf, cur_leaf) {
                if *b == 0.0 && *c != 0.0 {
                    v.fail(format!("{key}: baseline 0, current {c}"));
                }
            }
            continue;
        }
        if let (Leaf::Str(b), Leaf::Str(c)) = (base_leaf, cur_leaf) {
            v.checks += 1;
            if b != c {
                v.fail(format!(
                    "{key}: row identity: baseline {b:?}, current {c:?}"
                ));
            }
            continue;
        }
        let (Leaf::Num(b), Leaf::Num(c)) = (base_leaf, cur_leaf) else {
            continue;
        };
        if is_latency(key) {
            v.checks += 1;
            let limit = b * LAT_FACTOR + LAT_GRACE;
            if *c > limit {
                v.fail(format!(
                    "{key}: {c} > {limit:.1} (baseline {b} x{LAT_FACTOR} + {LAT_GRACE})"
                ));
            }
        } else if is_throughput(key) {
            v.checks += 1;
            let floor = b * TPUT_FLOOR;
            if *c < floor {
                v.fail(format!(
                    "{key}: {c} < {floor:.1} (baseline {b} x{TPUT_FLOOR})"
                ));
            }
        }
    }
    v
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = &args[..] else {
        eprintln!("usage: cc-bench-diff BASELINE.json CURRENT.json");
        return ExitCode::from(2);
    };
    let read = |path: &str| -> Result<BTreeMap<String, Leaf>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        flatten(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, cur) = match (read(baseline_path), read(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cc-bench-diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bench = match (base.get("bench"), cur.get("bench")) {
        (Some(Leaf::Str(b)), Some(Leaf::Str(c))) if b == c => b.clone(),
        (b, c) => {
            eprintln!("cc-bench-diff: bench name mismatch: {b:?} vs {c:?}");
            return ExitCode::FAILURE;
        }
    };
    let verdict = compare(&base, &cur);
    for line in &verdict.report {
        eprintln!("{line}");
    }
    let Verdict {
        checks, failures, ..
    } = verdict;
    if failures == 0 {
        println!(
            "cc-bench-diff: {bench}: {checks} checks passed ({baseline_path} vs {current_path})"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("cc-bench-diff: {bench}: {failures} of {checks} checks FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: &[(&str, f64)]) -> BTreeMap<String, Leaf> {
        let results: Vec<String> = rows
            .iter()
            .map(|(kernel, ops)| format!(r#"{{"kernel": "{kernel}", "ops_per_sec": {ops}}}"#))
            .collect();
        let text = format!(r#"{{"bench": "t", "results": [{}]}}"#, results.join(", "));
        flatten(&text).unwrap()
    }

    #[test]
    fn rows_are_paired_by_identity() {
        let base = doc(&[("dense-blocked", 50.0), ("sparse-csr", 100.0)]);
        let same = compare(&base, &base);
        assert_eq!((same.failures, same.checks), (0, 5));
        // The first row removed: `results.0` is now another kernel whose
        // throughput would pass against the removed row's baseline.
        let shifted = compare(&base, &doc(&[("sparse-csr", 100.0)]));
        assert_eq!(shifted.failures, 1);
        assert!(
            shifted
                .report
                .iter()
                .any(|l| l.contains("results.0.kernel: row identity")),
            "{:?}",
            shifted.report
        );
    }

    #[test]
    fn key_classifiers() {
        assert!(is_latency("dist_latency_us.p50"));
        assert!(is_latency("queue_wait_ns.p99"));
        assert!(is_latency("queue_wait_ns.max"));
        assert!(!is_latency("overload.ok"));
        assert!(!is_latency("p50_ratio"));
        assert!(is_throughput("requests_per_sec"));
        assert!(is_throughput("results.3.ops_per_sec"));
        assert!(is_throughput("path_qps_batch"));
        assert!(is_throughput("path_qps_by_threads.t2"));
        assert!(!is_throughput("requests_per_client"));
    }
}
