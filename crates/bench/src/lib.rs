//! Experiment harness for the Dory–Parter reproduction.
//!
//! Each theorem-level claim of the paper maps to one experiment binary in
//! `src/bin/` (see `DESIGN.md` §5 for the index and `EXPERIMENTS.md` for
//! recorded results). This library provides the shared scaffolding: aligned
//! text tables, seeded RNGs, the standard graph suite, and the harness the
//! `t13`–`t18` benches share: their flags ([`cli`]), thread ladder
//! ([`thread_sweep`]), worker threads ([`on_threads`]), timing, query
//! streams and JSON documents ([`json`]).

#![forbid(unsafe_code)]
// Index-based loops are the clearest idiom for the dense adjacency/matrix
// code in this workspace.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod cli;
pub mod json;

use std::time::Instant;

use cc_graphs::{generators, Graph};
use cc_obs::HistSummary;
use json::{fixed, Json};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// An aligned text table for experiment output.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// A bench document's results array (objects with the same keys) as a
    /// table, one column per key of the first row.
    ///
    /// # Panics
    ///
    /// Panics if a row is not an object.
    pub fn from_results(title: impl Into<String>, rows: &[Json]) -> Self {
        let headers: Vec<&str> = match rows.first() {
            Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        };
        let mut table = Table::new(title, &headers);
        for row in rows {
            let Json::Obj(fields) = row else {
                panic!("results rows are objects");
            };
            table.row(fields.iter().map(|(_, v)| v.cell()).collect());
        }
        table
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths.iter()) {
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// A reproducible RNG for experiment `seed`.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// The `p`-quantile (`0.0..=1.0`) of an ascending-sorted sample, by
/// nearest rank; `0.0` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Best-of-`reps` wall time of `run` in seconds, with the last run's
/// output (`reps` is raised to at least 1).
pub fn best_secs<T>(reps: usize, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let value = run();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(value);
    }
    (best, out.expect("reps >= 1"))
}

/// A `G(n, p)` graph whose adjacency rows hold about `target_rho` entries:
/// the rows carry the diagonal plus the degree, so the expected degree is
/// aimed at `ρ − 1`.
pub fn gnp_with_density(n: usize, target_rho: usize, seed: u64) -> Graph {
    let p = (target_rho.saturating_sub(1) as f64 / (n - 1) as f64).min(1.0);
    generators::gnp(n, p, &mut rng(seed))
}

/// Deterministic query-pair stream over `0..n` (splitmix-style, no RNG
/// dependency).
pub fn pairs_for(seed: u64, n: usize, count: usize) -> Vec<(u32, u32)> {
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..count)
        .map(|_| {
            let r = next();
            ((r % n as u64) as u32, ((r >> 32) % n as u64) as u32)
        })
        .collect()
}

/// Converts `(u, v)` query pairs to the index form the oracles take.
pub fn upairs(pairs: &[(u32, u32)]) -> Vec<(usize, usize)> {
    pairs
        .iter()
        .map(|&(u, v)| (u as usize, v as usize))
        .collect()
}

/// A histogram summary as an all-integer JSON object (quantiles are exact
/// power-of-two bucket uppers, capped at the observed max).
pub fn hist_json(h: &HistSummary) -> Json {
    Json::obj()
        .field("count", h.count)
        .field("p50", h.p50)
        .field("p90", h.p90)
        .field("p99", h.p99)
        .field("max", h.max)
}

/// The p50/p95/p99 of an ascending-sorted latency sample as a JSON object
/// (one decimal).
pub fn latency_json(sorted: &[f64]) -> Json {
    [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)]
        .into_iter()
        .map(|(key, p)| (key, fixed(percentile(sorted, p), 1)))
        .collect()
}

/// The thread ladder 1, 2, 4, … up to `max`.
pub fn thread_sweep(max: usize) -> Vec<usize> {
    std::iter::successors(Some(1usize), |&t| Some(t * 2).filter(|&next| next <= max)).collect()
}

/// Cores this process may run on; recorded next to every thread-dependent
/// result.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Runs `work(0)`, …, `work(count - 1)` on `count` scoped threads at once
/// and returns their results in that order.
///
/// # Panics
///
/// Resumes the first worker panic, in worker order, after every worker
/// has stopped.
pub fn on_threads<T: Send>(count: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..count)
            .map(|i| {
                let work = &work;
                scope.spawn(move || work(i))
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

/// Standard `n` sweep for scaling experiments.
pub fn n_sweep() -> Vec<usize> {
    vec![128, 256, 512, 1024]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_the_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 0.5), 3.0);
        assert_eq!(percentile(&sorted, 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["n", "value"]);
        t.row(vec!["128".into(), "1.5".into()]);
        t.row(vec!["1024".into(), "12.25".into()]);
        let r = t.render();
        assert!(r.contains("demo"));
        assert!(r.contains("1024"));
        assert!(r.lines().count() >= 5);
    }

    #[test]
    fn results_render_as_a_table() {
        let rows = [
            Json::obj()
                .field("kernel", "csr")
                .field("ms", fixed(1.5, 2)),
            Json::obj()
                .field("kernel", "dense")
                .field("ms", fixed(12.0, 2)),
        ];
        let r = Table::from_results("demo", &rows).render();
        assert!(r.contains("kernel     ms\n"), "{r}");
        assert!(r.contains("\n dense  12.00\n"), "{r}");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn thread_sweep_doubles_up_to_max() {
        assert_eq!(thread_sweep(1), vec![1]);
        assert_eq!(thread_sweep(4), vec![1, 2, 4]);
        assert_eq!(thread_sweep(6), vec![1, 2, 4]);
    }

    #[test]
    fn on_threads_returns_results_in_worker_order() {
        assert_eq!(on_threads(4, |i| i * 10), vec![0, 10, 20, 30]);
        assert!(on_threads(0, |i| i).is_empty());
    }

    #[test]
    fn rng_is_reproducible() {
        use rand::Rng;
        let a: u64 = rng(5).gen();
        let b: u64 = rng(5).gen();
        assert_eq!(a, b);
    }
}
