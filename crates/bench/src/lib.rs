//! Experiment harness for the Dory–Parter reproduction.
//!
//! Each theorem-level claim of the paper maps to one experiment binary in
//! `src/bin/` (see `DESIGN.md` §5 for the index and `EXPERIMENTS.md` for
//! recorded results). This library provides the shared scaffolding: aligned
//! text tables, seeded RNGs, the standard graph suite, and the timing,
//! query-stream and JSON helpers the `t15`–`t18` benches share.

#![forbid(unsafe_code)]
// Index-based loops are the clearest idiom for the dense adjacency/matrix
// code in this workspace.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

use std::time::Instant;

use cc_graphs::{generators, Graph};
use cc_obs::HistSummary;
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

/// Renders a histogram summary as an all-integer JSON object (quantiles are
/// exact power-of-two bucket uppers, capped at the observed max).
pub fn hist_json(h: &HistSummary) -> String {
    format!(
        "{{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
        h.count, h.p50, h.p90, h.p99, h.max
    )
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
    #[should_panic(expected = "column count mismatch")]
    fn wrong_arity_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn rng_is_reproducible() {
        use rand::Rng;
        let a: u64 = rng(5).gen();
        let b: u64 = rng(5).gen();
        assert_eq!(a, b);
    }
}
