//! Order statistics over measured samples, and quantiles of `ccd`'s
//! power-of-two latency histograms.

use std::collections::BTreeMap;

use cc_obs::registry::bucket_upper;

/// Median of `xs` (mean of the middle two for an even count); `0` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p ∈ [0, 1]` of an ascending slice; `0` when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of histogram buckets `ccd` exposes: `≤ 1`, then `(2^(k-1), 2^k]`.
const BUCKETS: usize = 64;

/// Cumulative bucket counts of histogram `name` in one scrape, indexed like
/// `cc_obs` buckets. `ccd` only emits buckets up to its highest non-empty
/// one, so every bucket above it holds the full count.
pub fn cumulative(samples: &BTreeMap<String, u64>, name: &str) -> Vec<u64> {
    let count = samples.get(&format!("{name}_count")).copied().unwrap_or(0);
    (0..BUCKETS)
        .map(|i| {
            let key = format!("{name}_bucket{{le=\"{}\"}}", bucket_upper(i));
            samples.get(&key).copied().unwrap_or(count)
        })
        .collect()
}

/// Quantile `q` of the samples recorded between two scrapes (`before`,
/// `after` from [`cumulative`]), interpolated linearly inside the
/// power-of-two bucket that holds the rank. `0` when nothing was recorded.
/// (`cc_obs::text::histogram_summary` covers the server's whole lifetime
/// and reports bucket upper bounds, which read the same run after run.)
pub fn hist_quantile(before: &[u64], after: &[u64], q: f64) -> f64 {
    let delta: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total = delta.last().copied().unwrap_or(0);
    if total == 0 {
        return 0.0;
    }
    let rank = q * total as f64;
    let mut below = 0u64;
    for (i, &cum) in delta.iter().enumerate() {
        if cum as f64 >= rank && cum > below {
            // Bucket 0 holds values ≤ 1; `ccd` records it only for batch
            // sizes, which are then exactly 1.
            let hi = bucket_upper(i) as f64;
            let lo = if i == 0 {
                hi
            } else {
                bucket_upper(i - 1) as f64
            };
            let frac = (rank - below as f64) / (cum - below) as f64;
            return lo + (hi - lo) * frac.clamp(0.0, 1.0);
        }
        below = cum;
    }
    bucket_upper(BUCKETS - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_a_bucket() {
        // 10 samples in (512, 1024], none before.
        let before = vec![0u64; BUCKETS];
        let mut after = vec![0u64; BUCKETS];
        for (i, slot) in after.iter_mut().enumerate() {
            if bucket_upper(i) >= 1024 {
                *slot = 10;
            }
        }
        let p50 = hist_quantile(&before, &after, 0.5);
        assert!((p50 - 768.0).abs() < 1e-9, "{p50}");
        assert_eq!(hist_quantile(&after, &after, 0.5), 0.0);
    }
}
