//! Distance-estimate matrices shared by the APSP algorithms.

use cc_graphs::{dadd, Dist, INF};

/// A symmetric `n × n` matrix of distance estimates, initialized to ∞ with a
/// zero diagonal. All updates keep the minimum (estimates only improve) and
/// are applied symmetrically — the algorithms of the paper all produce
/// symmetric estimates on undirected inputs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<Dist>,
}

impl DistanceMatrix {
    /// Fresh matrix: ∞ everywhere, 0 on the diagonal.
    pub fn new(n: usize) -> Self {
        let mut data = vec![INF; n * n];
        for i in 0..n {
            data[i * n + i] = 0;
        }
        DistanceMatrix { n, data }
    }

    /// Dimension `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current estimate `δ(u, v)`.
    #[inline]
    pub fn get(&self, u: usize, v: usize) -> Dist {
        self.data[u * self.n + v]
    }

    /// Borrows the full row of `u` (`row(u)[v] = δ(u, v)`). By symmetry this
    /// is also the column of `u`, so callers that previously walked
    /// `get(u, 0..n)` — or materialized both orientations — can iterate one
    /// contiguous slice instead.
    #[inline]
    pub fn row(&self, u: usize) -> &[Dist] {
        &self.data[u * self.n..(u + 1) * self.n]
    }

    /// Debug-build check that the symmetric-write invariant held up. All
    /// mutations go through [`DistanceMatrix::improve`]/merge, which write
    /// both orientations; this micro-assert catches any future fast path
    /// that forgets one. Compiled out of release builds.
    #[inline]
    fn debug_assert_symmetric(&self) {
        #[cfg(debug_assertions)]
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                debug_assert_eq!(
                    self.data[u * self.n + v],
                    self.data[v * self.n + u],
                    "symmetry broken at ({u},{v})"
                );
            }
        }
    }

    /// Lowers `δ(u,v)` (and `δ(v,u)`) to `min(current, value)`.
    #[inline]
    pub fn improve(&mut self, u: usize, v: usize, value: Dist) {
        let n = self.n;
        if value < self.data[u * n + v] {
            self.data[u * n + v] = value;
            self.data[v * n + u] = value;
        }
    }

    /// Lowers `δ(u,v)` with the sum `a + b` (saturating).
    #[inline]
    pub fn improve_via(&mut self, u: usize, v: usize, a: Dist, b: Dist) {
        self.improve(u, v, dadd(a, b));
    }

    /// Routes `u` through `w`: `δ(u,v) ← min(δ(u,v), δ(u,w) + δ(w,v))` for
    /// every `v`, exactly the [`DistanceMatrix::improve_via`] loop over
    /// `v` (the diagonal is 0 and the sum saturates, so `v ∈ {u, w}` and
    /// ∞ legs never change anything). Row `w` is read whole and row `u`
    /// folded in one contiguous pass; the changed entries are collected in
    /// `changed` and mirrored into column `u` afterwards. Row `w` is not
    /// written by the fold, so the result equals the interleaved loop.
    pub(crate) fn fold_via(&mut self, u: usize, w: usize, changed: &mut Vec<u32>) {
        let n = self.n;
        let via = self.get(u, w);
        changed.clear();
        if u == w || via >= INF {
            return;
        }
        let (row_u, row_w) = if u < w {
            let (lo, hi) = self.data.split_at_mut(w * n);
            (&mut lo[u * n..(u + 1) * n], &hi[..n])
        } else {
            let (lo, hi) = self.data.split_at_mut(u * n);
            (&mut hi[..n], &lo[w * n..(w + 1) * n])
        };
        lower_row(row_u, via, row_w, changed);
        self.mirror(u, changed);
    }

    /// `δ(u,v) ← min(δ(u,v), cand[v])` for every `v` (and symmetrically),
    /// the [`DistanceMatrix::improve`] loop over a whole candidate row
    /// (entries ≤ INF), read against the contiguous row `u` instead of
    /// column `u`. `changed` is scratch, as in
    /// [`DistanceMatrix::fold_via`].
    pub(crate) fn improve_row(&mut self, u: usize, cand: &[Dist], changed: &mut Vec<u32>) {
        let n = self.n;
        changed.clear();
        lower_row(&mut self.data[u * n..(u + 1) * n], 0, cand, changed);
        self.mirror(u, changed);
    }

    /// Copies the `changed` entries of row `u` into column `u`.
    fn mirror(&mut self, u: usize, changed: &[u32]) {
        let n = self.n;
        for &v in changed {
            let v = v as usize;
            self.data[v * n + u] = self.data[u * n + v];
        }
    }

    /// Merges another matrix pointwise. Both operands are symmetric, so the
    /// element-wise pass needs no per-entry branch or mirrored second write:
    /// `min` compiles to branch-free selects over the flat arrays.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn merge(&mut self, other: &DistanceMatrix) {
        assert_eq!(self.n, other.n, "dimension mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = (*a).min(b);
        }
        self.debug_assert_symmetric();
    }

    /// Merges a dense `Vec<Vec<Dist>>` (e.g. the output of
    /// `distance_through_sets`), symmetrizing via the min of both
    /// orientations.
    ///
    /// # Panics
    ///
    /// Panics if the row count differs from `n`.
    pub fn merge_rows(&mut self, rows: &[Vec<Dist>]) {
        assert_eq!(rows.len(), self.n, "dimension mismatch");
        for (u, row) in rows.iter().enumerate() {
            for (v, &d) in row.iter().enumerate() {
                if u != v && d < INF {
                    self.improve(u, v, d);
                }
            }
        }
        self.debug_assert_symmetric();
    }

    /// Number of finite off-diagonal (ordered) entries.
    pub fn finite_pairs(&self) -> usize {
        let mut count = 0;
        for u in 0..self.n {
            for v in 0..self.n {
                if u != v && self.get(u, v) < INF {
                    count += 1;
                }
            }
        }
        count
    }

    /// View as closure for the stretch evaluator.
    pub fn as_fn(&self) -> impl Fn(usize, usize) -> Dist + '_ {
        move |u, v| self.get(u, v)
    }

    /// Dense row copies (`rows[u][v] = δ(u,v)`), the common currency of the
    /// [`crate::Algorithm`] interface.
    pub fn to_rows(&self) -> Vec<Vec<Dist>> {
        (0..self.n).map(|u| self.row(u).to_vec()).collect()
    }

    /// The flat row-major entry array (the `Full` freeze layout).
    pub fn to_flat(&self) -> Vec<Dist> {
        self.data.clone()
    }

    /// The packed upper triangle, diagonal included (the `SymmetricPacked`
    /// freeze layout) — `n(n+1)/2` entries, half the memory of the square.
    pub fn to_packed(&self) -> Vec<Dist> {
        self.debug_assert_symmetric();
        let mut packed = Vec::with_capacity(self.n * (self.n + 1) / 2);
        for u in 0..self.n {
            packed.extend_from_slice(&self.row(u)[u..]);
        }
        packed
    }
}

/// Width of the change-detection blocks of [`lower_row`].
const BLOCK: usize = 16;

/// `row[v] ← min(row[v], dadd(via, cand[v]))`, pushing every changed `v`
/// onto `changed` in increasing order. Each block is first tested with a
/// branch-free pass (changes are rare) and only rescanned when it holds
/// one. Needs `via < INF` and every entry ≤ INF: sums then stay below
/// `u32::MAX`, and a sum ≥ INF can never undercut an entry, so the plain
/// sum decides exactly as the saturating one would.
fn lower_row(row: &mut [Dist], via: Dist, cand: &[Dist], changed: &mut Vec<u32>) {
    debug_assert!(via < INF && row.len() == cand.len());
    let mut base = 0u32;
    for (r, c) in row.chunks_mut(BLOCK).zip(cand.chunks(BLOCK)) {
        let hit = r
            .iter()
            .zip(c)
            .fold(false, |hit, (&cur, &leg)| hit | (via + leg < cur));
        if hit {
            for (v, (cur, &leg)) in r.iter_mut().zip(c).enumerate() {
                if via + leg < *cur {
                    *cur = via + leg;
                    changed.push(base + v as u32);
                }
            }
        }
        base += BLOCK as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_matrix_is_diagonal_zero() {
        let m = DistanceMatrix::new(3);
        assert_eq!(m.get(0, 0), 0);
        assert_eq!(m.get(0, 1), INF);
        assert_eq!(m.finite_pairs(), 0);
    }

    #[test]
    fn improve_is_symmetric_and_monotone() {
        let mut m = DistanceMatrix::new(3);
        m.improve(0, 1, 5);
        assert_eq!(m.get(1, 0), 5);
        m.improve(0, 1, 7);
        assert_eq!(m.get(0, 1), 5);
        m.improve(1, 0, 2);
        assert_eq!(m.get(0, 1), 2);
    }

    #[test]
    fn improve_via_saturates() {
        let mut m = DistanceMatrix::new(2);
        m.improve_via(0, 1, INF, 3);
        assert_eq!(m.get(0, 1), INF);
        m.improve_via(0, 1, 2, 3);
        assert_eq!(m.get(0, 1), 5);
    }

    #[test]
    fn fold_via_matches_the_improve_via_loop() {
        // A small symmetric table with some ∞ legs and a saturating pair.
        let n = 6;
        let mut base = DistanceMatrix::new(n);
        let entries = [
            (0, 1, 4),
            (0, 2, 9),
            (1, 2, 2),
            (1, 3, 7),
            (2, 4, 1),
            (3, 5, INF - 1),
        ];
        for (u, v, d) in entries {
            base.improve(u, v, d);
        }
        let mut changed = Vec::new();
        for u in 0..n {
            for w in 0..n {
                let mut want = base.clone();
                let via = want.get(u, w);
                if via < INF {
                    for v in 0..n {
                        let leg = want.get(w, v);
                        if v != u && leg < INF {
                            want.improve_via(u, v, via, leg);
                        }
                    }
                }
                let mut got = base.clone();
                got.fold_via(u, w, &mut changed);
                assert_eq!(got, want, "u={u} w={w}");
                got.debug_assert_symmetric();
            }
        }
    }

    #[test]
    fn improve_row_matches_the_improve_loop() {
        // Wider than two change-detection blocks: two changes in the first
        // block, one alone in the second block's last lane, one in the
        // short tail block, and a candidate that loses.
        let n = 40;
        let mut base = DistanceMatrix::new(n);
        for v in 1..n {
            base.improve(0, v, 3 * v as Dist);
        }
        let mut cand = vec![INF; n];
        for (v, d) in [(3, 4), (7, 2), (31, 1), (35, 9), (0, 20)] {
            cand[v] = d;
        }
        let mut want = base.clone();
        for (v, &d) in cand.iter().enumerate() {
            if d < INF {
                want.improve(v, 5, d);
            }
        }
        let lowered: Vec<u32> = (0..n as u32)
            .filter(|&v| want.get(5, v as usize) != base.get(5, v as usize))
            .collect();
        assert_eq!(lowered, vec![3, 7, 31, 35]);
        let mut changed = Vec::new();
        base.improve_row(5, &cand, &mut changed);
        assert_eq!(base, want);
        assert_eq!(changed, lowered);
        base.debug_assert_symmetric();
    }

    #[test]
    fn merge_takes_pointwise_min() {
        let mut a = DistanceMatrix::new(2);
        a.improve(0, 1, 9);
        let mut b = DistanceMatrix::new(2);
        b.improve(0, 1, 4);
        a.merge(&b);
        assert_eq!(a.get(0, 1), 4);
    }

    #[test]
    fn merge_rows_symmetrizes() {
        let mut m = DistanceMatrix::new(3);
        let rows = vec![vec![0, 7, INF], vec![3, 0, INF], vec![INF, INF, 0]];
        m.merge_rows(&rows);
        // Min of the two orientations (7 and 3) wins for both directions.
        assert_eq!(m.get(0, 1), 3);
        assert_eq!(m.get(1, 0), 3);
        assert_eq!(m.get(0, 2), INF);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn merge_mismatch_panics() {
        let mut a = DistanceMatrix::new(2);
        let b = DistanceMatrix::new(3);
        a.merge(&b);
    }

    #[test]
    fn row_view_matches_get() {
        let mut m = DistanceMatrix::new(4);
        m.improve(0, 2, 3);
        m.improve(1, 3, 7);
        for u in 0..4 {
            let row = m.row(u);
            assert_eq!(row.len(), 4);
            for v in 0..4 {
                assert_eq!(row[v], m.get(u, v));
            }
        }
    }

    #[test]
    fn packed_export_round_trips_through_storage() {
        use cc_graphs::DistStorage;
        let mut m = DistanceMatrix::new(5);
        m.improve(0, 1, 2);
        m.improve(2, 4, 6);
        m.improve(1, 4, 1);
        let sym = DistStorage::symmetric_packed(5, m.to_packed());
        let full = DistStorage::full(5, m.to_flat());
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(sym.get(u, v), m.get(u, v));
                assert_eq!(full.get(u, v), m.get(u, v));
            }
        }
    }
}
