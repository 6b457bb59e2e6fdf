//! Reference ports of the pre-CSR min-plus kernels, kept as test code.
//!
//! The cross-kernel proptests compare the CSR kernels against these
//! ports of the original Vec-of-Vec layout: `O(row)`-insert
//! [`LegacySparseMatrix::set_min`], per-call scratch allocation in
//! [`LegacySparseMatrix::minplus`], and the unblocked dense triple loop of
//! [`dense_minplus_unblocked`]. They read the library's matrices only
//! through its public accessors, so the fast kernels stay pinned,
//! entry-for-entry, to the slow ones they replaced.

use cc_graphs::{dadd, Dist, Graph, INF};
use cc_matrix::{DenseMatrix, RowBuilder, SparseMatrix};

/// The original row-sparse layout: one `Vec<(column, value)>` per row.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LegacySparseMatrix {
    n: usize,
    rows: Vec<Vec<(u32, Dist)>>,
}

impl LegacySparseMatrix {
    /// Empty (all-∞) matrix.
    pub fn new(n: usize) -> Self {
        LegacySparseMatrix {
            n,
            rows: vec![Vec::new(); n],
        }
    }

    /// Adjacency matrix of an unweighted graph with 0 diagonal, built
    /// through the original per-entry insert path.
    pub fn adjacency(g: &Graph) -> Self {
        let mut m = Self::new(g.n());
        for i in 0..g.n() {
            m.set_min(i, i, 0);
        }
        for (u, v) in g.edges() {
            m.set_min(u, v, 1);
            m.set_min(v, u, 1);
        }
        m
    }

    /// Entry `(i, j)` (∞ if absent).
    pub fn get(&self, i: usize, j: usize) -> Dist {
        match self.rows[i].binary_search_by_key(&(j as u32), |&(c, _)| c) {
            Ok(pos) => self.rows[i][pos].1,
            Err(_) => INF,
        }
    }

    /// The original `O(row)` insert: binary search plus `Vec::insert`.
    pub fn set_min(&mut self, i: usize, j: usize, v: Dist) {
        if v >= INF {
            return;
        }
        match self.rows[i].binary_search_by_key(&(j as u32), |&(c, _)| c) {
            Ok(pos) => {
                if v < self.rows[i][pos].1 {
                    self.rows[i][pos].1 = v;
                }
            }
            Err(pos) => self.rows[i].insert(pos, (j as u32, v)),
        }
    }

    /// The original min-plus kernel: per-call scratch allocation, touched
    /// list sorted and collected into a fresh `Vec` per output row.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn minplus(&self, other: &LegacySparseMatrix) -> LegacySparseMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let n = self.n;
        let mut out = LegacySparseMatrix::new(n);
        // Scratch dense accumulator reused across rows.
        let mut acc: Vec<Dist> = vec![INF; n];
        let mut touched: Vec<u32> = Vec::new();
        for i in 0..n {
            for &(k, a) in &self.rows[i] {
                for &(j, b) in &other.rows[k as usize] {
                    let cand = dadd(a, b);
                    let cell = &mut acc[j as usize];
                    if *cell == INF {
                        touched.push(j);
                    }
                    if cand < *cell {
                        *cell = cand;
                    }
                }
            }
            touched.sort_unstable();
            let row: Vec<(u32, Dist)> = touched.iter().map(|&j| (j, acc[j as usize])).collect();
            for &j in &touched {
                acc[j as usize] = INF;
            }
            touched.clear();
            out.rows[i] = row;
        }
        out
    }

    /// Converts to the CSR layout (for entry-for-entry cross-checks).
    pub fn to_csr(&self) -> SparseMatrix {
        let nnz = self.rows.iter().map(Vec::len).sum();
        let mut out = RowBuilder::with_capacity(self.n, nnz);
        for (i, row) in self.rows.iter().enumerate() {
            for &(j, v) in row {
                out.push(i, j as usize, v);
            }
        }
        out.build()
    }

    /// Builds the legacy layout from a CSR matrix.
    pub fn from_csr(m: &SparseMatrix) -> Self {
        LegacySparseMatrix {
            n: m.n(),
            rows: (0..m.n()).map(|i| m.row(i).to_vec()).collect(),
        }
    }
}

/// The original dense kernel: unblocked `i`/`k` loops, so each output row
/// streams the whole of `b` through cache.
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn dense_minplus_unblocked(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.n(), b.n(), "dimension mismatch");
    let n = a.n();
    let mut out = DenseMatrix::infinite(n);
    let mut out_row = vec![INF; n];
    for i in 0..n {
        out_row.fill(INF);
        for (k, &av) in a.row(i).iter().enumerate() {
            if av >= INF {
                continue;
            }
            for (o, &bv) in out_row.iter_mut().zip(b.row(k)) {
                let cand = dadd(av, bv);
                if cand < *o {
                    *o = cand;
                }
            }
        }
        for (j, &v) in out_row.iter().enumerate() {
            out.set(i, j, v);
        }
    }
    out
}

mod tests {
    use super::*;
    use cc_graphs::generators;

    #[test]
    fn legacy_and_csr_products_agree() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let g = generators::connected_gnp(36, 0.12, &mut rng);
        let legacy = LegacySparseMatrix::adjacency(&g);
        let csr = SparseMatrix::adjacency(&g);
        assert_eq!(legacy.to_csr(), csr, "construction paths agree");
        assert_eq!(LegacySparseMatrix::from_csr(&csr), legacy);
        let lp = legacy.minplus(&legacy);
        let cp = csr.minplus(&csr);
        assert_eq!(lp.to_csr(), cp, "product kernels agree entry-for-entry");
    }

    #[test]
    fn legacy_and_blocked_dense_agree() {
        let g = generators::caveman(5, 5);
        let a = DenseMatrix::adjacency(&g);
        assert_eq!(dense_minplus_unblocked(&a, &a), a.minplus(&a));
    }
}
