//! Dense min-plus matrices: the algebraic baseline of the "first era".
//!
//! The product kernel tiles the `i`/`k` loops so the panel of `other` rows a
//! tile consumes stays cache-resident across the tile's output rows, skips
//! all-∞ `(i, k)` cells before touching the panel, and keeps the inner
//! `j`-loop branch-free (`min` select) so it vectorizes. Row-sharded
//! parallel execution is available through [`MinplusWorkspace`].

use std::ops::Range;

use cc_clique::RoundLedger;
use cc_graphs::shard::Shards;
use cc_graphs::{Dist, Graph, INF};

use crate::workspace::MinplusWorkspace;

/// Kernel entries store column/witness ids as `u32`. Every index this
/// narrows is bounded by a matrix dimension whose dense backing already
/// fits in memory, so the conversion is total in practice; debug builds
/// assert it instead of paying a branch on the hot path.
#[inline]
fn small_u32(x: usize) -> u32 {
    debug_assert!(u32::try_from(x).is_ok(), "index exceeds u32 wire width");
    // cc-analyze: allow(narrowing-cast) — debug-asserted, bounded by the matrix dimension.
    x as u32
}

/// A dense `n × n` matrix over the min-plus semiring.
///
/// # Example
///
/// ```
/// use cc_matrix::DenseMatrix;
/// use cc_graphs::generators;
///
/// let g = generators::path(4);
/// let a = DenseMatrix::adjacency(&g);
/// let a2 = a.minplus(&a);
/// assert_eq!(a2.get(0, 2), 2);
/// assert_eq!(a2.get(0, 3), cc_graphs::INF);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DenseMatrix {
    pub(crate) n: usize,
    pub(crate) data: Vec<Dist>,
}

/// Output rows processed per tile: the tile's output rows (`I_TILE · n`
/// words) stay resident while a `k`-panel streams through them.
const I_TILE: usize = 16;

/// `other` rows per panel: `K_TILE · n` words (256 KiB at `n = 1024`) are
/// reused by every row of the `i`-tile before the panel is evicted.
const K_TILE: usize = 64;

impl DenseMatrix {
    /// All-∞ matrix (the min-plus zero matrix).
    pub fn infinite(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![INF; n * n],
        }
    }

    /// Min-plus identity: 0 on the diagonal, ∞ elsewhere.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::infinite(n);
        for i in 0..n {
            m.set(i, i, 0);
        }
        m
    }

    /// Adjacency matrix of an unweighted graph: 0 diagonal, 1 on edges.
    pub fn adjacency(g: &Graph) -> Self {
        let mut m = Self::identity(g.n());
        for (u, v) in g.edges() {
            m.set(u, v, 1);
            m.set(v, u, 1);
        }
        m
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Dist {
        self.data[i * self.n + j]
    }

    /// Sets entry `(i, j)`. Values above [`INF`] are clamped to [`INF`]
    /// (any "infinity" a caller writes behaves as the canonical ∞), which
    /// keeps every stored entry `≤ INF` — the invariant the raw-sum product
    /// kernel's no-wrap argument stands on.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: Dist) {
        self.data[i * self.n + j] = v.min(INF);
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[Dist] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// The whole matrix, row-major.
    pub fn as_slice(&self) -> &[Dist] {
        &self.data
    }

    /// Entry-wise minimum with `other`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn min_with(&mut self, other: &DenseMatrix) {
        assert_eq!(self.n, other.n, "dimension mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = (*a).min(b);
        }
    }

    /// Min-plus product `self · other` (serial).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn minplus(&self, other: &DenseMatrix) -> DenseMatrix {
        self.minplus_with(other, &MinplusWorkspace::new())
    }

    /// Min-plus product on `ws.threads()` worker threads (contiguous row
    /// shards). Each output row depends only on the inputs and per-cell
    /// `min` accumulation is order-independent, so the result is
    /// **bit-identical** to serial execution at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn minplus_with(&self, other: &DenseMatrix, ws: &MinplusWorkspace) -> DenseMatrix {
        product(self, other, ws, None)
    }

    /// Witness-carrying min-plus product: `self · other` plus, for every
    /// finite output cell `(i, j)`, a **deterministic realizing** index `k`
    /// with `out(i,j) = self(i,k) + other(k,j)` (`u32::MAX` for ∞ cells).
    /// The trivial realizers `k = i`, then `k = j` are preferred (in
    /// repeated-squaring workloads — the dense kernel's home regime — most
    /// cells stop improving and one of them applies, which is what keeps
    /// witness recovery cheap); otherwise the smallest realizing `k` wins.
    /// The witnesses come back as a parallel row-major `u32` arena of `n²`
    /// entries.
    ///
    /// The output matrix is bit-identical to [`DenseMatrix::minplus_with`],
    /// and rows are sharded across `ws.threads()` workers with bit-identical
    /// values *and* witnesses at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn minplus_with_witness(
        &self,
        other: &DenseMatrix,
        ws: &MinplusWorkspace,
    ) -> (DenseMatrix, Vec<u32>) {
        let mut wit = vec![u32::MAX; self.n * self.n];
        let out = product(self, other, ws, Some(&mut wit));
        (out, wit)
    }

    /// Min-plus square with the dense-product round cost charged to `ledger`
    /// (`Θ(n^{1/3})` per product; Censor-Hillel et al.).
    pub fn square_charged(&self, ledger: &mut RoundLedger) -> DenseMatrix {
        self.square_charged_with(ledger, &MinplusWorkspace::new())
    }

    /// [`DenseMatrix::minplus_with`] square plus the dense round charge.
    /// Model accounting is independent of the thread count.
    pub fn square_charged_with(
        &self,
        ledger: &mut RoundLedger,
        ws: &MinplusWorkspace,
    ) -> DenseMatrix {
        ledger.charge_dense_minplus("dense min-plus square");
        self.minplus_with(self, ws)
    }

    /// Number of finite entries.
    pub fn finite_entries(&self) -> usize {
        self.data.iter().filter(|&&d| d < INF).count()
    }
}

/// `a · b`, output rows sharded over `ws.threads()` workers, with the
/// witness pass filling `wit` (`n²` entries, `u32::MAX`-initialized) when
/// given. Each worker writes only its rows' chunks of the arenas.
fn product(
    a: &DenseMatrix,
    b: &DenseMatrix,
    ws: &MinplusWorkspace,
    wit: Option<&mut [u32]>,
) -> DenseMatrix {
    assert_eq!(a.n, b.n, "dimension mismatch");
    let n = a.n;
    let mut out = DenseMatrix::infinite(n);
    let shards = Shards::new(n, ws.threads());
    // One shard's slice of an `n × n` arena (`max(1)`: `chunks_mut` needs a
    // non-zero width even when `n = 0` leaves no shard to run).
    let chunk = (shards.size() * n).max(1);
    let outs = out.data.chunks_mut(chunk);
    match wit {
        None => shards.run(outs, |rows, o| product_rows_blocked(a, b, rows, o)),
        Some(wit) => shards.run(outs.zip(wit.chunks_mut(chunk)), |rows, (o, w)| {
            product_rows_blocked_witness(a, b, rows, o, w)
        }),
    };
    out
}

/// Computes output rows `rows` of `a · b` into `out` (the rows' slice of the
/// output arena), with `i`/`k` tiling and a skip-∞ test per `(i, k)` cell.
fn product_rows_blocked(a: &DenseMatrix, b: &DenseMatrix, rows: Range<usize>, out: &mut [Dist]) {
    let n = a.n;
    let base = rows.start;
    let mut i0 = rows.start;
    while i0 < rows.end {
        let iend = (i0 + I_TILE).min(rows.end);
        let mut k0 = 0;
        while k0 < n {
            let kend = (k0 + K_TILE).min(n);
            for i in i0..iend {
                let arow = &a.data[i * n..(i + 1) * n];
                let orow = &mut out[(i - base) * n..(i - base + 1) * n];
                for k in k0..kend {
                    let av = arow[k];
                    if av >= INF {
                        continue;
                    }
                    let brow = &b.data[k * n..(k + 1) * n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        // av < INF < 2³⁰ and bv ≤ INF, so the raw sum cannot
                        // wrap u32; sums ≥ INF lose to the ∞-initialized cell.
                        *o = (*o).min(av + bv);
                    }
                }
            }
            k0 = kend;
        }
        i0 = iend;
    }
}

/// [`product_rows_blocked`] plus witness recovery into `wit` (the rows'
/// slice of the witness arena): the values come from the plain kernel, so
/// the output matrix is bit-identical to it, and a second pass assigns
/// each finite cell its deterministic realizing `k` (trivial realizers
/// first, then the smallest). ∞ cells keep the `u32::MAX` sentinel.
fn product_rows_blocked_witness(
    a: &DenseMatrix,
    b: &DenseMatrix,
    rows: Range<usize>,
    out: &mut [Dist],
    wit: &mut [u32],
) {
    let n = a.n;
    let base = rows.start;
    // Pass 1: the values — literally the plain kernel, so the output matrix
    // is bit-identical by construction (and keeps its vectorization).
    product_rows_blocked(a, b, rows.clone(), out);
    // Pass 2: witness recovery. The trivial realizers retire most cells in
    // one vectorizable sweep (`k = i` whenever `a(i,i) + b(i,j)` already
    // equals the minimum — always true for cells a squaring step left
    // unchanged — then `k = j` symmetrically). The remainder goes through
    // per-row compaction: sweeping k ascending and retiring a cell at its
    // first matching sum assigns the smallest realizing k, and every cell
    // is visited once per k until it matches. ∞ cells never enter and keep
    // their u32::MAX sentinel.
    let bdiag: Vec<Dist> = (0..n).map(|j| b.data[j * n + j]).collect();
    let mut cells: Vec<(u32, Dist)> = Vec::with_capacity(n);
    for i in rows {
        let arow = &a.data[i * n..(i + 1) * n];
        let orow = &out[(i - base) * n..(i - base + 1) * n];
        let wrow = &mut wit[(i - base) * n..(i - base + 1) * n];
        let adiag = arow[i];
        let browi = &b.data[i * n..(i + 1) * n];
        cells.clear();
        cells.extend(
            orow.iter()
                .enumerate()
                .filter(|&(j, &o)| {
                    if o >= INF {
                        return false;
                    }
                    // Sums of finite values stay below u32::MAX (≤ 2·INF),
                    // so these comparisons cannot wrap into false matches.
                    if adiag < INF && adiag + browi[j] == o {
                        wrow[j] = small_u32(i);
                        return false;
                    }
                    if arow[j] < INF && arow[j] + bdiag[j] == o {
                        wrow[j] = small_u32(j);
                        return false;
                    }
                    true
                })
                .map(|(j, &o)| (small_u32(j), o)),
        );
        for (k, &av) in arow.iter().enumerate() {
            if cells.is_empty() {
                break;
            }
            if av >= INF {
                continue;
            }
            let kw = small_u32(k);
            let brow = &b.data[k * n..(k + 1) * n];
            // Branch-free compaction: matches at unpredictable positions
            // would mispredict a `retain`, so keep/assign are conditional
            // moves and the write cursor advances arithmetically.
            let mut keep = 0usize;
            for idx in 0..cells.len() {
                let (j, o) = cells[idx];
                let matched = av + brow[j as usize] == o;
                let w = &mut wrow[j as usize];
                *w = if matched { kw } else { *w };
                cells[keep] = (j, o);
                keep += usize::from(!matched);
            }
            cells.truncate(keep);
        }
        debug_assert!(cells.is_empty(), "every finite cell has a witness");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graphs::{bfs, generators};

    #[test]
    fn identity_is_neutral() {
        let g = generators::cycle(5);
        let a = DenseMatrix::adjacency(&g);
        let id = DenseMatrix::identity(5);
        assert_eq!(a.minplus(&id), a);
        assert_eq!(id.minplus(&a), a);
    }

    #[test]
    fn repeated_squaring_reaches_apsp() {
        let g = generators::gnp(24, 0.15, &mut seeded(5));
        let exact = bfs::apsp_exact(&g);
        let mut a = DenseMatrix::adjacency(&g);
        let mut hops = 1usize;
        while hops < g.n() {
            a = a.minplus(&a);
            hops *= 2;
        }
        for u in 0..g.n() {
            for v in 0..g.n() {
                assert_eq!(a.get(u, v), exact[u][v], "({u},{v})");
            }
        }
    }

    #[test]
    fn product_is_hop_bounded() {
        let g = generators::path(6);
        let a = DenseMatrix::adjacency(&g);
        let a2 = a.minplus(&a);
        assert_eq!(a2.get(0, 2), 2);
        assert_eq!(a2.get(0, 3), INF); // 3 hops needed
    }

    #[test]
    fn threaded_product_is_bit_identical() {
        // Sizes straddling the tile boundaries and odd shard splits.
        for n in [7usize, 16, 33, 70] {
            let g = generators::gnp(n, 0.15, &mut seeded(n as u64));
            let a = DenseMatrix::adjacency(&g);
            let serial = a.minplus(&a);
            for threads in [2, 3, 5, 16] {
                let ws = MinplusWorkspace::with_threads(threads);
                assert_eq!(a.minplus_with(&a, &ws), serial, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn witness_product_matches_plain_and_realizes_entries() {
        let g = generators::gnp(40, 0.12, &mut seeded(3));
        let a = DenseMatrix::adjacency(&g);
        let ws = MinplusWorkspace::new();
        let (p, wit) = a.minplus_with_witness(&a, &ws);
        assert_eq!(p, a.minplus(&a), "witness kernel must not change values");
        let n = a.n();
        for i in 0..n {
            for j in 0..n {
                let v = p.get(i, j);
                let k = wit[i * n + j];
                if v >= INF {
                    assert_eq!(k, u32::MAX, "({i},{j})");
                    continue;
                }
                let k = k as usize;
                assert_eq!(a.get(i, k) + a.get(k, j), v, "({i},{j}) via {k}");
                // The deterministic scan order: trivial realizers k = i,
                // then k = j, then the smallest realizing k.
                let realizes = |k: usize| a.get(i, k).saturating_add(a.get(k, j)) == v;
                if realizes(i) {
                    assert_eq!(k, i, "({i},{j}): trivial k = i preferred");
                } else if realizes(j) {
                    assert_eq!(k, j, "({i},{j}): trivial k = j preferred");
                } else {
                    for smaller in 0..k {
                        assert!(
                            !realizes(smaller),
                            "({i},{j}): {smaller} also realizes the min"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn witness_product_is_bit_identical_across_threads() {
        for n in [7usize, 33, 70] {
            let g = generators::gnp(n, 0.15, &mut seeded(n as u64));
            let a = DenseMatrix::adjacency(&g);
            let serial = a.minplus_with_witness(&a, &MinplusWorkspace::new());
            for threads in [2, 3, 16] {
                let ws = MinplusWorkspace::with_threads(threads);
                assert_eq!(
                    a.minplus_with_witness(&a, &ws),
                    serial,
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn min_with_takes_pointwise_min() {
        let mut a = DenseMatrix::infinite(2);
        a.set(0, 1, 5);
        let mut b = DenseMatrix::infinite(2);
        b.set(0, 1, 3);
        b.set(1, 0, 9);
        a.min_with(&b);
        assert_eq!(a.get(0, 1), 3);
        assert_eq!(a.get(1, 0), 9);
        assert_eq!(a.row(0), &[INF, 3]);
        assert_eq!(a.as_slice().len(), 4);
    }

    #[test]
    fn oversized_infinity_is_clamped_and_does_not_wrap() {
        // The old dadd-based kernel saturated; the raw-sum kernel relies on
        // set() clamping instead. A caller's u32::MAX "infinity" must stay
        // non-finite through a product, never wrap to a small distance.
        let mut a = DenseMatrix::identity(3);
        a.set(0, 1, u32::MAX);
        assert_eq!(a.get(0, 1), INF);
        let p = a.minplus(&a);
        assert_eq!(p.get(0, 1), INF);
        assert_eq!(p.get(0, 2), INF);
    }

    #[test]
    fn charged_square_charges_cbrt_n() {
        let g = generators::cycle(27);
        let a = DenseMatrix::adjacency(&g);
        let mut ledger = cc_clique::RoundLedger::new(27);
        let _ = a.square_charged(&mut ledger);
        assert_eq!(ledger.total_rounds(), 3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_product_panics() {
        let a = DenseMatrix::infinite(2);
        let b = DenseMatrix::infinite(3);
        let _ = a.minplus(&b);
    }

    fn seeded(s: u64) -> impl rand::Rng {
        use rand::SeedableRng;
        rand_chacha::ChaCha8Rng::seed_from_u64(s)
    }
}
