//! Reusable scratch and thread configuration for the min-plus kernels.
//!
//! The repeated-squaring loops (hopset iterations, filtered `(k,d)`-nearest
//! squaring, the APSP pipelines' exact products) call the kernels many times
//! on same-sized matrices. A [`MinplusWorkspace`] owns the dense accumulator
//! rows and touched-column lists those kernels need, so steady-state products
//! perform no scratch allocation, and carries the worker-thread count the
//! row-sharded parallel kernels run with.

use cc_graphs::{Dist, INF};

use crate::sparse::Cell;

/// The "untouched" value of the packed witness accumulator: value ∞, witness
/// bits zero. A candidate `(value << 32) | k` beats it exactly when its value
/// is finite — and among equal values the **smaller witness wins**, which is
/// how the witness kernel keeps the smallest realizing `k` with a single
/// branch-free `min`.
pub(crate) const PACKED_EMPTY: u64 = (INF as u64) << 32;

/// Per-worker scratch of the sparse kernel; one lane is handed to each
/// worker thread. The kernel accumulates an output row into one of two
/// dense accumulator rows, chosen by its cell type: `acc` holds bare
/// values (plain products, kept all-∞ between products) and `pacc` holds
/// `(value << 32) | witness` words (witness products, kept at
/// [`PACKED_EMPTY`]). Only the lane a product uses is grown, and the
/// kernel restores every cell it writes. `touched` is the first-touched
/// column list of the sparse emit path, shared by both.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub(crate) acc: Vec<Dist>,
    pub(crate) touched: Vec<u32>,
    pub(crate) pacc: Vec<u64>,
}

impl Scratch {
    /// Grows the `C` accumulator to dimension `n`. The all-empty invariant
    /// is maintained by the kernel (it restores every cell it writes), so
    /// growth only needs to initialize the new tail.
    fn ensure<C: Cell>(&mut self, n: usize) {
        let (acc, _) = C::lane(self);
        if acc.len() < n {
            acc.resize(n, C::EMPTY);
        }
        debug_assert!(
            acc.iter().all(|&c| c == C::EMPTY),
            "workspace accumulator must be empty between products"
        );
    }
}

/// Reusable workspace for the min-plus kernels.
///
/// Holds the scratch lanes of the sparse kernel
/// ([`SparseMatrix::minplus_with`], with or without witnesses) and the
/// worker thread count both kernels shard rows across. Each output row of
/// a min-plus product depends only on the input matrices, so row sharding
/// is **bit-identical** to serial execution at any thread count (the same
/// determinism argument as the sharded clique engine, DESIGN.md §1.2).
///
/// Construct once and pass to every product of a loop:
///
/// ```
/// use cc_graphs::generators;
/// use cc_matrix::{MinplusWorkspace, SparseMatrix};
///
/// let g = generators::cycle(32);
/// let mut ws = MinplusWorkspace::with_threads(4);
/// let mut a = SparseMatrix::adjacency(&g);
/// for _ in 0..3 {
///     a = a.minplus_with(&a, &mut ws); // no scratch allocation after iter 1
/// }
/// assert_eq!(a.get(0, 8), 8);
/// ```
///
/// [`SparseMatrix::minplus_with`]: crate::SparseMatrix::minplus_with
#[derive(Debug)]
pub struct MinplusWorkspace {
    threads: usize,
    lanes: Vec<Scratch>,
}

impl MinplusWorkspace {
    /// A serial (single-thread) workspace.
    pub fn new() -> Self {
        Self::with_threads(1)
    }

    /// A workspace running kernels on `threads` worker threads
    /// (`0` and `1` both mean serial).
    pub fn with_threads(threads: usize) -> Self {
        MinplusWorkspace {
            threads: threads.max(1),
            lanes: Vec::new(),
        }
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Changes the worker-thread count (scratch lanes are kept).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// `count` scratch lanes, each with its `C` accumulator grown to
    /// dimension `n`.
    pub(crate) fn lanes<C: Cell>(&mut self, count: usize, n: usize) -> &mut [Scratch] {
        if self.lanes.len() < count {
            self.lanes.resize_with(count, Scratch::default);
        }
        for lane in &mut self.lanes[..count] {
            lane.ensure::<C>(n);
        }
        &mut self.lanes[..count]
    }
}

impl Default for MinplusWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_is_clamped_and_mutable() {
        let mut ws = MinplusWorkspace::with_threads(0);
        assert_eq!(ws.threads(), 1);
        ws.set_threads(6);
        assert_eq!(ws.threads(), 6);
        assert_eq!(MinplusWorkspace::default().threads(), 1);
    }

    #[test]
    fn lanes_grow_and_are_reused() {
        let mut ws = MinplusWorkspace::with_threads(2);
        {
            let lanes = ws.lanes::<Dist>(2, 8);
            assert_eq!(lanes.len(), 2);
            assert!(lanes.iter().all(|l| l.acc.len() == 8));
        }
        // Larger n grows in place; the all-∞ invariant holds for the tail.
        let lanes = ws.lanes::<Dist>(2, 16);
        assert!(lanes.iter().all(|l| l.acc.len() == 16));
        assert!(lanes.iter().all(|l| l.acc.iter().all(|&d| d == INF)));
    }
}
