//! Contiguous-shard execution over scoped worker threads: the one driver
//! behind every row- or source-sharded kernel of the workspace (the
//! hop-limited search, the sparse and dense min-plus products, the
//! truncated-BFS `(k,d)`-nearest lists).

use std::ops::Range;

/// Contiguous shards of `0..len` for a number of workers.
///
/// Every shard but the last holds [`Shards::size`] items; empty shards are
/// never formed, so [`Shards::count`] is at most the worker count and `0`
/// for an empty input.
///
/// ```
/// use cc_graphs::shard::Shards;
///
/// let shards = Shards::new(10, 4);
/// assert_eq!((shards.size(), shards.count()), (3, 4));
/// let sums = shards.run(std::iter::repeat(()), |rows, ()| rows.sum::<usize>());
/// assert_eq!(sums, vec![3, 12, 21, 9]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Shards {
    len: usize,
    size: usize,
}

impl Shards {
    /// Shards of `0..len` for `threads` workers (`0` and `1` both mean
    /// serial; more workers than items leaves one item per shard).
    pub fn new(len: usize, threads: usize) -> Self {
        let workers = threads.clamp(1, len.max(1));
        Shards {
            len,
            size: len.div_ceil(workers).max(1),
        }
    }

    /// Items per shard (the last shard may hold fewer); at least 1.
    pub fn size(self) -> usize {
        self.size
    }

    /// Number of (non-empty) shards.
    pub fn count(self) -> usize {
        self.len.div_ceil(self.size)
    }

    /// The shard ranges, in order.
    fn ranges(self) -> impl Iterator<Item = Range<usize>> {
        (0..self.count()).map(move |s| s * self.size..((s + 1) * self.size).min(self.len))
    }

    /// Runs `work(range, state)` once per shard, pairing the shards in
    /// order with the first [`Shards::count`] items of `states` (per-shard
    /// scratch lanes, disjoint output chunks, or `()`). The calling thread
    /// runs the first shard and scoped workers the rest; the results come
    /// back in shard order. A worker panic is resumed on the calling
    /// thread after every worker has stopped.
    ///
    /// # Panics
    ///
    /// Panics if `states` yields fewer items than there are shards, and
    /// propagates any panic of `work`.
    pub fn run<S, R, F>(self, states: impl IntoIterator<Item = S>, work: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        F: Fn(Range<usize>, S) -> R + Sync,
    {
        let mut jobs: Vec<(Range<usize>, S)> = self.ranges().zip(states).collect();
        assert_eq!(jobs.len(), self.count(), "one state per shard");
        if jobs.len() <= 1 {
            return jobs
                .pop()
                .map(|(range, state)| work(range, state))
                .into_iter()
                .collect();
        }
        let rest = jobs.split_off(1);
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = rest
                .into_iter()
                .map(|(range, state)| scope.spawn(move || work(range, state)))
                .collect();
            let mut results = Vec::with_capacity(handles.len() + 1);
            results.extend(jobs.pop().map(|(range, state)| work(range, state)));
            for handle in handles {
                match handle.join() {
                    Ok(r) => results.push(r),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            results
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
        Shards::new(len, threads).ranges().collect()
    }

    #[test]
    fn empty_input_runs_nothing() {
        for threads in [0, 1, 4] {
            let shards = Shards::new(0, threads);
            assert_eq!(shards.count(), 0);
            let out: Vec<()> = shards.run(std::iter::repeat(()), |_, ()| panic!("no shard"));
            assert!(out.is_empty());
        }
    }

    #[test]
    fn fewer_items_than_threads_gives_one_item_per_shard() {
        assert_eq!(ranges(3, 8), vec![0..1, 1..2, 2..3]);
        assert_eq!(Shards::new(3, 8).size(), 1);
    }

    #[test]
    fn thread_counts_zero_one_and_beyond_len() {
        assert_eq!(ranges(7, 0), vec![0..7]);
        assert_eq!(ranges(7, 1), vec![0..7]);
        assert_eq!(ranges(7, 3), vec![0..3, 3..6, 6..7]);
        assert_eq!(ranges(7, 100), (0..7).map(|i| i..i + 1).collect::<Vec<_>>());
        // Shards cover `0..len` exactly, in order, without empty shards.
        for len in 0..20 {
            for threads in 0..24 {
                let r = ranges(len, threads);
                assert!(r.len() <= threads.max(1));
                assert!(r.iter().all(|s| !s.is_empty()));
                let flat: Vec<usize> = r.into_iter().flatten().collect();
                assert_eq!(flat, (0..len).collect::<Vec<_>>(), "len={len} t={threads}");
            }
        }
    }

    #[test]
    fn results_come_back_in_shard_order() {
        let items: Vec<u64> = (0..37).map(|i| i * i).collect();
        for threads in [1, 2, 3, 5, 37, 64] {
            let shards = Shards::new(items.len(), threads);
            let parts = shards.run(std::iter::repeat(()), |rows, ()| items[rows].to_vec());
            assert_eq!(parts.len(), shards.count());
            assert_eq!(parts.concat(), items, "threads={threads}");
        }
    }

    #[test]
    fn states_are_paired_with_their_shards() {
        let mut out = vec![0usize; 10];
        let shards = Shards::new(out.len(), 3);
        let lens = shards.run(out.chunks_mut(shards.size()), |rows, chunk| {
            for (slot, i) in chunk.iter_mut().zip(rows) {
                *slot = 2 * i;
            }
            chunk.len()
        });
        assert_eq!(lens, vec![4, 4, 2]);
        assert_eq!(out, (0..10).map(|i| 2 * i).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "one state per shard")]
    fn too_few_states_panics() {
        let _ = Shards::new(6, 3).run([(), ()], |_, ()| ());
    }

    #[test]
    #[should_panic(expected = "worker 2 failed")]
    fn worker_panic_propagates_to_caller() {
        let _ = Shards::new(6, 3).run(std::iter::repeat(()), |rows, ()| {
            if rows.start == 4 {
                panic!("worker 2 failed");
            }
            rows.len()
        });
    }

    #[test]
    #[should_panic(expected = "caller shard failed")]
    fn caller_shard_panic_propagates() {
        let _ = Shards::new(6, 3).run(std::iter::repeat(()), |rows, ()| {
            if rows.start == 0 {
                panic!("caller shard failed");
            }
            rows.len()
        });
    }
}
