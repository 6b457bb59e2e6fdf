//! Graph substrate for the Congested Clique shortest-path reproduction.
//!
//! Provides:
//!
//! * [`Graph`] — a compact CSR representation of simple unweighted undirected
//!   graphs (the paper's input class), plus [`WeightedGraph`] for emulators,
//!   hopsets and unions `G ∪ H`.
//! * [`generators`] — deterministic and seeded-random graph families used by
//!   tests and experiments (G(n,p), cycles, grids, caveman graphs,
//!   preferential attachment, …).
//! * [`bfs`] / [`dijkstra`] — exact reference shortest-path algorithms used
//!   as ground truth (BFS, truncated balls, `(k,d)`-nearest reference,
//!   multi-source hop-limited Bellman–Ford, Dijkstra, exact APSP).
//! * [`shard`] — the contiguous-shard, scoped-thread driver every sharded
//!   kernel of the workspace runs on (the calling thread runs the first
//!   shard; results come back in shard order).
//! * [`stretch`] — utilities for comparing distance estimates against ground
//!   truth (multiplicative/additive stretch reports, distance buckets).
//!
//! # Example
//!
//! ```
//! use cc_graphs::{bfs, generators, Graph};
//!
//! let g: Graph = generators::cycle(8);
//! let d = bfs::sssp(&g, 0);
//! assert_eq!(d[4], 4);
//! assert_eq!(d[7], 1);
//! ```

// Unsafe is denied (not forbidden) so the one sanctioned exception — the
// `pod` module's byte-reinterpretation primitives behind validated
// constructors — can opt back in locally. Everything else stays safe.
#![deny(unsafe_code)]
// Index-based loops are the clearest idiom for the dense adjacency/matrix
// code in this workspace.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod bfs;
pub mod dijkstra;
pub mod dist;
pub mod generators;
pub mod graph;
pub mod io;
pub mod pod;
pub mod shard;
pub mod stretch;

pub use dist::{dadd, Dist, DistStorage, StorageKind, INF};
pub use graph::{Graph, WeightedGraph};
pub use pod::{
    AlignedBytes, ByteOwner, DirEntry, Pod, PodData, Section, SharedSlice, SECTION_ALIGN,
};
