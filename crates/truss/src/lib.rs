//! # sd-truss — truss & core decomposition substrate
//!
//! Implements the decomposition machinery under the structural diversity
//! search:
//!
//! * [`decompose`] — truss decomposition (Algorithm 1 of the paper, the
//!   Wang–Cheng peeling algorithm) producing per-edge trussness, and its
//!   k-bounded form that peels only up to the k-truss.
//! * [`bitmap`] — the bitmap-accelerated kernel of Section 6.2: the full
//!   decomposition, and [`BitRows`], reusable adjacency-bitmap rows peeled
//!   to the k-truss by a worklist (behind [`bitmap_ktruss`], and filled
//!   straight from the global graph by `sd-core`'s single-k ego kernel).
//!   Which kernel an ego-network gets is decided in one place, `sd-core`'s
//!   `score` module.
//! * [`ktruss`] — k-truss extraction and maximal connected k-trusses
//!   (the paper's *social contexts* when applied to an ego-network).
//! * [`kcore`] — k-core decomposition, needed by the Core-Div baseline.
//! * [`histogram`] — edge-trussness distributions (Figure 3).
//!
//! ## Example
//!
//! ```
//! use sd_graph::GraphBuilder;
//! use sd_truss::{ktruss_edges, truss_decomposition};
//!
//! // Two triangles sharing the edge (1, 2): every edge of the 4-clique-free
//! // graph sits in at least one triangle, so the whole graph is a 3-truss,
//! // but nothing survives at k = 4.
//! let g = GraphBuilder::new()
//!     .extend_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
//!     .build();
//! let d = truss_decomposition(&g);
//! assert_eq!(d.max_trussness, 3);
//! assert_eq!(ktruss_edges(&d, 3).len(), g.m());
//! assert!(ktruss_edges(&d, 4).is_empty());
//! ```

pub mod bitmap;
pub mod decompose;
pub mod histogram;
pub mod kcore;
pub mod ktruss;

pub use bitmap::{bitmap_ktruss, bitmap_truss_decomposition, BitRows};
pub use decompose::{classic_ktruss, truss_decomposition, vertex_trussness, TrussDecomposition};
pub use histogram::trussness_histogram;
pub use kcore::{core_decomposition, maximal_connected_kcores, CoreDecomposition};
pub use ktruss::{edge_components, ktruss_edges, maximal_connected_ktrusses};
