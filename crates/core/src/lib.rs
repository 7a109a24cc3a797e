//! # hexastore — sextuple indexing for Semantic Web data management
//!
//! A faithful, production-quality Rust implementation of
//! **Weiss, Karras, Bernstein: "Hexastore: Sextuple Indexing for Semantic
//! Web Data Management" (VLDB 2008)**.
//!
//! A Hexastore materializes all `3! = 6` orderings of the RDF triple
//! elements — `spo, sop, pso, pos, osp, ops` — as two-level sorted indices
//! over dictionary-encoded ids. Paired orderings share their terminal
//! lists, so worst-case space is five key entries per resource occurrence
//! (two headers + two vectors + one list) instead of six. In exchange:
//!
//! - every triple pattern, *including non-property-bound ones*, is a single
//!   index probe;
//! - every vector and list is sorted, so all first-step pairwise joins are
//!   linear merge joins.
//!
//! ## Quick start
//!
//! ```
//! use hexastore::GraphStore;
//! use rdf_model::{Term, TermPattern, Triple, TriplePattern};
//!
//! let mut g = GraphStore::new();
//! g.load_ntriples(r#"
//! <http://ex/ID2> <http://ex/worksFor> "MIT" .
//! <http://ex/ID1> <http://ex/bachelorFrom> "MIT" .
//! <http://ex/ID2> <http://ex/phdFrom> "Stanford" .
//! "#).unwrap();
//!
//! // Which people are related to MIT, by any property? One osp/ops probe.
//! let pat = TriplePattern::new(
//!     TermPattern::var("who"),
//!     TermPattern::var("how"),
//!     Term::literal("MIT"),
//! );
//! assert_eq!(g.matching(&pat).len(), 2);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`sorted`] | linear-time merge-join primitives on sorted id sets |
//! | [`slab`] | flat terminal-list storage: a packed slot per list plus runs of a packed or Elias–Fano coded key column ([`FlatArena`]), read as a [`List`](slab::List) |
//! | [`packed`] | bit-packed columns, re-exported from [`hex_dict::packed`]: offsets, mirror list references, packed vector keys and list slots at the width their largest value needs ([`PackedColumn`], [`PackedView`]) |
//! | [`succinct`] | header keys as a presence bitmap with a rank directory, and Elias–Fano coded vector-key windows ([`succinct::KeyColumn`]) |
//! | [`frozen`] | [`FrozenHexastore`]: the six orderings over [`hex_dict::IdTriple`]s as slabs, paired orderings sharing lists; built once from a batch, read-only |
//! | [`store`] | [`SpaceStats`], and [`Hexastore`], the figures' name for [`FrozenHexastore`] |
//! | [`advisor`] | §6 index selection: the orderings a workload needs ([`recommend`]) |
//! | [`partial`] | [`PartialHexastore`]: only those orderings, as slabs, built once from a batch and read-only |
//! | [`bulk`] | sort-based bulk loader, serial or parallel ([`bulk::Config`]) |
//! | [`overlay`] | [`OverlayHexastore`]: the write path — pending inserts and tombstones in four ordered sets over a frozen base |
//! | [`graph`] | [`Dataset`]: any store + dictionary, string-level API; [`GraphStore`] is the writable one |
//! | [`pattern`] | [`IdPattern`]: the eight access shapes |
//! | [`access`] | the one read path: shape → ordering route, slab views, every read operation |
//! | [`traits`] | [`TripleStore`]: the interface shared with the baselines |
//! | [`compress`] | varint-delta codec for sorted id runs (compressed snapshots) |
//! | [`hexsnap`] | the `hexsnap` binary on-disk snapshot format |
//! | [`wal`] | append-only write-ahead log behind [`LiveGraphStore`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod advisor;
pub mod bulk;
pub mod compress;
pub mod frozen;
pub mod graph;
pub mod hexsnap;
pub mod overlay;
pub mod partial;
pub mod pattern;
pub mod slab;
pub mod sorted;
pub mod stats;
pub mod store;
pub mod succinct;
pub mod traits;
pub mod wal;

pub use hex_dict::packed;

pub use advisor::{recommend, serving_indices, IndexKind, IndexSet, WorkloadProfile};
pub use frozen::{FrozenHexastore, HeapBreakdown};
pub use graph::{
    Dataset, FrozenGraphStore, GraphStore, LiveGraphStore, PartialGraphStore, SnapshotHandle,
};
pub use overlay::OverlayHexastore;
pub use packed::{PackedColumn, PackedView};
pub use partial::PartialHexastore;
pub use pattern::{IdPattern, Shape};
pub use slab::FlatArena;
pub use stats::{DatasetStats, StatsSource};
pub use store::{Hexastore, SpaceStats};
pub use traits::{extend_store, MutableStore, SortedListAccess, TripleIter, TripleStore};
pub use wal::{Wal, WalOp};
