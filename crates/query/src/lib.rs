//! # hex-query — query processing over triple stores
//!
//! The query layer of the Hexastore reproduction:
//!
//! - [`algebra`] — basic graph patterns over dictionary ids;
//! - [`exec`] — streaming, selectivity- and index-aware BGP execution
//!   against any [`hexastore::TripleStore`];
//! - [`ops`] — the counting/grouping operators the paper's benchmark
//!   queries aggregate with;
//! - [`path`] — path-expression evaluation with merge-join accounting
//!   (paper §4.3), plus transitive closure;
//! - [`parallel`] — parallel BGP execution: [`Plan::run_parallel`]
//!   shards the first step's candidate range across worker threads and
//!   merges in shard order, byte-identical to the single-threaded walk;
//! - [`parser`] / [`engine`] — a small SPARQL-like language, compiled
//!   against a dictionary and planned/executed on any store.
//!
//! ## The prepared-plan surface
//!
//! [`prepare`] (or [`prepare_on`] for query text) compiles a query and
//! returns a [`Plan`]: join order chosen around the store's
//! [`hexastore::TripleStore::capabilities`], FILTERs pushed down to the
//! earliest step that binds their variables, and every step annotated
//! with its access shape, cardinality estimate and serving index —
//! rendered by [`Plan::explain`]. [`Plan::solutions`] streams decoded
//! rows lazily, so ASK stops at the first solution and `LIMIT k` after
//! `offset + k` rows (for non-DISTINCT filter-free queries the limit is
//! pushed into the join walk itself, bounding visited triples by the
//! demand). The [`DatasetQuery`] trait puts the same surface on every
//! string-level [`hexastore::Dataset`] facade — mutable, frozen or
//! partial — and [`prepare_with_stats`] refines the join order with
//! [`hexastore::DatasetStats`] bound-variable fan-out. The one-call
//! [`execute`]/[`execute_on`]/[`execute_ask`] functions are thin shims
//! over the same machinery.
//!
//! ## Example
//!
//! ```
//! use hexastore::GraphStore;
//! use hex_query::prepare_on;
//!
//! let mut g = GraphStore::new();
//! g.load_ntriples(r#"
//! <http://x/ID3> <http://x/advisor> <http://x/ID2> .
//! <http://x/ID2> <http://x/worksFor> "MIT" .
//! "#).unwrap();
//!
//! let plan = prepare_on(g.store(), g.dict(), r#"
//!     SELECT ?student WHERE {
//!         ?student <http://x/advisor> ?prof .
//!         ?prof <http://x/worksFor> "MIT" .
//!     }
//! "#).unwrap();
//! println!("{}", plan.explain());        // cost-annotated steps
//! assert_eq!(plan.solutions().count(), 1); // lazy row stream
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod engine;
pub mod exec;
pub mod ops;
pub mod parallel;
pub mod parser;
pub mod path;

/// The counting store adaptor shared with the integration tests.
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;

pub use algebra::{Bgp, Pattern, PatternTerm, VarId};
pub use engine::{
    compile, execute, execute_ask, execute_compiled, execute_on, prepare, prepare_on,
    prepare_on_with_stats, prepare_with_stats, CompiledFilter, CompiledQuery, DatasetQuery,
    FilterSide, Plan, PlanCache, QueryError, ResultSet, Solutions,
};
pub use exec::{
    execute_bgp, execute_bgp_with_order, merge_candidates, merge_group, plan_order, plan_steps,
    plan_steps_with, BgpCursor, JoinStep, MergeCursor, PlanStep, RowCheck,
};
pub use parser::{parse_query, FilterExpr, FilterOp, FilterOperand, ParseError, ParsedQuery};
pub use path::{
    follow_path, follow_path_generic, path_pairs, transitive_closure, PathResult, PathStats,
};
