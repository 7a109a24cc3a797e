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
//! - [`parser`] / [`engine`] — a small SPARQL-like language, compiled
//!   against a dictionary and planned/executed on any store.
//!
//! ## How to run a query
//!
//! Text goes in through [`prepare_on`] (a store + dictionary pair), the
//! [`DatasetQuery`] trait on every string-level [`hexastore::Dataset`]
//! facade — mutable, frozen or partial — or a [`PlanCache`]; an
//! already-compiled query through [`parse_query`] → [`compile`] →
//! [`Plan::from_compiled`]. Either way the result is a [`Plan`]: join
//! order chosen around the store's
//! [`hexastore::TripleStore::capabilities`] (refined with
//! [`hexastore::DatasetStats`] bound-variable fan-out by the
//! `_with_stats` forms), FILTERs pushed down to the earliest step that
//! binds their variables, and every step annotated with its access
//! shape, cardinality estimate and serving index — rendered by
//! [`Plan::explain`]. Rows come out of one executor:
//! [`Plan::solutions`] streams decoded rows lazily, so ASK stops at the
//! first solution and `LIMIT k` after `offset + k` rows (for filter-free
//! queries whose projection cannot duplicate, the limit is pushed into
//! the join walk itself, bounding visited triples by the demand), and
//! [`Plan::run`] collects that stream into a [`ResultSet`].
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
pub mod parser;
pub mod path;

/// The counting store adaptor and oracle harness shared with the
/// integration tests.
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;
// `support` names this crate `hex_query`, as an integration test must.
#[cfg(test)]
extern crate self as hex_query;

pub use algebra::{Bgp, Pattern, PatternTerm, VarId};
pub use engine::{
    compile, prepare_on, CompiledFilter, CompiledQuery, DatasetQuery, FilterSide, Plan, PlanCache,
    QueryError, ResultSet, Solutions,
};
pub use exec::{
    execute_bgp, merge_group, plan_steps, plan_steps_with, BgpCursor, JoinStep, PlanStep, RowCheck,
};
pub use parser::{parse_query, FilterExpr, FilterOp, FilterOperand, ParseError, ParsedQuery};
pub use path::{
    follow_path, follow_path_generic, path_pairs, transitive_closure, PathResult, PathStats,
};
