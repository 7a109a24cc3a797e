//! # hex-baselines — the comparator stores of the Hexastore paper
//!
//! The paper's evaluation (§5) compares the Hexastore against its own
//! representation of the state of the art:
//!
//! - [`TriplesTable`] — the "giant triples table" of conventional systems
//!   (§1, §2.1): one sorted relation of `(s, p, o)` keys.
//! - [`Covp1`] — the column-oriented vertical-partitioning scheme of Abadi
//!   et al. (VLDB 2007), represented by a single `pso` index: one
//!   two-column table per property, sorted by subject, with multiple
//!   objects grouped per subject (§5: "We represent the COVP method
//!   through our pso indexing").
//! - [`Covp2`] — COVP1 plus a second per-property copy sorted on object
//!   (`pos`), the variant Abadi et al. suggested but never implemented
//!   (§5: "the suggestion of having a second copy of each two-column
//!   property table, sorted on object, is tantamount to having both a pso
//!   and a pos index").
//!
//! Following §5, both COVP stores are built from the Hexastore's own slab
//! layout: each is a [`hexastore::PartialHexastore`] keeping {pso} or
//! {pso, pos}, built once from a batch and read-only. The hand-written
//! COVP plans read those orderings as every other plan reads one:
//! `store.ordering(IndexKind::Pso)` ([`hexastore::access::OrderedStore`]).
//!
//! All three implement [`hexastore::TripleStore`], so the query engine,
//! benchmark queries and equivalence tests treat them interchangeably with
//! the Hexastore. Their *performance* differs exactly where the paper says
//! it must: any access that is not property-bound forces COVP stores to
//! visit every property table, and any object-bound access forces COVP1 to
//! scan tables linearly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod covp;
mod triples_table;

pub use covp::{Covp1, Covp2};
pub use triples_table::TriplesTable;
