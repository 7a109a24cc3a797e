//! # rdf-model
//!
//! The RDF data model used throughout the Hexastore reproduction:
//! [`Term`]s (IRIs, literals, blank nodes), [`Triple`]s, triple
//! [`TriplePattern`]s, and a line-oriented
//! [N-Triples](https://www.w3.org/TR/n-triples/) parser and writer.
//!
//! The Hexastore paper (Weiss, Karras, Bernstein, VLDB 2008) stores RDF
//! *statements* — triples `<subject, property, object>` — after dictionary
//! encoding. This crate provides the string-level model that the
//! [`hex_dict`](../hex_dict) crate encodes: owned [`Term`]s and
//! [`Triple`]s for callers that keep them, and the borrowed
//! [`TermRef`]/[`TripleRef`] views: of an owned triple, of a dictionary's
//! string arena, and of a [`Statement`] — the 32-byte table of extents the
//! N-Triples tokenizer yields per line of its input.
//!
//! ## Example
//!
//! ```
//! use rdf_model::{Term, Triple};
//!
//! let t = Triple::new(
//!     Term::iri("http://example.org/ID1"),
//!     Term::iri("http://example.org/teacherOf"),
//!     Term::literal("AI"),
//! );
//! assert_eq!(
//!     t.to_string(),
//!     "<http://example.org/ID1> <http://example.org/teacherOf> \"AI\" ."
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ntriples;
mod pattern;
mod term;
mod triple;
mod turtle;

pub use ntriples::{parse_document, parse_line, write_document, NtParseError, Statement};
pub use pattern::{TermPattern, TriplePattern};
pub use term::{BlankNode, Iri, Literal, Term, TermKind, TermRef, RDF_LANG_STRING, XSD_STRING};
pub use triple::{Triple, TripleRef};
pub use turtle::{parse_turtle, write_turtle, TurtleParseError, RDF_TYPE};
