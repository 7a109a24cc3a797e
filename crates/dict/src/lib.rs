//! # hex-dict — dictionary encoding
//!
//! The Hexastore paper (§4.1) employs "a dictionary encoding similar to
//! that adopted in [Sesame, Oracle, Abadi et al.]": instead of storing
//! entire strings or URIs, string values are mapped to integer identifiers,
//! and a mapping table translates keys back to strings.
//!
//! This crate provides that layer:
//!
//! - [`Id`] — a dense `u32` key for a term,
//! - [`IdTriple`] — a dictionary-encoded triple (three [`Id`]s),
//! - [`Dictionary`] — the bidirectional term ⇄ id mapping, in a frozen
//!   tier of sorted, front-coded keys ([`FrontImage`], [`term_key`]) and
//!   an append-only delta tier,
//! - [`packed`] — the bit-packed integer columns every dictionary column
//!   and every frozen-store index level is stored in, over bytes that are
//!   owned or a window of a mapped file ([`packed::Bytes`]).
//!
//! ## Example
//!
//! ```
//! use hex_dict::Dictionary;
//! use rdf_model::{Term, Triple};
//!
//! let mut dict = Dictionary::new();
//! let t = Triple::new(
//!     Term::iri("http://example.org/ID1"),
//!     Term::iri("http://example.org/advisor"),
//!     Term::iri("http://example.org/ID2"),
//! );
//! let enc = dict.encode_triple(&t);
//! assert_eq!(dict.decode_triple(enc).unwrap(), t);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dictionary;
mod front;
mod id;
pub mod packed;

pub use dictionary::{ArenaError, ArenaImage, DictHeap, Dictionary, IndexStats};
pub use front::{term_key, FrontImage, BLOCK};
pub use id::{Id, IdTriple};
