//! What turning an id back into a term costs, checked against the
//! allocator: `Dictionary::decode` builds the owned `Term` in one
//! allocation whatever its kind — a literal's lexical form and its tag or
//! datatype IRI share one string. This test binary installs the counting
//! allocator of `tests/parse_memory.rs` and holds one test, so nothing
//! else allocates while it measures.

mod counting_alloc;

use counting_alloc::{Counting, REQUESTS};
use hex_dict::Dictionary;
use rdf_model::Term;
use std::sync::atomic::Ordering;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn decoding_a_term_is_one_allocation_for_every_kind() {
    let terms = [
        Term::iri("http://example.org/ID1"),
        Term::blank("b0"),
        Term::literal("MIT"),
        Term::lang_literal("chat", "fr"),
        Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer"),
    ];
    let mut dict = Dictionary::new();
    let ids: Vec<_> = terms.iter().map(|t| dict.encode(t)).collect();
    for (kind, (id, term)) in ids.into_iter().zip(&terms).enumerate() {
        assert_eq!(term.kind() as usize, kind, "one term of each kind, in kind order");
        let before = REQUESTS.load(Ordering::Relaxed);
        let decoded = dict.decode(id);
        let requests = REQUESTS.load(Ordering::Relaxed) - before;
        assert_eq!(requests, 1, "{requests} allocations to decode {term} ({:?})", term.kind());
        assert_eq!(decoded.as_ref(), Some(term));
    }
}
