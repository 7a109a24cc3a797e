//! What turning an id back into a term costs, checked against the
//! allocator: `Dictionary::decode` builds the owned `Term` in one
//! allocation whatever its kind — a literal's lexical form and its tag or
//! datatype IRI share one string, and so do an IRI's namespace prefix and
//! the rest, which the dictionary stores apart. This test binary installs the counting
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
        (Term::iri("http://example.org/ID1"), "an IRI under a namespace prefix"),
        (Term::iri("urn:isbn:0451450523"), "an IRI without a prefix"),
        (Term::blank("b0"), "a blank node"),
        (Term::literal("MIT"), "a plain literal"),
        (Term::lang_literal("chat", "fr"), "a tagged literal"),
        (Term::typed_literal("42", "http://www.w3.org/2001/XMLSchema#integer"), "a typed literal"),
    ];
    let mut dict = Dictionary::new();
    let ids: Vec<_> = terms.iter().map(|(t, _)| dict.encode(t)).collect();
    for (id, (term, what)) in ids.into_iter().zip(&terms) {
        let before = REQUESTS.load(Ordering::Relaxed);
        let decoded = dict.decode(id);
        let requests = REQUESTS.load(Ordering::Relaxed) - before;
        assert_eq!(requests, 1, "{requests} allocations to decode {what}, {term}");
        assert_eq!(decoded.as_ref(), Some(term));
    }
}
