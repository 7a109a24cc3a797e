//! A literal keeps its lexical form and its tag or datatype IRI in one
//! string, yet compares, orders and hashes exactly as a struct deriving
//! those traits on `(lexical, language, datatype)` would — the layout it
//! replaced, whose order sorted stores and whose hash answer digests were
//! built on.

use proptest::prelude::*;
use rdf_model::{Iri, Literal, Term, TermRef, RDF_LANG_STRING, XSD_STRING};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The three fields the traits are defined on, with the derives.
#[derive(PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct Fields {
    lexical: Arc<str>,
    language: Option<Arc<str>>,
    datatype: Option<Iri>,
}

/// A literal as `(kind, lexical, tag or datatype)`: kind 0 plain, 1
/// language-tagged, 2 typed. Short strings over few characters, so equal
/// lexical forms — and prefixes of one another — are common.
fn arb_spec() -> impl Strategy<Value = (u8, String, String)> {
    (
        0u8..3,
        "[ab\u{e9}\u{1F600}]{0,3}",
        prop_oneof![
            "[a-c]{0,2}".prop_map(|s| format!("http://x/{s}")),
            "[a-c]{1,2}",
            Just(XSD_STRING.to_string()),
        ],
    )
}

fn build((kind, lexical, second): &(u8, String, String)) -> (Literal, Fields) {
    let lexical = lexical.as_str();
    match kind {
        0 => (
            Literal::simple(lexical),
            Fields { lexical: lexical.into(), language: None, datatype: None },
        ),
        1 => (
            Literal::lang(lexical, second.as_str()),
            Fields {
                lexical: lexical.into(),
                language: Some(second.as_str().into()),
                datatype: None,
            },
        ),
        _ => {
            let datatype = (second != XSD_STRING).then(|| Iri::new(second.as_str()));
            let fields = Fields { lexical: lexical.into(), language: None, datatype };
            (Literal::typed(lexical, Iri::new(second.as_str())), fields)
        }
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

proptest! {
    // Cheap cases; enough that every pair of kinds meets on equal and on
    // prefix lexical forms many times.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn literal_traits_equal_the_derive_on_three_fields(a in arb_spec(), b in arb_spec()) {
        let (la, fa) = build(&a);
        let (lb, fb) = build(&b);
        prop_assert_eq!(la.cmp(&lb), fa.cmp(&fb));
        prop_assert_eq!(la.partial_cmp(&lb), Some(fa.cmp(&fb)));
        prop_assert_eq!(la == lb, fa == fb);
        prop_assert_eq!(hash_of(&la), hash_of(&fa));
        prop_assert_eq!(la.cmp(&la.clone()), Ordering::Equal);

        prop_assert_eq!(la.lexical(), &*fa.lexical);
        prop_assert_eq!(la.language(), fa.language.as_deref());
        let datatype = match (&fa.language, &fa.datatype) {
            (Some(_), _) => RDF_LANG_STRING,
            (None, Some(iri)) => iri.as_str(),
            (None, None) => XSD_STRING,
        };
        prop_assert_eq!(la.datatype(), datatype);

        // The view and back lose nothing.
        let term = Term::Literal(la);
        prop_assert_eq!(TermRef::from(&term).to_owned(), term);
    }
}
