//! Backward compatibility with hexsnap format version 2.
//!
//! The fixtures `tests/data/v2_small.hexsnap` (raw `FROZ`) and
//! `tests/data/v2_small_frzc.hexsnap` (compressed `FRZC`) were written by
//! the last v2 build's `save_frozen` / `save_frozen_with` for the same
//! graph as the v1 fixture (`v1_compat.rs`) and committed. A v2 file
//! stores what v3 derives — `(offset, length)` pairs, list references for
//! the primary orderings, a `TRPL` column beside the slabs — and the
//! current reader must keep opening such files forever: every
//! `LiveGraphStore` directory in the field has one as its newest
//! generation.

use hexastore::hexsnap::{self, Compression};
use hexastore::{GraphStore, IdPattern, TripleStore};
use rdf_model::{Term, Triple};
use std::io::Cursor;
use std::path::PathBuf;

const FIXTURES: [(&str, Compression); 2] = [
    ("tests/data/v2_small.hexsnap", Compression::None),
    ("tests/data/v2_small_frzc.hexsnap", Compression::VarintDelta),
];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name)
}

/// The exact graph the committed fixtures encode — `v1_compat.rs`'s.
fn fixture_graph() -> GraphStore {
    let mut g = GraphStore::new();
    let triples = [
        ("http://x/s1", "http://x/p1", "http://x/o1"),
        ("http://x/s1", "http://x/p1", "http://x/o2"),
        ("http://x/s1", "http://x/p2", "http://x/o1"),
        ("http://x/s2", "http://x/p1", "http://x/o2"),
        ("http://x/s2", "http://x/p2", "http://x/o3"),
    ];
    for (s, p, o) in triples {
        g.insert(&Triple::new(Term::iri(s), Term::iri(p), Term::iri(o)));
    }
    g.insert(&Triple::new(
        Term::iri("http://x/s2"),
        Term::iri("http://x/p3"),
        Term::literal("a label with spaces"),
    ));
    g
}

/// All eight access shapes over the fixture graph's own constants.
fn all_patterns(g: &GraphStore) -> Vec<IdPattern> {
    let mut pats = vec![IdPattern::ALL];
    for tr in g.store().matching(IdPattern::ALL) {
        pats.extend([
            IdPattern::spo(tr),
            IdPattern::sp(tr.s, tr.p),
            IdPattern::so(tr.s, tr.o),
            IdPattern::po(tr.p, tr.o),
            IdPattern::s(tr.s),
            IdPattern::p(tr.p),
            IdPattern::o(tr.o),
        ]);
    }
    pats
}

fn assert_answers_like_the_fixture_graph(store: &dyn TripleStore) {
    let g = fixture_graph();
    assert_eq!(store.len(), g.len());
    for pat in all_patterns(&g) {
        assert_eq!(store.matching(pat), g.store().matching(pat), "{pat:?}");
        assert_eq!(store.count_matching(pat), g.store().count_matching(pat), "{pat:?}");
    }
}

#[test]
fn committed_v2_fixtures_open_through_every_reader_and_answer() {
    let g = fixture_graph();
    for (name, _) in FIXTURES {
        let path = fixture_path(name);
        let bytes = std::fs::read(&path).expect("fixture must be committed");
        let mut r = hexsnap::Reader::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(r.version(), 2, "{name}");
        assert!(r.has_frozen(), "{name}");
        let dict = r.dictionary().unwrap();
        assert_eq!(dict.len(), g.dict().len(), "{name}");
        for (id, t) in g.dict().iter() {
            assert_eq!(dict.decode(id), Some(t), "{name}");
        }
        // A v2 file still has its TRPL column; it and the slabs agree.
        assert_eq!(r.triples().unwrap(), g.store().matching(IdPattern::ALL), "{name}");
        assert_answers_like_the_fixture_graph(&r.frozen().unwrap());

        let (dict, frozen) = hexsnap::load_frozen(&path).unwrap();
        assert_eq!(dict.len(), g.dict().len(), "{name}");
        assert_answers_like_the_fixture_graph(&frozen);
        assert_eq!(frozen, g.store().freeze(), "{name}: the slabs a v3 build makes");

        assert_answers_like_the_fixture_graph(hexsnap::load(&path).unwrap().store());
    }
}

#[test]
fn a_resaved_v2_fixture_is_v3_and_roundtrips_equal() {
    for (name, compression) in FIXTURES {
        let (dict, frozen) = hexsnap::load_frozen(fixture_path(name)).unwrap();
        let path = std::env::temp_dir()
            .join(format!("hexsnap-v2-compat-{}-{compression:?}.hexsnap", std::process::id()));
        hexsnap::save_frozen_with(&path, &dict, &frozen, compression).unwrap();
        let resaved = std::fs::read(&path).unwrap();
        let committed = std::fs::read(fixture_path(name)).unwrap();
        assert!(resaved.len() < committed.len(), "{name}: v3 stores less than v2");
        assert_eq!(
            hexsnap::Reader::new(Cursor::new(&resaved)).unwrap().version(),
            hexsnap::VERSION
        );
        let (dict2, back) = hexsnap::load_frozen(&path).unwrap();
        assert_eq!(dict2.len(), dict.len());
        assert_eq!(back, frozen, "{name}");
        assert_answers_like_the_fixture_graph(&back);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn v2_writer_output_is_bit_identical_to_the_committed_fixtures() {
    // `Writer::with_version(_, 2)` is the downgrade path: the sections a
    // v2 `save_frozen_with` wrote, byte for byte.
    let g = fixture_graph();
    let frozen = g.store().freeze();
    for (name, compression) in FIXTURES {
        let mut w = hexsnap::Writer::with_version(Cursor::new(Vec::new()), 2).unwrap();
        w.dictionary(g.dict()).unwrap();
        w.triples(frozen.len() as u64, frozen.iter_matching(IdPattern::ALL)).unwrap();
        w.frozen_with(&frozen, compression).unwrap();
        let committed = std::fs::read(fixture_path(name)).expect("fixture must be committed");
        assert_eq!(w.finish().unwrap().into_inner(), committed, "{name}");
    }
}
