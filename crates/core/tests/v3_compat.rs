//! Backward compatibility with hexsnap format version 3.
//!
//! The fixtures `tests/data/v3_small.hexsnap` (raw `FROZ`) and
//! `tests/data/v3_small_frzc.hexsnap` (compressed `FRZC`) were written by
//! the last v3 build's `save_frozen` / `save_frozen_with` for the same
//! graph as the v1 and v2 fixtures and committed. A v3 `FROZ` arena is an
//! offsets column over an item column; the current reader appends those
//! lists to a slot arena and must keep doing so forever: every
//! `LiveGraphStore` directory in the field has a v3 file as its newest
//! generation.

use hexastore::hexsnap::{self, Compression};
use hexastore::{GraphStore, IdPattern, LiveGraphStore, TripleStore};
use rdf_model::{Term, Triple};
use std::io::Cursor;
use std::path::PathBuf;

const FIXTURES: [(&str, Compression); 2] = [
    ("tests/data/v3_small.hexsnap", Compression::None),
    ("tests/data/v3_small_frzc.hexsnap", Compression::VarintDelta),
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
fn committed_v3_fixtures_open_through_every_reader_and_answer() {
    let g = fixture_graph();
    for (name, _) in FIXTURES {
        let path = fixture_path(name);
        let bytes = std::fs::read(&path).expect("fixture must be committed");
        let mut r = hexsnap::Reader::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(r.version(), 3, "{name}");
        assert!(r.has_frozen(), "{name}");
        let dict = r.dictionary().unwrap();
        assert_eq!(dict.len(), g.dict().len(), "{name}");
        for (id, t) in g.dict().iter() {
            assert_eq!(dict.decode(id), Some(t), "{name}");
        }
        // A v3 file has no TRPL column: its triples are its spo ordering.
        assert_eq!(r.triples().unwrap(), g.store().matching(IdPattern::ALL), "{name}");
        assert_answers_like_the_fixture_graph(&r.frozen().unwrap());

        let (dict, frozen) = hexsnap::load_frozen(&path).unwrap();
        assert_eq!(dict.len(), g.dict().len(), "{name}");
        assert_answers_like_the_fixture_graph(&frozen);
        assert_eq!(frozen, g.store().freeze(), "{name}: the slabs this build makes");

        assert_answers_like_the_fixture_graph(hexsnap::load(&path).unwrap().store());
    }
}

#[test]
fn a_resaved_v3_fixture_is_the_current_version_and_roundtrips_equal() {
    for (name, compression) in FIXTURES {
        let (dict, frozen) = hexsnap::load_frozen(fixture_path(name)).unwrap();
        let path = std::env::temp_dir()
            .join(format!("hexsnap-v3-compat-{}-{compression:?}.hexsnap", std::process::id()));
        hexsnap::save_frozen_with(&path, &dict, &frozen, compression).unwrap();
        let resaved = std::fs::read(&path).unwrap();
        let committed = std::fs::read(fixture_path(name)).unwrap();
        assert_eq!(
            hexsnap::Reader::new(Cursor::new(&resaved)).unwrap().version(),
            hexsnap::VERSION
        );
        match compression {
            // The compressed section encodes lists, not arena columns:
            // only the version field differs.
            Compression::VarintDelta => assert_eq!(resaved[12..], committed[12..], "{name}"),
            // 15 lists, 12 of one id and 3 of two: four bytes saved per
            // singleton, four paid per longer list.
            Compression::None => {
                assert_eq!(committed.len() - resaved.len(), 4 * (12 - 3), "{name}")
            }
        }
        let (dict2, back) = hexsnap::load_frozen(&path).unwrap();
        assert_eq!(dict2.len(), dict.len());
        assert_eq!(back, frozen, "{name}");
        assert_answers_like_the_fixture_graph(&back);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn v3_writer_output_is_bit_identical_to_the_committed_fixtures() {
    // `Writer::with_version(_, 3)` is the downgrade path: the sections a
    // v3 `save_frozen_with` wrote, byte for byte.
    let g = fixture_graph();
    let frozen = g.store().freeze();
    for (name, compression) in FIXTURES {
        let mut w = hexsnap::Writer::with_version(Cursor::new(Vec::new()), 3).unwrap();
        w.dictionary(g.dict()).unwrap();
        w.frozen_with(&frozen, compression).unwrap();
        let committed = std::fs::read(fixture_path(name)).expect("fixture must be committed");
        assert_eq!(w.finish().unwrap().into_inner(), committed, "{name}");
    }
}

#[test]
fn a_live_directory_left_at_a_v3_generation_upgrades_on_compaction() {
    // What an upgrade finds on disk: the newest generation is a file the
    // previous format version wrote.
    for (name, _) in FIXTURES {
        let tag = name.replace(['/', '.'], "_");
        let dir =
            std::env::temp_dir().join(format!("hexsnap-v3-live-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(fixture_path(name), hexsnap::generation_path(&dir, 7)).unwrap();

        let mut live = LiveGraphStore::open(&dir).unwrap();
        assert_eq!(live.generation(), 7);
        assert_eq!(live.dataset().to_ntriples(), fixture_graph().to_ntriples());
        let added =
            Triple::new(Term::iri("http://x/new"), Term::iri("http://x/p1"), Term::literal("v4"));
        live.insert(&added).unwrap();
        live.sync().unwrap();
        live.compact().unwrap();
        assert_eq!(live.generation(), 8);
        let expected = live.dataset().to_ntriples();
        drop(live);

        let gen8 = std::fs::read(hexsnap::generation_path(&dir, 8)).unwrap();
        assert_eq!(hexsnap::Reader::new(Cursor::new(&gen8)).unwrap().version(), hexsnap::VERSION);
        assert!(!hexsnap::generation_path(&dir, 7).exists(), "the v3 generation is pruned");

        let recovered = LiveGraphStore::recover(&dir).unwrap();
        assert_eq!(recovered.generation(), 8);
        assert!(recovered.contains(&added));
        assert_eq!(recovered.dataset().to_ntriples(), expected);
        std::fs::remove_dir_all(&dir).ok();
    }
}
