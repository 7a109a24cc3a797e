//! Every hexsnap format version this build reads, over committed files:
//! the one fixture table and the checks each version's suite
//! (`v{1,…,11}_compat.rs`, and `hexsnap_roundtrip.rs` for a v2 live
//! directory) runs over its rows.
//!
//! `tests/data/` holds one small snapshot per version and slab encoding,
//! all of the same graph ([`fixture_graph`]), each written by the last
//! build of its version (v1 and v2 files carry a `TRPL` column beside
//! their slabs). The reader must keep opening every one of them forever:
//! a `LiveGraphStore` directory in the field may have any of them as its
//! newest generation. No code in the tree writes an older version, so the
//! files are append-only.

// Each includer uses a subset of the items.
#![allow(dead_code)]

use hexastore::hexsnap::{self, Compression, Ints, Reader};
use hexastore::{GraphStore, IdPattern, LiveGraphStore, TripleStore};
use rdf_model::{Term, Triple};
use std::io::Cursor;
use std::path::PathBuf;

pub const RAW: Compression = Compression::None;
pub const FRZC: Compression = Compression::VarintDelta;

/// A committed file: name, version, slab encoding, and the bytes its
/// re-save under the current version saves in the slab section (negative
/// when it grows). `None`:
/// the file spells out what later versions derive (pairs, primary list
/// references, a `TRPL` column), so the whole re-save is smaller by an
/// amount no rule fixes. `Some(0)`: the re-save's slab section is the
/// file's, byte for byte. Whatever the version, the re-save's `DICT` is
/// the one a fresh encode of the graph writes.
pub type Fixture = (&'static str, u32, Compression, Option<isize>);

pub const FIXTURES: [Fixture; 21] = [
    ("v1_small", 1, RAW, None),
    ("v2_small", 2, RAW, None),
    ("v2_small_frzc", 2, FRZC, None),
    // 15 lists, 12 of one id and 3 of two: a v4 slot arena saves four
    // bytes per singleton against v3's offsets column and pays four per
    // longer list; v6 packs the index levels (`V6_PACKING_SAVES`), v7
    // the list slots (`V7_PACKING_SAVES`) and v8 the overflow runs
    // (`V8_PACKING_SAVES`).
    ("v3_small", 3, RAW, Some(4 * (12 - 3) + V6_PACKING_SAVES + V7_TO_V9_SAVES)),
    // FRZC encodes lists and values, not columns: its bytes are v3's.
    ("v3_small_frzc", 3, FRZC, Some(0)),
    // v5 changed the dictionary only, v6 the index levels of FROZ, v7 its
    // list slots, v8 its overflow runs, v9 its header and vector keys.
    ("v4_small", 4, RAW, Some(V6_PACKING_SAVES + V7_TO_V9_SAVES)),
    ("v4_small_frzc", 4, FRZC, Some(0)),
    ("v5_small", 5, RAW, Some(V6_PACKING_SAVES + V7_TO_V9_SAVES)),
    ("v5_small_frzc", 5, FRZC, Some(0)),
    ("v6_small", 6, RAW, Some(V7_TO_V9_SAVES)),
    ("v6_small_frzc", 6, FRZC, Some(0)),
    ("v7_small", 7, RAW, Some(V8_PACKING_SAVES + V9_SUCCINCT_SAVES)),
    ("v7_small_frzc", 7, FRZC, Some(0)),
    ("v8_small", 8, RAW, Some(V9_SUCCINCT_SAVES)),
    ("v8_small_frzc", 8, FRZC, Some(0)),
    // v10 changed the dictionary only: the slab sections are v9's.
    ("v9_small", 9, RAW, Some(0)),
    ("v9_small_frzc", 9, FRZC, Some(0)),
    ("v10_small", 10, RAW, Some(0)),
    ("v10_small_frzc", 10, FRZC, Some(0)),
    // v11 added the frozen dictionary tier, empty in a graph of inserts:
    // the slab sections are v10's.
    ("v11_small", 11, RAW, Some(0)),
    ("v11_small_frzc", 11, FRZC, Some(0)),
];

/// What v6's packed index levels save in the fixture graph's `FROZ` —
/// here a loss, as on any graph this small: its 15 offsets, vector-key and
/// list-reference columns hold 69 values, 276 bytes as `u32`s. Packed,
/// every column's values fit one 64-bit word (at most six values, none
/// above 4 bits), so each is that word, the zero word after it and its
/// 4-byte width, 300 in all, and five of them are preceded by 4 bytes of
/// alignment padding. (On `D500k` the same columns shrink by 5.49 MB.)
pub const V6_PACKING_SAVES: isize = 276 - (15 * (16 + 4) + 5 * 4);

/// What v7's packed list slots save in the fixture graph's `FROZ` — a
/// loss too: three arenas of five lists, 60 bytes of `u32` slots. Packed,
/// each arena's five slots fit one 64-bit word, so each column is that
/// word, the zero word after it and its 4-byte width, 60 in all, and two
/// of them are preceded by 4 bytes of alignment padding. (On `D500k` the
/// same columns shrink by 1.63 MB.)
pub const V7_PACKING_SAVES: isize = 60 - (3 * (16 + 4) + 2 * 4);

/// What v8's packed overflow runs save in the fixture graph's `FROZ` —
/// a loss as well: each arena holds one run of two ids, three words and
/// 12 bytes as `u32`s, 36 in all. Packed, each column is one 64-bit word,
/// the zero word after it, its 4-byte width and 4 bytes of alignment
/// padding, 72 in all; and with no 12-byte column before it the second
/// arena's slot column is now preceded by 4 bytes of padding too. (On
/// `D500k` the same columns shrink by 1.33 MB.)
pub const V8_PACKING_SAVES: isize = 36 - (3 * (16 + 4 + 4) + 4);

/// What v9's header bitmaps and vector-key encodings save in the fixture
/// graph's `FROZ` — a loss too, on a graph this small: its 18 `u32`
/// header keys (72 bytes) become, per ordering, an encoding-flags word, a
/// bitmap length, a one-word bitmap with its zero word and width field,
/// and the width field of an empty rank directory, 32 bytes; and the
/// alignment padding before the new columns adds 40 bytes. Every
/// vector-key column stays packed here. (On `D500k` the header keys
/// shrink from 1.94 to 0.17 B/triple and the vector keys from 7.92 to
/// 5.34.)
pub const V9_SUCCINCT_SAVES: isize = 72 - (6 * 32 + 40);

/// What v7 to v9 save together: the packed list slots, the packed
/// overflow runs, then the header bitmaps and vector-key encodings.
pub const V7_TO_V9_SAVES: isize = V7_PACKING_SAVES + V8_PACKING_SAVES + V9_SUCCINCT_SAVES;

/// The rows of one format version.
pub fn fixtures_of(version: u32) -> impl Iterator<Item = Fixture> {
    FIXTURES.into_iter().filter(move |f| f.1 == version)
}

pub fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/data/{name}.hexsnap"))
}

pub fn fixture_bytes(name: &str) -> Vec<u8> {
    std::fs::read(fixture_path(name)).expect("fixture must be committed")
}

pub fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hexsnap-format-compat-{tag}-{}", std::process::id()))
}

/// The graph of `v11_bulk.hexsnap`: terms of every kind, 24 of them —
/// three blocks of the frozen tier — bulk loaded from N-Triples, so the
/// dictionary is all frozen tier.
pub fn bulk_graph() -> GraphStore {
    let mut g = GraphStore::new();
    let mut doc = String::new();
    for i in 0..4 {
        doc.push_str(&format!("<http://x/s{i}> <http://x/p> \"v{i}\"@en .\n"));
        doc.push_str(&format!("<http://x/s{i}> <http://x/q> \"{i}\"^^<http://x/int> .\n"));
        doc.push_str(&format!("_:b{i} <http://x/p> \"é {i}\" .\n"));
    }
    doc.push_str("<http://x/s0> <http://x/r> <urn:no-separator> .\n");
    g.load_ntriples(&doc).unwrap();
    assert_eq!((g.dict().len(), g.dict().frozen_len()), (24, 24));
    g
}

/// The exact graph every fixture encodes. Insertion order fixes the
/// dictionary ids, so the byte stream is fully deterministic.
pub fn fixture_graph() -> GraphStore {
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

pub fn assert_answers_like_the_fixture_graph(store: &dyn TripleStore, name: &str) {
    let g = fixture_graph();
    assert_eq!(store.len(), g.len(), "{name}");
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
    for pat in pats {
        assert_eq!(store.matching(pat), g.store().matching(pat), "{name} {pat:?}");
        assert_eq!(store.count_matching(pat), g.store().count_matching(pat), "{name} {pat:?}");
    }
}

/// The `Reader` methods: `version`, `dictionary`, `triples`, `frozen`.
pub fn opens_through_the_reader((name, version, compression, _): Fixture) {
    let g = fixture_graph();
    let bytes = fixture_bytes(name);
    let mut r = Reader::new(Cursor::new(&bytes)).unwrap();
    assert_eq!(r.version(), version, "{name}");
    assert!(r.has_frozen(), "{name}");
    assert_eq!(r.frozen_section_extent().is_some(), compression == RAW, "{name}");

    // The `FROZ` walk accounts for every byte of every version's layout:
    // the last column ends where the section does.
    if let Some((froz_at, froz_len)) = r.frozen_section_extent() {
        let ops = r.frozen_columns().unwrap().orderings[5].lists.expect("ops is a mirror");
        let end = match ops {
            Ints::U32(col) => col.offset + 4 * col.len,
            Ints::Packed(col) => col.offset + col.bytes(),
        };
        assert_eq!(end, (froz_at + froz_len) as usize, "{name}");
    }

    let dict = r.dictionary().unwrap();
    assert_eq!(dict.len(), g.dict().len(), "{name}");
    for (id, t) in g.dict().iter() {
        assert_eq!(dict.decode(id), Some(t), "{name}");
    }
    // From the TRPL column where the file has one, else from the spo
    // ordering: the same triples in the same order.
    assert_eq!(r.triples().unwrap(), g.store().matching(IdPattern::ALL), "{name}");
    assert_answers_like_the_fixture_graph(&r.frozen().unwrap(), name);
}

/// The file-level loaders: `load_frozen`, checked equal to `freeze()`,
/// and `load`.
pub fn opens_through_the_loaders((name, ..): Fixture) {
    let g = fixture_graph();
    let (dict, frozen) = hexsnap::load_frozen(fixture_path(name)).unwrap();
    assert_eq!(dict.len(), g.dict().len(), "{name}");
    assert_answers_like_the_fixture_graph(&frozen, name);
    assert_eq!(frozen, g.store().freeze(), "{name}: the slabs this build makes");

    let loaded = hexsnap::load(fixture_path(name)).unwrap();
    assert_answers_like_the_fixture_graph(loaded.store(), name);
}

/// The bytes of a file's section `tag`.
pub fn section<'f>(file: &'f [u8], tag: [u8; 4], name: &str) -> &'f [u8] {
    let r = Reader::new(Cursor::new(file)).unwrap();
    let (at, len) = r.section_extent(tag).unwrap_or_else(|| panic!("{name}: no section {tag:?}"));
    &file[at as usize..(at + len) as usize]
}

/// The slab section of a file: `FROZ` or `FRZC`.
fn slab_section<'f>(file: &'f [u8], compression: Compression, name: &str) -> &'f [u8] {
    section(file, if compression == RAW { *b"FROZ" } else { *b"FRZC" }, name)
}

/// The `DICT` section this build writes for the fixture graph.
pub fn fresh_dict_section() -> Vec<u8> {
    let mut w = hexsnap::Writer::new(Cursor::new(Vec::new())).unwrap();
    w.dictionary(fixture_graph().dict()).unwrap();
    section(&w.finish().unwrap().into_inner(), *b"DICT", "fresh").to_vec()
}

/// A re-save is the current version, writes the `DICT` a fresh encode
/// writes and the slab section the row says, and reads back equal.
pub fn resaves_as_the_current_version_and_roundtrips_equal((name, _, compression, saved): Fixture) {
    let (dict, frozen) = hexsnap::load_frozen(fixture_path(name)).unwrap();
    let path = temp_path(name);
    hexsnap::save_frozen_with(&path, &dict, &frozen, compression).unwrap();
    let resaved = std::fs::read(&path).unwrap();
    let committed = fixture_bytes(name);
    assert_eq!(Reader::new(Cursor::new(&resaved)).unwrap().version(), hexsnap::VERSION);
    assert_eq!(section(&resaved, *b"DICT", name), fresh_dict_section(), "{name}");
    let slabs = |file| slab_section(file, compression, name);
    match saved {
        None => assert!(resaved.len() < committed.len(), "{name}: {}", resaved.len()),
        Some(0) => assert_eq!(slabs(&resaved), slabs(&committed), "{name}"),
        Some(saved) => {
            let shrunk = slabs(&committed).len() as isize - slabs(&resaved).len() as isize;
            assert_eq!(shrunk, saved, "{name}")
        }
    }
    let (dict2, back) = hexsnap::load_frozen(&path).unwrap();
    assert_eq!(dict2.len(), dict.len(), "{name}");
    assert_eq!(back, frozen, "{name}");
    assert_answers_like_the_fixture_graph(&back, name);
    std::fs::remove_file(&path).ok();
}

/// What an upgrade finds on disk: a `LiveGraphStore` directory whose
/// newest generation is the fixture. Insert, compact, check the new
/// generation is the current version with raw slabs and the old one is
/// pruned, then recover. Returns the bytes of the new generation.
pub fn a_live_directory_left_at_it_upgrades_on_compaction(f: Fixture) -> Vec<u8> {
    a_live_directory_left_at_it_upgrades_on_compaction_to(f, &fixture_graph())
}

/// [`a_live_directory_left_at_it_upgrades_on_compaction`] of a fixture
/// that encodes `graph`.
pub fn a_live_directory_left_at_it_upgrades_on_compaction_to(
    (name, ..): Fixture,
    graph: &GraphStore,
) -> Vec<u8> {
    let dir = temp_path(&format!("live-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixture_path(name), hexsnap::generation_path(&dir, 7)).unwrap();

    let mut live = LiveGraphStore::open(&dir).unwrap();
    assert_eq!(live.generation(), 7, "{name}");
    assert_eq!(live.dataset().to_ntriples(), graph.to_ntriples(), "{name}");
    let added =
        Triple::new(Term::iri("http://x/new"), Term::iri("http://x/p1"), Term::literal("v4"));
    live.insert(&added).unwrap();
    live.sync().unwrap();
    live.compact().unwrap();
    assert_eq!(live.generation(), 8, "{name}");
    let expected = live.dataset().to_ntriples();
    drop(live);

    let gen8 = std::fs::read(hexsnap::generation_path(&dir, 8)).unwrap();
    let r = Reader::new(Cursor::new(&gen8)).unwrap();
    assert_eq!(r.version(), hexsnap::VERSION, "{name}");
    assert!(r.frozen_section_extent().is_some(), "{name}: compaction writes raw slabs");
    assert!(!hexsnap::generation_path(&dir, 7).exists(), "{name}: gen 7 is pruned");

    let recovered = LiveGraphStore::recover(&dir).unwrap();
    assert_eq!(recovered.generation(), 8, "{name}");
    assert!(recovered.contains(&added), "{name}");
    assert_eq!(recovered.dataset().to_ntriples(), expected, "{name}");
    std::fs::remove_dir_all(&dir).ok();
    gen8
}
