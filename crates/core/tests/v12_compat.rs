//! Format version 12 over its committed files
//! (`tests/data/v12_small{,_frzc}.hexsnap`, whose dictionary is all delta
//! tier, and `tests/data/v12_bulk.hexsnap`, whose dictionary a bulk load
//! froze; the table and the checks are `support/mod.rs`'s).

mod support;

use hexastore::hexsnap::{self, ArenaColumns, Reader, VectorKeys};
use std::io::Cursor;
use support::{bulk_graph, fixture_bytes, fixture_path, fixtures_of, section};

#[test]
fn committed_v12_fixtures_open_through_every_reader_and_answer() {
    for f in fixtures_of(12) {
        support::opens_through_the_reader(f);
        support::opens_through_the_loaders(f);
    }
    let g = bulk_graph();
    let (dict, store) = hexsnap::load_frozen(fixture_path("v12_bulk")).unwrap();
    assert_eq!((dict.terms(), store), (g.dict().terms(), g.store().freeze()));
    let (mapped_dict, mapped) = hex_disk::open(fixture_path("v12_bulk")).unwrap();
    assert_eq!((mapped_dict.terms(), &mapped), (g.dict().terms(), &g.store().freeze()));
    support::assert_mirror_references_are_windowed(&mapped, "v12_bulk mapped");
}

#[test]
fn a_resaved_v12_fixture_is_the_current_version_and_roundtrips_equal() {
    fixtures_of(12).for_each(support::resaves_as_the_current_version_and_roundtrips_equal);
}

#[test]
fn a_live_directory_left_at_a_v12_generation_reopens_and_compacts() {
    for f in fixtures_of(12) {
        support::a_live_directory_left_at_it_upgrades_on_compaction(f);
    }
}

#[test]
fn v12_changed_only_the_froz_section() {
    // Against the v11 files of the same graphs: `DICT` and `FRZC` are
    // byte for byte the same, and each `FROZ` arena is a slot column, a
    // run-ends column and a packed key column, the fixture graph's each
    // holding one run of two ids.
    let pairs = [("v11_small", "v12_small"), ("v11_small_frzc", "v12_small_frzc")];
    for (v11, v12) in pairs.into_iter().chain([("v11_bulk", "v12_bulk")]) {
        let (v11, v12) = (fixture_bytes(v11), fixture_bytes(v12));
        assert_eq!(section(&v11, *b"DICT", "v11"), section(&v12, *b"DICT", "v12"));
        let r = Reader::new(Cursor::new(&v12)).unwrap();
        if r.frozen_section_extent().is_none() {
            assert_eq!(section(&v11, *b"FRZC", "v11"), section(&v12, *b"FRZC", "v12"));
        }
    }
    let file = fixture_bytes("v12_small");
    let columns = Reader::new(Cursor::new(&file)).unwrap().frozen_columns().unwrap();
    for arena in columns.arenas {
        let ArenaColumns::Runs { slots, ends, keys: VectorKeys::Ints(keys), len } = arena else {
            panic!("a v12 arena of packed run ids: {arena:?}")
        };
        let ends = ends.packed().expect("packed run ends");
        assert_eq!((slots.len, ends.len, keys.len(), len), (5, 2, 2, 2));
        // The run ends' width is the bit length of the run-id count, and
        // their words follow the slot column's without a width field.
        assert_eq!((ends.width, ends.offset), (2, slots.offset + slots.bytes()));
    }
    // A v11 file's arenas become the current layout on the way in, eager
    // or mapped: the stores are equal.
    let path = fixture_path("v11_small");
    let (_, eager) = hexsnap::load_frozen(&path).unwrap();
    let (_, mapped) = hex_disk::open(&path).unwrap();
    let (_, current) = hexsnap::load_frozen(fixture_path("v12_small")).unwrap();
    assert_eq!((&eager, &mapped), (&current, &current));
}
