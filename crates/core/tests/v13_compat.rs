//! Format version 13, the one this build writes, over its committed files
//! (`tests/data/v13_small{,_frzc}.hexsnap`, whose dictionary is all delta
//! tier, `tests/data/v13_bulk.hexsnap`, whose dictionary a bulk load
//! froze, and `tests/data/v13_coded_refs.hexsnap`, whose pso and osp list
//! references are Elias–Fano coded; the table and the checks are
//! `support/mod.rs`'s).

mod support;

use hexastore::hexsnap::{self, ListRefs, Reader, VectorKeys};
use hexastore::{IndexKind, IndexSet, TripleStore};
use std::io::Cursor;
use support::{bulk_graph, coded_refs_graph, fixture_bytes, fixture_graph, fixture_path};
use support::{fixtures_of, section, temp_path};

#[test]
fn v13_writer_output_is_bit_identical_to_the_committed_fixtures() {
    let g = fixture_graph();
    let frozen = g.store().freeze();
    for (name, _, compression, _) in fixtures_of(13) {
        let path = temp_path(name);
        hexsnap::save_frozen_with(&path, g.dict(), &frozen, compression).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), fixture_bytes(name), "{name}");
        std::fs::remove_file(&path).ok();
    }
    for (name, g) in [("v13_bulk", bulk_graph()), ("v13_coded_refs", coded_refs_graph())] {
        let path = temp_path(name);
        hexsnap::save_frozen(&path, g.dict(), &g.store().freeze()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), fixture_bytes(name), "{name}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn committed_v13_fixtures_open_through_every_reader_and_answer() {
    for f in fixtures_of(13) {
        support::opens_through_the_reader(f);
        support::opens_through_the_loaders(f);
    }
    for (name, g) in [("v13_bulk", bulk_graph()), ("v13_coded_refs", coded_refs_graph())] {
        let (dict, store) = hexsnap::load_frozen(fixture_path(name)).unwrap();
        assert_eq!((dict.terms(), &store), (g.dict().terms(), &g.store().freeze()), "{name}");
        let (mapped_dict, mapped) = hex_disk::open(fixture_path(name)).unwrap();
        assert_eq!((mapped_dict.terms(), &mapped), (g.dict().terms(), &store), "{name}");
        support::assert_mirror_references_are_windowed(&store, name);
        support::assert_mirror_references_are_windowed(&mapped, name);
    }
}

#[test]
fn a_resaved_v13_fixture_is_the_current_version_and_roundtrips_equal() {
    fixtures_of(13).for_each(support::resaves_as_the_current_version_and_roundtrips_equal);
}

#[test]
fn a_live_directory_left_at_a_v13_generation_reopens_and_compacts() {
    for f in fixtures_of(13) {
        support::a_live_directory_left_at_it_upgrades_on_compaction(f);
    }
}

#[test]
fn v13_changed_only_how_froz_may_code_a_mirrors_references() {
    // Against the v12 files of the same graphs, where every mirror's
    // references stay packed: every section is byte for byte the same.
    let pairs = [("v12_small", "v13_small"), ("v12_small_frzc", "v13_small_frzc")];
    for (v12, v13) in pairs.into_iter().chain([("v12_bulk", "v13_bulk")]) {
        let (old, new) = (fixture_bytes(v12), fixture_bytes(v13));
        let r = Reader::new(Cursor::new(&new)).unwrap();
        let tags: &[[u8; 4]] = if r.frozen_section_extent().is_some() {
            &[*b"DICT", *b"FROZ"]
        } else {
            &[*b"DICT", *b"FRZC"]
        };
        for &tag in tags {
            assert_eq!(section(&old, tag, v12), section(&new, tag, v13), "{v13} {tag:?}");
        }
    }
    // Where a mirror's references are smaller as Elias–Fano windows, they
    // are coded as its vector keys are, one window a header, and its
    // encoding flags say so; the mapped store reads them in place.
    let name = "v13_coded_refs";
    let file = fixture_bytes(name);
    let columns = Reader::new(Cursor::new(&file)).unwrap().frozen_columns().unwrap();
    let mut coded = IndexSet::EMPTY;
    for (kind, ix) in IndexKind::ALL.into_iter().zip(columns.orderings) {
        match ix.lists {
            Some(ListRefs::Windows(VectorKeys::EliasFano(ef))) => {
                coded = coded.with(kind);
                let headers = match ix.keys {
                    hexsnap::Headers::Bitmap { count, .. } => count,
                    other => panic!("{kind:?}: {other:?}"),
                };
                assert_eq!((ef.base.len, ef.offs.len), (headers, headers + 1), "{kind:?}");
            }
            Some(ListRefs::Windows(VectorKeys::Ints(_))) => assert!(kind.is_mirror()),
            other => assert!(other.is_none() && !kind.is_mirror(), "{kind:?}: {other:?}"),
        }
    }
    assert_eq!(coded, IndexSet::EMPTY.with(IndexKind::Pso).with(IndexKind::Osp));
    let (_, eager) = hexsnap::load_frozen(fixture_path(name)).unwrap();
    let (_, mapped) = hex_disk::open(fixture_path(name)).unwrap();
    assert_eq!(eager.heap_breakdown().elias_fano_refs, coded);
    let mapped_heap = mapped.heap_breakdown();
    assert_eq!((mapped_heap.elias_fano_refs, mapped_heap.mirror_list_refs), (coded, 0));
    assert_eq!(mapped.len(), 128);
    // A v12 file's packed references become the current column on the
    // way in, eager or mapped: the stores are equal.
    let path = fixture_path("v12_bulk");
    let (_, eager) = hexsnap::load_frozen(&path).unwrap();
    let (_, mapped) = hex_disk::open(&path).unwrap();
    let (_, current) = hexsnap::load_frozen(fixture_path("v13_bulk")).unwrap();
    assert_eq!((&eager, &mapped), (&current, &current));
}
