//! Format version 13 over its committed files
//! (`tests/data/v13_small{,_frzc}.hexsnap`, whose dictionary is all delta
//! tier, `tests/data/v13_bulk.hexsnap`, whose dictionary a bulk load
//! froze, and `tests/data/v13_coded_refs.hexsnap`, whose pso and osp list
//! references are Elias–Fano coded; the table and the checks are
//! `support/mod.rs`'s).

mod support;

use hexastore::hexsnap::{self, ListRefs, Reader, VectorKeys};
use hexastore::{IdPattern, IndexKind, IndexSet, TripleStore};
use std::io::Cursor;
use support::temp_path;
use support::{bulk_graph, coded_refs_graph, fixture_bytes, fixture_path, fixtures_of, section};

#[test]
fn committed_v13_fixtures_open_through_every_reader_and_answer() {
    for f in fixtures_of(13) {
        support::opens_through_the_reader(f);
        support::opens_through_the_loaders(f);
    }
    // Every offsets column of a v13 file is packed, and its writer sized
    // Elias–Fano key columns with their bit offsets packed: read, eager or
    // mapped, each column takes the encoding this build chooses, so the
    // store is the one this build makes of the graph.
    for (name, g) in [("v13_bulk", bulk_graph()), ("v13_coded_refs", coded_refs_graph())] {
        let (dict, store) = hexsnap::load_frozen(fixture_path(name)).unwrap();
        assert_eq!((dict.terms(), &store), (g.dict().terms(), &g.store().freeze()), "{name}");
        let (mapped_dict, mapped) = hex_disk::open(fixture_path(name)).unwrap();
        assert_eq!((mapped_dict.terms(), &mapped), (g.dict().terms(), &store), "{name}");
        support::assert_mirror_references_are_windowed(&store, name);
        support::assert_mirror_references_are_windowed(&mapped, name);
    }
    // The coded-references graph is one whose offsets this build codes.
    let (_, store) = hexsnap::load_frozen(fixture_path("v13_coded_refs")).unwrap();
    assert!(!store.heap_breakdown().elias_fano_offsets.is_empty());
}

#[test]
fn a_resaved_v13_file_is_the_v14_file_of_its_graph_and_loads_back() {
    // Saved again — as loaded, mapped, or thawed and frozen again, which
    // shares the loaded columns — a v13 file is byte for byte the v14 file
    // this build writes of its graph, which every loader reads back to
    // the same store.
    for (v13, v14) in [("v13_bulk", "v14_bulk"), ("v13_coded_refs", "v14_coded_refs")] {
        let (dict, eager) = hexsnap::load_frozen(fixture_path(v13)).unwrap();
        let (_, mapped) = hex_disk::open(fixture_path(v13)).unwrap();
        let thawed = eager.clone().thaw().freeze();
        let path = temp_path(&format!("resaved-{v13}"));
        for store in [&eager, &mapped, &thawed] {
            hexsnap::save_frozen(&path, &dict, store).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), fixture_bytes(v14), "{v13}");
            let (back_dict, back) = hexsnap::load_frozen(&path).unwrap();
            assert_eq!((back_dict.terms(), &back), (dict.terms(), &eager), "{v13}");
            let (_, back_mapped) = hex_disk::open(&path).unwrap();
            assert_eq!(back_mapped, eager, "{v13}");
            assert_eq!(back.matching(IdPattern::ALL), eager.matching(IdPattern::ALL), "{v13}");
        }
        std::fs::remove_file(&path).ok();
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
                assert_eq!((ef.base.len, ef.offs.len()), (headers, headers + 1), "{kind:?}");
            }
            Some(ListRefs::Windows(VectorKeys::Ints(_))) => assert!(kind.is_mirror()),
            other => assert!(other.is_none() && !kind.is_mirror(), "{kind:?}: {other:?}"),
        }
    }
    assert_eq!(coded, IndexSet::EMPTY.with(IndexKind::Pso).with(IndexKind::Osp));
    let (_, eager) = hexsnap::load_frozen(fixture_path(name)).unwrap();
    let (_, mapped) = hex_disk::open(fixture_path(name)).unwrap();
    assert_eq!(eager.heap_breakdown().elias_fano_refs, coded);
    // The mapped references stay in the file but for their bit offsets,
    // which a v13 file packs and the read rebuilds, owned, as this build
    // chooses.
    let (mapped_heap, eager_heap) = (mapped.heap_breakdown(), eager.heap_breakdown());
    assert_eq!(mapped_heap.elias_fano_refs, coded);
    assert!(0 < mapped_heap.mirror_list_refs, "{mapped_heap:?}");
    assert!(mapped_heap.mirror_list_refs < eager_heap.mirror_list_refs, "{mapped_heap:?}");
    assert_eq!(mapped.len(), 128);
    // A v12 file's packed references become the current column on the
    // way in, eager or mapped: the stores are equal.
    let path = fixture_path("v12_bulk");
    let (_, eager) = hexsnap::load_frozen(&path).unwrap();
    let (_, mapped) = hex_disk::open(&path).unwrap();
    let (_, current) = hexsnap::load_frozen(fixture_path("v13_bulk")).unwrap();
    assert_eq!((&eager, &mapped), (&current, &current));
}
