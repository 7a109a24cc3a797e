//! Format version 14, the one this build writes, over its committed files
//! (`tests/data/v14_small{,_frzc}.hexsnap`, whose dictionary is all delta
//! tier, `tests/data/v14_bulk.hexsnap`, whose dictionary a bulk load
//! froze, `tests/data/v14_coded_refs.hexsnap`, whose pso and osp list
//! references are Elias–Fano coded, and
//! `tests/data/v14_coded_offsets.hexsnap`, four of whose orderings' offsets,
//! one ordering's vector-key bit offsets and one arena's run ends are each
//! one Elias–Fano window; the table and the checks are `support/mod.rs`'s).

mod support;

use hexastore::hexsnap::{self, ArenaColumns, Offsets, Reader, VectorKeys, Windows};
use hexastore::{IndexKind, IndexSet, TripleStore};
use std::io::Cursor;
use support::{bulk_graph, coded_offsets_graph, coded_refs_graph, fixture_bytes, fixture_graph};
use support::{fixture_path, fixtures_of, section, temp_path};

/// The committed files beyond the fixture table's, each with its graph.
fn graphs() -> [(&'static str, hexastore::GraphStore); 3] {
    [
        ("v14_bulk", bulk_graph()),
        ("v14_coded_refs", coded_refs_graph()),
        ("v14_coded_offsets", coded_offsets_graph()),
    ]
}

#[test]
fn v14_writer_output_is_bit_identical_to_the_committed_fixtures() {
    let g = fixture_graph();
    let frozen = g.store().freeze();
    for (name, _, compression, _) in fixtures_of(14) {
        let path = temp_path(name);
        hexsnap::save_frozen_with(&path, g.dict(), &frozen, compression).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), fixture_bytes(name), "{name}");
        std::fs::remove_file(&path).ok();
    }
    for (name, g) in graphs() {
        let path = temp_path(name);
        hexsnap::save_frozen(&path, g.dict(), &g.store().freeze()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), fixture_bytes(name), "{name}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn committed_v14_fixtures_open_through_every_reader_and_answer() {
    for f in fixtures_of(14) {
        support::opens_through_the_reader(f);
        support::opens_through_the_loaders(f);
    }
    for (name, g) in graphs() {
        let (dict, store) = hexsnap::load_frozen(fixture_path(name)).unwrap();
        assert_eq!((dict.terms(), &store), (g.dict().terms(), &g.store().freeze()), "{name}");
        let (mapped_dict, mapped) = hex_disk::open(fixture_path(name)).unwrap();
        assert_eq!((mapped_dict.terms(), &mapped), (g.dict().terms(), &store), "{name}");
        support::assert_mirror_references_are_windowed(&store, name);
        support::assert_mirror_references_are_windowed(&mapped, name);
    }
}

#[test]
fn a_resaved_v14_fixture_is_the_current_version_and_roundtrips_equal() {
    fixtures_of(14).for_each(support::resaves_as_the_current_version_and_roundtrips_equal);
}

#[test]
fn a_live_directory_left_at_a_v14_generation_reopens_and_compacts() {
    for f in fixtures_of(14) {
        support::a_live_directory_left_at_it_upgrades_on_compaction(f);
    }
}

#[test]
fn v14_changed_only_how_froz_may_code_a_cumulative_offsets_column() {
    // Against the v13 files of the same graphs, where every offsets column
    // is packed: where this build keeps them packed too, every section is
    // byte for byte the same.
    let pairs = [("v13_small", "v14_small"), ("v13_small_frzc", "v14_small_frzc")];
    for (v13, v14) in pairs.into_iter().chain([("v13_bulk", "v14_bulk")]) {
        let (old, new) = (fixture_bytes(v13), fixture_bytes(v14));
        let r = Reader::new(Cursor::new(&new)).unwrap();
        let tags: &[[u8; 4]] = if r.frozen_section_extent().is_some() {
            &[*b"DICT", *b"FROZ"]
        } else {
            &[*b"DICT", *b"FRZC"]
        };
        for &tag in tags {
            assert_eq!(section(&old, tag, v13), section(&new, tag, v14), "{v14} {tag:?}");
        }
    }
    // The coded-references graph codes spo's and sop's offsets from v14
    // on: its dictionary is v13's and its slab section smaller, and the
    // v13 file, its offsets packed, loads and maps as the v14 store — each
    // column recoded as this build chooses on the way in.
    let (old, new) = (fixture_bytes("v13_coded_refs"), fixture_bytes("v14_coded_refs"));
    assert_eq!(section(&old, *b"DICT", "v13"), section(&new, *b"DICT", "v14"));
    assert!(section(&new, *b"FROZ", "v14").len() < section(&old, *b"FROZ", "v13").len());
    let (_, current) = hexsnap::load_frozen(fixture_path("v14_coded_refs")).unwrap();
    let coded = IndexSet::EMPTY.with(IndexKind::Spo).with(IndexKind::Sop);
    assert_eq!(current.heap_breakdown().elias_fano_offsets, coded);
    let path = fixture_path("v13_coded_refs");
    let (_, eager) = hexsnap::load_frozen(&path).unwrap();
    let (_, mapped) = hex_disk::open(&path).unwrap();
    assert_eq!((&eager, &mapped), (&current, &current));
}

#[test]
fn coded_offsets_are_flagged_located_and_mapped_in_place() {
    // Each coded offsets column is flagged, located as one Elias–Fano
    // window of its length and read in place by the mapping, whose heap
    // holds none of it; eager, mapped and built stores are equal.
    let name = "v14_coded_offsets";
    let file = fixture_bytes(name);
    let columns = Reader::new(Cursor::new(&file)).unwrap().frozen_columns().unwrap();
    let (mut offsets, mut key_offsets) = (IndexSet::EMPTY, IndexSet::EMPTY);
    for (kind, ix) in IndexKind::ALL.into_iter().zip(columns.orderings) {
        let headers = match ix.keys {
            hexsnap::Headers::Bitmap { count, .. } => count,
            other => panic!("{kind:?}: {other:?}"),
        };
        if let Windows::EliasFano(window) = ix.windows {
            assert_eq!(window.len, headers + 1, "{kind:?}");
            offsets = offsets.with(kind);
        }
        if let VectorKeys::EliasFano(ef) = ix.k2 {
            if let Offsets::EliasFano(window) = ef.offs {
                assert_eq!(window.len, headers + 1, "{kind:?}");
                key_offsets = key_offsets.with(kind);
            }
        }
    }
    let run_ends: Vec<bool> = columns
        .arenas
        .iter()
        .map(|arena| matches!(arena, ArenaColumns::Runs { ends: Offsets::EliasFano(_), .. }))
        .collect();
    let (_, eager) = hexsnap::load_frozen(fixture_path(name)).unwrap();
    let (_, mapped) = hex_disk::open(fixture_path(name)).unwrap();
    assert_eq!((&eager, &mapped), (&coded_offsets_graph().store().freeze(), &eager));
    let heap = eager.heap_breakdown();
    let ops = [IndexKind::Spo, IndexKind::Sop, IndexKind::Osp, IndexKind::Ops];
    assert_eq!(offsets, ops.into_iter().fold(IndexSet::EMPTY, IndexSet::with));
    assert_eq!((heap.elias_fano_offsets, heap.elias_fano_key_offsets), (offsets, key_offsets));
    assert_eq!(key_offsets, IndexSet::EMPTY.with(IndexKind::Osp));
    assert_eq!(run_ends, [false, false, true], "the subject lists' run ends");
    assert_eq!(heap.elias_fano_run_ends, IndexSet::EMPTY.with(IndexKind::Pos));
    let mapped_heap = mapped.heap_breakdown();
    assert_eq!((mapped_heap.elias_fano_offsets, mapped_heap.header_offsets), (offsets, 0));
    assert_eq!((mapped_heap.run_ends, mapped_heap.vector_key_offsets), (0, 0));
    assert_eq!(mapped.len(), 341);
}
