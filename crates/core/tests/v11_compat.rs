//! Format version 11, the one this build writes, over its committed files
//! (`tests/data/v11_small{,_frzc}.hexsnap`, whose dictionary is all delta
//! tier, and `tests/data/v11_bulk.hexsnap`, whose dictionary a bulk load
//! froze; the table and the checks are `support/mod.rs`'s).

mod support;

use hex_dict::{term_key, Id};
use hexastore::hexsnap::{self, Reader};
use rdf_model::TermRef;
use std::io::Cursor;
use support::{bulk_graph, fixture_bytes, fixture_graph, fixture_path, fixtures_of, section};
use support::{temp_path, RAW};

#[test]
fn v11_writer_output_is_bit_identical_to_the_committed_fixtures() {
    let g = fixture_graph();
    let frozen = g.store().freeze();
    for (name, _, compression, _) in fixtures_of(11) {
        let path = temp_path(name);
        hexsnap::save_frozen_with(&path, g.dict(), &frozen, compression).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), fixture_bytes(name), "{name}");
        std::fs::remove_file(&path).ok();
    }
    let bulk = bulk_graph();
    let path = temp_path("v11_bulk");
    hexsnap::save_frozen(&path, bulk.dict(), &bulk.store().freeze()).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), fixture_bytes("v11_bulk"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn committed_v11_fixtures_open_through_every_reader_and_answer() {
    for f in fixtures_of(11) {
        support::opens_through_the_reader(f);
        support::opens_through_the_loaders(f);
    }
}

#[test]
fn a_resaved_v11_fixture_is_the_current_version_and_roundtrips_equal() {
    fixtures_of(11).for_each(support::resaves_as_the_current_version_and_roundtrips_equal);
}

#[test]
fn a_live_directory_left_at_a_v11_generation_reopens_and_compacts() {
    for f in fixtures_of(11) {
        support::a_live_directory_left_at_it_upgrades_on_compaction(f);
    }
}

#[test]
fn v11_added_only_an_empty_frozen_tier_to_the_dict_of_a_graph_of_inserts() {
    // Against the v10 files of the same graph: the slab sections are byte
    // for byte the same, and `DICT` is the block size, a frozen term count
    // of 0, the one block offset (a packed column of width 0: its width
    // and its padding), no block bytes, no ids and no ranks (each a width
    // and its padding), then v10's section.
    for (v10, v11, tag) in
        [("v10_small", "v11_small", *b"FROZ"), ("v10_small_frzc", "v11_small_frzc", *b"FRZC")]
    {
        let (v10, v11) = (fixture_bytes(v10), fixture_bytes(v11));
        assert_eq!(section(&v10, tag, "v10"), section(&v11, tag, "v11"), "{tag:?}");
        let block = hex_dict::BLOCK.to_le_bytes();
        let frozen_tier = [&block[..], &[0; 4], &[0; 8], &[0; 8], &[0; 8], &[0; 8]].concat();
        let dict = [&frozen_tier[..], section(&v10, *b"DICT", "v10")].concat();
        assert_eq!(section(&v11, *b"DICT", "v11"), dict);
    }
}

#[test]
fn the_bulk_fixture_keeps_its_terms_in_key_order_in_three_blocks() {
    let g = bulk_graph();
    let bytes = fixture_bytes("v11_bulk");
    let mut r = Reader::new(Cursor::new(&bytes)).unwrap();
    assert_eq!(r.version(), 11);
    let (front, _) = r.dict_columns().unwrap();
    let front = front.expect("a v11 file has a frozen tier");
    assert_eq!((front.block, front.terms, front.offsets.len), (hex_dict::BLOCK, 24, 4));
    let dict = r.dictionary().unwrap();
    assert_eq!((dict.len(), dict.frozen_len()), (24, 24));
    let terms = dict.terms();
    let key = |id: u32| term_key(&TermRef::from(&terms[id as usize]));
    let keys: Vec<Vec<u8>> = dict.front().ids.values().map(key).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "the ids column lists the ids in key order");
    assert!((1..24).any(|id| key(id - 1) > key(id)), "the ids are first-seen, not lexical");
    for (id, term) in g.dict().iter() {
        assert_eq!(dict.decode(id).as_ref(), Some(&term));
        assert_eq!(dict.id_of(&term), Some(id));
    }
    assert_eq!(dict.decode(Id(24)), None);
    // The loaders, the store and a live directory left at it.
    let (loaded, store) = hexsnap::load_frozen(fixture_path("v11_bulk")).unwrap();
    assert_eq!(loaded.terms(), g.dict().terms());
    assert_eq!(store, g.store().freeze());
    let gen8 = support::a_live_directory_left_at_it_upgrades_on_compaction_to(
        ("v11_bulk", 11, RAW, Some(0)),
        &g,
    );
    // The compaction appended the new terms to the delta tier and kept
    // every frozen id.
    let resaved = Reader::new(Cursor::new(&gen8)).unwrap().dictionary().unwrap();
    assert_eq!(resaved.frozen_len(), 24);
    assert_eq!(resaved.terms()[..24], g.dict().terms()[..]);
    assert!(resaved.len() > 24);
}
