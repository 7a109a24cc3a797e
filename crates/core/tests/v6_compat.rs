//! Format version 6 over its committed files
//! (`tests/data/v6_small{,_frzc}.hexsnap`; the table and the checks are
//! `support/mod.rs`'s). Its dictionary and index levels are v7's; its
//! list slots are whole `u32`s, which a read packs.

mod support;

use hexastore::hexsnap;
use support::{fixture_bytes, fixtures_of, section};

#[test]
fn committed_v6_fixtures_open_through_every_reader_and_answer() {
    for f in fixtures_of(6) {
        support::opens_through_the_reader(f);
        support::opens_through_the_loaders(f);
    }
}

#[test]
fn a_resaved_v6_fixture_is_the_current_version_and_roundtrips_equal() {
    fixtures_of(6).for_each(support::resaves_as_the_current_version_and_roundtrips_equal);
}

#[test]
fn a_live_directory_left_at_a_v6_generation_reopens_and_compacts() {
    for f in fixtures_of(6) {
        support::a_live_directory_left_at_it_upgrades_on_compaction(f);
    }
}

#[test]
fn v6_changed_only_the_index_levels_of_froz() {
    // Against the last v5 build's files of the same graph: the `DICT`
    // and `FRZC` sections are byte for byte the same, and `FROZ` differs
    // only from its first index level on — its arenas are v5's.
    let (v5, v6) = (fixture_bytes("v5_small_frzc"), fixture_bytes("v6_small_frzc"));
    for tag in [*b"DICT", *b"FRZC"] {
        assert_eq!(section(&v5, tag, "v5"), section(&v6, tag, "v6"), "{tag:?}");
    }
    let (v5, v6) = (fixture_bytes("v5_small"), fixture_bytes("v6_small"));
    assert_eq!(section(&v5, *b"DICT", "v5"), section(&v6, *b"DICT", "v6"));
    let arenas_end = |file: &[u8]| {
        let mut r = hexsnap::Reader::new(std::io::Cursor::new(file)).unwrap();
        let (at, _) = r.frozen_section_extent().unwrap();
        (
            r.frozen_columns().unwrap().orderings[0].keys.plain().unwrap().offset - 4 - at as usize,
            at as usize,
        )
    };
    let ((n5, at5), (n6, at6)) = (arenas_end(&v5), arenas_end(&v6));
    assert_eq!(n5, n6);
    assert_eq!(v5[at5..at5 + n5], v6[at6..at6 + n6], "the arenas");
}
