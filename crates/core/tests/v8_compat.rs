//! Format version 8 over its committed files
//! (`tests/data/v8_small{,_frzc}.hexsnap`, written by the last v8 build;
//! the table and the checks are `support/mod.rs`'s).

mod support;

use hexastore::hexsnap::{self, ArenaColumns, Ints, ListRefs, Reader};
use hexastore::PackedView;
use support::{fixture_bytes, fixtures_of, section};

#[test]
fn committed_v8_fixtures_open_through_every_reader_and_answer() {
    for f in fixtures_of(8) {
        support::opens_through_the_reader(f);
        support::opens_through_the_loaders(f);
    }
}

#[test]
fn a_resaved_v8_fixture_is_the_current_version_and_roundtrips_equal() {
    fixtures_of(8).for_each(support::resaves_as_the_current_version_and_roundtrips_equal);
}

#[test]
fn a_live_directory_left_at_a_v8_generation_reopens_and_compacts() {
    for f in fixtures_of(8) {
        support::a_live_directory_left_at_it_upgrades_on_compaction(f);
    }
}

#[test]
fn v8_changed_only_the_overflow_columns_of_froz() {
    // Against the last v7 build's files of the same graph: the `DICT`
    // and `FRZC` sections are byte for byte the same; in `FROZ` every
    // arena's slot column and every ordering's columns are v7's bytes,
    // and only the overflow columns differ — `u32`s then, packed now at
    // the width of their largest word, to the same words.
    let (v7, v8) = (fixture_bytes("v7_small_frzc"), fixture_bytes("v8_small_frzc"));
    for tag in [*b"DICT", *b"FRZC"] {
        assert_eq!(section(&v7, tag, "v7"), section(&v8, tag, "v8"), "{tag:?}");
    }
    let (v7, v8) = (fixture_bytes("v7_small"), fixture_bytes("v8_small"));
    assert_eq!(section(&v7, *b"DICT", "v7"), section(&v8, *b"DICT", "v8"));
    let columns =
        |file: &[u8]| Reader::new(std::io::Cursor::new(file)).unwrap().frozen_columns().unwrap();
    let (c7, c8) = (columns(&v7), columns(&v8));
    let bytes = |file: &[u8], offset: usize, len: usize| file[offset..offset + len].to_vec();
    let ints = |file: &[u8], ints: Ints| match ints {
        Ints::U32(col) => (0, bytes(file, col.offset, 4 * col.len)),
        Ints::Packed(col) => (col.width, bytes(file, col.offset, col.bytes())),
    };
    for (a7, a8) in c7.arenas.into_iter().zip(c8.arenas) {
        let ArenaColumns::Slots { slots: s7, over: Ints::U32(o7) } = a7 else {
            panic!("v7 u32 overflow")
        };
        let ArenaColumns::Slots { slots: s8, over: Ints::Packed(o8) } = a8 else {
            panic!("v8 packed overflow")
        };
        assert_eq!(ints(&v7, s7), ints(&v8, s8));
        let words: Vec<u32> = bytes(&v7, o7.offset, 4 * o7.len)
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        let packed = PackedView::new(&v8[o8.offset..o8.offset + o8.bytes()], o8.width, o8.len);
        assert_eq!(packed.unwrap().values().collect::<Vec<_>>(), words);
        let widest = words.iter().map(|&w| u32::BITS - w.leading_zeros()).max();
        assert_eq!(Some(o8.width), widest, "the largest word's width");
    }
    for (x7, x8) in c7.orderings.into_iter().zip(c8.orderings) {
        assert_eq!(
            bytes(&v7, x7.keys.plain().unwrap().offset, 4 * x7.keys.plain().unwrap().len),
            bytes(&v8, x8.keys.plain().unwrap().offset, 4 * x8.keys.plain().unwrap().len)
        );
        let (hexsnap::Windows::Offsets(w7), hexsnap::Windows::Offsets(w8)) =
            (x7.windows, x8.windows)
        else {
            panic!("offsets")
        };
        assert_eq!(ints(&v7, w7), ints(&v8, w8));
        assert_eq!(ints(&v7, x7.k2.plain().unwrap()), ints(&v8, x8.k2.plain().unwrap()));
        assert_eq!(
            x7.lists.and_then(ListRefs::plain).map(|l| ints(&v7, l)),
            x8.lists.and_then(ListRefs::plain).map(|l| ints(&v8, l))
        );
    }
}
