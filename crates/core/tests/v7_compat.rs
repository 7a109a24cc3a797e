//! Format version 7 over its committed files
//! (`tests/data/v7_small{,_frzc}.hexsnap`, written by the last v7 build;
//! the table and the checks are `support/mod.rs`'s).

mod support;

use hexastore::hexsnap::{self, ArenaColumns, Ints, ListRefs, Reader};
use support::{fixture_bytes, fixtures_of, section};

#[test]
fn committed_v7_fixtures_open_through_every_reader_and_answer() {
    for f in fixtures_of(7) {
        support::opens_through_the_reader(f);
        support::opens_through_the_loaders(f);
    }
}

#[test]
fn a_resaved_v7_fixture_is_the_current_version_and_roundtrips_equal() {
    fixtures_of(7).for_each(support::resaves_as_the_current_version_and_roundtrips_equal);
}

#[test]
fn a_live_directory_left_at_a_v7_generation_reopens_and_compacts() {
    for f in fixtures_of(7) {
        support::a_live_directory_left_at_it_upgrades_on_compaction(f);
    }
}

#[test]
fn v7_changed_only_the_list_slots_of_froz() {
    // Against the last v6 build's files of the same graph: the `DICT`
    // and `FRZC` sections are byte for byte the same; in `FROZ` every
    // arena's overflow column and every ordering's columns are v6's
    // bytes, and only the slot columns differ — `u32`s then, packed now,
    // to the same values under the flag.
    let (v6, v7) = (fixture_bytes("v6_small_frzc"), fixture_bytes("v7_small_frzc"));
    for tag in [*b"DICT", *b"FRZC"] {
        assert_eq!(section(&v6, tag, "v6"), section(&v7, tag, "v7"), "{tag:?}");
    }
    let (v6, v7) = (fixture_bytes("v6_small"), fixture_bytes("v7_small"));
    assert_eq!(section(&v6, *b"DICT", "v6"), section(&v7, *b"DICT", "v7"));
    let columns =
        |file: &[u8]| Reader::new(std::io::Cursor::new(file)).unwrap().frozen_columns().unwrap();
    let (c6, c7) = (columns(&v6), columns(&v7));
    let bytes = |file: &[u8], offset: usize, len: usize| file[offset..offset + len].to_vec();
    let ints = |file: &[u8], ints: Ints| match ints {
        Ints::U32(col) => (0, bytes(file, col.offset, 4 * col.len)),
        Ints::Packed(col) => (col.width, bytes(file, col.offset, col.bytes())),
    };
    for (a6, a7) in c6.arenas.into_iter().zip(c7.arenas) {
        let ArenaColumns::Slots { slots: Ints::U32(s6), over: Ints::U32(o6) } = a6 else {
            panic!("v6 u32 slots")
        };
        let ArenaColumns::Slots { slots: Ints::Packed(s7), over: Ints::U32(o7) } = a7 else {
            panic!("v7 packed slots, u32 overflow")
        };
        assert_eq!(bytes(&v6, o6.offset, 4 * o6.len), bytes(&v7, o7.offset, 4 * o7.len));
        let flag = 1 << (s7.width - 1);
        let packed =
            hexastore::PackedView::new(&v7[s7.offset..s7.offset + s7.bytes()], s7.width, s7.len);
        let unflagged: Vec<u32> = packed
            .unwrap()
            .values()
            .map(|slot| if slot & flag != 0 { 1 << 31 | (slot & !flag) } else { slot })
            .collect();
        let words: Vec<u32> = bytes(&v6, s6.offset, 4 * s6.len)
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(unflagged, words);
    }
    for (x6, x7) in c6.orderings.into_iter().zip(c7.orderings) {
        assert_eq!(
            bytes(&v6, x6.keys.plain().unwrap().offset, 4 * x6.keys.plain().unwrap().len),
            bytes(&v7, x7.keys.plain().unwrap().offset, 4 * x7.keys.plain().unwrap().len)
        );
        let (hexsnap::Windows::Offsets(w6), hexsnap::Windows::Offsets(w7)) =
            (x6.windows, x7.windows)
        else {
            panic!("offsets")
        };
        assert_eq!(ints(&v6, w6), ints(&v7, w7));
        assert_eq!(ints(&v6, x6.k2.plain().unwrap()), ints(&v7, x7.k2.plain().unwrap()));
        assert_eq!(
            x6.lists.and_then(ListRefs::plain).map(|l| ints(&v6, l)),
            x7.lists.and_then(ListRefs::plain).map(|l| ints(&v7, l))
        );
    }
}
