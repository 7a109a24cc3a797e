//! Format version 10 over its committed files
//! (`tests/data/v10_small{,_frzc}.hexsnap`, written by the last v10 build;
//! the table and the checks are `support/mod.rs`'s).

mod support;

use hexastore::hexsnap::{self, DictColumns, Ints, Reader};
use hexastore::PackedView;
use support::{fixture_bytes, fixtures_of, section};

#[test]
fn committed_v10_fixtures_open_through_every_reader_and_answer() {
    for f in fixtures_of(10) {
        support::opens_through_the_reader(f);
        support::opens_through_the_loaders(f);
    }
}

#[test]
fn a_resaved_v10_fixture_is_the_current_version_and_roundtrips_equal() {
    fixtures_of(10).for_each(support::resaves_as_the_current_version_and_roundtrips_equal);
}

#[test]
fn a_live_directory_left_at_a_v10_generation_reopens_and_compacts() {
    for f in fixtures_of(10) {
        support::a_live_directory_left_at_it_upgrades_on_compaction(f);
    }
}

#[test]
fn v10_changed_only_the_integer_columns_of_dict() {
    // Against the last v9 build's files of the same graph: the `FROZ` and
    // `FRZC` sections are byte for byte the same; in `DICT` the two string
    // arenas are v9's bytes, and only the heads, the term ends and the
    // prefix ends differ — `u32`s then, packed now at the width of their
    // largest value, to the same values.
    for (v9, v10, tag) in
        [("v9_small", "v10_small", *b"FROZ"), ("v9_small_frzc", "v10_small_frzc", *b"FRZC")]
    {
        let (v9, v10) = (fixture_bytes(v9), fixture_bytes(v10));
        assert_eq!(section(&v9, tag, "v9"), section(&v10, tag, "v10"), "{tag:?}");
        let columns = |file: &[u8]| {
            Reader::new(std::io::Cursor::new(file)).unwrap().dict_columns().map(|(_, delta)| delta)
        };
        let (
            DictColumns::Prefixed { heads: h9, ends: e9, arena: a9, prefix_ends: p9, prefixes: b9 },
            DictColumns::Prefixed {
                heads: h10,
                ends: e10,
                arena: a10,
                prefix_ends: p10,
                prefixes: b10,
            },
        ) = (columns(&v9).unwrap(), columns(&v10).unwrap())
        else {
            panic!("prefixed dictionaries")
        };
        let bytes =
            |file: &[u8], col: hexsnap::Column| file[col.offset..col.offset + col.len].to_vec();
        assert_eq!(bytes(&v9, a9), bytes(&v10, a10), "term arena");
        assert_eq!(bytes(&v9, b9), bytes(&v10, b10), "prefix arena");
        let u32s = |ints: Ints| match ints {
            Ints::U32(col) => v9[col.offset..col.offset + 4 * col.len]
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
                .collect::<Vec<_>>(),
            Ints::Packed(col) => panic!("v9 u32 columns, not {col:?}"),
        };
        let packed = |ints: Ints| match ints {
            Ints::Packed(col) => {
                let view =
                    PackedView::new(&v10[col.offset..col.offset + col.bytes()], col.width, col.len)
                        .unwrap();
                view.validate().unwrap();
                view.values().collect::<Vec<_>>()
            }
            Ints::U32(col) => panic!("v10 packed columns, not {col:?}"),
        };
        assert_eq!(u32s(h9), packed(h10), "heads");
        assert_eq!(u32s(e9), packed(e10), "term ends");
        assert_eq!(u32s(p9), packed(p10), "prefix ends");
        // The section starts on an 8-byte file offset, like `FROZ`.
        let (at, _) =
            Reader::new(std::io::Cursor::new(&v10)).unwrap().section_extent(*b"DICT").unwrap();
        assert_eq!(at % 8, 0);
    }
}
