//! Format version 9 over its committed files
//! (`tests/data/v9_small{,_frzc}.hexsnap`, written by the last v9 build;
//! the table and the checks are `support/mod.rs`'s).

mod support;

use hexastore::hexsnap::{self, ArenaColumns, Headers, Ints, ListRefs, Reader, VectorKeys};
use hexastore::succinct::{BitmapView, BitsView, EfView, HeadersView, KeysView};
use hexastore::PackedView;
use support::{fixture_bytes, fixtures_of, section};

#[test]
fn committed_v9_fixtures_open_through_every_reader_and_answer() {
    for f in fixtures_of(9) {
        support::opens_through_the_reader(f);
        support::opens_through_the_loaders(f);
    }
}

#[test]
fn a_resaved_v9_fixture_is_the_current_version_and_roundtrips_equal() {
    fixtures_of(9).for_each(support::resaves_as_the_current_version_and_roundtrips_equal);
}

#[test]
fn a_live_directory_left_at_a_v9_generation_reopens_and_compacts() {
    for f in fixtures_of(9) {
        support::a_live_directory_left_at_it_upgrades_on_compaction(f);
    }
}

#[test]
fn v9_changed_only_the_header_and_vector_key_columns_of_froz() {
    // Against the last v8 build's files of the same graph: the `DICT`
    // and `FRZC` sections are byte for byte the same; in `FROZ` every
    // arena's columns and every ordering's offsets and list references are
    // v8's bytes, and only the header keys (`u32`s then, a bitmap and its
    // rank directory now) and the vector keys (packed then, packed or
    // Elias–Fano coded now) differ — to the same keys.
    let (v8, v9) = (fixture_bytes("v8_small_frzc"), fixture_bytes("v9_small_frzc"));
    for tag in [*b"DICT", *b"FRZC"] {
        assert_eq!(section(&v8, tag, "v8"), section(&v9, tag, "v9"), "{tag:?}");
    }
    let (v8, v9) = (fixture_bytes("v8_small"), fixture_bytes("v9_small"));
    assert_eq!(section(&v8, *b"DICT", "v8"), section(&v9, *b"DICT", "v9"));
    let columns =
        |file: &[u8]| Reader::new(std::io::Cursor::new(file)).unwrap().frozen_columns().unwrap();
    let (c8, c9) = (columns(&v8), columns(&v9));
    let bytes = |file: &[u8], offset: usize, len: usize| file[offset..offset + len].to_vec();
    let ints = |file: &[u8], ints: Ints| match ints {
        Ints::U32(col) => (0, bytes(file, col.offset, 4 * col.len)),
        Ints::Packed(col) => (col.width, bytes(file, col.offset, col.bytes())),
    };
    let view = |file: &'static [u8], col: hexsnap::Packed| {
        PackedView::new(&file[col.offset..col.offset + col.bytes()], col.width, col.len).unwrap()
    };
    let (v8, v9): (&'static [u8], &'static [u8]) = (v8.leak(), v9.leak());
    for (a8, a9) in c8.arenas.into_iter().zip(c9.arenas) {
        let (
            ArenaColumns::Slots { slots: s8, over: o8 },
            ArenaColumns::Slots { slots: s9, over: o9 },
        ) = (a8, a9)
        else {
            panic!("slot arenas")
        };
        assert_eq!((ints(v8, s8), ints(v8, o8)), (ints(v9, s9), ints(v9, o9)));
    }
    for (x8, x9) in c8.orderings.into_iter().zip(c9.orderings) {
        let (hexsnap::Windows::Offsets(w8), hexsnap::Windows::Offsets(w9)) =
            (x8.windows, x9.windows)
        else {
            panic!("offsets")
        };
        assert_eq!(ints(v8, w8), ints(v9, w9));
        assert_eq!(
            x8.lists.and_then(ListRefs::plain).map(|l| ints(v8, l)),
            x9.lists.and_then(ListRefs::plain).map(|l| ints(v9, l))
        );
        // The header keys: v8's `u32`s are the bitmap's keys.
        let keys8 = x8.keys.plain().expect("v8 u32 header keys");
        let keys8: Vec<u32> = bytes(v8, keys8.offset, 4 * keys8.len)
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        let ef = |ef: hexsnap::EfColumns, len: usize| EfView {
            base: view(v9, ef.base),
            offs: view(v9, ef.offs.packed().expect("v9 packs bit offsets")).into(),
            stream: BitsView { bits: view(v9, ef.stream), ranks: view(v9, ef.ranks) },
            len,
        };
        let headers = match x9.keys {
            Headers::Bitmap { bits, ranks, count } => HeadersView::Bitmap(BitmapView {
                bits: BitsView { bits: view(v9, bits), ranks: view(v9, ranks) },
                ones: count,
            }),
            Headers::EliasFano { ef: cols, count } => HeadersView::EliasFano(ef(cols, count)),
            Headers::U32(_) => panic!("v9 header keys"),
        };
        assert_eq!(headers.keys().map(|k| k.0).collect::<Vec<_>>(), keys8);
        // The vector keys, window by window.
        let k8 = match x8.k2 {
            VectorKeys::Ints(Ints::Packed(col)) => KeysView::Packed(view(v8, col)),
            other => panic!("v8 packed vector keys, not {other:?}"),
        };
        let k9 = match x9.k2 {
            VectorKeys::Ints(Ints::Packed(col)) => KeysView::Packed(view(v9, col)),
            VectorKeys::EliasFano(cols) => KeysView::EliasFano(ef(cols, k8.len())),
            other => panic!("v9 vector keys, not {other:?}"),
        };
        let offs = view(
            v9,
            match w9 {
                Ints::Packed(col) => col,
                Ints::U32(_) => panic!("packed offsets"),
            },
        );
        for h in 0..headers.len() {
            let window = offs.get(h) as usize..offs.get(h + 1) as usize;
            let (a, b): (Vec<u32>, Vec<u32>) =
                (k8.iter(h, window.clone()).collect(), k9.iter(h, window).collect());
            assert_eq!(a, b, "window {h}");
        }
    }
}
