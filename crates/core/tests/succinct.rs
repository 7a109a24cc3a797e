//! The succinct index-level encodings against slice oracles: the header
//! bitmap's rank and select iterator against `binary_search` and
//! iteration of the sorted keys, an Elias–Fano window's `iter`, `search`
//! and `seek` against `partition_point` on the window's keys and against
//! the packed column's `seek`, and a cumulative offsets column, packed or
//! one Elias–Fano window, against its values.

use hex_dict::Id;
use hexastore::packed::PackedColumn;
use hexastore::succinct::{
    EfColumn, HeaderColumn, HeadersView, KeyColumn, KeysView, OffsetsColumn, OffsetsView,
    RankBitmap, RANK_BLOCK,
};
use proptest::prelude::*;

fn check_bitmap(keys: &[u32]) {
    let ids: Vec<Id> = keys.iter().map(|&k| Id(k)).collect();
    let map = RankBitmap::from_sorted(&ids);
    let view = map.view();
    assert_eq!(view.len(), keys.len());
    assert_eq!(view.keys().len(), keys.len());
    assert_eq!(view.keys().collect::<Vec<_>>(), ids);
    assert_eq!(view.last(), ids.last().copied());
    let top = keys.last().map_or(0, |&k| k as u64 + 3);
    let probes = (0..top.min(3000))
        .chain(keys.iter().flat_map(|&k| [k as u64, (k as u64).saturating_sub(1), k as u64 + 1]));
    for x in probes.chain([u32::MAX as u64]) {
        let x = Id(x as u32);
        assert_eq!(view.rank(x), ids.binary_search(&x).ok(), "rank {x:?} of {keys:?}");
    }
    // Exactly the bits to the largest key, one sample a block.
    let bits = keys.last().map_or(0, |&k| k as usize + 1);
    assert_eq!(view.bits.len(), bits);
    assert_eq!(view.bits.ranks.len(), bits.div_ceil(RANK_BLOCK).saturating_sub(1));
    check_headers(&ids);
}

/// The header column of `ids`, whichever encoding it chooses, against
/// the sorted ids.
fn check_headers(ids: &[Id]) {
    let column = HeaderColumn::from_sorted(ids);
    let view = column.view();
    assert_eq!(view.len(), ids.len());
    assert_eq!(view.keys().collect::<Vec<_>>(), ids);
    assert_eq!(view.last(), ids.last().copied());
    for &k in ids {
        for x in [k, Id(k.0.wrapping_sub(1)), Id(k.0.wrapping_add(1))] {
            assert_eq!(view.rank(x), ids.binary_search(&x).ok(), "rank {x:?}");
            assert_eq!(view.keys().contains(x), ids.contains(&x));
        }
    }
    assert_eq!(HeaderColumn::check(view, "headers"), Ok(()));
}

#[test]
fn sparse_header_keys_take_one_elias_fano_window() {
    // Keys spread over the whole id space: a bitmap would take 2^31 bits.
    let sparse = [Id(1), Id(2), Id(1 << 31 | 3), Id(u32::MAX)];
    let column = HeaderColumn::from_sorted(&sparse);
    assert!(matches!(column.view(), HeadersView::EliasFano(_)));
    assert!(column.heap_bytes() < 100, "{}", column.heap_bytes());
    check_headers(&sparse);
    // Dense keys keep the bitmap.
    let dense: Vec<Id> = (0..1000).map(Id).collect();
    assert!(matches!(HeaderColumn::from_sorted(&dense).view(), HeadersView::Bitmap(_)));
    check_headers(&dense);
}

#[test]
fn rank_and_select_match_the_sorted_keys_at_the_edges() {
    check_bitmap(&[]);
    check_bitmap(&[0]);
    check_bitmap(&[0, 1, 2, 3]);
    check_bitmap(&[511]);
    check_bitmap(&[512]);
    check_bitmap(&[510, 511, 512, 513, 1023, 1024, 1025]);
    check_bitmap(&[0, 63, 64, 511, 512, 4095, 4096, 70_000]);
    // A bitmap's bits run to its largest key.
    let big = RankBitmap::from_sorted(&[Id(7), Id(100_000_000)]);
    assert_eq!(big.view().rank(Id(100_000_000)), Some(1));
    assert_eq!(big.view().rank(Id(99_999_999)), None);
    assert_eq!(big.view().keys().collect::<Vec<_>>(), [Id(7), Id(100_000_000)]);
}

/// Offsets tiling `keys` into windows of the given lengths.
fn offsets(lens: &[usize]) -> PackedColumn {
    let mut offs = vec![0u32];
    for &n in lens {
        offs.push(offs.last().unwrap() + n as u32);
    }
    PackedColumn::from_values(&offs)
}

/// Each window of an Elias–Fano column built from `windows` against its
/// keys: iteration, `search` at every key and around it, and `seek` from
/// every start.
fn check_ef(windows: &[Vec<u32>]) {
    let keys: Vec<u32> = windows.concat();
    let offs = offsets(&windows.iter().map(Vec::len).collect::<Vec<_>>());
    let column = EfColumn::from_windows(&keys, &offs);
    let view = KeysView::EliasFano(column.view());
    assert_eq!(view.len(), keys.len());
    let mut start = 0;
    for (h, w) in windows.iter().enumerate() {
        let window = start..start + w.len();
        start = window.end;
        let got: Vec<u32> = view.iter(h, window.clone()).collect();
        assert_eq!(&got, w, "window {h}");
        assert_eq!(view.iter(h, window.clone()).len(), w.len());
        let mut probes: Vec<u32> = vec![0, 1, u32::MAX, u32::MAX - 1];
        for &k in w {
            probes.extend([k, k.wrapping_sub(1), k.saturating_add(1)]);
        }
        for &x in &probes {
            assert_eq!(view.search(h, window.clone(), x), w.binary_search(&x), "{h} {x}");
            let at = w.partition_point(|&v| v < x);
            for from in 0..=at {
                assert_eq!(view.seek(h, window.clone(), from, x), at, "{h} from {from} x {x}");
            }
        }
    }
    // A loader accepts the column only where the sizes choose it.
    let checked = KeyColumn::check(view, offs.view(), "vector keys");
    match KeyColumn::of_windows(&keys, &offs) {
        KeyColumn::EliasFano(_) => assert_eq!(checked, Ok(())),
        KeyColumn::Packed(_) => assert!(checked.unwrap_err().contains("encoding")),
    }
}

#[test]
fn elias_fano_windows_match_partition_point() {
    // One, two and three keys; consecutive ids (l = 0); the widest gap.
    check_ef(&[vec![5]]);
    check_ef(&[vec![5, 6]]);
    check_ef(&[vec![5, 9, 10]]);
    check_ef(&[vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]]);
    check_ef(&[vec![0, u32::MAX]]);
    check_ef(&[vec![0, 1, u32::MAX]]);
    check_ef(&[vec![1, u32::MAX - 1, u32::MAX]]);
    check_ef(&[vec![3], vec![0, 4_000_000_000], vec![7, 8, 9], vec![2]]);
    // High regions that cross rank blocks: a long window after short ones,
    // so it starts inside a block, dense then sparse.
    let long: Vec<u32> = (0..900u32).map(|i| i * 3 + (i / 100) * 1_000).collect();
    let skewed: Vec<u32> = (0..600u32).chain([100_000, 200_000, 5_000_000]).collect();
    check_ef(&[vec![1, 2, 3], vec![7], long.clone(), skewed, vec![4, 40], long]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_key_sets_rank_like_binary_search(
        raw in proptest::collection::vec(0u32..5_000, 0..300),
    ) {
        let mut keys = raw;
        keys.sort_unstable();
        keys.dedup();
        check_bitmap(&keys);
    }

    #[test]
    fn arbitrary_windows_decode_and_search_like_their_keys(
        raw in proptest::collection::vec(proptest::collection::vec(0u32..u32::MAX, 1..40), 1..12),
        shift in 0u32..32,
    ) {
        let windows: Vec<Vec<u32>> = raw
            .into_iter()
            .map(|w| {
                let mut w: Vec<u32> = w.into_iter().map(|k| k >> shift).collect();
                w.sort_unstable();
                w.dedup();
                w
            })
            .collect();
        check_ef(&windows);
    }
}

/// `values` — non-decreasing — as their offsets column, against them:
/// decoded in order, value by value and pair by pair, in the encoding
/// their size chooses (the smaller), canonical, and equal to the packed
/// column of them wherever that is the smaller.
fn check_offsets(values: &[u32]) {
    let column = OffsetsColumn::from_values(values);
    let view = column.view();
    assert_eq!(view.len(), values.len());
    assert_eq!(view.values().collect::<Vec<_>>(), values);
    for (i, &v) in values.iter().enumerate() {
        assert_eq!(view.get(i), v, "value {i}");
        let pair = values.get(i + 1).map(|&next| (v, next));
        assert_eq!(view.pair(i), pair, "pair {i}");
    }
    assert_eq!(view.check("offsets"), Ok(()));
    let packed = PackedColumn::from_values(values);
    assert!(column.heap_bytes() <= packed.heap_bytes());
    if !column.is_elias_fano() {
        assert_eq!(view, OffsetsView::from(&packed));
    } else {
        // The other encoding of the same values is not canonical.
        assert!(OffsetsView::from(&packed).check("offsets").unwrap_err().contains("encoding"));
    }
}

#[test]
fn offsets_columns_decode_like_their_values() {
    // No value, one, repeats (a bit-offset column's, where windows hold
    // one key), consecutive values (l = 0), wide gaps, and a column long
    // enough for its high region to cross rank blocks.
    check_offsets(&[]);
    check_offsets(&[0]);
    check_offsets(&[0, 0, 0, 5, 5, 9]);
    check_offsets(&(0..2000).collect::<Vec<u32>>());
    check_offsets(&(0..700u32).map(|i| i * 3 + i / 7).collect::<Vec<u32>>());
    check_offsets(&(0..900u32).map(|i| i / 3 * 40).collect::<Vec<u32>>());
    check_offsets(&[0, 1, 1 << 20, u32::MAX]);
    let coded = OffsetsColumn::from_values(&(0..2000).collect::<Vec<u32>>());
    assert!(coded.is_elias_fano() && coded.heap_bytes() < 2001 * 11 / 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_offsets_decode_like_their_values(
        steps in proptest::collection::vec(0u32..300, 0..600),
        scale in 0u32..12,
    ) {
        let values: Vec<u32> = steps
            .iter()
            .scan(0u32, |at, &step| {
                *at += step << scale;
                Some(*at)
            })
            .collect();
        check_offsets(&values);
    }

    /// NextGEQ from any start, on an Elias–Fano window, is what the packed
    /// column's galloping seek returns on the same keys.
    #[test]
    fn elias_fano_seek_returns_what_packed_seek_returns(
        raw in proptest::collection::vec(proptest::collection::vec(0u32..100_000, 1..400), 1..6),
        probes in proptest::collection::vec((0usize..400, 0u32..100_100), 1..40),
    ) {
        let windows: Vec<Vec<u32>> = raw
            .into_iter()
            .map(|mut w| {
                w.sort_unstable();
                w.dedup();
                w
            })
            .collect();
        let keys: Vec<u32> = windows.concat();
        let offs = offsets(&windows.iter().map(Vec::len).collect::<Vec<_>>());
        let coded = EfColumn::from_windows(&keys, &offs);
        let (ef, packed) = (coded.view(), PackedColumn::from_values(&keys));
        let mut start = 0;
        for (h, w) in windows.iter().enumerate() {
            let window = start..start + w.len();
            start = window.end;
            for &(from, x) in &probes {
                // A seek's keys before `from` are below `x`.
                let from = from.min(w.partition_point(|&v| v < x));
                let want = packed.view().seek(window.clone(), from, x);
                prop_assert_eq!(ef.seek(h, window.clone(), from, x), want, "{} {} {}", h, from, x);
            }
        }
    }
}
