//! The packed column encoding against a `Vec<u32>` oracle: every width
//! from 0 to 32, lengths that straddle word boundaries, every read
//! (`get`, `pair`, the window decoder, `search`, `seek`), every write
//! (`push`, widening as it goes, and `set`) and the exact heap size; and
//! every way an image can fail to be the canonical one, each its own
//! error. A column over shared bytes reads like its owned twin, copies
//! itself out before a write, and reads as the empty column once its
//! provider has shrunk under it.

use hex_dict::packed::{
    bytes_for, width_of, Bytes, PackedColumn, PackedError, PackedView, SharedBytes,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// `len` values below `2^width`, the largest exactly `2^width - 1` so the
/// column's width is `width`, drawn from `seed`.
fn values(width: u32, len: usize, seed: u64) -> Vec<u32> {
    let top = if width == 0 { 0 } else { u32::MAX >> (32 - width) };
    let mut state = seed | 1;
    let mut out: Vec<u32> = (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as u32) & top
        })
        .collect();
    if let Some(first) = out.first_mut() {
        *first = top;
    }
    out
}

/// Lengths around the word boundaries of a `width`-bit column: one value
/// short of, at and one past a multiple of 64 bits.
fn straddling_lengths(width: u32) -> Vec<usize> {
    let mut lens = vec![0, 1, 2, 3];
    if width > 0 {
        for words in 1..=3usize {
            let at = words * 64 / width as usize;
            lens.extend([at.saturating_sub(1), at, at + 1]);
        }
    }
    lens
}

/// Sorted, duplicate-free: what a header's window of vector keys is.
fn ascending(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

fn check_against_the_oracle(oracle: &[u32]) {
    let column = PackedColumn::from_values(oracle);
    let view = column.view();
    let width = width_of(oracle.iter().copied().max().unwrap_or(0));
    prop_assert_eq!(column.width(), width);
    prop_assert_eq!(column.len(), oracle.len());
    // Whole words, then one zero word; nothing for a column of width 0.
    let words = if width == 0 { 0 } else { (oracle.len() * width as usize).div_ceil(64) + 1 };
    prop_assert_eq!(column.heap_bytes(), 8 * words);
    prop_assert_eq!(view.bytes().len(), bytes_for(oracle.len(), width).unwrap());
    for (i, &v) in oracle.iter().enumerate() {
        prop_assert_eq!(column.get(i), v);
    }
    prop_assert_eq!(view.get(oracle.len()), 0);
    prop_assert_eq!(view.get(usize::MAX), 0);
    let n = oracle.len();
    let windows = [(0, n), (0, n / 2), (n / 3, n), (n / 2, n / 2), (1, n.saturating_sub(1))];
    for (lo, hi) in windows {
        let lo = lo.min(hi);
        prop_assert_eq!(view.iter(lo..hi).collect::<Vec<_>>(), &oracle[lo..hi]);
        prop_assert_eq!(view.iter(lo..hi).len(), hi - lo);
    }
    // Windows past the column are clamped to it.
    prop_assert_eq!(view.iter(n / 2..n + 5).collect::<Vec<_>>(), &oracle[n / 2..]);
    prop_assert_eq!(view.iter(n + 1..n + 9).count(), 0);
    prop_assert_eq!(view.search(n + 1..n + 9, 0), Err(0));
    prop_assert_eq!(view.validate(), Ok(()));
    let back = PackedColumn::from_bytes(view.bytes().to_vec(), width, n).unwrap();
    prop_assert_eq!(&back, &column);
    // Two neighbours at once.
    for i in 0..=n {
        prop_assert_eq!(view.pair(i), (view.get(i), view.get(i + 1)));
    }
    prop_assert_eq!(view.pair(usize::MAX), (0, 0));
    // Pushed one by one onto an empty column, which widens as the values
    // need: the same image.
    let mut pushed = PackedColumn::default();
    oracle.iter().for_each(|&v| pushed.push_widening(v));
    prop_assert_eq!(&pushed, &column);
    // Every value overwritten in place by another of the width, leaving
    // its neighbours as they were.
    let (mut set, mut want) = (column.clone(), oracle.to_vec());
    for i in 0..n {
        want[i] = oracle[n - 1 - i];
        set.set(i, want[i]);
        prop_assert_eq!(set.values().collect::<Vec<_>>(), want.clone());
    }
    prop_assert_eq!(set, PackedColumn::from_values(&want));
}

fn check_search(sorted: &[u32], probes: &[u32]) {
    let column = PackedColumn::from_values(sorted);
    let n = sorted.len();
    for (lo, hi) in [(0, n), (0, n / 2), (n / 3, n), (n / 2, n / 2 + 1), (n, n)] {
        let (lo, hi) = (lo.min(n), hi.min(n).max(lo.min(n)));
        let window = &sorted[lo..hi];
        let edges = window.iter().flat_map(|&v| [v, v.wrapping_sub(1), v.saturating_add(1)]);
        for x in probes.iter().copied().chain(edges).chain([0, u32::MAX]) {
            prop_assert_eq!(
                column.view().search(lo..hi, x),
                window.binary_search(&x),
                "{:?} in {}..{}",
                x,
                lo,
                hi
            );
        }
    }
}

/// `seek` against `partition_point` on windows of `sorted` — the whole
/// column, windows that start mid-column, one of a single value and the
/// empty one past the end — from every position its precondition allows
/// (the values before it are below the target), at and past the window's
/// end, for targets below, between, equal to and above the values.
fn check_seek(sorted: &[u32], probes: &[u32]) {
    let column = PackedColumn::from_values(sorted);
    let n = sorted.len();
    for (lo, hi) in [(0, n), (n / 3, n), (n / 4, 3 * n / 4), (n / 2, n / 2 + 1), (n, n)] {
        let (lo, hi) = (lo.min(n), hi.min(n).max(lo.min(n)));
        let window = &sorted[lo..hi];
        let edges = window.iter().flat_map(|&v| [v, v.wrapping_sub(1), v.saturating_add(1)]);
        let targets: Vec<u32> = probes.iter().copied().chain(edges).chain([0, u32::MAX]).collect();
        let len = window.len();
        for from in [0, 1, 2, len / 2, len.saturating_sub(1), len, len + 1, len + 9] {
            for &x in &targets {
                let at = from.min(len);
                if at > 0 && window[at - 1] >= x {
                    continue; // the values before `from` must be below `x`
                }
                prop_assert_eq!(
                    column.view().seek(lo..hi, from, x),
                    at + window[at..].partition_point(|&v| v < x),
                    "{:?} from {} in {}..{}",
                    x,
                    from,
                    lo,
                    hi
                );
            }
        }
    }
}

/// Shared bytes whose visible length can be cut after a column borrows
/// them, as a mapped file's can when it is truncated under its reader.
struct Shrinking {
    bytes: Vec<u8>,
    len: AtomicUsize,
}

impl AsRef<[u8]> for Shrinking {
    fn as_ref(&self) -> &[u8] {
        &self.bytes[..self.len.load(Ordering::Relaxed)]
    }
}

/// `column`'s image behind three bytes of something else in a shared
/// provider, and the column over that window.
fn shared_twin(column: &PackedColumn) -> (Arc<Shrinking>, PackedColumn) {
    let bytes = [&[7, 7, 7], column.view().bytes()].concat();
    let provider = Arc::new(Shrinking { len: AtomicUsize::new(bytes.len()), bytes });
    let shared: SharedBytes = provider.clone();
    let window = Bytes::shared(shared, 3..provider.bytes.len()).expect("inside the provider");
    let twin = PackedColumn::new(window, column.width(), column.len()).expect("its own shape");
    (provider, twin)
}

fn check_shared_twin(oracle: &[u32]) {
    let owned = PackedColumn::from_values(oracle);
    let (_provider, shared) = shared_twin(&owned);
    prop_assert!(shared.is_shared() && !owned.is_shared());
    prop_assert_eq!(shared.heap_bytes(), 0, "the provider's bytes are not the column's heap");
    prop_assert_eq!(&shared, &owned);
    prop_assert_eq!(shared.view(), owned.view());
    prop_assert_eq!((shared.len(), shared.width()), (owned.len(), owned.width()));
    prop_assert_eq!(shared.values().collect::<Vec<_>>(), oracle);
    for i in 0..=oracle.len() {
        prop_assert_eq!(shared.get(i), owned.get(i));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_shared_column_reads_like_its_owned_twin(width in 0u32..33, seed in 0u64..u64::MAX) {
        for len in straddling_lengths(width) {
            check_shared_twin(&values(width, len, seed));
        }
    }

    #[test]
    fn seek_answers_like_partition_point_at_every_width(
        width in 1u32..33,
        seed in 0u64..u64::MAX,
        len in 0usize..300,
        probes in proptest::collection::vec(0u32..u32::MAX, 0..8),
    ) {
        let sorted = ascending(values(width, len, seed));
        let past_top = u64::from(sorted.last().copied().unwrap_or(0)) + 2;
        let probes: Vec<u32> = probes.iter().map(|&p| (u64::from(p) % past_top) as u32).collect();
        check_seek(&sorted, &probes);
    }

    #[test]
    fn every_width_reads_like_its_oracle(width in 0u32..33, seed in 0u64..u64::MAX) {
        for len in straddling_lengths(width) {
            check_against_the_oracle(&values(width, len, seed));
        }
    }

    #[test]
    fn arbitrary_columns_read_like_their_oracle(
        raw in proptest::collection::vec(0u32..u32::MAX, 0..300),
        shift in 0u32..32,
    ) {
        let oracle: Vec<u32> = raw.iter().map(|v| v >> shift).collect();
        check_against_the_oracle(&oracle);
    }

    #[test]
    fn search_answers_like_slice_binary_search(
        width in 0u32..33,
        seed in 0u64..u64::MAX,
        len in 0usize..200,
        probes in proptest::collection::vec(0u32..u32::MAX, 0..16),
    ) {
        let sorted = ascending(values(width, len, seed));
        // Probes up to just past the largest value, where hits are likely.
        let past_top = u64::from(sorted.last().copied().unwrap_or(0)) + 2;
        let probes: Vec<u32> = probes.iter().map(|&p| (u64::from(p) % past_top) as u32).collect();
        check_search(&sorted, &probes);
    }
}

#[test]
fn every_non_canonical_image_is_its_own_error() {
    let column = PackedColumn::from_values(&[5, 0, 7, 3]); // 3 bits: 12 of a word, then the zero word
    let image = column.view().bytes().to_vec();
    assert_eq!((column.width(), image.len()), (3, 16));

    // A width above 32.
    assert_eq!(PackedColumn::from_bytes(image.clone(), 33, 4), Err(PackedError::WidthAbove32(33)));
    assert_eq!(PackedView::new(&image, 40, 4), Err(PackedError::WidthAbove32(40)));
    assert_eq!(PackedColumn::pack(&[1], 33), Err(PackedError::WidthAbove32(33)));

    // A byte length other than the whole words the length and width need.
    let wrong_length = |bytes: Vec<u8>, width, len| {
        matches!(
            PackedColumn::from_bytes(bytes, width, len),
            Err(PackedError::WrongByteLength { .. })
        )
    };
    assert!(wrong_length(vec![], 3, 4), "no word for four values");
    assert!(wrong_length(image[..2].to_vec(), 3, 4), "the bytes the bits need, not a word");
    assert!(wrong_length(image[..8].to_vec(), 3, 4), "no zero word after the values");
    assert!(wrong_length([&image[..], &[0; 8]].concat(), 3, 4), "a word too many");
    assert!(wrong_length(vec![0; 8], 0, 4), "a width-0 column has no bytes");
    assert!(wrong_length(vec![0; 24], 32, 5), "five 32-bit values take three words and one");
    assert_eq!(
        PackedView::new(&image, 3, 30),
        Err(PackedError::WrongByteLength { expected: 24, found: 16 })
    );

    // A bit set past the last value: anywhere from bit 12 to the end of
    // the zero word.
    for bit in 12..128 {
        let mut dirty = image.clone();
        dirty[bit / 8] |= 1 << (bit % 8);
        assert_eq!(PackedColumn::from_bytes(dirty, 3, 4), Err(PackedError::BitsPastEnd), "{bit}");
    }

    // A width narrower than a value needs.
    assert_eq!(
        PackedColumn::pack(&[5, 0, 8], 3),
        Err(PackedError::ValueTooWide { value: 8, width: 3 })
    );

    // A width wider than the largest value needs: the same values at 4
    // bits are a valid image of them, but not the canonical one.
    let mut wide = PackedColumn::with_capacity(4, 8);
    assert_eq!(wide.width(), 4);
    [5, 0, 7, 3].into_iter().for_each(|v| wide.push(v));
    let wide_image = wide.view().bytes().to_vec();
    assert_eq!(
        PackedColumn::from_bytes(wide_image, 4, 4),
        Err(PackedError::WidthNotTight { width: 4, needed: 3 })
    );
    assert_eq!(
        PackedColumn::pack(&[5, 0, 7, 3], 4),
        Err(PackedError::WidthNotTight { width: 4, needed: 3 })
    );
    assert_eq!(
        PackedColumn::from_bytes(vec![0; 8], 1, 0),
        Err(PackedError::WidthNotTight { width: 1, needed: 0 }),
        "the empty column is width 0"
    );

    // Each error names itself.
    for e in [
        PackedError::WidthAbove32(33),
        PackedError::WrongByteLength { expected: 8, found: 16 },
        PackedError::BitsPastEnd,
        PackedError::ValueTooWide { value: 8, width: 3 },
        PackedError::WidthNotTight { width: 4, needed: 3 },
        PackedError::TooLong(1 << 33),
    ] {
        assert!(!e.to_string().is_empty());
    }

    // And the canonical image is accepted.
    assert_eq!(PackedColumn::from_bytes(image, 3, 4), Ok(column));
    assert_eq!(PackedColumn::pack(&[5, 0, 7, 3], 3).unwrap().width(), 3);
}

#[test]
fn a_write_to_a_shared_column_copies_it_out_and_leaves_the_provider_alone() {
    let values = [5, 0, 7, 3, 6];
    let owned = PackedColumn::from_values(&values);
    // A widening push: the copy is repacked, the provider keeps its bytes.
    let (provider, mut shared) = shared_twin(&owned);
    let before = provider.bytes.clone();
    shared.push_widening(300);
    assert!(!shared.is_shared());
    assert_eq!(shared.values().collect::<Vec<_>>(), [5, 0, 7, 3, 6, 300]);
    assert_eq!(shared, PackedColumn::from_values(&[5, 0, 7, 3, 6, 300]));
    assert_eq!(provider.bytes, before);
    // A push that fits, and a set within the width.
    let (provider, mut shared) = shared_twin(&owned);
    shared.push(1);
    assert!(!shared.is_shared());
    assert_eq!(shared.values().collect::<Vec<_>>(), [5, 0, 7, 3, 6, 1]);
    assert_eq!(provider.bytes, before);
    let (provider, mut shared) = shared_twin(&owned);
    shared.set(1, 4);
    assert!(!shared.is_shared());
    assert_eq!(shared.values().collect::<Vec<_>>(), [5, 4, 7, 3, 6]);
    assert_eq!(shared.heap_bytes(), owned.heap_bytes());
    assert_eq!(provider.bytes, before);
    // Bytes themselves copy on the first write.
    let shared_bytes: SharedBytes = provider.clone();
    let mut bytes = Bytes::shared(shared_bytes, 0..3).unwrap();
    bytes.make_mut().push(9);
    assert!(!bytes.is_shared());
    assert_eq!(&bytes[..], &[7, 7, 7, 9]);
    assert_eq!(provider.bytes, before);
}

#[test]
fn a_column_whose_provider_shrank_reads_as_the_empty_column() {
    let values: Vec<u32> = (0..100).map(|i| i * 7 % 61).collect();
    let (provider, shared) = shared_twin(&PackedColumn::from_values(&values));
    let window = Bytes::shared(provider.clone(), 0..provider.bytes.len()).unwrap();
    for cut in [provider.bytes.len() - 1, 9, 3, 0] {
        provider.len.store(cut, Ordering::Relaxed);
        let view = shared.view();
        assert_eq!(view, PackedView::EMPTY);
        assert_eq!((shared.get(0), shared.get(99)), (0, 0));
        assert_eq!(shared.values().count(), 0);
        assert_eq!(view.iter(0..100).count(), 0);
        assert_eq!(view.search(0..100, 7), Err(0));
        assert_eq!(view.seek(0..100, 3, 7), 0);
        assert_eq!(view.pair(5), (0, 0));
        assert!(window.is_empty(), "a window past its provider reads as no bytes");
    }
    // A write then starts from the empty column it reads as.
    let mut shared = shared;
    shared.push_widening(9);
    assert_eq!(shared.values().collect::<Vec<_>>(), [9]);
}
