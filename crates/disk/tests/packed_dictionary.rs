//! The dictionary's packed columns (hexsnap v10) under growth, reload
//! and corruption.
//!
//! Interning widens a column whenever a value needs more bits; a reload
//! adopts the columns whole, eagerly (`hexsnap::load_frozen`) or mapped in
//! place (`hex_disk::open`). Each path must answer every `encode`, `id_of`
//! and `term` as a `HashMap` oracle does, size its reverse index by one
//! rule, and refuse a column that is not the canonical image of its
//! values as a typed `Corrupt`.

use hex_datagen::barton::{self, BartonConfig};
use hex_datagen::lubm::{self, LubmConfig};
use hex_dict::packed::{bytes_for, PackedColumn};
use hex_dict::{Dictionary, Id};
use hexastore::hexsnap::{self, DictColumns, Ints};
use hexastore::FrozenHexastore;
use proptest::prelude::*;
use rdf_model::Term;
use std::collections::HashMap;
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("hexdisk-dict-{tag}-{}-{n}.hexsnap", std::process::id()))
}

/// `dict` saved beside an empty store.
fn save(dict: &Dictionary, tag: &str) -> PathBuf {
    let path = temp_path(tag);
    hexsnap::save_frozen(&path, dict, &FrozenHexastore::from_triples([])).unwrap();
    path
}

/// Term `i` of a stream: IRIs under `namespaces` namespaces, tagged
/// literals under seven tags and plain literals, each with `pad` digits
/// of its own.
fn term(i: usize, namespaces: usize, pad: usize) -> Term {
    match i % 4 {
        0 | 1 => Term::iri(format!("http://ns{}.example/r{i:0pad$}", i / 4 % namespaces)),
        2 => Term::lang_literal(format!("{i:0pad$}"), format!("t{}", i % 7)),
        _ => Term::literal(format!("v{i:0pad$}")),
    }
}

/// A dictionary beside the ids it must give: interning checks each
/// `encode` against the oracle, `check` every `id_of` and `term`.
struct Oracle {
    ids: HashMap<Term, Id>,
    terms: Vec<Term>,
}

impl Oracle {
    fn new() -> Self {
        Oracle { ids: HashMap::new(), terms: Vec::new() }
    }

    fn intern(&mut self, dict: &mut Dictionary, t: Term) {
        let next = Id(self.terms.len() as u32);
        let want = *self.ids.entry(t.clone()).or_insert(next);
        if want == next {
            self.terms.push(t.clone());
        }
        assert_eq!(dict.encode(&t), want, "{t}");
    }

    /// Every term this oracle knows up to `len`, and none after it.
    fn check(&self, dict: &Dictionary, len: usize, what: &str) {
        assert_eq!(dict.len(), len, "{what}");
        for (i, t) in self.terms.iter().enumerate() {
            let want = (i < len).then_some(Id(i as u32));
            assert_eq!(dict.id_of(t), want, "{what}: {t}");
            if i < len {
                assert_eq!(dict.term(Id(i as u32)).map(|r| r.to_owned()).as_ref(), Some(t));
            }
        }
        assert_eq!(dict.term(Id(len as u32)), None, "{what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Over 2^16 terms, a term arena past 2^20 bytes and a prefix table
    /// past 2^7 entries, every column widens through every boundary; a
    /// clone taken halfway keeps its ids while the original grows, and a
    /// mapped reload interns on from where the file left off.
    #[test]
    fn interning_across_width_boundaries_answers_like_a_hashmap(
        extra in 0usize..400,
        namespaces in 121usize..140,
        pad in 17usize..20,
    ) {
        let n = (1 << 16) + extra;
        let mut dict = Dictionary::new();
        let mut oracle = Oracle::new();
        let mut widths = Vec::new();
        let mut snapshot = None;
        for i in 0..n {
            oracle.intern(&mut dict, term(i, namespaces, pad));
            if i % 3 == 0 {
                // A hit on an earlier term.
                oracle.intern(&mut dict, term(i / 2, namespaces, pad));
            }
            if i == n / 2 {
                snapshot = Some((dict.clone(), dict.len()));
            }
            let w = (dict.term_heads().width(), dict.term_ends().width(), dict.prefix_ends().width());
            if widths.last() != Some(&w) {
                widths.push(w);
            }
        }
        prop_assert!(dict.arena_bytes().len() > 1 << 20, "{}", dict.arena_bytes().len());
        prop_assert!(dict.prefix_count() > 128, "{} {namespaces}", dict.prefix_count());
        prop_assert!(dict.term_ends().width() == 21, "{:?}", widths);
        // The ends crossed every width from 5 bits up, the heads the widths
        // of 2^7 prefixes.
        prop_assert!(widths.len() > 17, "{:?}", widths);
        oracle.check(&dict, dict.len(), "interned");
        let (snapshot, at) = snapshot.unwrap();
        oracle.check(&snapshot, at, "the clone taken halfway");

        // Eager and mapped reloads, then interning on.
        let path = save(&dict, "growth");
        let (eager, _) = hexsnap::load_frozen(&path).unwrap();
        let (mut mapped, _) = hex_disk::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for reloaded in [&eager, &mapped] {
            prop_assert!(reloaded.image() == dict.image());
            prop_assert_eq!(reloaded.index_stats().slots, dict.index_stats().slots);
        }
        oracle.check(&mapped, dict.len(), "mapped");
        let len = dict.len();
        for i in n..n + 300 {
            // New namespaces and new terms under old ones.
            oracle.intern(&mut mapped, term(i, namespaces + 40, pad));
        }
        oracle.check(&mapped, oracle.terms.len(), "interned after the mapped open");
        oracle.check(&eager, len, "the eager load, untouched");
    }
}

#[test]
fn a_read_dictionary_sizes_its_index_as_interning_does() {
    let mut triples = barton::generate(&BartonConfig { records: 3_500, ..Default::default() });
    triples.extend(lubm::generate(&LubmConfig::with_universities(1)));
    let mut interned = Dictionary::new();
    interned.encode_triples_parallel(&triples, 1);
    let n = interned.len();
    let slots = interned.index_stats().slots;
    // The smallest power of two of at least 8n/7.
    assert!(slots.is_power_of_two() && slots * 7 >= n * 8 && slots / 2 * 7 < n * 8, "{n}: {slots}");

    let path = save(&interned, "slots");
    let rebuilt = Dictionary::try_from_arena(interned.image()).unwrap();
    let (eager, _) = hexsnap::load_frozen(&path).unwrap();
    let (mapped, _) = hex_disk::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    for (what, d) in [("try_from_arena", &rebuilt), ("load_frozen", &eager), ("open", &mapped)] {
        assert_eq!(d.index_stats().slots, slots, "{what}");
    }
    // Only the mapped dictionary's two reverse indexes are on its heap.
    let heap = mapped.heap_breakdown();
    assert_eq!(heap.total(), heap.interior + heap.term_index + heap.prefix_index);
    assert_eq!(heap.term_index, interned.heap_breakdown().term_index);
}

/// A v10 file whose `DICT` section holds these columns — each packed
/// column given as its width and image — beside an empty store's `FROZ`.
struct DictFile {
    heads: (u32, Vec<u8>, usize),
    ends: (u32, Vec<u8>, usize),
    arena: Vec<u8>,
    prefix_ends: (u32, Vec<u8>, usize),
    prefixes: Vec<u8>,
}

impl DictFile {
    fn of(dict: &Dictionary) -> Self {
        let column = |c: hex_dict::packed::PackedView<'_>| (c.width(), c.bytes().to_vec(), c.len());
        DictFile {
            heads: column(dict.term_heads()),
            ends: column(dict.term_ends()),
            arena: dict.arena_bytes().to_vec(),
            prefix_ends: column(dict.prefix_ends()),
            prefixes: dict.prefix_bytes().to_vec(),
        }
    }

    /// The file, laid out as the writer lays it out.
    fn bytes(&self) -> Vec<u8> {
        let pad = |f: &mut Vec<u8>| f.resize(f.len().next_multiple_of(8), 0);
        let packed = |f: &mut Vec<u8>, (width, bytes, _): &(u32, Vec<u8>, usize)| {
            f.extend_from_slice(&width.to_le_bytes());
            pad(f);
            f.extend_from_slice(bytes);
        };
        let mut f = hexsnap::MAGIC.to_vec();
        f.extend_from_slice(&hexsnap::VERSION.to_le_bytes());
        pad(&mut f);
        let dict_at = f.len();
        f.extend_from_slice(&(self.heads.2 as u32).to_le_bytes());
        packed(&mut f, &self.heads);
        packed(&mut f, &self.ends);
        f.extend_from_slice(&(self.arena.len() as u64).to_le_bytes());
        f.extend_from_slice(&self.arena);
        f.extend_from_slice(&(self.prefix_ends.2 as u32).to_le_bytes());
        packed(&mut f, &self.prefix_ends);
        f.extend_from_slice(&(self.prefixes.len() as u64).to_le_bytes());
        f.extend_from_slice(&self.prefixes);
        let dict_len = f.len() - dict_at;
        pad(&mut f);
        let froz_at = f.len();
        f.extend_from_slice(&empty_froz());
        let table_at = f.len();
        f.extend_from_slice(&2u32.to_le_bytes());
        for (tag, at, len) in
            [(*b"DICT", dict_at, dict_len), (*b"FROZ", froz_at, table_at - froz_at)]
        {
            f.extend_from_slice(&tag);
            f.extend_from_slice(&(at as u64).to_le_bytes());
            f.extend_from_slice(&(len as u64).to_le_bytes());
        }
        f.extend_from_slice(&(table_at as u64).to_le_bytes());
        f.extend_from_slice(&hexsnap::MAGIC);
        f
    }
}

/// The `FROZ` section of an empty store, as the writer lays it out on an
/// 8-byte file offset.
fn empty_froz() -> Vec<u8> {
    let path = save(&Dictionary::new(), "empty");
    let file = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let r = hexsnap::Reader::new(std::io::Cursor::new(&file)).unwrap();
    let (at, len) = r.frozen_section_extent().unwrap();
    assert_eq!(at % 8, 0);
    file[at as usize..(at + len) as usize].to_vec()
}

/// `values` packed at `width` bits, however many their largest needs.
fn image(values: &[u32], width: u32) -> (u32, Vec<u8>, usize) {
    let mut column = PackedColumn::with_width(values.len(), width);
    values.iter().for_each(|&v| column.push(v));
    assert_eq!(column.width(), width, "the values fit");
    (width, column.view().bytes().to_vec(), values.len())
}

/// The values of a column given as its width and image.
fn values((width, bytes, len): &(u32, Vec<u8>, usize)) -> Vec<u32> {
    hex_dict::packed::PackedView::new(bytes, *width, *len).unwrap().values().collect()
}

fn assert_corrupt_through_both_loaders(file: &[u8], what: &str) {
    let path = temp_path("corrupt");
    std::fs::write(&path, file).unwrap();
    let eager = hexsnap::load_frozen(&path);
    let mapped = hex_disk::open(&path);
    std::fs::remove_file(&path).ok();
    assert!(matches!(eager, Err(hexsnap::Error::Corrupt(_))), "{what}: {:?}", eager.err());
    assert!(
        matches!(
            mapped,
            Err(hex_disk::Error::Snapshot(hexsnap::Error::Corrupt(_)) | hex_disk::Error::Corrupt(_))
        ),
        "{what}: {:?}",
        mapped.err()
    );
}

#[test]
fn corrupt_dictionary_columns_load_as_corrupt_through_both_loaders() {
    let mut dict = Dictionary::new();
    for i in 0..40 {
        dict.encode(&term(i, 3, 2));
    }
    let good = DictFile::of(&dict);
    // The hand-laid file is the writer's, byte for byte.
    let path = save(&dict, "layout");
    assert_eq!(good.bytes(), std::fs::read(&path).unwrap());
    std::fs::remove_file(&path).ok();
    let (heads, ends, prefix_ends) =
        (values(&good.heads), values(&good.ends), values(&good.prefix_ends));

    // A width wider than the largest value needs, each column in turn.
    let wide = |v: &[u32], c: &(u32, Vec<u8>, usize)| image(v, c.0 + 1);
    let cases = [
        ("heads too wide", DictFile { heads: wide(&heads, &good.heads), ..DictFile::of(&dict) }),
        ("ends too wide", DictFile { ends: wide(&ends, &good.ends), ..DictFile::of(&dict) }),
        (
            "prefix ends too wide",
            DictFile { prefix_ends: wide(&prefix_ends, &good.prefix_ends), ..DictFile::of(&dict) },
        ),
    ];
    for (what, file) in cases {
        assert_corrupt_through_both_loaders(&file.bytes(), what);
    }

    // A width narrower than the image: the declared width no longer
    // sizes the bytes that follow it.
    for column in 0..3 {
        let mut file = DictFile::of(&dict);
        let c = [&mut file.heads, &mut file.ends, &mut file.prefix_ends]
            .into_iter()
            .nth(column)
            .unwrap();
        c.0 -= 1;
        assert_corrupt_through_both_loaders(&file.bytes(), &format!("column {column} too narrow"));
    }

    // A bit set past the last value, in the last word of each image.
    for column in 0..3 {
        let mut file = DictFile::of(&dict);
        let c = [&mut file.heads, &mut file.ends, &mut file.prefix_ends]
            .into_iter()
            .nth(column)
            .unwrap();
        let used = c.2 * c.0 as usize;
        assert!(used < (c.1.len() - 8) * 8, "room past the values");
        c.1[used / 8] |= 0x80;
        assert_corrupt_through_both_loaders(&file.bytes(), &format!("bits past column {column}"));
    }
    // The zero word after the values.
    let mut file = DictFile::of(&dict);
    *file.ends.1.last_mut().unwrap() = 1;
    assert_corrupt_through_both_loaders(&file.bytes(), "a set bit in the zero word");

    // Canonical images of values that are not a dictionary's.
    let mut swapped = ends.clone();
    swapped.swap(3, 4);
    let mut kinds = heads.clone();
    kinds[5] |= 7;
    let mut prefixes = prefix_ends.clone();
    prefixes.swap(1, 2);
    let canonical = |v: &[u32]| image(v, hex_dict::packed::width_of(*v.iter().max().unwrap()));
    let cases = [
        ("non-monotone ends", DictFile { ends: canonical(&swapped), ..DictFile::of(&dict) }),
        ("a bad kind", DictFile { heads: canonical(&kinds), ..DictFile::of(&dict) }),
        (
            "non-monotone prefix ends",
            DictFile { prefix_ends: canonical(&prefixes), ..DictFile::of(&dict) },
        ),
    ];
    for (what, file) in cases {
        assert_corrupt_through_both_loaders(&file.bytes(), what);
    }
    // Widths above 32 are refused by the walk.
    let mut file = DictFile::of(&dict);
    file.heads.0 = 33;
    assert_corrupt_through_both_loaders(&file.bytes(), "a 33-bit column");
    assert!(bytes_for(heads.len(), 33).is_some());

    // Counts no bytes back: a column of width 0 takes none, so a file of
    // a few hundred bytes may declare any number of terms or prefixes.
    // Each is refused before anything is sized by it.
    assert_eq!(bytes_for(u32::MAX as usize, 0), Some(0));
    let zeros = |len: u32| (0, Vec::new(), len as usize);
    for n in [u32::MAX, 7 << 28, 1 << 24] {
        let terms =
            DictFile { heads: zeros(n), ends: zeros(n), arena: vec![], ..DictFile::of(&dict) };
        assert_corrupt_through_both_loaders(&terms.bytes(), &format!("{n} terms at width 0"));
        let prefixes = DictFile {
            prefix_ends: zeros(n),
            prefixes: vec![],
            ..DictFile::of(&Dictionary::new())
        };
        assert_corrupt_through_both_loaders(&prefixes.bytes(), &format!("{n} prefixes at width 0"));
    }
}

#[test]
fn the_dict_columns_of_a_v10_file_are_packed() {
    let mut dict = Dictionary::new();
    for i in 0..10 {
        dict.encode(&term(i, 2, 1));
    }
    let path = save(&dict, "columns");
    let file = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut r = hexsnap::Reader::new(std::io::Cursor::new(&file)).unwrap();
    let DictColumns::Prefixed { heads, ends, prefix_ends, .. } = r.dict_columns().unwrap() else {
        panic!("a prefixed dictionary")
    };
    for (ints, view) in
        [(heads, dict.term_heads()), (ends, dict.term_ends()), (prefix_ends, dict.prefix_ends())]
    {
        let Ints::Packed(col) = ints else { panic!("a packed column, not {ints:?}") };
        assert_eq!((col.width, col.len), (view.width(), view.len()));
        assert_eq!(&file[col.offset..col.offset + col.bytes()], view.bytes());
    }
}
