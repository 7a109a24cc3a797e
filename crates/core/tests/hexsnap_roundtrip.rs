//! Property-based validation of the `hexsnap` binary snapshot: a random
//! graph saved and re-opened (both the rebuild path and the frozen
//! zero-rebuild path) must answer all eight access patterns exactly like
//! the original, and damaged files must be *rejected*, never
//! misinterpreted.

use hex_dict::{Dictionary, Id, IdTriple};
use hexastore::packed::{Bytes, SharedBytes};
use hexastore::{hexsnap, FrozenHexastore, GraphStore, IdPattern, TripleStore};
use proptest::prelude::*;
use rdf_model::{Term, Triple};
use std::io::Cursor;
use std::sync::Arc;

mod support;

fn term(i: u32) -> Term {
    match i % 4 {
        0 => Term::iri(format!("http://x/r{i}")),
        1 => Term::literal(format!("plain {i} with \"quotes\"\nand newlines")),
        2 => Term::lang_literal(format!("étiquette {i}"), "fr"),
        _ => Term::typed_literal(format!("{i}"), "http://www.w3.org/2001/XMLSchema#integer"),
    }
}

fn graph_from(picks: &[(u32, u32, u32)]) -> GraphStore {
    let mut g = GraphStore::new();
    for &(s, p, o) in picks {
        g.insert(&Triple::new(
            Term::iri(format!("http://x/s{s}")),
            Term::iri(format!("http://x/p{p}")),
            term(o),
        ));
    }
    g
}

/// In-memory save with and without the frozen slab sections.
fn snapshot_bytes(g: &GraphStore, frozen: bool) -> Vec<u8> {
    let mut w = hexsnap::Writer::new(Cursor::new(Vec::new())).unwrap();
    w.dictionary(g.dict()).unwrap();
    w.triples(g.len() as u64, g.store().iter_matching(IdPattern::ALL)).unwrap();
    if frozen {
        w.frozen(&g.store().freeze()).unwrap();
    }
    w.finish().unwrap().into_inner()
}

/// In-memory save of only dictionary + a compressed frozen section.
fn compressed_snapshot_bytes(g: &GraphStore) -> Vec<u8> {
    let mut w = hexsnap::Writer::new(Cursor::new(Vec::new())).unwrap();
    w.dictionary(g.dict()).unwrap();
    w.frozen_with(&g.store().freeze(), hexsnap::Compression::VarintDelta).unwrap();
    w.finish().unwrap().into_inner()
}

fn all_patterns(store: &dyn TripleStore) -> Vec<IdPattern> {
    let mut pats = vec![IdPattern::ALL];
    for tr in store.matching(IdPattern::ALL) {
        pats.extend([
            IdPattern::spo(tr),
            IdPattern::sp(tr.s, tr.p),
            IdPattern::so(tr.s, tr.o),
            IdPattern::po(tr.p, tr.o),
            IdPattern::s(tr.s),
            IdPattern::p(tr.p),
            IdPattern::o(tr.o),
        ]);
    }
    pats
}

fn assert_store_equivalent(original: &dyn TripleStore, restored: &dyn TripleStore) {
    assert_eq!(restored.len(), original.len());
    for pat in all_patterns(original) {
        assert_eq!(restored.matching(pat), original.matching(pat), "{pat:?}");
        assert_eq!(restored.count_matching(pat), original.count_matching(pat), "{pat:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Save → load round-trips through both open paths: the streamed
    /// bulk rebuild and the zero-rebuild frozen read agree with the
    /// original on all eight access patterns.
    #[test]
    fn binary_roundtrip_preserves_all_patterns(
        picks in proptest::collection::vec((0u32..9, 0u32..5, 0u32..9), 0..60),
        frozen_bit in 0u32..2,
    ) {
        let with_frozen = frozen_bit == 1;
        let g = graph_from(&picks);
        let bytes = snapshot_bytes(&g, with_frozen);

        let mut r = hexsnap::Reader::new(Cursor::new(&bytes)).unwrap();
        prop_assert_eq!(r.has_frozen(), with_frozen);
        let dict = r.dictionary().unwrap();
        prop_assert_eq!(dict.len(), g.dict().len());
        for (id, t) in g.dict().iter() {
            prop_assert_eq!(dict.decode(id), Some(t));
        }

        // Rebuild path: streamed triple chunks into the bulk loader.
        let rebuilt = hexastore::bulk::build(r.triples().unwrap());
        assert_store_equivalent(g.store(), &rebuilt);

        // Frozen path: direct slab read when present, else frozen build.
        let frozen: FrozenHexastore = if with_frozen {
            r.frozen().unwrap()
        } else {
            FrozenHexastore::from_triples(r.triples().unwrap())
        };
        assert_store_equivalent(g.store(), &frozen);
        prop_assert_eq!(frozen.space_stats(), g.store().freeze().space_stats());
    }

    /// A compressed frozen section decodes to slabs *identical* to the
    /// store it encoded: same answers on every pattern and the same
    /// space accounting, via both the in-memory Reader and the
    /// file-level loader.
    #[test]
    fn compressed_sections_roundtrip_exactly(
        picks in proptest::collection::vec((0u32..9, 0u32..5, 0u32..9), 0..60),
    ) {
        let g = graph_from(&picks);
        let bytes = compressed_snapshot_bytes(&g);

        let mut r = hexsnap::Reader::new(Cursor::new(&bytes)).unwrap();
        prop_assert!(r.has_frozen());
        // Compressed sections are decoded, never mapped.
        prop_assert_eq!(r.frozen_section_extent(), None);
        let decoded = r.frozen().unwrap();
        assert_store_equivalent(g.store(), &decoded);
        prop_assert_eq!(decoded.space_stats(), g.store().freeze().space_stats());

        // And a compressed file never grows past its uncompressed twin.
        let plain = snapshot_bytes(&g, true);
        prop_assert!(bytes.len() <= plain.len() + 16,
            "compressed {} vs plain {}", bytes.len(), plain.len());
    }

    /// Truncating a compressed snapshot anywhere — including inside the
    /// varint payload — is rejected, either at open (trailer gone) or at
    /// section decode; it never yields a store.
    #[test]
    fn truncated_compressed_snapshots_are_rejected(
        picks in proptest::collection::vec((0u32..6, 0u32..3, 0u32..6), 1..20),
        cut_permille in 0usize..1000,
    ) {
        let g = graph_from(&picks);
        let bytes = compressed_snapshot_bytes(&g);
        let cut = (bytes.len() - 1) * cut_permille / 1000;
        prop_assert!(
            hexsnap::Reader::new(Cursor::new(&bytes[..cut])).is_err(),
            "truncation to {cut}/{} bytes must not open",
            bytes.len()
        );
    }

    /// Flipping any bits of the compressed payload is caught by the
    /// section checksum: decode errors rather than returning a slab
    /// rebuilt from a different-but-parseable varint stream.
    #[test]
    fn flipped_compressed_payload_bytes_are_rejected(
        picks in proptest::collection::vec((0u32..6, 0u32..3, 0u32..6), 1..20),
        at_permille in 0usize..1000,
        mask in 1u8..=255,
    ) {
        let g = graph_from(&picks);
        let mut bytes = compressed_snapshot_bytes(&g);
        // Flip inside the FRZC section — its length/checksum/payload
        // region, located through the section table of the pristine file.
        let (toff, sections) = section_table(&bytes);
        let frzc_start = sections
            .iter()
            .find(|(tag, _)| tag == "FRZC")
            .expect("compressed snapshot has a FRZC entry")
            .1;
        let span = toff - frzc_start;
        let at = frzc_start + (span - 1) * at_permille / 1000;
        bytes[at] ^= mask;

        let mut r = hexsnap::Reader::new(Cursor::new(&bytes)).unwrap();
        prop_assert!(
            r.frozen().is_err(),
            "flip at byte {at} (mask {mask:#x}) must not decode"
        );
    }

    /// Any truncation of a valid snapshot is rejected at open — the
    /// trailer magic can never survive a shortened file.
    #[test]
    fn truncated_snapshots_are_rejected(
        picks in proptest::collection::vec((0u32..6, 0u32..3, 0u32..6), 1..20),
        cut_permille in 0usize..1000,
    ) {
        let g = graph_from(&picks);
        let bytes = snapshot_bytes(&g, true);
        let cut = (bytes.len() - 1) * cut_permille / 1000;
        prop_assert!(
            hexsnap::Reader::new(Cursor::new(&bytes[..cut])).is_err(),
            "truncation to {cut}/{} bytes must not open",
            bytes.len()
        );
    }

    /// Corrupting any single header/trailer byte is rejected at open.
    #[test]
    fn flipped_header_bytes_are_rejected(
        picks in proptest::collection::vec((0u32..6, 0u32..3, 0u32..6), 1..10),
        header_byte in 0usize..12,
    ) {
        let g = graph_from(&picks);
        let mut bytes = snapshot_bytes(&g, false);
        bytes[header_byte] ^= 0x5A;
        prop_assert!(hexsnap::Reader::new(Cursor::new(&bytes)).is_err());
        // And the trailer magic too.
        let mut bytes = snapshot_bytes(&g, false);
        let n = bytes.len();
        bytes[n - 8 + header_byte % 8] ^= 0x5A;
        prop_assert!(hexsnap::Reader::new(Cursor::new(&bytes)).is_err());
    }
}

#[test]
fn file_level_save_and_load_roundtrip() {
    let g = graph_from(&[(0, 0, 0), (0, 1, 2), (3, 1, 2), (4, 2, 7), (4, 2, 1)]);
    let dir = std::env::temp_dir();
    let plain = dir.join(format!("hexsnap_test_plain_{}.hexsnap", std::process::id()));
    let frozen = dir.join(format!("hexsnap_test_frozen_{}.hexsnap", std::process::id()));

    hexsnap::save(&plain, g.dict(), g.store()).unwrap();
    hexsnap::save_frozen(&frozen, g.dict(), &g.store().freeze()).unwrap();

    let loaded = hexsnap::load(&plain).unwrap();
    assert_store_equivalent(g.store(), loaded.store());

    // Both files open to a query-ready frozen store; the slab-backed file
    // without any rebuild, the plain one via the frozen bulk loader.
    for path in [&frozen, &plain] {
        let (dict, store) = hexsnap::load_frozen(path).unwrap();
        assert_eq!(dict.len(), g.dict().len());
        assert_store_equivalent(g.store(), &store);
    }

    // A frozen-opened store thaws into a fully updatable Hexastore.
    let (_, store) = hexsnap::load_frozen(&frozen).unwrap();
    let mut thawed = store.thaw();
    assert!(thawed.insert(IdTriple::new(Id(0), Id(1), Id(999))));

    std::fs::remove_file(&plain).ok();
    std::fs::remove_file(&frozen).ok();
}

#[test]
fn empty_graph_roundtrip() {
    let g = GraphStore::new();
    let bytes = snapshot_bytes(&g, true);
    let mut r = hexsnap::Reader::new(Cursor::new(&bytes)).unwrap();
    assert_eq!(r.dictionary().unwrap().len(), 0);
    assert_eq!(r.triples().unwrap(), Vec::new());
    let frozen = r.frozen().unwrap();
    assert!(frozen.is_empty());
    assert_eq!(frozen.matching(IdPattern::ALL), Vec::new());
}

/// A snapshot's section table: its file offset, and each section's tag
/// and start offset in file order.
fn section_table(bytes: &[u8]) -> (usize, Vec<(String, usize)>) {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let table = u64_at(bytes.len() - 16);
    let count = u32::from_le_bytes(bytes[table..table + 4].try_into().unwrap()) as usize;
    let sections = (0..count)
        .map(|i| {
            let entry = table + 4 + i * 20;
            (String::from_utf8_lossy(&bytes[entry..entry + 4]).into_owned(), u64_at(entry + 4))
        })
        .collect();
    (table, sections)
}

/// The tags of a snapshot's sections, in file order.
fn section_tags(bytes: &[u8]) -> Vec<String> {
    section_table(bytes).1.into_iter().map(|(tag, _)| tag).collect()
}

#[test]
fn slab_snapshots_store_no_triple_column_and_still_yield_the_triples() {
    // Enough triples for more than one 64 Ki chunk of the chunked reader,
    // built at the id level over a small dictionary.
    let mut dict = hex_dict::Dictionary::new();
    let ids: Vec<Id> = (0..130).map(|i| dict.encode(&term(i))).collect();
    let triples: Vec<IdTriple> = (0..70_000usize)
        .map(|i| IdTriple::new(ids[i % 50], ids[50 + (i / 50) % 30], ids[80 + i / 1500]))
        .collect();
    let g = GraphStore::from_parts(dict, hexastore::bulk::build(triples));
    assert_eq!(g.len(), 70_000);
    let frozen = g.store().freeze();
    let spo_order = g.store().matching(IdPattern::ALL);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let with_triples = dir.join(format!("hexsnap_test_trpl_{pid}.hexsnap"));
    hexsnap::save(&with_triples, g.dict(), g.store()).unwrap();
    assert_eq!(section_tags(&std::fs::read(&with_triples).unwrap()), ["DICT", "TRPL"]);

    for (compression, slab_tag) in
        [(hexsnap::Compression::None, "FROZ"), (hexsnap::Compression::VarintDelta, "FRZC")]
    {
        let slab_only = dir.join(format!("hexsnap_test_slab_only_{pid}_{slab_tag}.hexsnap"));
        hexsnap::save_frozen_with(&slab_only, g.dict(), &frozen, compression).unwrap();
        assert_eq!(section_tags(&std::fs::read(&slab_only).unwrap()), ["DICT", slab_tag]);

        // The chunked stream and the mutable load see the same triples,
        // in the same spo order, whichever file they read.
        for path in [&slab_only, &with_triples] {
            let mut r =
                hexsnap::Reader::new(std::io::BufReader::new(std::fs::File::open(path).unwrap()))
                    .unwrap();
            let (mut streamed, mut chunks) = (Vec::new(), 0);
            let n = r
                .for_each_triple_chunk(|chunk| {
                    streamed.extend_from_slice(chunk);
                    chunks += 1;
                })
                .unwrap();
            assert_eq!(n as usize, spo_order.len());
            assert!(chunks >= 2, "{chunks} chunk(s)");
            assert_eq!(streamed, spo_order);
            assert_eq!(r.triples().unwrap(), spo_order);

            let loaded = hexsnap::load(path).unwrap();
            assert_eq!(loaded.dict().len(), g.dict().len());
            assert_eq!(loaded.store().matching(IdPattern::ALL), spo_order);
        }
        std::fs::remove_file(&slab_only).ok();
    }
    std::fs::remove_file(&with_triples).ok();
}

#[test]
fn a_live_directory_left_at_a_v2_generation_upgrades_on_compaction() {
    // The newest generation is a committed file format version 2 wrote
    // (pairs, primary list references, a TRPL column beside the slabs).
    for f in support::fixtures_of(2) {
        let gen8 = support::a_live_directory_left_at_it_upgrades_on_compaction(f);
        // The compaction wrote a raw slab-only generation: smaller than a
        // raw v2 one it replaced, despite the extra triple.
        assert_eq!(section_tags(&gen8), ["DICT", "FROZ"]);
        let v2 = support::fixture_bytes(f.0);
        if f.2 == support::RAW {
            assert!(gen8.len() < v2.len(), "{}: {} !< {}", f.0, gen8.len(), v2.len());
        }
    }
}

/// The file positions of the zero padding before every packed column of
/// a v6 to v12 `FROZ` section: from the end of the column's width field to
/// its 8-byte-aligned words, or from the end of the field before it for
/// a column whose width the counts give (v12: a rank directory, an
/// arena's run ends). A width field follows the header keys (offsets; v9:
/// the header keys' columns), the vector count (vector keys), the vector
/// keys (list references), an arena's counts (list slots, v7 on) or its
/// slots (its overflow column, v8 to v11; its run ends, then its run ids,
/// v12); in an Elias–Fano column the base column, the bit-offset column
/// and the stream length (the stream), and the stream (its directory).
fn packed_padding(file: &[u8]) -> Vec<usize> {
    use hexsnap::{
        ArenaColumns, EfColumns, Headers, Ints, ListRefs, Offsets, Packed, VectorKeys, Windows,
    };
    let mut r = hexsnap::Reader::new(Cursor::new(file)).unwrap();
    let derived = r.version() >= 12;
    let columns = r.frozen_columns().unwrap();
    let (froz_at, _) = r.frozen_section_extent().unwrap();
    let packed = |ints| match ints {
        Ints::Packed(col) => col,
        Ints::U32(col) => panic!("a packed column, not {col:?}"),
    };
    let mut padding = Vec::new();
    let mut pad = |width_at: usize, col: Packed| {
        padding.extend(width_at + 4..col.offset);
        col.offset + col.bytes()
    };
    // A column whose width the counts give: the padding starts where the
    // field before it ends.
    let width_field = if derived { 0 } else { 4 };
    // A cumulative offsets column from where it starts: packed, behind its
    // width field unless the counts give it; or (v14) one Elias–Fano
    // window, its stream's length, the stream and its directory.
    let offsets =
        |pad: &mut dyn FnMut(usize, Packed) -> usize, at: usize, offs, given: bool| match offs {
            Offsets::Packed(col) if given => pad(at - 4, col),
            Offsets::Packed(col) => pad(at, col),
            Offsets::EliasFano(window) => {
                let at = pad(at + 4, window.stream);
                pad(at + width_field - 4, window.selects)
            }
        };
    let elias_fano = |pad: &mut dyn FnMut(usize, Packed) -> usize, at: usize, ef: EfColumns| {
        let at = pad(at, ef.base);
        let at = offsets(pad, at, ef.offs, false);
        let at = pad(at + 4, ef.stream);
        pad(at + width_field - 4, ef.ranks)
    };
    let mut counts_at = froz_at as usize + 8;
    for arena in columns.arenas {
        counts_at = match arena {
            ArenaColumns::Runs { slots, ends, keys, .. } => {
                let slots_end = pad(counts_at + 16, slots);
                let ends_end = offsets(&mut pad, slots_end, ends, true);
                match keys {
                    VectorKeys::Ints(keys) => pad(ends_end, packed(keys)),
                    VectorKeys::EliasFano(ef) => elias_fano(&mut pad, ends_end, ef),
                }
            }
            ArenaColumns::Slots { slots, over } => {
                let slots_end = match slots {
                    Ints::Packed(slots) => pad(counts_at + 16, slots),
                    Ints::U32(slots) => slots.offset + 4 * slots.len,
                };
                match over {
                    Ints::Packed(over) => pad(slots_end, over),
                    Ints::U32(over) => over.offset + 4 * over.len,
                }
            }
            ArenaColumns::Items { .. } => panic!("a slot arena"),
        };
    }
    for ix in columns.orderings {
        let offs = match ix.windows {
            Windows::Offsets(offs) => Offsets::Packed(packed(offs)),
            Windows::EliasFano(window) => Offsets::EliasFano(window),
            Windows::Pairs(_) => panic!("an offsets column"),
        };
        // v9: the header count and the encoding flags, then the bitmap's
        // length, the bitmap and its directory or an Elias–Fano window;
        // before: the `u32` header keys.
        let offs_at = match ix.keys {
            Headers::U32(keys) => keys.offset + 4 * keys.len,
            Headers::Bitmap { bits, ranks, .. } => {
                let ranks_at = pad(counts_at + 12, bits);
                pad(ranks_at + width_field - 4, ranks)
            }
            Headers::EliasFano { ef, .. } => elias_fano(&mut pad, counts_at + 8, ef),
        };
        let offs_end = offsets(&mut pad, offs_at, offs, false);
        // The vector count, then the keys.
        let k2_end = match ix.k2 {
            VectorKeys::Ints(k2) => pad(offs_end + 4, packed(k2)),
            VectorKeys::EliasFano(ef) => elias_fano(&mut pad, offs_end + 4, ef),
        };
        // The list references: packed, or (v13) Elias–Fano coded.
        counts_at = match ix.lists {
            None => k2_end,
            Some(ListRefs::Plain(refs) | ListRefs::Windows(VectorKeys::Ints(refs))) => {
                pad(k2_end, packed(refs))
            }
            Some(ListRefs::Windows(VectorKeys::EliasFano(ef))) => elias_fano(&mut pad, k2_end, ef),
        };
    }
    assert!(padding.iter().all(|&at| file[at] == 0));
    padding
}

/// Flips every byte of each file in turn — header, `DICT`, the arenas,
/// the widths, padding and words of the packed columns, table and
/// trailer: the eager reader rejects every flip of a padding byte, and
/// any other flip either is rejected or decodes into a store that passed
/// every check it makes (canonical packed images, sorted windows, pairs
/// that agree), which then answers every shape. The store
/// `frozen_from_columns` builds over shared bytes of the same file — as a
/// mapping's open does — is that store, by content, whatever the version.
/// A flip of a `DICT` byte is `Corrupt` or reads back a dictionary whose
/// every id decodes, the same over shared bytes. `hex_disk::open` of the
/// flipped file refuses it or opens a store whose every list reads back
/// a sorted set, and whatever store `hex_disk::open_store` maps, every
/// list of it reads without a panic. Returns how many `DICT` flips were
/// accepted and how many rejected.
fn every_byte_flip_is_rejected_or_still_decodes(files: &[Vec<u8>], version: u32) -> (usize, usize) {
    let (mut decoded, mut dict_accepted, mut dict_rejected) = (0, 0, 0);
    let path = support::temp_path(&format!("flips-v{version}"));
    for file in files {
        let reader = hexsnap::Reader::new(Cursor::new(file)).unwrap();
        assert_eq!(reader.version(), version);
        let (dict_at, dict_len) = reader.section_extent(*b"DICT").unwrap();
        let in_dict = |i: usize| (dict_at..dict_at + dict_len).contains(&(i as u64));
        let pats = {
            let frozen = hexsnap::Reader::new(Cursor::new(file)).unwrap().frozen().unwrap();
            let mut pats = vec![IdPattern::ALL];
            for t in frozen.matching(IdPattern::ALL) {
                pats.extend([IdPattern::sp(t.s, t.p), IdPattern::po(t.p, t.o), IdPattern::o(t.o)]);
                pats.extend([IdPattern::so(t.s, t.o), IdPattern::s(t.s), IdPattern::spo(t)]);
            }
            pats
        };
        let padding = packed_padding(file);
        assert!(!padding.is_empty());
        for i in 0..file.len() {
            let mut bytes = file.clone();
            bytes[i] ^= 0xFF;
            let Ok(mut r) = hexsnap::Reader::new(Cursor::new(&bytes)) else { continue };
            match r.dictionary() {
                Ok(dict) => {
                    assert_eq!(dict.iter().count(), dict.len(), "flip at {i}: an id lost");
                    let shared = shared_dictionary(bytes.clone()).expect("the same checks");
                    assert_eq!(shared.terms(), dict.terms(), "flip at {i}");
                    dict_accepted += usize::from(in_dict(i));
                }
                Err(e) => {
                    assert!(matches!(e, hexsnap::Error::Corrupt(_)), "flip at {i}: {e}");
                    assert!(shared_dictionary(bytes.clone()).is_err(), "flip at {i}");
                    dict_rejected += usize::from(in_dict(i));
                }
            }
            std::fs::write(&path, &bytes).unwrap();
            if let Ok((_, mapped)) = hex_disk::open(&path) {
                assert!(every_list_is_a_sorted_set(&mapped), "flip at {i}: hex_disk::open");
            }
            if let Ok(unverified) = hex_disk::open_store(&path) {
                every_list_is_a_sorted_set(&unverified);
            }
            match r.frozen() {
                Ok(store) => {
                    assert!(!padding.contains(&i), "a flipped padding byte at {i} decodes");
                    decoded += 1;
                    for &pat in &pats {
                        assert_eq!(store.count_matching(pat), store.iter_matching(pat).count());
                    }
                    assert!(every_list_is_a_sorted_set(&store), "flip at {i}");
                    assert_eq!(shared_store(bytes.clone()), store, "flip at {i}");
                }
                Err(e) => {
                    let corrupt = matches!(e, hexsnap::Error::Corrupt(_));
                    assert!(corrupt || !padding.contains(&i), "padding at {i}: {e}");
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
    // Flips of packed words and of ids in the dictionary's arenas, among
    // others, still decode; most flips are rejected.
    assert!(decoded > 0);
    (dict_accepted, dict_rejected)
}

/// Reads every list of every ordering of `store` — decoded whole, at both
/// ends and its middle, searched and sought — and says whether each is a
/// strictly ascending run of its length. A corrupt mapped store may read
/// wrong lists, never panic.
fn every_list_is_a_sorted_set(store: &FrozenHexastore) -> bool {
    use hexastore::access::OrderedStore;
    let mut sorted = true;
    for kind in hexastore::IndexKind::ALL {
        for (_, _, list) in store.ordering(kind).scan() {
            let ids = list.to_vec();
            let ends = (list.first(), list.get(list.len() / 2), list.last());
            let probes = (list.search(Id(7)), list.contains(Id(3)), list.seek(1, Id(9)));
            let _ = std::hint::black_box((ends, probes));
            sorted &= ids.len() == list.len() && ids.windows(2).all(|w| w[0] < w[1]);
        }
    }
    sorted
}

/// The dictionary `dictionary_from_columns` builds of `file`'s `DICT`
/// section with every column a window of the file's bytes, as a
/// mapping's open does.
fn shared_dictionary(file: Vec<u8>) -> hexsnap::Result<Dictionary> {
    let mut r = hexsnap::Reader::new(Cursor::new(&file)).unwrap();
    let (front, columns) = r.dict_columns()?;
    let file: SharedBytes = Arc::new(file.clone());
    let windows = |at| Ok(Bytes::shared(SharedBytes::clone(&file), at).expect("inside the file"));
    hexsnap::dictionary_from_columns(front, columns, windows)
}

/// The store `frozen_from_columns` builds of `file`'s `FROZ` section with
/// every column a window of the file's bytes.
fn shared_store(file: Vec<u8>) -> FrozenHexastore {
    let columns = hexsnap::Reader::new(Cursor::new(&file)).unwrap().frozen_columns().unwrap();
    let file: SharedBytes = Arc::new(file);
    let windows = |at| Ok(Bytes::shared(SharedBytes::clone(&file), at).expect("inside the file"));
    hexsnap::frozen_from_columns(&columns, windows).unwrap()
}

/// A graph whose arenas hold singleton and longer lists alike, saved by
/// this build.
fn mixed_list_file() -> Vec<u8> {
    file_of(&graph_from(&[(0, 0, 0), (0, 0, 3), (1, 1, 2), (2, 0, 5), (2, 1, 5), (3, 2, 0)]))
}

/// 120 subjects of one property, each with its own object, and a few
/// triples of two others, saved by this build: the long pso and pos
/// windows are Elias–Fano coded.
fn elias_fano_file() -> Vec<u8> {
    let picks: Vec<(u32, u32, u32)> =
        (0..120).map(|i| (i, 0, i)).chain([(0, 1, 3), (5, 2, 7), (9, 1, 1)]).collect();
    file_of(&graph_from(&picks))
}

/// 120 subjects of one property and one object, and a few other triples,
/// saved by this build: the subject list of that property and object is
/// a dense run of 120 ids, whose arena's run ids are Elias–Fano coded.
fn elias_fano_arena_file() -> Vec<u8> {
    let picks: Vec<(u32, u32, u32)> =
        (0..120).map(|i| (i, 0, 0)).chain([(0, 1, 3), (5, 2, 7), (9, 1, 1)]).collect();
    file_of(&graph_from(&picks))
}

/// Triples over terms of every kind, bulk loaded and saved by this build:
/// the dictionary is a frozen tier of 50 keys, seven blocks, with runs of
/// shared prefixes.
fn bulk_file() -> Vec<u8> {
    let triples: Vec<Triple> = (0..40)
        .map(|i| {
            let s = Term::iri(format!("http://x/s{}", i % 7));
            Triple::new(s, Term::iri(format!("http://x/p{}", i % 3)), term(i))
        })
        .collect();
    let mut dict = Dictionary::new();
    let ids = dict.encode_triples_parallel(&triples, 1);
    assert_eq!(dict.frozen_len(), 50);
    let mut w = hexsnap::Writer::new(Cursor::new(Vec::new())).unwrap();
    w.dictionary(&dict).unwrap();
    w.frozen(&hexastore::bulk::build_frozen(ids)).unwrap();
    w.finish().unwrap().into_inner()
}

/// `g` saved by this build: its dictionary and raw slabs.
fn file_of(g: &GraphStore) -> Vec<u8> {
    let mut w = hexsnap::Writer::new(Cursor::new(Vec::new())).unwrap();
    w.dictionary(g.dict()).unwrap();
    w.frozen(&g.store().freeze()).unwrap();
    w.finish().unwrap().into_inner()
}

#[test]
fn a_primary_vector_count_other_than_its_arena_list_count_is_refused() {
    // pos is a primary: its leaf `i` is its arena's list `i`, so its vector
    // count must be that arena's list count. Its keys are Elias–Fano coded,
    // so no column's length hangs on the count: only the count fields can
    // refuse it, for the mapping's open as for the eager read.
    use hexsnap::{Ints, VectorKeys, Windows};
    let file = elias_fano_file();
    let pos =
        hexsnap::Reader::new(Cursor::new(&file)).unwrap().frozen_columns().unwrap().orderings[3];
    assert!(pos.lists.is_none() && matches!(pos.k2, VectorKeys::EliasFano(_)));
    // The count is the word after the offsets column.
    let Windows::Offsets(Ints::Packed(offs)) = pos.windows else { panic!("packed offsets") };
    let at = offs.offset + offs.bytes();
    assert_eq!(file[at..at + 4], 123u32.to_le_bytes());
    let mut bytes = file.clone();
    bytes[at..at + 4].copy_from_slice(&59u32.to_le_bytes());
    let path = support::temp_path("primary-vector-count");
    std::fs::write(&path, &bytes).unwrap();
    let why = "a primary ordering's vector count is not its arena's list count";
    match hexsnap::load_frozen(&path) {
        Err(hexsnap::Error::Corrupt(got)) => assert_eq!(got, why),
        other => panic!("load_frozen: {:?}", other.map(|_| ())),
    }
    for opened in [hex_disk::open(&path).map(|_| ()), hex_disk::open_store(&path).map(|_| ())] {
        assert!(matches!(&opened, Err(hex_disk::Error::Corrupt(got)) if got == why), "{opened:?}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_byte_flip_of_a_v6_file_is_rejected_or_still_decodes() {
    every_byte_flip_is_rejected_or_still_decodes(&[support::fixture_bytes("v6_small")], 6);
}

#[test]
fn every_byte_flip_of_a_v7_file_is_rejected_or_still_decodes() {
    every_byte_flip_is_rejected_or_still_decodes(&[support::fixture_bytes("v7_small")], 7);
}

#[test]
fn every_byte_flip_of_a_v8_file_is_rejected_or_still_decodes() {
    let file = support::fixture_bytes("v8_small");
    // The padding before each arena's overflow column is among the bytes
    // whose every flip is refused.
    let mut r = hexsnap::Reader::new(Cursor::new(&file)).unwrap();
    let columns = r.frozen_columns().unwrap();
    let overflow_padding = columns.arenas.iter().any(|arena| {
        let hexsnap::ArenaColumns::Slots { over: hexsnap::Ints::Packed(over), .. } = arena else {
            panic!("a v8 arena's overflow column is packed")
        };
        packed_padding(&file).contains(&(over.offset - 1))
    });
    assert!(overflow_padding, "an overflow column behind padding");
    every_byte_flip_is_rejected_or_still_decodes(&[file], 8);
}

#[test]
fn every_byte_flip_of_a_v9_file_is_rejected_or_still_decodes() {
    every_byte_flip_is_rejected_or_still_decodes(&[support::fixture_bytes("v9_small")], 9);
}

#[test]
fn every_byte_flip_of_a_v10_file_is_rejected_or_still_decodes() {
    let files = [support::fixture_bytes("v10_small")];
    every_byte_flip_is_rejected_or_still_decodes(&files, 10);
    dict_padding_flips_are_refused(&files);
}

#[test]
fn every_byte_flip_of_a_v11_file_is_rejected_or_still_decodes() {
    // The committed files: a delta-only dictionary and a frozen one.
    let files = [support::fixture_bytes("v11_small"), support::fixture_bytes("v11_bulk")];
    let (accepted, rejected) = every_byte_flip_is_rejected_or_still_decodes(&files, 11);
    eprintln!("v11 DICT byte flips: {accepted} accepted, {rejected} rejected");
    // A flip that leaves the keys ascending and their text UTF-8 reads
    // back; the rest are refused.
    assert!(rejected > 2 * accepted, "{accepted} accepted, {rejected} rejected");
    dict_padding_flips_are_refused(&files);
}

#[test]
fn every_byte_flip_of_a_v12_file_is_rejected_or_still_decodes() {
    // The committed files: a delta-only dictionary and a frozen one.
    let files = [support::fixture_bytes("v12_small"), support::fixture_bytes("v12_bulk")];
    let (accepted, rejected) = every_byte_flip_is_rejected_or_still_decodes(&files, 12);
    eprintln!("v12 DICT byte flips: {accepted} accepted, {rejected} rejected");
    assert!(rejected > 2 * accepted, "{accepted} accepted, {rejected} rejected");
    dict_padding_flips_are_refused(&files);
}

#[test]
fn every_byte_flip_of_a_v13_file_is_rejected_or_still_decodes() {
    // The committed files: a delta-only dictionary, a frozen one, and a
    // graph whose pso and osp references are Elias–Fano coded.
    let files = [
        support::fixture_bytes("v13_small"),
        support::fixture_bytes("v13_bulk"),
        support::fixture_bytes("v13_coded_refs"),
    ];
    assert!(has_coded_refs(&files[2]), "some mirror's references are Elias–Fano coded");
    let (accepted, rejected) = every_byte_flip_is_rejected_or_still_decodes(&files, 13);
    eprintln!("v13 DICT byte flips: {accepted} accepted, {rejected} rejected");
    assert!(rejected > 2 * accepted, "{accepted} accepted, {rejected} rejected");
    dict_padding_flips_are_refused(&files);
}

#[test]
fn every_byte_flip_of_a_v14_file_is_rejected_or_still_decodes() {
    // The committed files — a delta-only dictionary, a frozen one, a graph
    // whose pso and osp references are Elias–Fano coded and one whose
    // offsets, bit offsets and run ends are coded too — a graph of
    // singleton and longer lists, one whose property windows are long
    // enough to be Elias–Fano coded, vector keys and references alike,
    // one whose subject lists are Elias–Fano coded, and a bulk load of
    // every kind of term whose frozen tier spans seven blocks.
    let files = [
        support::fixture_bytes("v14_small"),
        support::fixture_bytes("v14_bulk"),
        support::fixture_bytes("v14_coded_refs"),
        support::fixture_bytes("v14_coded_offsets"),
        mixed_list_file(),
        elias_fano_file(),
        elias_fano_arena_file(),
        bulk_file(),
    ];
    let columns =
        |file: &[u8]| hexsnap::Reader::new(Cursor::new(file)).unwrap().frozen_columns().unwrap();
    let coded = columns(&files[5])
        .orderings
        .iter()
        .any(|ix| matches!(ix.k2, hexsnap::VectorKeys::EliasFano(_)));
    assert!(coded, "some ordering's vector keys are Elias–Fano coded");
    let coded = columns(&files[6]).arenas.iter().any(|arena| {
        matches!(arena, hexsnap::ArenaColumns::Runs { keys: hexsnap::VectorKeys::EliasFano(_), .. })
    });
    assert!(coded, "some arena's run ids are Elias–Fano coded");
    for file in [&files[2], &files[5]] {
        assert!(has_coded_refs(file), "some mirror's references are Elias–Fano coded");
    }
    assert!(!coded_offsets(&files[3]).is_empty(), "some offsets are one Elias–Fano window");
    let (accepted, rejected) = every_byte_flip_is_rejected_or_still_decodes(&files, 14);
    eprintln!("v14 DICT byte flips: {accepted} accepted, {rejected} rejected");
    assert!(rejected > 2 * accepted, "{accepted} accepted, {rejected} rejected");
    dict_padding_flips_are_refused(&files);
}

/// Every cumulative offsets column of a v14 file that is one Elias–Fano
/// window — an ordering's offsets, an arena's run ends, an Elias–Fano
/// column's bit offsets — as the packed columns it lies in: the stream
/// and its rank directory.
fn coded_offsets(file: &[u8]) -> Vec<[hexsnap::Packed; 2]> {
    use hexsnap::{ArenaColumns, Headers, ListRefs, Offsets, VectorKeys, Windows};
    let columns = hexsnap::Reader::new(Cursor::new(file)).unwrap().frozen_columns().unwrap();
    let mut offsets = Vec::new();
    let ef = |keys: VectorKeys| match keys {
        VectorKeys::EliasFano(ef) => Some(ef.offs),
        VectorKeys::Ints(_) => None,
    };
    for arena in columns.arenas {
        let ArenaColumns::Runs { ends, keys, .. } = arena else { panic!("a v12 arena") };
        offsets.extend([Some(ends), ef(keys)].into_iter().flatten());
    }
    for ix in columns.orderings {
        if let Windows::EliasFano(window) = ix.windows {
            offsets.push(Offsets::EliasFano(window));
        }
        if let Headers::EliasFano { ef, .. } = ix.keys {
            offsets.push(ef.offs);
        }
        offsets.extend(ef(ix.k2));
        if let Some(ListRefs::Windows(refs)) = ix.lists {
            offsets.extend(ef(refs));
        }
    }
    offsets
        .into_iter()
        .filter_map(|offs| match offs {
            Offsets::EliasFano(window) => Some([window.stream, window.selects]),
            Offsets::Packed(_) => None,
        })
        .collect()
}

#[test]
fn every_flipped_byte_of_an_offsets_column_is_corrupt_and_safe_to_map() {
    // An offsets column coded as one Elias–Fano window: a flip of any
    // byte of its stream or rank directory makes a store whose offsets
    // are not the canonical window of their values, or do not tile the
    // column they cut, or cut it into windows that disagree with the
    // other ordering of the pair or the other arenas, so the eager reader
    // refuses it as `Corrupt`; the unverified mapping opens it and reads
    // every window, of whatever (possibly wrong) content, without a panic.
    let path = support::temp_path("offsets-flips");
    let mut flipped = 0;
    for file in [file_of(&support::coded_offsets_graph()), elias_fano_file()] {
        let columns = coded_offsets(&file);
        assert!(!columns.is_empty());
        let pats = {
            let frozen = hexsnap::Reader::new(Cursor::new(&file)).unwrap().frozen().unwrap();
            let mut pats = vec![IdPattern::ALL];
            for t in frozen.matching(IdPattern::ALL).into_iter().step_by(7) {
                pats.extend([IdPattern::sp(t.s, t.p), IdPattern::po(t.p, t.o), IdPattern::o(t.o)]);
                pats.extend([IdPattern::so(t.s, t.o), IdPattern::s(t.s), IdPattern::p(t.p)]);
            }
            pats
        };
        for at in columns.iter().flatten().flat_map(|col| col.offset..col.offset + col.bytes()) {
            let mut bytes = file.clone();
            bytes[at] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            match hexsnap::load_frozen(&path) {
                Err(hexsnap::Error::Corrupt(_)) => {}
                other => panic!("flip at {at}: {:?}", other.map(|_| ())),
            }
            let mapped = hex_disk::open_store(&path).expect("offsets are not read at open");
            every_list_is_a_sorted_set(&mapped);
            for &pat in &pats {
                let _ = (mapped.count_matching(pat), mapped.iter_matching(pat).count());
            }
            flipped += 1;
        }
    }
    assert!(flipped > 0);
    std::fs::remove_file(&path).ok();
}

/// True when some mirror of a v13 or later file codes its list
/// references as Elias–Fano windows.
fn has_coded_refs(file: &[u8]) -> bool {
    use hexsnap::{ListRefs, VectorKeys};
    let columns = hexsnap::Reader::new(Cursor::new(file)).unwrap().frozen_columns().unwrap();
    let coded = |ix: &hexsnap::OrderingColumns| {
        matches!(ix.lists, Some(ListRefs::Windows(VectorKeys::EliasFano(_))))
    };
    columns.orderings.iter().any(coded)
}

#[test]
fn every_flipped_byte_of_a_reference_column_is_corrupt_and_safe_to_map() {
    // A mirror's references, packed or Elias–Fano coded: a flip of any
    // byte of the column makes a store whose references are not the
    // canonical column of their windows, or disagree with the primary's
    // leaves, or point past the arena, so the eager reader refuses it as
    // `Corrupt`; the unverified mapping opens it and reads every list, of
    // whatever (possibly wrong) content, without a panic. (A v13 file's
    // mapping rebuilds the key columns its writer left packed where this
    // build codes them, and may refuse the flip as `Corrupt` at open.)
    use hexsnap::{ListRefs, VectorKeys};
    let path = support::temp_path("reference-flips");
    let (mut packed_bytes, mut coded_bytes) = (0, 0);
    for file in [support::fixture_bytes("v13_coded_refs"), elias_fano_file(), mixed_list_file()] {
        let mut reader = hexsnap::Reader::new(Cursor::new(&file)).unwrap();
        let rebuilt = reader.version() < 14;
        let columns = reader.frozen_columns().unwrap();
        let mut bytes_of_refs = Vec::new();
        for ix in columns.orderings {
            match ix.lists {
                Some(ListRefs::Windows(VectorKeys::Ints(hexsnap::Ints::Packed(refs)))) => {
                    packed_bytes += refs.bytes();
                    bytes_of_refs.push(refs.offset..refs.offset + refs.bytes());
                }
                Some(ListRefs::Windows(VectorKeys::EliasFano(ef))) => {
                    let mut parts = vec![ef.base, ef.stream, ef.ranks];
                    parts.extend(offsets_parts(ef.offs));
                    coded_bytes += parts.iter().map(|p| p.bytes()).sum::<usize>();
                    bytes_of_refs.extend(parts.iter().map(|p| p.offset..p.offset + p.bytes()));
                }
                None => {}
                other => panic!("v13 references: {other:?}"),
            }
        }
        for at in bytes_of_refs.into_iter().flatten() {
            let mut bytes = file.clone();
            bytes[at] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            match hexsnap::load_frozen(&path) {
                Err(hexsnap::Error::Corrupt(_)) => {}
                other => panic!("flip at {at}: {:?}", other.map(|_| ())),
            }
            match hex_disk::open_store(&path) {
                Ok(mapped) => {
                    every_list_is_a_sorted_set(&mapped);
                    let _ = mapped.iter_matching(IdPattern::ALL).count();
                }
                Err(e) => {
                    let corrupt = matches!(e, hex_disk::Error::Corrupt(_));
                    assert!(rebuilt && corrupt, "flip at {at}: references are not read at open");
                }
            }
        }
    }
    assert!(packed_bytes > 0 && coded_bytes > 0, "{packed_bytes} {coded_bytes}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn each_corrupt_v13_reference_column_is_refused_by_name() {
    // References that do not ascend within a window (packed), a window
    // whose `l` field changed (Elias–Fano coded), and the flag of coded
    // references on a primary, which keeps none, are each refused with
    // their own error by the eager reader; the coded one maps, and every
    // list of it reads without a panic.
    use hexsnap::{Ints, ListRefs, VectorKeys};
    let path = support::temp_path("corrupt-v13-references");
    let refused = |bytes: &[u8], why: &str| {
        std::fs::write(&path, bytes).unwrap();
        match hexsnap::load_frozen(&path) {
            Err(hexsnap::Error::Corrupt(got)) => assert!(got.contains(why), "{why}: {got}"),
            other => panic!("{why}: {:?}", other.map(|_| ())),
        }
    };
    // pso's references are coded (its first window holds property 0's 120
    // subjects), osp's packed.
    let file = elias_fano_file();
    let columns = hexsnap::Reader::new(Cursor::new(&file)).unwrap().frozen_columns().unwrap();
    let Some(ListRefs::Windows(VectorKeys::EliasFano(pso))) = columns.orderings[2].lists else {
        panic!("pso's references are coded")
    };
    let l = value(&file, pso.stream, 0);
    assert_eq!(value(&file, pso.offs.packed().expect("three windows' bit offsets"), 0), 0);
    let bytes = with_value(&file, pso.stream, 0, l ^ 1);
    refused(&bytes, "ordering list references");
    std::fs::write(&path, &bytes).unwrap();
    every_list_is_a_sorted_set(&hex_disk::open_store(&path).unwrap());
    let Some(ListRefs::Windows(VectorKeys::Ints(Ints::Packed(osp)))) = columns.orderings[4].lists
    else {
        panic!("osp's references are packed")
    };
    // Two references of one window swapped: osp's windows, one an object,
    // are cut by offsets the loaded store decodes, one Elias–Fano window.
    let loaded = hexsnap::Reader::new(Cursor::new(&file)).unwrap().frozen().unwrap();
    let cuts = hexastore::access::OrderedStore::ordering(&loaded, hexastore::IndexKind::Osp);
    assert!(cuts.index.offs.is_elias_fano());
    let offs: Vec<u32> = cuts.index.offs.values().collect();
    let i = offs.windows(2).find(|w| w[1] - w[0] >= 2).expect("a window of two")[0] as usize;
    let (a, b) = (value(&file, osp, i), value(&file, osp, i + 1));
    let swapped = with_value(&with_value(&file, osp, i, b), osp, i + 1, a);
    refused(&swapped, "ordering list references: window");
    // The flags word of spo, a primary, claiming coded references: spo's
    // header count follows the last arena's run ids, its flags the count.
    let hexsnap::ArenaColumns::Runs { keys, .. } = columns.arenas[2] else { panic!("v12 on") };
    let arenas_end = match keys {
        VectorKeys::Ints(Ints::Packed(keys)) => keys.offset + keys.bytes(),
        VectorKeys::EliasFano(ef) => ef.ranks.offset + ef.ranks.bytes(),
        VectorKeys::Ints(Ints::U32(_)) => panic!("packed run ids"),
    };
    let mut flagged = file.clone();
    flagged[arenas_end + 4] |= 4;
    refused(&flagged, "unknown ordering encoding flags");
    std::fs::remove_file(&path).ok();
}

/// The packed columns a cumulative offsets column lies in: itself, or
/// (v14) its window's stream and select directory.
fn offsets_parts(offs: hexsnap::Offsets) -> Vec<hexsnap::Packed> {
    match offs {
        hexsnap::Offsets::Packed(col) => vec![col],
        hexsnap::Offsets::EliasFano(window) => vec![window.stream, window.selects],
    }
}

/// Value `i` of the packed column `col` in `file`.
fn value(file: &[u8], col: hexsnap::Packed, i: usize) -> u32 {
    let w = col.width as usize;
    (0..w).fold(0, |v, b| {
        let bit = i * w + b;
        v | (u32::from(file[col.offset + bit / 8] >> (bit % 8) & 1) << b)
    })
}

/// `file` with value `i` of the packed column `col` set to `v`.
fn with_value(file: &[u8], col: hexsnap::Packed, i: usize, v: u32) -> Vec<u8> {
    let mut bytes = file.to_vec();
    for b in 0..col.width as usize {
        let bit = i * col.width as usize + b;
        let (at, mask) = (col.offset + bit / 8, 1u8 << (bit % 8));
        bytes[at] = if v >> b & 1 == 1 { bytes[at] | mask } else { bytes[at] & !mask };
    }
    bytes
}

#[test]
fn each_corrupt_v12_arena_is_refused_by_name() {
    // Run ends that do not tile the key column, a flagged slot that names
    // another run than the next, and a key column that is not the
    // canonical one of its runs — packed or Elias–Fano coded — are each
    // refused with their own error by the eager reader and by
    // `hex_disk::open`, whose mapping `verify` checks the arenas.
    use hexsnap::{ArenaColumns, VectorKeys};
    let path = support::temp_path("corrupt-v12-arena");
    let refused = |bytes: Vec<u8>, why: &str| {
        std::fs::write(&path, &bytes).unwrap();
        match hexsnap::load_frozen(&path) {
            Err(hexsnap::Error::Corrupt(got)) => assert!(got.contains(why), "{why}: {got}"),
            other => panic!("{why}: {:?}", other.map(|_| ())),
        }
        match hex_disk::open(&path) {
            Err(hex_disk::Error::Corrupt(got)) => assert!(got.contains(why), "{why}: {got}"),
            other => panic!("{why}: {:?}", other.map(|_| ())),
        }
    };
    for file in [mixed_list_file(), elias_fano_arena_file()] {
        let columns = hexsnap::Reader::new(Cursor::new(&file)).unwrap().frozen_columns().unwrap();
        let mut coded = false;
        for arena in columns.arenas {
            let ArenaColumns::Runs { slots, ends, keys, .. } = arena else { panic!("v12") };
            let ends = ends.packed().expect("a few runs' ends, packed");
            if ends.len < 2 {
                continue;
            }
            // Run ends that start past the first id.
            refused(with_value(&file, ends, 0, 1), "run ends do not tile");
            // The first flagged slot naming the second run.
            let flag = 1 << (slots.width - 1);
            let first = (0..slots.len).find(|&i| value(&file, slots, i) & flag != 0).unwrap();
            refused(with_value(&file, slots, first, flag | 1), "names run 1, not the next run");
            // The first run's first two ids swapped (packed), or the
            // first window's `l` field changed (Elias–Fano coded).
            match keys {
                VectorKeys::Ints(hexsnap::Ints::Packed(keys)) => {
                    let (a, b) = (value(&file, keys, 0), value(&file, keys, 1));
                    let swapped = with_value(&with_value(&file, keys, 0, b), keys, 1, a);
                    refused(swapped, "arena key column: run keys: window 0 does not ascend");
                }
                VectorKeys::EliasFano(ef) => {
                    coded = true;
                    let l = value(&file, ef.stream, 0);
                    let offs = ef.offs.packed().expect("a few runs' bit offsets, packed");
                    let start = value(&file, offs, 0) as usize;
                    assert_eq!(start, 0);
                    let bytes = with_value(&file, ef.stream, 0, l ^ 1);
                    refused(bytes, "arena key column: run keys");
                }
                VectorKeys::Ints(hexsnap::Ints::U32(_)) => panic!("packed run ids"),
            }
        }
        assert_eq!(coded, file == elias_fano_arena_file());
    }
    std::fs::remove_file(&path).ok();
}

/// Every flip of the padding before a packed `DICT` column is refused by
/// the dictionary's reader.
fn dict_padding_flips_are_refused(files: &[Vec<u8>]) {
    for file in files {
        let padding = dict_padding(file);
        assert!(!padding.is_empty());
        for i in padding {
            let mut bytes = file.clone();
            bytes[i] ^= 0xFF;
            let got = hexsnap::Reader::new(Cursor::new(&bytes)).unwrap().dictionary();
            assert!(matches!(got, Err(hexsnap::Error::Corrupt(_))), "padding at {i}");
        }
    }
}

/// The file positions of the zero padding before the packed columns of
/// a v10 or v11 `DICT` section: in v11, after the block size, the frozen
/// term count and the block offsets' width, after the blocks and the
/// ids' width, and after the ids' words and the ranks' width; then after the delta term
/// count and the heads' width, after the heads' words and the ends'
/// width, and after the prefix count and the prefix ends' width.
fn dict_padding(file: &[u8]) -> Vec<usize> {
    use hexsnap::{DictColumns, Ints, Packed};
    let mut r = hexsnap::Reader::new(Cursor::new(file)).unwrap();
    let (dict_at, _) = r.section_extent(*b"DICT").unwrap();
    let (front, DictColumns::Prefixed { heads, ends, arena, prefix_ends, .. }) =
        r.dict_columns().unwrap()
    else {
        panic!("a prefixed dictionary")
    };
    let packed = |ints| match ints {
        Ints::Packed(col) => col,
        Ints::U32(col) => panic!("a packed column, not {col:?}"),
    };
    let (heads, ends, prefix_ends) = (packed(heads), packed(ends), packed(prefix_ends));
    let mut padding = Vec::new();
    let mut pad = |width_at: usize, col: Packed| padding.extend(width_at + 4..col.offset);
    let delta_at = match front {
        Some(front) => {
            pad(dict_at as usize + 8, front.offsets);
            pad(front.bytes.offset + front.bytes.len, front.ids);
            pad(front.ids.offset + front.ids.bytes(), front.ranks);
            front.ranks.offset + front.ranks.bytes()
        }
        None => dict_at as usize,
    };
    pad(delta_at + 4, heads);
    pad(heads.offset + heads.bytes(), ends);
    pad(arena.offset + arena.len + 4, prefix_ends);
    assert!(padding.iter().all(|&at| file[at] == 0));
    padding
}
