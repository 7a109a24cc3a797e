//! Oracle tests: the store [`hex_disk::open`] maps must equal, column by
//! column, the fully-validated [`FrozenHexastore`] the eager reader makes
//! of the same file — one type, so one read path answers both, which
//! `tests/read_path_contract.rs` walks over the mapped store for every
//! access shape — and [`hex_disk::open`] must refuse files it cannot map
//! rather than misread them.

use hex_dict::IdTriple;
use hexastore::hexsnap::{self, Compression};
use hexastore::{GraphStore, IdPattern, TripleStore};
use proptest::prelude::*;
use rdf_model::{Term, Triple};
use std::path::PathBuf;

fn term(i: u32) -> Term {
    match i % 4 {
        0 => Term::iri(format!("http://x/r{i}")),
        1 => Term::literal(format!("plain {i}")),
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

fn temp_path(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("hexdisk-{tag}-{}-{n}.hexsnap", std::process::id()))
}

/// Every pattern shape the store can be asked, seeded from its triples.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The mapped store is, by content, the store the eager reader makes
    /// of the same file, and that is the in-memory store it was saved
    /// from: every column equal, so every read answers alike.
    #[test]
    fn mmap_store_matches_frozen_oracle(
        picks in proptest::collection::vec((0u32..9, 0u32..5, 0u32..9), 0..60),
    ) {
        let g = graph_from(&picks);
        let oracle = g.store().freeze();
        let path = temp_path("oracle");
        hexsnap::save_frozen(&path, g.dict(), &oracle).unwrap();

        let (dict, mapped) = hex_disk::open(&path).unwrap();
        prop_assert_eq!(dict.len(), g.dict().len());
        let (_, eager) = hexsnap::load_frozen(&path).unwrap();
        prop_assert_eq!(&mapped, &eager);
        prop_assert_eq!(&eager, &oracle);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn mmap_store_serves_sorted_lists_and_merge_plans() {
    // Star data: evens carry p1→r4, multiples of 3 carry p2→r8, all fan
    // out via p3. Saved, reopened via mmap, and queried both ways.
    let mut picks = Vec::new();
    for s in 0..30u32 {
        if s % 2 == 0 {
            picks.push((s, 1, 4));
        }
        if s % 3 == 0 {
            picks.push((s, 2, 8));
        }
        picks.push((s, 3, 12 + s % 4));
    }
    let g = graph_from(&picks);
    let oracle = g.store().freeze();
    let path = temp_path("merge");
    hexsnap::save_frozen(&path, g.dict(), &oracle).unwrap();
    let (dict, mapped) = hex_disk::open(&path).unwrap();

    // Zero-copy capability: terminal lists come back as the oracle's.
    let sla = mapped.sorted_lists().expect("mmap store serves sorted lists");
    let oracle_sla = oracle.sorted_lists().unwrap();
    for pat in all_patterns(&oracle) {
        assert_eq!(sla.sorted_list(pat), oracle_sla.sorted_list(pat), "{pat:?}");
        if let Some(list) = sla.sorted_list(pat) {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "strictly ascending {pat:?}");
        }
    }

    // A star query compiles a merge group against the mapped store and
    // answers byte-identically to the forced-nested walk.
    let query = "SELECT ?s ?x WHERE { \
        ?s <http://x/p1> <http://x/r4> . \
        ?s <http://x/p2> <http://x/r8> . \
        ?s <http://x/p3> ?x . }";
    let plan = hex_query::prepare_on(&mapped, &dict, query).unwrap();
    assert!(plan.explain().contains("join=merge"), "{}", plan.explain());
    let mut nested = hex_query::prepare_on(&mapped, &dict, query).unwrap();
    nested.force_nested_joins();
    let reference = plan.run();
    assert_eq!(reference.len(), 5, "multiples of 6 in 0..30");
    assert_eq!(reference, nested.run());
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_dataset_runs_queries_through_the_planner() {
    let g = graph_from(&[(0, 0, 0), (0, 1, 2), (3, 1, 2), (4, 2, 7), (4, 2, 1), (4, 2, 3)]);
    let oracle = g.store().freeze();
    let path = temp_path("dataset");
    hexsnap::save_frozen(&path, g.dict(), &oracle).unwrap();

    let ds = hex_disk::open_dataset(&path).unwrap();
    assert_eq!(ds.store().len(), oracle.len());
    // The Dataset wrapper resolves terms through the restored dictionary.
    for tr in oracle.matching(IdPattern::ALL) {
        assert!(ds.dict().decode(tr.s).is_some());
    }
    // Clones share the mapping: both answer after the original is dropped.
    let clone = ds.store().clone();
    drop(ds);
    assert_eq!(clone.count_matching(IdPattern::ALL), oracle.len());
    std::fs::remove_file(&path).ok();
}

#[test]
fn compressed_snapshots_are_refused_with_a_remedy() {
    let g = graph_from(&[(1, 1, 1), (2, 1, 3)]);
    let path = temp_path("compressed");
    hexsnap::save_frozen_with(&path, g.dict(), &g.store().freeze(), Compression::VarintDelta)
        .unwrap();
    // And the committed compressed files of every version that has them.
    let fixtures =
        ["v2_small_frzc", "v3_small_frzc", "v4_small_frzc", "v5_small_frzc", "v6_small_frzc"]
            .into_iter()
            .chain(["v7_small_frzc", "v8_small_frzc", "v9_small_frzc", "v10_small_frzc"])
            .map(committed_fixture)
            .collect::<Vec<_>>();
    for path in std::iter::once(&path).chain(&fixtures) {
        let err = hex_disk::open(path).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, hex_disk::Error::Unmappable(_)), "{}: {msg}", path.display());
        assert!(msg.contains("compressed"), "{}: {msg}", path.display());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshots_without_slabs_are_refused() {
    let g = graph_from(&[(1, 1, 1)]);
    let path = temp_path("noslab");
    hexsnap::save(&path, g.dict(), g.store()).unwrap();

    let err = hex_disk::open(&path).unwrap_err();
    assert!(matches!(err, hex_disk::Error::Unmappable(_)), "{err}");
    std::fs::remove_file(&path).ok();
}

fn assert_refused_by_version(path: &std::path::Path, version: u32) {
    let err = hex_disk::open(path).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, hex_disk::Error::Unmappable(_)), "{msg}");
    assert!(msg.contains(&format!("version-{version}")), "{msg}");
    assert!(msg.contains("load_frozen") && msg.contains("save_frozen"), "{msg}");
    assert!(matches!(hex_disk::open_store(path), Err(hex_disk::Error::Unmappable(_))));
}

/// A committed file from the last build of its version (see hexastore's
/// `tests/support/mod.rs`), by name: `v{1,…,10}_small`, `_frzc` when its
/// slabs are compressed.
fn committed_fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../core/tests/data/{name}.hexsnap"))
}

/// The committed raw file of an older `version` is refused by version,
/// and the upgrade path the refusal names works on a copy of it.
fn assert_fixture_is_refused_with_the_upgrade_path(version: u32) {
    let fixture = committed_fixture(&format!("v{version}_small"));
    assert_refused_by_version(&fixture, version);
    let (dict, store) = hexsnap::load_frozen(&fixture).unwrap();
    let path = temp_path(&format!("upgraded-v{version}"));
    hexsnap::save_frozen(&path, &dict, &store).unwrap();
    assert_eq!(hex_disk::open(&path).unwrap().1, store);
    std::fs::remove_file(&path).ok();
}

/// The committed v6 file with its version word set to `version` is
/// refused as a version-`version` file: the opener refuses by version
/// before it walks a section, whose v6 columns an older version's walk
/// would misread — v1's unaligned ones included.
fn assert_v6_relabelled_is_refused_by_version(version: u32) {
    let mut bytes = std::fs::read(committed_fixture("v6_small")).unwrap();
    bytes[8..12].copy_from_slice(&version.to_le_bytes());
    let path = temp_path(&format!("relabelled-v{version}"));
    std::fs::write(&path, &bytes).unwrap();
    assert_refused_by_version(&path, version);
    std::fs::remove_file(&path).ok();
}

#[test]
fn pre_v3_files_are_refused_by_version_with_the_upgrade_path() {
    // Before v3 the slab columns are (offset, length) pairs plus list
    // references for every ordering — not what the read path walks — and
    // a v1 writer did not even align the section.
    assert_fixture_is_refused_with_the_upgrade_path(1);
    for version in [1, 2] {
        assert_v6_relabelled_is_refused_by_version(version);
    }
}

#[test]
fn the_committed_v2_fixture_is_refused_with_the_upgrade_path() {
    // Aligned, uncompressed — and still not the column layout to map.
    assert_fixture_is_refused_with_the_upgrade_path(2);
}

#[test]
fn v3_files_and_the_committed_v3_fixture_are_refused_with_the_upgrade_path() {
    // A v3 file is aligned and stores nothing derivable, but addresses its
    // terminal lists through an offsets column the read path no longer has.
    assert_v6_relabelled_is_refused_by_version(3);
    assert_fixture_is_refused_with_the_upgrade_path(3);
}

#[test]
fn v4_files_are_refused_for_their_dictionary_layout_with_the_upgrade_path() {
    // A v4 file's slab columns are v5's; its dictionary stores whole terms
    // where the mapped dictionary adopts prefix-shared columns.
    assert_v6_relabelled_is_refused_by_version(4);
    assert_fixture_is_refused_with_the_upgrade_path(4);
    let msg = hex_disk::open(committed_fixture("v4_small")).unwrap_err().to_string();
    assert!(msg.contains("dictionary layout") && !msg.contains("slab"), "{msg}");
}

#[test]
fn v5_files_are_refused_for_their_index_level_layout_with_the_upgrade_path() {
    // A v5 file's dictionary and arenas are v6's; its offsets, vector keys
    // and list references are whole `u32`s where the mapped index levels
    // are bit-packed.
    assert_v6_relabelled_is_refused_by_version(5);
    assert_fixture_is_refused_with_the_upgrade_path(5);
    let msg = hex_disk::open(committed_fixture("v5_small")).unwrap_err().to_string();
    assert!(msg.contains("index levels") && !msg.contains("dictionary"), "{msg}");
}

#[test]
fn v6_and_v7_files_are_refused_for_their_unpacked_arena_columns_with_the_upgrade_path() {
    // A v6 file stores its list slots and a v7 file its overflow runs as
    // whole `u32`s, where the mapped arenas are bit-packed.
    for version in [6, 7] {
        assert_v6_relabelled_is_refused_by_version(version);
        assert_fixture_is_refused_with_the_upgrade_path(version);
    }
    let msg = hex_disk::open(committed_fixture("v7_small")).unwrap_err().to_string();
    assert!(msg.contains("unpacked overflow runs") && !msg.contains("list slots"), "{msg}");
}

#[test]
fn v8_files_are_refused_for_their_header_keys_with_the_upgrade_path() {
    // A v8 file's arenas and offsets are v9's; its header keys are whole
    // `u32`s where the mapped headers are a bitmap or an Elias–Fano
    // window, and its vector keys are packed without an encoding word.
    assert_v6_relabelled_is_refused_by_version(8);
    assert_fixture_is_refused_with_the_upgrade_path(8);
    let msg = hex_disk::open(committed_fixture("v8_small")).unwrap_err().to_string();
    assert!(msg.contains("u32 header keys") && !msg.contains("overflow"), "{msg}");
}

#[test]
fn v9_files_are_refused_for_their_dictionary_columns_with_the_upgrade_path() {
    // A v9 file's slab sections are v10's; its dictionary's heads and end
    // tables are whole `u32`s where the mapped dictionary reads packed
    // columns.
    assert_v6_relabelled_is_refused_by_version(9);
    assert_fixture_is_refused_with_the_upgrade_path(9);
    let msg = hex_disk::open(committed_fixture("v9_small")).unwrap_err().to_string();
    assert!(msg.contains("u32 dictionary columns") && !msg.contains("header keys"), "{msg}");
}

#[test]
fn open_keeps_the_dictionary_arena_mapped() {
    let g = graph_from(&[(0, 0, 0), (1, 1, 2), (2, 0, 5), (3, 2, 7)]);
    let path = temp_path("mapped-dict");
    hexsnap::save_frozen(&path, g.dict(), &g.store().freeze()).unwrap();

    let (mut dict, mapped) = hex_disk::open(&path).unwrap();
    assert!(dict.arena_is_shared(), "string arena must stay behind the mapping");
    // So do the packed columns: the heap holds the two reverse indexes.
    let heap = dict.heap_breakdown();
    assert_eq!(heap.total(), heap.interior + heap.term_index + heap.prefix_index, "{heap:?}");
    assert_eq!(dict.len(), g.dict().len());
    // Ids, decodes, and reverse lookups all resolve against mapped bytes.
    for (id, term) in g.dict().iter() {
        assert_eq!(dict.decode(id).as_ref(), Some(&term));
        assert_eq!(dict.id_of(&term), Some(id));
    }
    for tr in mapped.matching(IdPattern::ALL) {
        assert!(dict.decode(tr.s).is_some());
    }
    // Interning a new term copies the arena out of the map exactly once,
    // preserving every existing id.
    let next = dict.encode(&Term::iri("http://x/brand-new"));
    assert_eq!(next.index(), g.dict().len());
    assert!(!dict.arena_is_shared());
    for (id, term) in g.dict().iter() {
        assert_eq!(dict.id_of(&term), Some(id));
    }
    std::fs::remove_file(&path).ok();
}

/// All eight shapes over the store's own constants, plus every shape
/// again with an id the store never saw.
fn probe_patterns(store: &dyn TripleStore) -> Vec<IdPattern> {
    let mut pats = all_patterns(store);
    let absent = hex_dict::Id(9_999);
    pats.extend([
        IdPattern::spo(IdTriple::new(absent, absent, absent)),
        IdPattern::sp(absent, absent),
        IdPattern::so(absent, absent),
        IdPattern::po(absent, absent),
        IdPattern::s(absent),
        IdPattern::p(absent),
        IdPattern::o(absent),
    ]);
    pats
}

/// Opens the (possibly corrupt) file and, if it opens, drives every read
/// operation over every pattern to the end of the columns. Answers may be
/// wrong; a panic is a bug in the shared views' accessors. The slabs are
/// opened without `verify()`, so that what it would refuse is walked too.
fn walk_every_shape_if_it_opens(path: &std::path::Path, pats: &[IdPattern]) {
    if let Ok((dict, _)) = hex_disk::open(path) {
        for id in 0..dict.len() as u32 {
            let _ = dict.decode(hex_dict::Id(id));
        }
    }
    let Ok(mapped) = hex_disk::open_store(path) else { return };
    let _ = hex_disk::verify(&mapped);
    let sla = mapped.sorted_lists().expect("mmap store serves sorted lists");
    for &pat in pats {
        let n = mapped.iter_matching(pat).count();
        mapped.for_each_matching(pat, &mut |_| {});
        let _ = mapped.count_matching(pat);
        let _ = mapped.iter_matching_range(pat, n / 2, n).count();
        let _ = mapped.iter_matching_range(pat, 1, usize::MAX).count();
        let _ = sla.sorted_list(pat);
        let _ = sla.list(pat).map(|list| list.len());
    }
}

#[test]
fn corrupt_bytes_anywhere_never_panic_the_opener() {
    let g = mixed_list_graph();
    let path = temp_path("flip");
    hexsnap::save_frozen(&path, g.dict(), &g.store().freeze()).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let pats = probe_patterns(&hex_disk::open_store(&path).unwrap());

    // Flip every byte of the file in turn — header, DICT (counts, kinds,
    // offset table, string arena), FROZ (slots, run ends and run ids
    // included), trailer. The opener must reject
    // or answer, never panic; when it opens, the dictionary must still
    // behave (decode may miss, must not crash) and every read operation
    // must walk the (possibly corrupt) columns to the end.
    for i in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[i] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        walk_every_shape_if_it_opens(&path, &pats);
    }
    std::fs::remove_file(&path).ok();
}

/// A bit-packed column of the `FROZ` section and the file position of
/// its width field — `None` for a column whose width the counts give (a
/// rank directory, an arena's run ends).
#[derive(Clone, Copy, Debug)]
struct PackedAt {
    col: hexsnap::Packed,
    width_at: Option<usize>,
}

impl PackedAt {
    /// Bit `bit` of the column's words, as a byte position and a mask.
    fn bit(self, bit: usize) -> (usize, u8) {
        (self.col.offset + bit / 8, 1 << (bit % 8))
    }

    fn get(self, bytes: &[u8], i: usize) -> u32 {
        let w = self.col.width as usize;
        (0..w).fold(0, |v, b| {
            let (at, mask) = self.bit(i * w + b);
            v | (u32::from(bytes[at] & mask != 0) << b)
        })
    }

    /// Writes the low `width` bits of `v` as value `i`.
    fn set(self, bytes: &mut [u8], i: usize, v: u32) {
        let w = self.col.width as usize;
        for b in 0..w {
            let (at, mask) = self.bit(i * w + b);
            if v >> b & 1 == 1 {
                bytes[at] |= mask;
            } else {
                bytes[at] &= !mask;
            }
        }
    }

    /// The file positions of the column's bytes.
    fn bytes(self) -> std::ops::Range<usize> {
        self.col.offset..self.col.offset + self.col.bytes()
    }
}

/// File positions of what addresses data in the `FROZ` section, in the
/// columns [`hexsnap::Reader::frozen_columns`] locates.
struct AddressingWords {
    /// The header bitmaps of the orderings that keep one.
    header_bits: Vec<PackedAt>,
    /// Their rank directories.
    header_ranks: Vec<PackedAt>,
    /// The base, bit-offset, stream and rank columns of each ordering
    /// whose header keys are one Elias–Fano window.
    header_windows: Vec<[PackedAt; 4]>,
    /// The packed cumulative offsets columns of the orderings that keep
    /// them packed.
    offsets: Vec<PackedAt>,
    /// The stream and rank columns of each offsets column — an
    /// ordering's, or an Elias–Fano column's bit offsets — that is one
    /// Elias–Fano window.
    coded_offsets: Vec<[PackedAt; 2]>,
    /// The packed vector-key columns of the orderings that keep them
    /// packed.
    vector_keys: Vec<PackedAt>,
    /// The base, bit-offset, stream and rank columns of each ordering
    /// whose vector keys are Elias–Fano coded, with the ordering's number.
    elias_fano: Vec<(usize, [PackedAt; 4])>,
    /// The three arenas' packed slot columns.
    slots: Vec<PackedAt>,
    /// The three arenas' run-ends columns.
    run_ends: Vec<PackedAt>,
    /// The packed run-id columns of the arenas that keep them packed.
    run_keys: Vec<PackedAt>,
    /// The base, bit-offset, stream and rank columns of each arena whose
    /// run ids are Elias–Fano coded.
    run_windows: Vec<[PackedAt; 4]>,
    /// The packed list-reference columns of the mirror orderings that
    /// keep them packed.
    list_refs: Vec<PackedAt>,
    /// The base, bit-offset, stream and rank columns of each mirror
    /// ordering whose list references are Elias–Fano coded, with the
    /// ordering's number.
    ref_windows: Vec<(usize, [PackedAt; 4])>,
}

impl AddressingWords {
    /// Every packed column of the section.
    fn packed(&self) -> impl Iterator<Item = PackedAt> + '_ {
        let headers = self.header_bits.iter().chain(&self.header_ranks);
        let offsets = self.offsets.iter().chain(self.coded_offsets.iter().flatten());
        let levels = headers.chain(offsets).chain(&self.vector_keys).chain(&self.list_refs);
        let vector_keys =
            self.elias_fano.iter().chain(&self.ref_windows).map(|(_, columns)| columns);
        let ef = vector_keys.chain(&self.header_windows).chain(&self.run_windows).flatten();
        let arenas = self.slots.iter().chain(&self.run_ends).chain(&self.run_keys);
        arenas.chain(levels).chain(ef).copied()
    }
}

fn addressing_words(bytes: &[u8]) -> AddressingWords {
    use hexsnap::{ArenaColumns, Ints, VectorKeys, Windows};
    let mut reader = hexsnap::Reader::new(std::io::Cursor::new(bytes)).unwrap();
    let columns = reader.frozen_columns().unwrap();
    let (froz_at, _) = reader.frozen_section_extent().unwrap();
    let packed = |ints| match ints {
        Ints::Packed(col) => col,
        Ints::U32(_) => panic!("a v8 packed column"),
    };
    let end = |p: PackedAt| p.bytes().end;
    let mut found = AddressingWords {
        header_bits: vec![],
        header_ranks: vec![],
        header_windows: vec![],
        offsets: vec![],
        coded_offsets: vec![],
        vector_keys: vec![],
        elias_fano: vec![],
        slots: vec![],
        run_ends: vec![],
        run_keys: vec![],
        run_windows: vec![],
        list_refs: vec![],
        ref_windows: vec![],
    };
    // An Elias–Fano column from its first width field: a base column, the
    // bit offsets, the stream length, the stream and its directory, whose
    // width the stream length gives. These graphs keep every bit-offset
    // column packed.
    let ef_at = |at: usize, ef: hexsnap::EfColumns| {
        let base = PackedAt { col: ef.base, width_at: Some(at) };
        // Bit offsets packed, or (v14) one Elias–Fano window: its stream's
        // length, the stream and its directory, which is returned apart.
        let (offs, coded) = match ef.offs {
            hexsnap::Offsets::Packed(col) => (PackedAt { col, width_at: Some(end(base)) }, None),
            hexsnap::Offsets::EliasFano(window) => {
                let stream = PackedAt { col: window.stream, width_at: Some(end(base) + 4) };
                (stream, Some([stream, PackedAt { col: window.selects, width_at: None }]))
            }
        };
        let offs_end = coded.map_or(end(offs), |[_, selects]| end(selects));
        let stream = PackedAt { col: ef.stream, width_at: Some(offs_end + 4) };
        ([base, offs, stream, PackedAt { col: ef.ranks, width_at: None }], coded)
    };
    // An arena's slot width follows its list, run, run-id and flag counts,
    // the first arena's the triple count; its run ends follow its slots,
    // with no width field, and its run ids the run ends.
    let mut counts_at = froz_at as usize + 8;
    for arena in columns.arenas {
        let ArenaColumns::Runs { slots, ends, keys, .. } = arena else { panic!("a v12 arena") };
        let slots = PackedAt { col: slots, width_at: Some(counts_at + 16) };
        let ends = PackedAt { col: ends.packed().expect("packed run ends"), width_at: None };
        found.slots.push(slots);
        found.run_ends.push(ends);
        counts_at = match keys {
            VectorKeys::Ints(keys) => {
                let keys = PackedAt { col: packed(keys), width_at: Some(end(ends)) };
                found.run_keys.push(keys);
                end(keys)
            }
            VectorKeys::EliasFano(ef) => {
                let (columns, coded) = ef_at(end(ends), ef);
                found.coded_offsets.extend(coded);
                found.run_windows.push(columns);
                end(columns[3])
            }
        };
    }
    // Each width field follows what precedes it: the header keys, the
    // offsets, the vector count, then the vector keys —
    // packed, or a base column, the bit offsets, the stream length, the
    // stream and its directory.
    for (which, ix) in columns.orderings.into_iter().enumerate() {
        // The header count and the encoding flags, then the bitmap's length,
        // the bitmap and its directory, or one Elias–Fano window.
        let headers_end = match ix.keys {
            hexsnap::Headers::Bitmap { bits, ranks, .. } => {
                let bits = PackedAt { col: bits, width_at: Some(counts_at + 12) };
                let ranks = PackedAt { col: ranks, width_at: None };
                found.header_bits.push(bits);
                found.header_ranks.push(ranks);
                end(ranks)
            }
            hexsnap::Headers::EliasFano { ef, .. } => {
                let (window, coded) = ef_at(counts_at + 8, ef);
                found.coded_offsets.extend(coded);
                found.header_windows.push(window);
                end(window[3])
            }
            hexsnap::Headers::U32(_) => panic!("v9 header keys"),
        };
        // The offsets: packed, or one Elias–Fano window — its stream's
        // length, the stream and its directory.
        let offsets_end = match ix.windows {
            Windows::Offsets(offs) => {
                let offs = PackedAt { col: packed(offs), width_at: Some(headers_end) };
                found.offsets.push(offs);
                end(offs)
            }
            Windows::EliasFano(window) => {
                let stream = PackedAt { col: window.stream, width_at: Some(headers_end + 4) };
                let selects = PackedAt { col: window.selects, width_at: None };
                found.coded_offsets.push([stream, selects]);
                end(selects)
            }
            Windows::Pairs(_) => panic!("v3 offsets"),
        };
        let k2_end = match ix.k2 {
            hexsnap::VectorKeys::Ints(k2) => {
                let k2 = PackedAt { col: packed(k2), width_at: Some(offsets_end + 4) };
                found.vector_keys.push(k2);
                end(k2)
            }
            hexsnap::VectorKeys::EliasFano(ef) => {
                let (columns, coded) = ef_at(offsets_end + 4, ef);
                found.coded_offsets.extend(coded);
                found.elias_fano.push((which, columns));
                end(columns[3])
            }
        };
        // A mirror's list references follow its vector keys, coded as
        // they are.
        counts_at = match ix.lists {
            None => k2_end,
            Some(hexsnap::ListRefs::Windows(hexsnap::VectorKeys::Ints(refs))) => {
                let refs = PackedAt { col: packed(refs), width_at: Some(k2_end) };
                found.list_refs.push(refs);
                end(refs)
            }
            Some(hexsnap::ListRefs::Windows(hexsnap::VectorKeys::EliasFano(ef))) => {
                let (columns, coded) = ef_at(k2_end, ef);
                found.coded_offsets.extend(coded);
                found.ref_windows.push((which, columns));
                end(columns[3])
            }
            Some(hexsnap::ListRefs::Plain(_)) => panic!("v13 references"),
        };
    }
    for p in found.packed() {
        let Some(at) = p.width_at else { continue };
        let width = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        assert_eq!(width, p.col.width, "the width field of {p:?}");
    }
    found
}

/// Overwrites each value of each of `columns` in turn with the low bits
/// of each of `values(old)` and walks every shape of the store, which
/// must still open: the packed words are data, never read at open.
fn overwrite_each_value(
    path: &std::path::Path,
    pristine: &[u8],
    columns: &[PackedAt],
    values: impl Fn(u32) -> Vec<u32>,
) {
    let pats = probe_patterns(&hex_disk::open_store(path).unwrap());
    for &col in columns {
        for i in 0..col.col.len {
            for new in values(col.get(pristine, i)) {
                let mut bytes = pristine.to_vec();
                col.set(&mut bytes, i, new);
                std::fs::write(path, &bytes).unwrap();
                hex_disk::open_store(path).expect("packed words are not read at open");
                walk_every_shape_if_it_opens(path, &pats);
            }
        }
    }
    std::fs::write(path, pristine).unwrap();
}

/// A graph whose arenas hold singleton and longer lists alike.
fn mixed_list_graph() -> GraphStore {
    graph_from(&[(0, 0, 0), (0, 0, 3), (1, 1, 2), (2, 0, 5), (2, 1, 5), (3, 2, 0)])
}

#[test]
fn corrupt_offsets_degrade_to_short_windows_never_a_panic() {
    // Offsets are where a window's start and end come from, so a corrupt
    // one can make `lo > hi`: every entry of every offsets column is
    // overwritten with values below, at, just past and far past its
    // neighbours, and every shape is walked to the end each time.
    let g = mixed_list_graph();
    let path = temp_path("offsets");
    hexsnap::save_frozen(&path, g.dict(), &g.store().freeze()).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let words = addressing_words(&pristine);
    // Six orderings, each with at least its opening and closing entry.
    let entries: usize = words.offsets.iter().map(|p| p.col.len).sum();
    assert!(entries > 6 * 3, "{entries}");
    overwrite_each_value(&path, &pristine, &words.offsets, |old| {
        vec![0, 1, old.wrapping_sub(1), old + 1, old + 2, 1_000, u32::MAX - 1, u32::MAX]
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_slots_and_run_columns_are_refused_and_safe_to_walk() {
    // A slot is a list or the index of a run; a run end is where a run
    // stops in its arena's run ids. Every one of them, and every run id,
    // is overwritten with what each could be mistaken for: an inline id, a
    // flagged run index at, inside and past the runs, ends before, at and
    // past their neighbours, an id that breaks its run's order. Every
    // shape is walked over the unverified store each time; `open` refuses
    // with a typed error.
    let g = mixed_list_graph();
    let path = temp_path("slots");
    let frozen = g.store().freeze();
    hexsnap::save_frozen(&path, g.dict(), &frozen).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let words = addressing_words(&pristine);
    let slots: usize = words.slots.iter().map(|p| p.col.len).sum();
    assert_eq!(slots * 2, frozen.space_stats().vector_entries);
    let runs = words.run_ends[0].col.len as u32 - 1;
    assert!(runs > 0, "the graph has lists of two");
    let values = |old: u32, flag: u32| {
        vec![0, 1, old ^ flag, flag, flag | 1, flag | (runs - 1), flag | runs, u32::MAX, old + 1]
    };
    for &slots in &words.slots {
        let flag = 1 << (slots.col.width - 1);
        overwrite_each_value(&path, &pristine, &[slots], |old| values(old, flag));
    }
    for &column in words.run_ends.iter().chain(&words.run_keys) {
        let top = 1 << column.col.width.saturating_sub(1);
        overwrite_each_value(&path, &pristine, &[column], |old| values(old, top));
    }

    // Named cases: `open` refuses each with a typed error; `open_store`,
    // which reads only the section's headers, maps it, and `verify` says
    // what `open` said.
    let refused = |bytes: Vec<u8>, why: &str| {
        std::fs::write(&path, &bytes).unwrap();
        let err = hex_disk::open(&path).err().unwrap_or_else(|| panic!("{why} must be refused"));
        assert!(matches!(err, hex_disk::Error::Corrupt(_)), "{why}: {err}");
        let unverified = hex_disk::open_store(&path).expect("structurally sound");
        assert!(matches!(hex_disk::verify(&unverified), Err(hex_disk::Error::Corrupt(_))), "{why}");
    };
    let set = |column: PackedAt, i: usize, new: u32| {
        assert!(new >> column.col.width == 0, "{new} fits the column");
        let mut bytes = pristine.clone();
        column.set(&mut bytes, i, new);
        bytes
    };
    // The first flagged slot: the first run of the first arena.
    let (slots, ends, keys) = (words.slots[0], words.run_ends[0], words.run_keys[0]);
    let flag = 1 << (slots.col.width - 1);
    let flagged = (0..slots.col.len).find(|&i| slots.get(&pristine, i) & flag != 0).unwrap();
    assert_eq!(slots.get(&pristine, flagged), flag, "run 0");
    refused(set(slots, flagged, flag | 1), "a flagged slot naming the second run");
    refused(set(slots, flagged, 0), "a flag cleared, leaving its run unreachable");
    let first_end = ends.get(&pristine, 1);
    refused(set(ends, 1, 0), "an empty run");
    refused(set(ends, 1, first_end - 1), "a run shortened, its successor lengthened");
    refused(set(ends, 0, 1), "run ends that do not start at the first id");
    let second = keys.get(&pristine, 1);
    refused(set(keys, 0, second), "an unsorted run");
    std::fs::write(&path, &pristine).unwrap();
    hex_disk::verify(&hex_disk::open_store(&path).unwrap()).expect("the pristine file verifies");
    std::fs::remove_file(&path).ok();
}

#[test]
fn mirror_references_past_the_arena_read_as_empty_lists() {
    // List references are not validated at open, nor by `verify` (that
    // would fault in the index levels): one at or past the slot column
    // opens, and reads as the empty list.
    let g = mixed_list_graph();
    let path = temp_path("refs");
    let frozen = g.store().freeze();
    hexsnap::save_frozen(&path, g.dict(), &frozen).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let words = addressing_words(&pristine);
    let lists = words.slots[0].col.len as u32;
    overwrite_each_value(&path, &pristine, &words.list_refs, |old| {
        vec![0, old + 1, lists, 1_000, u32::MAX]
    });
    // The first leaf of pso — the mirror of spo — is (p0, s0) -> {o0, o3}.
    // Its reference set to all ones is past the arena's five lists.
    let first = frozen.matching(IdPattern::ALL)[0];
    let mut bytes = pristine.clone();
    words.list_refs[0].set(&mut bytes, 0, u32::MAX);
    assert!(words.list_refs[0].get(&bytes, 0) >= lists);
    std::fs::write(&path, &bytes).unwrap();
    let (_, mapped) = hex_disk::open(&path).expect("references are not checked at open");
    assert_eq!(frozen.count_matching(IdPattern::p(first.p)), 3);
    // A count of the shape reads pos, the primary, whose columns are
    // intact; the scan reads pso's references.
    assert_eq!(mapped.count_matching(IdPattern::p(first.p)), 3);
    let read = mapped.iter_matching(IdPattern::p(first.p)).count();
    assert_eq!(read, 1, "the dangling leaf reads empty");
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_packed_bytes_and_widths_open_as_corrupt_or_answer_without_a_panic() {
    // Every byte of every packed column — list slots, overflow runs and index levels —
    // takes each of four patterns, every padding byte before one is
    // refused, and every width field takes each width from 0 to 40 and
    // beyond. The packed words are data: the store opens over each
    // corrupt byte without reading them, and every shape walks. A width changes where every
    // later field lies, so the file either opens — then every shape walks
    // — or is refused at open as `Corrupt`, never any other way.
    let g = mixed_list_graph();
    let path = temp_path("packed");
    hexsnap::save_frozen(&path, g.dict(), &g.store().freeze()).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let pats = probe_patterns(&hex_disk::open_store(&path).unwrap());
    let words = addressing_words(&pristine);
    let counts = (words.slots.len(), words.run_ends.len(), words.run_keys.len());
    let levels = (words.offsets.len(), words.vector_keys.len(), words.list_refs.len());
    assert_eq!((counts, levels), ((3, 3, 3), (6, 6, 3)));
    for p in words.packed() {
        // The padding between the width and the words must be zero.
        let padding = p.width_at.map_or(0..0, |width_at| width_at + 4..p.col.offset);
        for at in padding {
            let mut bytes = pristine.clone();
            bytes[at] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            let err = hex_disk::open_store(&path).unwrap_err();
            assert!(matches!(err, hex_disk::Error::Corrupt(_)), "padding at {at}: {err}");
        }
        for at in p.bytes() {
            for flip in [0xFF, 0x01, 0x80, 0x5A] {
                let mut bytes = pristine.clone();
                bytes[at] ^= flip;
                std::fs::write(&path, &bytes).unwrap();
                hex_disk::open_store(&path).expect("packed words are not read at open");
                walk_every_shape_if_it_opens(&path, &pats);
            }
        }
        let Some(width_at) = p.width_at else { continue };
        for width in (0..=40).chain([63, 64, 1 << 16, u32::MAX]) {
            let mut bytes = pristine.clone();
            bytes[width_at..width_at + 4].copy_from_slice(&width.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            match hex_disk::open_store(&path) {
                Ok(_) => walk_every_shape_if_it_opens(&path, &pats),
                Err(hex_disk::Error::Corrupt(_)) => assert!(width > 32 || width != p.col.width),
                Err(e) => panic!("width {width} at {width_at}: {e}"),
            }
            if width > 32 {
                let err = hex_disk::open(&path).unwrap_err();
                assert!(matches!(err, hex_disk::Error::Corrupt(_)), "width {width}: {err}");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Six hundred subjects of one property, each with its own object, and a
/// few triples of two others: the property's pso and pos windows are long
/// enough to be Elias–Fano coded, their high parts cross rank blocks, and
/// the subject and object bitmaps span more than one block.
fn elias_fano_graph() -> GraphStore {
    let picks: Vec<(u32, u32, u32)> =
        (0..600).map(|i| (i, 0, i)).chain([(0, 1, 3), (5, 2, 7), (9, 1, 1)]).collect();
    graph_from(&picks)
}

#[test]
fn corrupt_elias_fano_and_rank_columns_read_short_and_load_as_corrupt() {
    let g = elias_fano_graph();
    let frozen = g.store().freeze();
    let path = temp_path("succinct");
    hexsnap::save_frozen(&path, g.dict(), &frozen).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let pats = probe_patterns(&hex_disk::open_store(&path).unwrap());
    let words = addressing_words(&pristine);
    // pso is ordering 2; its first window is the long one, property 0's.
    let &(_, [_, bit_offs, stream, stream_ranks]) =
        words.elias_fano.iter().find(|(which, _)| *which == 2).expect("pso is Elias–Fano coded");
    assert!(stream.col.len > 1024 && stream_ranks.col.len >= 2, "{stream:?} {stream_ranks:?}");
    let p0 = frozen.matching(IdPattern::ALL).iter().find(|t| t.s == hex_dict::Id(0)).unwrap().p;
    let subjects = frozen.count_matching(IdPattern::p(p0));
    assert_eq!(subjects, 600);
    let (start, end) = (bit_offs.get(&pristine, 0) as usize, bit_offs.get(&pristine, 1) as usize);
    assert_eq!(stream.get(&pristine, end - 1), 1, "a window ends on its last key's one");

    // Each corruption: the mapped store opens (it reads no data), walks
    // every shape, answers property 0 with fewer subjects — a short
    // window — and `load_frozen` refuses the file, naming the column.
    let check = |bytes: Vec<u8>, why: &str, column: &str, short: bool| {
        std::fs::write(&path, &bytes).unwrap();
        let mapped = hex_disk::open_store(&path).expect("the data is not read at open");
        if short {
            // The scan reads pso (a count would read pos, the primary).
            let got = mapped.iter_matching(IdPattern::p(p0)).count();
            assert!(got < subjects, "{why}: {got} subjects");
        }
        walk_every_shape_if_it_opens(&path, &pats);
        match hexsnap::load_frozen(&path) {
            Err(hexsnap::Error::Corrupt(msg)) => assert!(msg.contains(column), "{why}: {msg}"),
            other => panic!("{why}: {:?}", other.map(|_| ())),
        }
    };
    // A high region that never reaches its last one.
    let mut bytes = pristine.clone();
    stream.set(&mut bytes, end - 1, 0);
    check(bytes, "the last key's one cleared", "ordering vector keys", true);
    // A bit offset past the stream.
    let mut bytes = pristine.clone();
    bit_offs.set(&mut bytes, 0, (1 << bit_offs.col.width) - 1);
    assert!(bit_offs.get(&bytes, 0) as usize > stream.col.len);
    check(bytes, "a window starting past the stream", "ordering vector keys", true);
    // The largest `l` the five-bit field holds, 31, whose low parts
    // overrun the window (an `l` above 32 does not fit the field).
    let mut bytes = pristine.clone();
    (start..start + 5).for_each(|bit| stream.set(&mut bytes, bit, 1));
    check(bytes, "l = 31", "ordering vector keys", true);
    // Rank samples that disagree with their bits: the stream's, which
    // sends a search to the wrong block, and a header bitmap's, which
    // gives a key the wrong header.
    for sample in 0..stream_ranks.col.len {
        let mut bytes = pristine.clone();
        let old = stream_ranks.get(&pristine, sample);
        stream_ranks.set(&mut bytes, sample, old / 2);
        check(bytes, "a stream rank sample halved", "rank directory", false);
    }
    let spo_ranks = words.header_ranks[0];
    assert!(spo_ranks.col.len >= 1, "the subject bitmap spans two blocks");
    let mut bytes = pristine.clone();
    spo_ranks.set(&mut bytes, 0, 0);
    check(bytes, "a header rank sample zeroed", "rank directory", false);
    std::fs::remove_file(&path).ok();
}

#[test]
fn references_a_corrupt_window_cannot_read_name_no_list() {
    // pso's references are Elias–Fano coded here, and property 0's window
    // holds 600 of them. With its bit offset past the stream the window
    // reads as its first reference alone: the first subject's leaf reads
    // its list, and the other 599 leaves read the empty list — not list
    // 0, another key's list, which would answer 600 triples. The eager
    // reader refuses the file, naming the column.
    let g = elias_fano_graph();
    let frozen = g.store().freeze();
    let path = temp_path("coded-refs");
    hexsnap::save_frozen(&path, g.dict(), &frozen).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    let pats = probe_patterns(&hex_disk::open_store(&path).unwrap());
    let words = addressing_words(&pristine);
    let &(_, [_, bit_offs, stream, _]) =
        words.ref_windows.iter().find(|(which, _)| *which == 2).expect("pso's are coded");
    let p0 = frozen.matching(IdPattern::ALL).iter().find(|t| t.s == hex_dict::Id(0)).unwrap().p;
    assert_eq!(frozen.count_matching(IdPattern::p(p0)), 600);
    let mut bytes = pristine.clone();
    bit_offs.set(&mut bytes, 0, (1 << bit_offs.col.width) - 1);
    assert!(bit_offs.get(&bytes, 0) as usize > stream.col.len);
    std::fs::write(&path, &bytes).unwrap();
    let mapped = hex_disk::open_store(&path).expect("references are not read at open");
    // The scan reads pso's references; a count reads pos, the primary.
    assert_eq!(mapped.iter_matching(IdPattern::p(p0)).count(), 1, "one leaf reads a list");
    assert_eq!(mapped.count_matching(IdPattern::p(p0)), 600);
    walk_every_shape_if_it_opens(&path, &pats);
    match hexsnap::load_frozen(&path) {
        Err(hexsnap::Error::Corrupt(why)) => assert!(why.contains("ordering list references")),
        other => panic!("{:?}", other.map(|_| ())),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncation_at_every_cut_never_panics_the_opener() {
    let g = graph_from(&[(0, 0, 0), (1, 1, 2)]);
    let path = temp_path("trunc");
    hexsnap::save_frozen(&path, g.dict(), &g.store().freeze()).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    for cut in 0..pristine.len() {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        assert!(hex_disk::open(&path).is_err(), "cut at {cut} must be rejected");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_graph_maps_and_answers_empty() {
    let g = GraphStore::new();
    let path = temp_path("empty");
    hexsnap::save_frozen(&path, g.dict(), &g.store().freeze()).unwrap();
    let (dict, mapped) = hex_disk::open(&path).unwrap();
    assert_eq!(dict.len(), 0);
    assert!(mapped.is_empty());
    assert_eq!(mapped.matching(IdPattern::ALL), Vec::new());
    std::fs::remove_file(&path).ok();
}
