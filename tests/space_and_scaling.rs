//! Integration checks of the paper's space claims (§4.1, Figure 15) and
//! of prefix-scaling invariants the figure harness relies on.

use hex_bench_queries::Suite;
use hex_datagen::{barton::BartonConfig, lubm::LubmConfig};
use hexastore::{FrozenHexastore, HeapBreakdown, TripleStore};

#[test]
fn space_blowup_is_bounded_on_real_workloads() {
    for (name, triples) in [
        (
            "barton",
            hex_datagen::barton::generate(&BartonConfig { records: 3_000, ..Default::default() }),
        ),
        ("lubm", hex_datagen::lubm::generate(&LubmConfig::tiny())),
    ] {
        let suite = Suite::build(&triples);
        let stats = suite.hexastore.space_stats();
        assert!(stats.blowup() <= 5.0, "{name}: blowup {}", stats.blowup());
        assert!(stats.blowup() >= 1.0, "{name}: blowup {}", stats.blowup());
        // Real data shares heavily, so it sits clearly under the bound.
        assert!(stats.blowup() < 4.8, "{name}: expected sharing, got {}", stats.blowup());
    }
}

#[test]
fn memory_ordering_matches_figure15() {
    // Figure 15: Hexastore uses the most memory (~4x COVP1 in the paper),
    // COVP2 about double COVP1.
    let triples =
        hex_datagen::barton::generate(&BartonConfig { records: 4_000, ..Default::default() });
    let suite = Suite::build(&triples);
    let hex = suite.hexastore.heap_bytes();
    let c1 = suite.covp1.heap_bytes();
    let c2 = suite.covp2.heap_bytes();
    assert!(hex > c2, "hexastore {hex} should exceed covp2 {c2}");
    assert!(c2 > c1, "covp2 {c2} should exceed covp1 {c1}");
    let ratio = hex as f64 / c1 as f64;
    assert!(
        (2.0..8.0).contains(&ratio),
        "hexastore/covp1 memory ratio {ratio} outside plausible Figure-15 range"
    );
}

#[test]
fn dataset_prefixes_are_stable() {
    // The figure harness assumes: generating a dataset twice yields the
    // same stream, and a prefix of the stream equals the prefix of the
    // regenerated stream.
    let a = hex_datagen::lubm::generate(&LubmConfig::tiny());
    let b = hex_datagen::lubm::generate(&LubmConfig::tiny());
    assert_eq!(a, b);
    let prefix = &a[..a.len() / 2];
    assert_eq!(prefix, &b[..a.len() / 2]);
}

#[test]
fn stores_agree_on_every_prefix() {
    let triples = hex_datagen::barton::generate(&BartonConfig {
        records: 600,
        seed: 21,
        ..Default::default()
    });
    for frac in [4, 2, 1] {
        let prefix = &triples[..triples.len() / frac];
        let suite = Suite::build(prefix);
        assert_eq!(suite.hexastore.len(), suite.table.len());
        assert_eq!(suite.hexastore.len(), suite.covp1.len());
        assert_eq!(suite.hexastore.len(), suite.covp2.len());
        // Spot-check a non-property-bound pattern on each prefix.
        if let Some(t) = suite.triples.first() {
            let pat = hexastore::IdPattern::o(t.o);
            let mut reference = suite.hexastore.matching(pat);
            reference.sort();
            for store in [&suite.table as &dyn TripleStore, &suite.covp1, &suite.covp2] {
                let mut got = store.matching(pat);
                got.sort();
                assert_eq!(got, reference, "{} at 1/{}", store.name(), frac);
            }
        }
    }
}

#[test]
fn incremental_and_bulk_agree_on_generated_data() {
    let triples = hex_datagen::lubm::generate(&LubmConfig::tiny());
    let mut dict = hex_dict::Dictionary::new();
    let encoded: Vec<hex_dict::IdTriple> = triples.iter().map(|t| dict.encode_triple(t)).collect();
    let bulk = hexastore::Hexastore::from_triples(encoded.iter().copied());
    let mut inc = hexastore::OverlayHexastore::default();
    for &t in &encoded {
        inc.insert(t);
    }
    assert_eq!(bulk.len(), inc.len());
    assert_eq!(bulk.space_stats(), inc.freeze().space_stats());
    assert_eq!(bulk.matching(hexastore::IdPattern::ALL), inc.matching(hexastore::IdPattern::ALL));
}

/// The frozen store's heap is a closed form of the paper's §4.1 entry
/// counts, of how many terminal lists hold more than one id and of the
/// widths of the packed index levels and list slots — a bit per id up to
/// the largest header key, `⌈n·w / 64⌉ + 1` words for a packed column of
/// `n` values whose largest needs `w > 0` bits, the smaller encoding of
/// each key column (vector keys, mirror references, run ids) and of each
/// cumulative offsets column (an ordering's offsets, an arena's run ends,
/// an Elias–Fano column's bit offsets), nothing derivable stored, no slack
/// capacity — however the slabs came to be.
#[test]
fn frozen_heap_breakdown_is_the_closed_form_of_the_space_stats() {
    use hex_dict::{Id, IdTriple};
    use hexastore::hexsnap::{Compression, Reader, Writer};
    use std::collections::{BTreeMap, BTreeSet, HashMap};
    /// Heap bytes of a packed column of `len` values, the largest `max`:
    /// whole words, then one zero word; none at width 0.
    fn packed(len: usize, max: usize) -> usize {
        let width = (usize::BITS - max.leading_zeros()) as usize;
        if width == 0 {
            0
        } else {
            8 * ((len * width).div_ceil(64) + 1)
        }
    }
    /// Heap bytes of a bit stream of `bits` bits: a packed column of
    /// width 1, none when empty.
    fn stream(bits: usize) -> usize {
        packed(bits, usize::from(bits > 0))
    }
    /// Heap bytes of a bit stream's rank directory: a sample per 512-bit
    /// block after the first, at the width of the bit count.
    fn directory(bits: usize) -> usize {
        let samples = bits.div_ceil(512).saturating_sub(1);
        if samples == 0 {
            0
        } else {
            packed(samples, bits)
        }
    }
    /// Heap bytes of a cumulative offsets column of `len` values, the last
    /// `last`: packed, or one Elias–Fano window of them — a 5-bit `l =
    /// ⌊log2(last / len)⌋`, a low part of `l` bits and a one a value,
    /// `last >> l` zeros, and a select sample, at the width of the bit
    /// count, for every 64th value after the first — whichever takes
    /// fewer bytes; and whether that is the window.
    fn offsets(len: usize, last: usize) -> (usize, bool) {
        let as_packed = packed(len, last);
        let q = (last / len.max(1)).max(1);
        let l = (usize::BITS - 1 - q.leading_zeros()) as usize;
        let bits = 5 + len * (l + 1) + (last >> l);
        let selects = len.saturating_sub(1) / 64;
        let window = stream(bits) + if selects == 0 { 0 } else { packed(selects, bits) };
        if len > 0 && window < as_packed {
            (window, true)
        } else {
            (as_packed, false)
        }
    }
    /// Stream bits of an Elias–Fano window: none for one key; else a
    /// 5-bit `l = ⌊log2(u / m)⌋` over the `m` keys after the first, which
    /// span `u`, then `m` low parts of `l` bits and the high parts in
    /// unary, `((u − 1) >> l) + m` bits.
    fn ef_window_bits(w: &[u32]) -> usize {
        if w.len() < 2 {
            return 0;
        }
        let (m, u) = (w.len() - 1, (w[w.len() - 1] - w[0]) as usize);
        let l = (usize::BITS - 1 - (u / m).leading_zeros()) as usize;
        5 + m * l + ((u - 1) >> l) + m
    }
    /// A key column's heap bytes, for windows each strictly ascending:
    /// packed at the width of the largest key, or Elias–Fano coded window
    /// by window — each window's first key in a base column, the other
    /// keys' `l`, low and high parts in one stream, a bit offset per
    /// window (an offsets column) and the stream's rank samples —
    /// whichever takes fewer bytes. `Err` holds the four Elias–Fano parts
    /// and whether the bit offsets are one Elias–Fano window.
    fn key_column(windows: &[&[u32]]) -> Result<usize, ([usize; 4], bool)> {
        let keys = windows.iter().map(|w| w.len()).sum();
        let max = windows.iter().flat_map(|w| w.iter()).copied().max().unwrap_or(0);
        let as_packed = packed(keys, max as usize);
        let max_first = windows.iter().map(|w| w[0]).max().unwrap_or(0);
        let bits: usize = windows.iter().map(|w| ef_window_bits(w)).sum();
        let (bit_offsets, coded) = offsets(windows.len() + 1, bits);
        let ef =
            [packed(windows.len(), max_first as usize), bit_offsets, stream(bits), directory(bits)];
        if ef.iter().sum::<usize>() < as_packed {
            Err((ef, coded))
        } else {
            Ok(as_packed)
        }
    }
    fn assert_closed_form(frozen: &FrozenHexastore, how: &str) {
        let stats = frozen.space_stats();
        let pairs = stats.vector_entries / 2; // each (k1, k2) pair sits in two orderings
        let triples: Vec<IdTriple> = frozen.iter_matching(hexastore::IdPattern::ALL).collect();
        // List lengths, counted from the triples alone: one list per
        // (s, p), per (s, o) and per (p, o) pair.
        let mut lens: HashMap<(u8, Id, Id), usize> = HashMap::new();
        for t in &triples {
            for key in [(0, t.s, t.p), (1, t.s, t.o), (2, t.p, t.o)] {
                *lens.entry(key).or_default() += 1;
            }
        }
        assert_eq!(lens.len(), pairs, "{how}");
        // Per ordering, `(k1, k2)` of a triple and whether it is a mirror
        // (pso, osp, ops keep a reference per leaf): its header keys, its
        // packed offsets (the largest is the leaf count), its vector keys
        // and, in a mirror, its references — each window's the numbers of
        // its `(k2, k1)` lists in the primary's leaf order — each key
        // column packed or Elias–Fano coded.
        type Keys = fn(&IdTriple) -> (Id, Id);
        let orderings: [(Keys, bool); 6] = [
            (|t| (t.s, t.p), false),
            (|t| (t.s, t.o), false),
            (|t| (t.p, t.s), true),
            (|t| (t.p, t.o), false),
            (|t| (t.o, t.s), true),
            (|t| (t.o, t.p), true),
        ];
        let mut expected = HeapBreakdown::default();
        for (kind, (keys, mirror)) in hexastore::IndexKind::ALL.into_iter().zip(orderings) {
            let mut windows: BTreeMap<Id, Vec<u32>> = BTreeMap::new();
            for t in &triples {
                windows.entry(keys(t).0).or_default().push(keys(t).1 .0);
            }
            windows.values_mut().for_each(|w| {
                w.sort_unstable();
                w.dedup();
            });
            let leaves: usize = windows.values().map(Vec::len).sum();
            // The header keys: a bitmap of one bit per id up to the largest
            // key and its rank samples, or — where that is smaller — one
            // Elias–Fano window of them.
            let bits = windows.keys().last().map_or(0, |k| k.0 as usize + 1);
            let bitmap = stream(bits) + directory(bits);
            let k1s: Vec<u32> = windows.keys().map(|k| k.0).collect();
            let k1_bits = ef_window_bits(&k1s);
            let window = k1s.first().map_or(0, |&first| {
                let (base, offs) = (packed(1, first as usize), packed(2, k1_bits));
                base + offs + stream(k1_bits) + directory(k1_bits)
            });
            expected.header_keys += if window < bitmap { window } else { bitmap };
            let (header_offsets, coded) = offsets(windows.len() + 1, leaves);
            expected.header_offsets += header_offsets;
            if coded {
                expected.elias_fano_offsets = expected.elias_fano_offsets.with(kind);
            }
            let vector_keys: Vec<&[u32]> = windows.values().map(Vec::as_slice).collect();
            match key_column(&vector_keys) {
                Ok(as_packed) => expected.vector_keys_packed += as_packed,
                Err((ef, coded)) => {
                    expected.vector_key_bases += ef[0];
                    expected.vector_key_offsets += ef[1];
                    expected.vector_key_streams += ef[2];
                    expected.vector_key_ranks += ef[3];
                    expected.elias_fano = expected.elias_fano.with(kind);
                    if coded {
                        expected.elias_fano_key_offsets =
                            expected.elias_fano_key_offsets.with(kind);
                    }
                }
            }
            if mirror {
                let lists: Vec<(u32, u32)> = windows
                    .iter()
                    .flat_map(|(k1, w)| w.iter().map(move |&k2| (k2, k1.0)))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                let list_of = |k1: Id, k2: u32| lists.binary_search(&(k2, k1.0)).unwrap() as u32;
                let refs: Vec<Vec<u32>> = windows
                    .iter()
                    .map(|(&k1, w)| w.iter().map(|&k2| list_of(k1, k2)).collect())
                    .collect();
                let refs: Vec<&[u32]> = refs.iter().map(Vec::as_slice).collect();
                expected.mirror_list_refs += match key_column(&refs) {
                    Ok(as_packed) => as_packed,
                    Err((ef, coded)) => {
                        expected.elias_fano_refs = expected.elias_fano_refs.with(kind);
                        if coded {
                            expected.elias_fano_ref_offsets =
                                expected.elias_fano_ref_offsets.with(kind);
                        }
                        ef.iter().sum()
                    }
                };
            }
        }
        // Per arena, its lists in their primary ordering's key order —
        // (s, p), (s, o), (p, o) — a slot one flag bit wider than the
        // largest singleton id or run index, for each longer list its run's
        // end at the width of the run ids' count, and the run ids packed at
        // the width of the largest or Elias–Fano coded run by run,
        // whichever takes fewer bytes.
        type List = fn(&IdTriple) -> ((Id, Id), Id);
        let arenas: [List; 3] =
            [|t| ((t.s, t.p), t.o), |t| ((t.s, t.o), t.p), |t| ((t.p, t.o), t.s)];
        let primaries =
            [hexastore::IndexKind::Spo, hexastore::IndexKind::Sop, hexastore::IndexKind::Pos];
        for (primary, list) in primaries.into_iter().zip(arenas) {
            let mut lists: BTreeMap<(Id, Id), Vec<Id>> = BTreeMap::new();
            for t in &triples {
                let (key, item) = list(t);
                lists.entry(key).or_default().push(item);
            }
            let (mut max, mut runs) = (0, Vec::new());
            for items in lists.values() {
                if items.len() == 1 && items[0].0 < 1 << 31 {
                    max = max.max(items[0].0 as usize);
                } else {
                    max = max.max(runs.len());
                    runs.push(items.iter().map(|id| id.0).collect::<Vec<u32>>());
                }
            }
            if !lists.is_empty() {
                expected.list_slots += packed(lists.len(), 2 * max + 1);
            }
            let ids: usize = runs.iter().map(Vec::len).sum();
            let (run_ends, coded) = offsets(runs.len() + 1, ids);
            expected.run_ends += run_ends;
            if coded {
                expected.elias_fano_run_ends = expected.elias_fano_run_ends.with(primary);
            }
            let runs: Vec<&[u32]> = runs.iter().map(Vec::as_slice).collect();
            expected.run_keys += match key_column(&runs) {
                Ok(as_packed) => as_packed,
                Err((ef, coded)) => {
                    expected.elias_fano_arenas = expected.elias_fano_arenas.with(primary);
                    if coded {
                        expected.elias_fano_run_key_offsets =
                            expected.elias_fano_run_key_offsets.with(primary);
                    }
                    ef.iter().sum()
                }
            };
        }
        assert_eq!(frozen.heap_breakdown(), expected, "{how}");
        assert_eq!(frozen.heap_bytes(), expected.total(), "{how}");
        // What packing saves against whole `u32`s: on real data every
        // index-level column needs fewer than 32 bits.
        let unpacked = 4 * (stats.vector_entries + pairs + stats.header_entries + 6);
        let packed_levels =
            expected.vector_keys() + expected.mirror_list_refs + expected.header_offsets;
        assert!(triples.is_empty() || packed_levels < unpacked, "{how}");
    }

    let triples = hex_datagen::lubm::generate(&LubmConfig::tiny());
    let suite = Suite::build(&triples);
    let ids: Vec<hex_dict::IdTriple> =
        suite.hexastore.iter_matching(hexastore::IdPattern::ALL).collect();
    let built = hexastore::bulk::build_frozen(ids);
    assert_closed_form(&built, "bulk::build_frozen");
    let mut written = hexastore::OverlayHexastore::default();
    for t in suite.hexastore.iter_matching(hexastore::IdPattern::ALL) {
        written.insert(t);
    }
    assert_closed_form(&written.freeze(), "OverlayHexastore::freeze");
    for compression in [Compression::None, Compression::VarintDelta] {
        let mut w = Writer::new(std::io::Cursor::new(Vec::new())).unwrap();
        w.frozen_with(&built, compression).unwrap();
        let bytes = w.finish().unwrap().into_inner();
        let read = Reader::new(std::io::Cursor::new(bytes)).unwrap().frozen().unwrap();
        assert_closed_form(&read, &format!("hexsnap read, {compression:?}"));
    }
    assert_closed_form(&hexastore::bulk::build_frozen(Vec::new()), "the empty store");
}
