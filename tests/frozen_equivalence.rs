//! Cross-crate equivalence of the frozen slab stores: a
//! [`FrozenHexastore`] built directly, via `freeze()` and via a binary
//! `hexsnap` save → load round-trip is one store, by content, holding
//! what the [`TriplesTable`] oracle holds — and corrupted snapshots must
//! be rejected, never misinterpreted. What each store answers, shape by
//! shape, is the read contract's (`tests/read_path_contract.rs`); the
//! partial store is also checked against the oracle here, pattern by
//! pattern.

use hex_baselines::TriplesTable;
use hex_dict::IdTriple;
use hexastore::{
    bulk, hexsnap, FrozenHexastore, IdPattern, IndexKind, IndexSet, OverlayHexastore,
    PartialHexastore, TripleStore,
};
use proptest::prelude::*;
use std::io::Cursor;

fn arb_triple() -> impl Strategy<Value = IdTriple> {
    (0u32..10, 0u32..5, 0u32..10).prop_map(IdTriple::from)
}

/// The eight access shapes, probed for every stored triple plus misses.
fn probe_patterns(triples: &[IdTriple]) -> Vec<IdPattern> {
    let mut pats = vec![IdPattern::ALL, IdPattern::spo(IdTriple::from((99, 99, 99)))];
    for &t in triples {
        pats.extend([
            IdPattern::spo(t),
            IdPattern::sp(t.s, t.p),
            IdPattern::so(t.s, t.o),
            IdPattern::po(t.p, t.o),
            IdPattern::s(t.s),
            IdPattern::p(t.p),
            IdPattern::o(t.o),
        ]);
    }
    pats
}

fn assert_matches_oracle(store: &dyn TripleStore, oracle: &TriplesTable, pat: IdPattern) {
    let mut got = store.matching(pat);
    got.sort();
    let mut expected = oracle.matching(pat);
    expected.sort();
    assert_eq!(got, expected, "{} vs oracle on {pat:?}", store.name());
    assert_eq!(store.count_matching(pat), expected.len(), "{} count {pat:?}", store.name());
}

/// Round-trips a frozen store through an in-memory `hexsnap` image with
/// prebuilt slab sections, using ids only (no dictionary section needed
/// for the id-level equivalence check).
fn hexsnap_roundtrip(frozen: &FrozenHexastore) -> FrozenHexastore {
    let mut w = hexsnap::Writer::new(Cursor::new(Vec::new())).unwrap();
    w.dictionary(&hex_dict::Dictionary::new()).unwrap();
    w.triples(frozen.len() as u64, frozen.iter_matching(IdPattern::ALL)).unwrap();
    w.frozen(frozen).unwrap();
    let bytes = w.finish().unwrap().into_inner();
    let mut r = hexsnap::Reader::new(Cursor::new(bytes)).unwrap();
    assert!(r.has_frozen());
    r.frozen().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Direct frozen builds, freeze() conversions and binary round-trips
    /// are the same store, holding the oracle's triples, and thawing the
    /// reloaded one recovers the written store.
    #[test]
    fn frozen_stores_match_mutable_and_oracle(
        triples in proptest::collection::vec(arb_triple(), 0..120),
        threads in 1usize..5,
    ) {
        let oracle = TriplesTable::from_triples(triples.iter().copied());
        let mut mutable = OverlayHexastore::default();
        for &t in &triples {
            mutable.insert(t);
        }
        let direct = bulk::build_frozen_with(triples.clone(), bulk::Config { threads });
        let via_freeze = mutable.freeze();
        let reloaded = hexsnap_roundtrip(&via_freeze);

        prop_assert_eq!(direct.matching(IdPattern::ALL), oracle.matching(IdPattern::ALL));
        prop_assert_eq!(&via_freeze, &direct);
        prop_assert_eq!(&reloaded, &direct);
        let thawed = reloaded.thaw();
        prop_assert_eq!(thawed.matching(IdPattern::ALL), mutable.matching(IdPattern::ALL));
        prop_assert_eq!(thawed.freeze(), direct);
    }

    /// Partial stores answer every pattern like the oracle for random
    /// kept-index subsets — including shapes that fall back to a filtered
    /// scan.
    #[test]
    fn partial_matches_oracle(
        triples in proptest::collection::vec(arb_triple(), 0..80),
        subset_bits in 1u8..64,
    ) {
        let mut keep = IndexSet::EMPTY;
        for (i, kind) in IndexKind::ALL.into_iter().enumerate() {
            if subset_bits & (1 << i) != 0 {
                keep = keep.with(kind);
            }
        }
        let oracle = TriplesTable::from_triples(triples.iter().copied());
        let partial = PartialHexastore::from_triples(keep, triples.iter().copied());
        prop_assert_eq!(partial.capabilities(), keep);
        for pat in probe_patterns(&triples) {
            assert_matches_oracle(&partial, &oracle, pat);
        }
    }

    /// Snapshot bytes with a corrupted interior still open only if the
    /// section table stays intact — and then every section read either
    /// succeeds with consistent data or errors; it must never panic.
    #[test]
    fn corrupted_snapshot_bytes_never_panic(
        triples in proptest::collection::vec(arb_triple(), 1..40),
        corrupt_at in 12usize..4096,
        xor in 1u8..=255,
    ) {
        let pats = probe_patterns(&triples);
        let frozen = bulk::build_frozen(triples);
        let mut w = hexsnap::Writer::new(Cursor::new(Vec::new())).unwrap();
        w.dictionary(&hex_dict::Dictionary::new()).unwrap();
        w.triples(frozen.len() as u64, frozen.iter_matching(IdPattern::ALL)).unwrap();
        w.frozen(&frozen).unwrap();
        let mut bytes = w.finish().unwrap().into_inner();
        let pos = corrupt_at % bytes.len();
        bytes[pos] ^= xor;
        if let Ok(mut r) = hexsnap::Reader::new(Cursor::new(bytes)) {
            // Reads may fail with a corruption error or, if the flip hit
            // id payload bytes, succeed with different ids — both fine.
            let _ = r.dictionary();
            let _ = r.triples();
            if r.has_frozen() {
                walk_every_shape_if_it_reads(&mut r, &pats);
            }
        }
    }
}

/// Reads the slab section and, if the reader accepts it, walks every
/// access shape to the end: whatever passes validation must be safe to
/// query.
fn walk_every_shape_if_it_reads(r: &mut hexsnap::Reader<Cursor<Vec<u8>>>, pats: &[IdPattern]) {
    let Ok(store) = r.frozen() else { return };
    for &pat in pats {
        let n = store.iter_matching(pat).count();
        assert_eq!(store.count_matching(pat), n, "{pat:?}");
        assert_eq!(store.iter_matching_range(pat, n / 2, usize::MAX).count(), n - n / 2);
    }
}

/// Every byte of the raw slab section — the arenas' slots and overflow
/// words that every list's place and length come from, the cumulative
/// offsets columns that every window's start and end come from, the key
/// columns, the mirror list references — flipped under several masks: the
/// validating reader rejects the section or hands back a store that is
/// safe to walk.
#[test]
fn flipped_slab_section_bytes_are_rejected_or_safe_to_walk() {
    let triples: Vec<IdTriple> =
        [(1, 2, 3), (1, 2, 4), (1, 5, 3), (2, 2, 3), (2, 5, 9), (9, 9, 9), (3, 2, 1)]
            .map(IdTriple::from)
            .to_vec();
    let pats = probe_patterns(&triples);
    let mut w = hexsnap::Writer::new(Cursor::new(Vec::new())).unwrap();
    w.frozen(&bulk::build_frozen(triples)).unwrap();
    let pristine = w.finish().unwrap().into_inner();
    let (start, len) =
        hexsnap::Reader::new(Cursor::new(&pristine)).unwrap().frozen_section_extent().unwrap();
    let mut rejected = 0;
    for at in start as usize..(start + len) as usize {
        for mask in [0x01, 0x02, 0x80, 0xFF] {
            let mut bytes = pristine.clone();
            bytes[at] ^= mask;
            let mut r = hexsnap::Reader::new(Cursor::new(bytes)).unwrap();
            rejected += usize::from(r.frozen().is_err());
            walk_every_shape_if_it_reads(&mut r, &pats);
        }
    }
    // Structure bytes dominate the section, so most flips must be caught.
    assert!(rejected > 2 * len as usize, "only {rejected} of {} flips rejected", 4 * len);
}
