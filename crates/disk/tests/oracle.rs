//! Oracle tests: the mmap-backed store must be observationally
//! identical to the fully-validated in-memory [`FrozenHexastore`] on
//! every access pattern, and [`hex_disk::open`] must refuse files it
//! cannot map rather than misread them.

use hex_dict::IdTriple;
use hexastore::hexsnap::{self, Compression};
use hexastore::{FrozenHexastore, GraphStore, IdPattern, TripleStore};
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

fn assert_oracle_equivalent(oracle: &FrozenHexastore, mapped: &hex_disk::MmapFrozenHexastore) {
    assert_eq!(mapped.len(), oracle.len());
    for pat in all_patterns(oracle) {
        let want: Vec<IdTriple> = oracle.matching(pat);
        assert_eq!(mapped.matching(pat), want, "{pat:?}");
        assert_eq!(mapped.count_matching(pat), want.len(), "{pat:?}");
        for tr in &want {
            assert!(mapped.contains(*tr));
        }
        // Range sharding: every split point partitions identically.
        let n = want.len();
        for (start, end) in [(0, n), (0, n / 2), (n / 2, n), (1, n.saturating_sub(1)), (n, n)] {
            let got: Vec<IdTriple> = mapped.iter_matching_range(pat, start, end).collect();
            let want_slice: Vec<IdTriple> = oracle.iter_matching_range(pat, start, end).collect();
            assert_eq!(got, want_slice, "{pat:?} range {start}..{end}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The mapped store answers all eight patterns, counts, membership
    /// tests and range shards exactly like the in-memory frozen store
    /// built from the same graph.
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
        assert_oracle_equivalent(&oracle, &mapped);
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
    // answers byte-identically to the forced-nested walk and to the
    // parallel execution.
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
    for threads in [2, 4] {
        assert_eq!(plan.run_parallel(&mapped, threads), reference);
    }
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

    let err = hex_disk::open(&path).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(err, hex_disk::Error::Unmappable(_)), "{msg}");
    assert!(msg.contains("compressed"), "{msg}");
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

#[test]
fn unaligned_v1_files_are_refused_when_misaligned() {
    use std::io::Write;
    // A v1 writer emits no alignment padding; whether the slab section
    // happens to land 4-aligned depends on the dictionary byte length.
    // Craft a dictionary whose serialized size forces a misaligned FROZ
    // offset, then check the opener refuses it by version, not by luck.
    for extra in 0..4u32 {
        let mut g = GraphStore::new();
        g.insert(&Triple::new(
            Term::iri(format!("e:s{}", "x".repeat(extra as usize + 1))),
            Term::iri("e:p"),
            Term::iri("e:o"),
        ));
        let path = temp_path(&format!("v1-{extra}"));
        let file = std::fs::File::create(&path).unwrap();
        let mut w = hexsnap::Writer::with_version(std::io::BufWriter::new(file), 1).unwrap();
        w.dictionary(g.dict()).unwrap();
        w.frozen(&g.store().freeze()).unwrap();
        w.finish().unwrap().flush().unwrap();

        match hex_disk::open(&path) {
            // Aligned by accident: must answer correctly.
            Ok((_, mapped)) => assert_eq!(mapped.len(), 1),
            Err(e) => {
                assert!(matches!(e, hex_disk::Error::Unmappable(_)), "{e}");
                assert!(e.to_string().contains("version"), "{e}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn open_keeps_the_dictionary_arena_mapped() {
    let g = graph_from(&[(0, 0, 0), (1, 1, 2), (2, 0, 5), (3, 2, 7)]);
    let path = temp_path("mapped-dict");
    hexsnap::save_frozen(&path, g.dict(), &g.store().freeze()).unwrap();

    let (mut dict, mapped) = hex_disk::open(&path).unwrap();
    assert!(dict.arena_is_shared(), "string arena must stay behind the mapping");
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

#[test]
fn corrupt_bytes_anywhere_never_panic_the_opener() {
    let g = graph_from(&[(0, 0, 0), (1, 1, 2), (2, 0, 5)]);
    let path = temp_path("flip");
    hexsnap::save_frozen(&path, g.dict(), &g.store().freeze()).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    // All eight shapes over the pristine store's constants, plus every
    // shape again with an id the store never saw.
    let mut pats = all_patterns(&hex_disk::open_store(&path).unwrap());
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

    // Flip every byte of the file in turn — header, DICT (counts, kinds,
    // offset table, string arena), TRPL, FROZ, trailer. The opener must
    // reject or answer, never panic; when it opens, the dictionary must
    // still behave (decode may miss, must not crash) and every read
    // operation must walk the (possibly corrupt) columns to the end:
    // answers may be wrong, a panic is a bug in the shared views' accessors.
    for i in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[i] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        if let Ok((dict, mapped)) = hex_disk::open(&path) {
            for id in 0..dict.len() as u32 {
                let _ = dict.decode(hex_dict::Id(id));
            }
            let sla = mapped.sorted_lists().expect("mmap store serves sorted lists");
            for &pat in &pats {
                let n = mapped.iter_matching(pat).count();
                mapped.for_each_matching(pat, &mut |_| {});
                let _ = mapped.count_matching(pat);
                let _ = mapped.iter_matching_range(pat, n / 2, n).count();
                let _ = mapped.iter_matching_range(pat, 1, usize::MAX).count();
                let _ = sla.sorted_list(pat);
            }
        }
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
