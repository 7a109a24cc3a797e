//! Equivalence and crash-safety of the live write path: an
//! [`OverlayHexastore`] (frozen base + mutable delta + tombstones) must
//! answer all eight access patterns exactly like the [`TriplesTable`]
//! oracle through arbitrary interleavings of inserts, removes and
//! compactions — and a [`LiveGraphStore`] whose write-ahead log is cut
//! at an arbitrary byte must recover to the net effect of some prefix of
//! the logged operations, never to a torn in-between state and never
//! with a panic.

use hex_baselines::TriplesTable;
use hex_dict::IdTriple;
use hexastore::{bulk, IdPattern, LiveGraphStore, OverlayHexastore, TripleStore};
use proptest::prelude::*;
use rdf_model::{Term, Triple};
use std::path::PathBuf;

fn arb_triple() -> impl Strategy<Value = IdTriple> {
    (0u32..10, 0u32..5, 0u32..10).prop_map(IdTriple::from)
}

/// The eight access shapes, probed for every touched triple plus misses.
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

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(IdTriple),
    Remove(IdTriple),
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => arb_triple().prop_map(Op::Insert),
        3 => arb_triple().prop_map(Op::Remove),
        1 => Just(Op::Compact),
    ]
}

/// A term universe where id-level triple `(s, p, o)` round-trips through
/// the string-level store as three minted IRIs.
fn term_for(i: u32) -> Term {
    Term::iri(format!("http://t/{i}"))
}

fn triple_for(t: IdTriple) -> Triple {
    Triple::new(term_for(t.s.0), term_for(t.p.0), term_for(t.o.0))
}

fn live_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("hexlive-prop-{}-{tag}-{n}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Interleaved mutations and compactions leave the overlay
    /// indistinguishable from the flat oracle: same set-semantics return
    /// values, same length, same answers on every access pattern —
    /// mid-stream, at the end, and after a final compaction folds the
    /// delta and tombstones into a fresh frozen base.
    #[test]
    fn overlay_tracks_the_oracle_through_interleaved_mutations(
        seed in proptest::collection::vec(arb_triple(), 0..40),
        ops in proptest::collection::vec(arb_op(), 0..60),
    ) {
        let mut oracle = TriplesTable::from_triples(seed.iter().copied());
        let mut overlay = OverlayHexastore::new(bulk::build_frozen(seed.clone()));
        let mut touched = seed;
        for &op in &ops {
            match op {
                Op::Insert(t) => {
                    touched.push(t);
                    prop_assert_eq!(overlay.insert(t), oracle.insert(t), "insert {t:?}");
                }
                Op::Remove(t) => {
                    touched.push(t);
                    prop_assert_eq!(overlay.remove(t), oracle.remove(t), "remove {t:?}");
                }
                Op::Compact => overlay.compact(),
            }
            prop_assert_eq!(overlay.len(), oracle.len());
        }
        for pat in probe_patterns(&touched) {
            assert_matches_oracle(&overlay, &oracle, pat);
        }
        overlay.compact();
        prop_assert!(!overlay.is_dirty());
        prop_assert_eq!(overlay.len(), oracle.len());
        for pat in probe_patterns(&touched) {
            assert_matches_oracle(&overlay, &oracle, pat);
        }
    }

    /// Cut the write-ahead log at an arbitrary byte and recovery must
    /// land exactly on the net state of some prefix of the logged
    /// operations (torn or corrupt tails roll back whole records), and
    /// the recovered store must stay writable.
    #[test]
    fn truncated_wal_recovers_to_an_operation_prefix(
        ops in proptest::collection::vec(arb_op(), 1..25),
        cut_seed in 0u64..u64::MAX,
    ) {
        let dir = live_dir("cut");
        // Universe of every triple the ops mention, deduplicated: a
        // state is fully described by membership over this universe.
        let mut universe: Vec<IdTriple> = ops
            .iter()
            .filter_map(|&op| match op {
                Op::Insert(t) | Op::Remove(t) => Some(t),
                Op::Compact => None,
            })
            .collect();
        universe.sort_unstable();
        universe.dedup();

        // Apply the ops (Compact is reinterpreted as a no-op here: the
        // cut must land inside one uninterrupted log) and snapshot the
        // net state after every *logged* operation — no-ops are
        // suppressed and never reach the WAL.
        let mut state: Vec<bool> = vec![false; universe.len()];
        let mut prefix_states: Vec<Vec<bool>> = vec![state.clone()];
        {
            let mut live = LiveGraphStore::open(&dir).unwrap();
            for &op in &ops {
                let logged = match op {
                    Op::Insert(t) => {
                        let slot = universe.binary_search(&t).unwrap();
                        let changed = live.insert(&triple_for(t)).unwrap();
                        prop_assert_eq!(changed, !state[slot]);
                        state[slot] = true;
                        changed
                    }
                    Op::Remove(t) => {
                        let slot = universe.binary_search(&t).unwrap();
                        let changed = live.remove(&triple_for(t)).unwrap();
                        prop_assert_eq!(changed, state[slot]);
                        state[slot] = false;
                        changed
                    }
                    Op::Compact => false,
                };
                if logged {
                    prefix_states.push(state.clone());
                }
            }
            live.sync().unwrap();
            // Dropped without compacting: the WAL is the only record.
        }

        let wal_path = dir.join("wal.hexwal");
        let full_len = std::fs::metadata(&wal_path).unwrap().len();
        let cut = cut_seed % (full_len + 1);
        let file = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let recovered = LiveGraphStore::recover(&dir).unwrap();
        let recovered_state: Vec<bool> =
            universe.iter().map(|&t| recovered.contains(&triple_for(t))).collect();
        let live_triples = recovered_state.iter().filter(|&&m| m).count();
        prop_assert_eq!(recovered.len(), live_triples);
        prop_assert!(
            prefix_states.contains(&recovered_state),
            "recovered state {recovered_state:?} matches no op prefix (cut at {cut}/{full_len})"
        );
        if cut == full_len {
            prop_assert_eq!(recovered_state, prefix_states.last().unwrap().clone());
        }

        // The recovered store keeps accepting (and logging) writes.
        let mut recovered = recovered;
        let probe = IdTriple::from((90, 90, 90));
        prop_assert!(recovered.insert(&triple_for(probe)).unwrap());
        prop_assert!(recovered.contains(&triple_for(probe)));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// An IRI may hold any string — `Term::iri` checks nothing — and the WAL
/// logs statements as N-Triples lines. A line whose IRI went out
/// verbatim with a space, `>`, `"`, `\` or a newline in it passed its
/// checksum but did not parse back, and replay took it *and every record
/// after it* for a torn tail: acknowledged, synced writes vanished on
/// recovery. The writer now `\u`-escapes what the IRI grammar forbids.
#[test]
fn writes_with_awkward_iris_survive_recovery() {
    let dir = live_dir("awkward-iri");
    let p = Term::iri("http://t/p");
    let awkward: Vec<Triple> =
        ["http://x/a b", "http://x/a>b", "http://x/a\"b", "a\\b", "a\nb", ""]
            .into_iter()
            .map(|iri| Triple::new(Term::iri(iri), p.clone(), Term::typed_literal("v", iri)))
            .collect();
    let later: Vec<Triple> = (0..5).map(|i| triple_for(IdTriple::from((i, 1, i)))).collect();
    {
        let mut live = LiveGraphStore::open(&dir).unwrap();
        for t in &awkward {
            assert!(live.insert(t).unwrap());
        }
        live.sync().unwrap();
        for t in &later {
            assert!(live.insert(t).unwrap());
        }
        live.sync().unwrap();
        // Dropped without compacting: the WAL is the only record.
    }
    let recovered = LiveGraphStore::recover(&dir).unwrap();
    assert_eq!(recovered.len(), awkward.len() + later.len());
    for t in awkward.iter().chain(&later) {
        assert!(recovered.contains(t), "lost on recovery: {t}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Blank-node labels and language tags are logged verbatim, and neither
/// `Term::blank` nor `Term::lang_literal` checks its argument. A label with
/// a space in it made a record that checksummed, did not parse back, and
/// was dropped at recovery — with every acknowledged write behind it — as
/// a torn tail. Such a write is now refused before it reaches the log.
#[test]
fn a_write_the_log_could_not_replay_is_refused_and_loses_nothing() {
    let dir = live_dir("unloggable");
    let p = Term::iri("http://t/p");
    let earlier: Vec<Triple> = (0..5).map(|i| triple_for(IdTriple::from((i, 1, i)))).collect();
    let later = triple_for(IdTriple::from((7, 1, 7)));
    let refused = [
        Triple::new(Term::blank("a b"), p.clone(), term_for(1)),
        Triple::new(term_for(1), p.clone(), Term::lang_literal("chat", "fr FR")),
    ];
    {
        let mut live = LiveGraphStore::open(&dir).unwrap();
        for t in &earlier {
            assert!(live.insert(t).unwrap());
        }
        live.sync().unwrap();
        let before = (live.len(), live.wal_bytes(), live.dataset().dict().len());
        for t in &refused {
            let err = live.insert(t).unwrap_err();
            assert!(matches!(err, hexastore::hexsnap::Error::Unloggable(_)), "{err}");
            assert!(!live.contains(t));
            assert!(!live.remove(t).unwrap(), "an absent triple is not logged at all");
        }
        assert_eq!((live.len(), live.wal_bytes(), live.dataset().dict().len()), before);
        assert!(live.insert(&later).unwrap());
        live.sync().unwrap();
    }
    let recovered = LiveGraphStore::recover(&dir).unwrap();
    assert_eq!(recovered.len(), earlier.len() + 1);
    for t in earlier.iter().chain([&later]) {
        assert!(recovered.contains(t), "lost on recovery: {t}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
