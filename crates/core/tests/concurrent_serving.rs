//! Stress test for the epoch-style snapshot handoff: reader threads
//! hammer [`hexastore::SnapshotHandle::load_tagged`] while the writer
//! inserts and compacts generation after generation, and every loaded
//! snapshot must be exactly one published generation — never a torn
//! in-between state.
//!
//! Each generation `g` contributes `PER_GEN` unique marker triples, so
//! the full content of the generation-`g` snapshot is decidable from its
//! tag alone: `PER_GEN * g` triples, containing every marker of
//! generations `1..=g` and none of any later generation.

use hexastore::LiveGraphStore;
use rdf_model::{Term, Triple};
use std::sync::atomic::{AtomicBool, Ordering};

const GENERATIONS: u64 = 6;
const PER_GEN: usize = 40;
const READERS: usize = 4;

/// The `i`-th marker triple of generation `g` — unique across the run.
fn marker(g: u64, i: usize) -> Triple {
    Triple::new(
        Term::iri(format!("http://x/gen{g}/item{i}")),
        Term::iri("http://x/in"),
        Term::iri(format!("http://x/gen{g}")),
    )
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hexserve-{name}-{}", std::process::id()))
}

#[test]
fn readers_always_see_a_whole_generation() {
    let dir = temp_dir("stress");
    std::fs::remove_dir_all(&dir).ok();
    let mut live = LiveGraphStore::open(&dir).expect("open live store");
    let handles: Vec<_> = (0..READERS).map(|_| live.subscribe()).collect();
    let stop = AtomicBool::new(false);
    let stop = &stop;

    std::thread::scope(|scope| {
        let readers: Vec<_> = handles
            .into_iter()
            .map(|handle| {
                scope.spawn(move || {
                    let mut last = 0u64;
                    let mut distinct = std::collections::BTreeSet::new();
                    loop {
                        // Read before the load: the flag is set once the
                        // writer is done, so a load that follows a set
                        // flag sees the final generation.
                        let stopping = stop.load(Ordering::SeqCst);
                        let (g, snap) = handle.load_tagged();
                        assert!(g >= last, "published generation went backwards: {last} -> {g}");
                        last = g;
                        distinct.insert(g);
                        // The two torn-state checks: the snapshot holds
                        // every triple of generations 1..=g and nothing
                        // of generations g+1..: no partially applied
                        // generation is ever visible.
                        assert_eq!(
                            snap.len(),
                            PER_GEN * g as usize,
                            "generation {g} snapshot has a torn triple count"
                        );
                        for gg in 1..=GENERATIONS {
                            assert_eq!(
                                snap.contains(&marker(gg, 0)),
                                gg <= g,
                                "generation {g} snapshot mis-reports generation {gg}'s marker"
                            );
                        }
                        if g == GENERATIONS || stopping {
                            break (last, distinct.len());
                        }
                        std::thread::yield_now();
                    }
                })
            })
            .collect();

        let writer = scope.spawn(move || {
            for g in 1..=GENERATIONS {
                for i in 0..PER_GEN {
                    live.insert(&marker(g, i)).expect("WAL append");
                }
                live.sync().expect("WAL fsync");
                live.compact().expect("compact under readers");
            }
            live
        });

        // Unblock the spinning readers even if the writer panicked, so a
        // failure surfaces as a panic instead of a hang.
        let finished = writer.join();
        stop.store(true, Ordering::SeqCst);
        let live = finished.expect("writer panicked");
        assert_eq!(live.generation(), GENERATIONS);

        for reader in readers {
            let (last, distinct) = reader.join().expect("reader panicked");
            assert_eq!(last, GENERATIONS, "reader exited before the final generation");
            assert!(distinct >= 1);
        }
    });

    // The handoff is durable, not just in-memory: a fresh open serves
    // the final generation.
    let reopened = LiveGraphStore::open(&dir).expect("reopen live store");
    assert_eq!(reopened.len(), PER_GEN * GENERATIONS as usize);
    assert_eq!(reopened.generation(), GENERATIONS);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn held_snapshot_survives_later_compactions() {
    let dir = temp_dir("pin");
    std::fs::remove_dir_all(&dir).ok();
    let mut live = LiveGraphStore::open(&dir).expect("open live store");
    for i in 0..PER_GEN {
        live.insert(&marker(1, i)).expect("WAL append");
    }
    live.compact().expect("compact generation 1");

    let handle = live.subscribe();
    let (tag, pinned) = handle.load_tagged();
    assert_eq!(tag, 1);

    for i in 0..PER_GEN {
        live.insert(&marker(2, i)).expect("WAL append");
    }
    live.compact().expect("compact generation 2");

    // The pinned Arc still serves generation 1, untouched by the two
    // compactions that superseded it; a fresh load sees generation 2.
    assert_eq!(pinned.len(), PER_GEN);
    assert!(pinned.contains(&marker(1, 0)));
    assert!(!pinned.contains(&marker(2, 0)));
    let (tag, latest) = handle.load_tagged();
    assert_eq!(tag, 2);
    assert_eq!(latest.len(), 2 * PER_GEN);
    drop(live);
    std::fs::remove_dir_all(&dir).ok();
}
