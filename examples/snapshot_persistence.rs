//! Persist a `GraphStore` as a binary `hexsnap` snapshot and open it
//! again without rebuilding anything: `graph.freeze().save(path)` writes
//! a columnar file whose slab sections open straight into a query-ready
//! `FrozenGraphStore` (`FrozenGraphStore::load`) — no index rebuild and
//! no id-level code — and `thaw()` makes it writable again, in O(1).
//!
//! With the `disk` feature the demo adds two more ways to use the same
//! format: saving the slabs varint-delta compressed
//! (`Compression::VarintDelta`) and opening an uncompressed snapshot
//! through the `hex-disk` mmap path, where the slab columns stay on disk
//! and page faults do the reading.
//!
//! Run with: `cargo run --example snapshot_persistence`
//! (or `--features disk` for the compressed + mmap paths).

use hexastore::{FrozenGraphStore, GraphStore};
use rdf_model::{Term, TermPattern, TriplePattern};

fn main() {
    let mut g = GraphStore::new();
    g.load_ntriples(
        r#"
<http://ex/ID1> <http://ex/advisor> <http://ex/ID2> .
<http://ex/ID2> <http://ex/worksFor> "MIT" .
<http://ex/ID3> <http://ex/advisor> <http://ex/ID2> .
"#,
    )
    .expect("valid N-Triples");
    println!("loaded {} triples", g.len());

    let pat = TriplePattern::new(
        TermPattern::var("student"),
        TermPattern::Bound(Term::iri("http://ex/advisor")),
        TermPattern::Bound(Term::iri("http://ex/ID2")),
    );
    let before = g.matching(&pat);

    // --- Freeze, save, open: binary hexsnap through the facade. -------
    // The process id keeps concurrent runs of the demo off each other's file.
    let pid = std::process::id();
    let bin_path = std::env::temp_dir().join(format!("hexastore_snapshot_demo_{pid}.hexsnap"));
    g.freeze().save(&bin_path).expect("write binary snapshot");
    let bytes = std::fs::metadata(&bin_path).expect("stat snapshot").len();
    println!("binary snapshot is {bytes} bytes (dictionary arena + slabs)");

    let frozen = FrozenGraphStore::load(&bin_path).expect("open binary snapshot");
    std::fs::remove_file(&bin_path).ok();
    println!("frozen open: {} triples query-ready without rebuilding indices", frozen.len());

    // The frozen dataset answers the same string-level query through its
    // slab columns — no manual dictionary plumbing.
    assert_eq!(frozen.matching(&pat), before);
    println!("advisor query agrees after the round trip: {} students of ID2", before.len());

    // Need updates again? Thaw back to a mutable GraphStore, loss-free.
    let mut thawed = frozen.thaw();
    assert!(thawed.insert(&rdf_model::Triple::new(
        Term::iri("http://ex/ID4"),
        Term::iri("http://ex/advisor"),
        Term::iri("http://ex/ID2"),
    )));
    println!("thawed store accepts updates again ({} triples)", thawed.len());

    // --- Feature "disk": compressed save + mmap cold open. -----------
    #[cfg(feature = "disk")]
    demo_disk(&g, &pat, &before);
    #[cfg(not(feature = "disk"))]
    println!("(re-run with --features disk for the compressed + mmap demos)");
}

/// A varint-delta compressed snapshot (smaller file,
/// decoding open) and the `hex-disk` mmap open of an uncompressed one
/// (near-instant open, columns paged in on demand).
#[cfg(feature = "disk")]
fn demo_disk(g: &GraphStore, pat: &TriplePattern, before: &[rdf_model::Triple]) {
    use hexastore::hexsnap::{self, Compression};

    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let plain_path = dir.join(format!("hexastore_snapshot_demo_{pid}_plain.hexsnap"));
    let comp_path = dir.join(format!("hexastore_snapshot_demo_{pid}_compressed.hexsnap"));
    let frozen = g.store().freeze();
    hexsnap::save_frozen(&plain_path, g.dict(), &frozen).expect("write uncompressed snapshot");
    hexsnap::save_frozen_with(&comp_path, g.dict(), &frozen, Compression::VarintDelta)
        .expect("write compressed snapshot");
    let plain_bytes = std::fs::metadata(&plain_path).expect("stat").len();
    let comp_bytes = std::fs::metadata(&comp_path).expect("stat").len();
    println!("compressed snapshot: {comp_bytes} bytes vs {plain_bytes} uncompressed");

    // Compressed files open through the same loader — decode + validate.
    let (_, decoded) = hexsnap::load_frozen(&comp_path).expect("decode compressed snapshot");
    assert_eq!(hexastore::TripleStore::len(&decoded), g.len());

    // Uncompressed files can skip the read entirely: map, don't load.
    let ds = hex_disk::open_dataset(&plain_path).expect("mmap open");
    let mapped = ds.matching(pat);
    assert_eq!(mapped, before, "mapped store answers identically");
    println!(
        "mmap open: {} triples served from {plain_bytes} mapped bytes, heap {} bytes",
        hexastore::TripleStore::len(ds.store()),
        hexastore::TripleStore::heap_bytes(ds.store()),
    );

    std::fs::remove_file(&plain_path).ok();
    std::fs::remove_file(&comp_path).ok();
}
