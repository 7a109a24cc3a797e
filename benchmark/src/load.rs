//! The load pipeline (N-Triples text → durable `hexsnap` file) and the
//! restart tail (reopen the file with `hex_disk`, answer the twelve paper
//! queries, then a burst of lookups). `bulk_load` repeats the two as its
//! timed section; every workload runs the pipeline once in its set-up,
//! because that is how its store comes to exist.

use crate::answer::{Answered, Client, QueryLog, RefBook};
use crate::counting::Counting;
use crate::data::{LookupStream, Query};
use crate::report::{ClientStats, WorkCounts};
use crate::trace::Tracer;
use hex_dict::Dictionary;
use hexastore::hexsnap::{self, Compression};
use hexastore::{bulk, Dataset, FrozenGraphStore, TripleStore};
use std::path::Path;
use std::time::Instant;

/// Lookups answered after the twelve paper queries of a restart tail.
/// With 12 + 238 = 250 queries per restart, 1 % of them is 2.5 queries,
/// so the 99th percentile of a run's restart latencies falls in the
/// middle of one query's distribution (the third slowest paper query)
/// however many restarts the run makes, not on the gap between two.
pub const RESTART_BURST: usize = 238;

#[derive(Clone, Copy)]
pub struct LoadStats {
    /// Triples in the text (duplicates included) and distinct ones stored.
    pub triples_in: usize,
    pub triples: usize,
    pub load_s: f64,
    pub file_bytes: u64,
    pub store_heap: usize,
    pub dict_heap: usize,
    pub terms: usize,
    /// Size of the varint-delta file a traced run also writes.
    pub compressed_bytes: Option<u64>,
}

impl LoadStats {
    pub fn triples_per_s(&self) -> f64 {
        self.triples_in as f64 / self.load_s
    }
    pub fn disk_bytes_per_triple(&self) -> f64 {
        self.file_bytes as f64 / self.triples as f64
    }
    pub fn heap_bytes_per_triple(&self) -> f64 {
        (self.store_heap + self.dict_heap) as f64 / self.triples as f64
    }
}

/// `parse_document` → dictionary encode → `bulk::build_frozen` →
/// `hexsnap::save_frozen` + `sync_all`. Encoding uses the thread count
/// `Dataset::load_ntriples` would; the bulk build its default config.
pub fn load(text: &str, path: &Path, tr: &mut Tracer) -> (FrozenGraphStore, LoadStats) {
    let t = Instant::now();
    let triples = tr
        .span("rdf_model.parse", |_| rdf_model::parse_document(text))
        .expect("generated N-Triples parse");
    let triples_in = triples.len();
    let mut dict = Dictionary::new();
    let ids = tr.span("hex_dict.encode", |_| {
        let threads = bulk::Config::default().effective_threads(triples.len());
        dict.encode_triples_parallel(&triples, threads)
    });
    drop(triples);
    let store = tr.span("bulk.build_frozen", |_| bulk::build_frozen(ids));
    tr.span("hexsnap.save", |_| {
        hexsnap::save_frozen(path, &dict, &store)?;
        std::fs::File::open(path)?.sync_all()?;
        Ok::<_, hexsnap::Error>(())
    })
    .expect("snapshot save");
    let load_s = t.elapsed().as_secs_f64();
    let compressed_bytes = tr.enabled.then(|| {
        let z = path.with_extension("hexsnapz");
        tr.span("hexsnap.save_compressed", |_| {
            hexsnap::save_frozen_with(&z, &dict, &store, Compression::VarintDelta)
        })
        .expect("compressed save");
        std::fs::metadata(&z).expect("compressed file").len()
    });
    let stats = LoadStats {
        triples_in,
        triples: store.len(),
        load_s,
        file_bytes: std::fs::metadata(path).expect("snapshot file").len(),
        store_heap: store.heap_bytes(),
        dict_heap: dict.heap_bytes(),
        terms: dict.len(),
        compressed_bytes,
    };
    (Dataset::from_parts(dict, store), stats)
}

pub struct Restarted {
    /// `hex_disk::open` plus the first pass of the twelve paper queries.
    pub first_answer_s: f64,
    pub clients: ClientStats,
    /// Traced runs: the counting adaptor's counts over this tail.
    pub counts: WorkCounts,
}

/// One pass of the twelve paper queries inside a span called `span`,
/// judged and logged after the span has closed.
pub fn pass<S: TripleStore>(
    span: &'static str,
    ds: &Dataset<S>,
    paper: &[Query],
    client: &mut Client,
    refs: &mut RefBook<'_>,
    log: &mut QueryLog,
    tr: &mut Tracer,
) {
    let got: Vec<Answered> =
        tr.span(span, |tr| paper.iter().map(|q| client.answer(ds, q, tr)).collect());
    log.record_all(paper, &got, refs);
}

/// What a restarted server pays: map the file, answer the twelve paper
/// queries on cold plans, then a burst of lookups. A traced run adds a
/// warm pass and the eager loaders, to size the mmap-vs-eager gap.
/// `drop_row` is `--inject drop-row`: the harness spoils one answer.
pub fn restart(
    path: &Path,
    paper: &[Query],
    stream: &mut LookupStream,
    refs: &mut RefBook<'_>,
    log: &mut QueryLog,
    drop_row: bool,
    tr: &mut Tracer,
) -> Restarted {
    let t = Instant::now();
    let (dict, store) = tr.span("hex_disk.open", |_| hex_disk::open(path)).expect("mmap open");
    let open_s = t.elapsed().as_secs_f64();
    let mut client = Client::new();
    client.drop_row = drop_row;
    if !tr.enabled {
        let ds = Dataset::from_parts(dict, store);
        let mut r = tail(&ds, client, paper, stream, refs, log, tr);
        r.first_answer_s += open_s;
        return r;
    }
    let ds = Dataset::from_parts(dict, Counting::new(store));
    let (rows, queries) = (log.rows(), log.attempted());
    let mut r = tail(&ds, client, paper, stream, refs, log, tr);
    r.first_answer_s += open_s;
    let (probes, touched) = ds.store().counts();
    r.counts =
        WorkCounts { probes, touched, queries: log.attempted() - queries, rows: log.rows() - rows };
    let eager = tr.span("hexsnap.load_frozen", |_| hexsnap::load_frozen(path)).expect("load");
    std::hint::black_box(eager);
    let z = path.with_extension("hexsnapz");
    let eager = tr.span("hexsnap.load_compressed", |_| hexsnap::load_frozen(&z)).expect("load");
    std::hint::black_box(eager);
    r
}

/// The queries of a restart on the opened store; `first_answer_s` is
/// the first pass alone, to which [`restart`] adds the open.
fn tail<S: TripleStore>(
    ds: &Dataset<S>,
    mut client: Client,
    paper: &[Query],
    stream: &mut LookupStream,
    refs: &mut RefBook<'_>,
    log: &mut QueryLog,
    tr: &mut Tracer,
) -> Restarted {
    let t = Instant::now();
    let got: Vec<Answered> = tr
        .span("hex_disk.first_pass", |tr| paper.iter().map(|q| client.answer(ds, q, tr)).collect());
    let first_answer_s = t.elapsed().as_secs_f64();
    log.record_all(paper, &got, refs);
    drop(got);
    for _ in 0..RESTART_BURST {
        let q = stream.next();
        log.record(&q, &client.answer(ds, &q, tr), refs);
    }
    if tr.enabled {
        pass("hex_disk.warm_pass", ds, paper, &mut client, refs, log, tr);
    }
    Restarted { first_answer_s, clients: ClientStats::of(&client), counts: WorkCounts::default() }
}

/// Traced runs only: a warm pass of the twelve on the in-memory frozen
/// store (the first pass fills the plan cache, the second is timed).
pub fn frozen_warm_pass(
    ds: &FrozenGraphStore,
    paper: &[Query],
    refs: &mut RefBook<'_>,
    log: &mut QueryLog,
    tr: &mut Tracer,
) {
    let mut client = Client::new();
    pass("frozen.fill_pass", ds, paper, &mut client, refs, log, tr);
    pass("frozen.warm_pass", ds, paper, &mut client, refs, log, tr);
}
