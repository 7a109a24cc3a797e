//! `live_serve`: a `LiveGraphStore` with a writer on a fixed schedule
//! (open loop) beside one closed-loop reader on published snapshots, then
//! a crash: the WAL is cut back to what the last `sync()` had flushed, the
//! store is reopened, and every acknowledged write is checked.

use crate::answer::{Client, Digest, QueryLog, RefBook};
use crate::counting::Counting;
use crate::data::{self, LookupStream};
use crate::report::{ClientStats, Outcome, WorkCounts};
use crate::stats::{median, median_ns, percentile_ns, tail_ns};
use crate::trace::Tracer;
use crate::workloads::{describe, prepare, Ctx, Mode, LOG_ROOM, LOOKUP_WINDOW};
use hexastore::traits::MutableStore;
use hexastore::{
    bulk, hexsnap, Dataset, IdPattern, LiveGraphStore, SnapshotHandle, TripleStore, Wal,
};
use rdf_model::Triple;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Writes per batch; one `sync()` acknowledges the batch.
const BATCH: u64 = 100;
/// A batch is due every 10 ms: 10,000 writes per second offered.
const PERIOD: Duration = Duration::from_millis(10);
/// `compact()` after every 25,000 writes.
const COMPACT_EVERY: u64 = 25_000;
/// Writes in the WAL when the crash happens, so that every run recovers
/// the same amount of log.
const WAL_AT_CRASH: u64 = 12_500;
/// Writes applied after the last `sync()`: never acknowledged, and gone
/// after the crash.
const UNSYNCED_TAIL: u64 = 10;
/// `--check`: this many batches instead of `--seconds` of them.
const CHECK_BATCHES: u64 = 600;
/// Reopens after the crash; `recover_s` is their median.
const RECOVERIES: usize = 5;

/// The `j`-th write of the schedule over a churn window of `c` triples:
/// `(insert?, index)`. The first `c / 2` writes fill the window; after
/// that inserts and removes alternate, the remove trailing the insert by
/// half the window, so every write changes the store.
fn write_op(j: u64, c: u64) -> (bool, usize) {
    let w = c / 2;
    if j < w {
        return (true, j as usize);
    }
    let k = j - w;
    if k % 2 == 0 {
        (true, ((w + k / 2) % c) as usize)
    } else {
        (false, ((k / 2) % c) as usize)
    }
}

/// Which churn triples are present after the first `n` writes.
fn model_after(n: u64, c: usize) -> Vec<bool> {
    let mut present = vec![false; c];
    for j in 0..n {
        let (insert, i) = write_op(j, c as u64);
        present[i] = insert;
    }
    present
}

struct Compaction {
    start_ns: u64,
    end_ns: u64,
    generation: u64,
    /// Writes folded into this generation.
    writes: u64,
    file_bytes: u64,
}

struct Written {
    ack_ns: Vec<u64>,
    late_ns: Vec<u64>,
    compactions: Vec<Compaction>,
    /// Writes acknowledged by a `sync()`, and how many of them failed
    /// (an error, or a result the model does not expect).
    acked: u64,
    failed: u64,
    wal_bytes: u64,
    acked_wal_len: u64,
    overlay: QueryLog,
}

/// What the judge needs of one read beside its latency and row count.
/// Kept small: the logs grow with the reader's speed, and `peak_rss_mb`
/// includes them.
struct Mark {
    /// Order-independent hash of the answer's rows.
    hash: u64,
    generation: u32,
    /// The query text, as numbered by [`Reads::texts`].
    text: u32,
}

struct Reads {
    /// Latency and rows of every answered read; the judge adds failures.
    log: QueryLog,
    /// One per entry of `log`.
    marks: Vec<Mark>,
    /// Traced runs only, one per entry of `log`: when the read started.
    start_ns: Vec<u64>,
    /// Reads that returned an error: failed operations outside `log`.
    errors: u64,
    /// Every distinct query text and its number.
    texts: HashMap<String, u32>,
    /// When the reader first loaded each generation.
    first_seen: Vec<(u64, u64)>,
    client: ClientStats,
    counts: WorkCounts,
}

fn apply(live: &mut LiveGraphStore, churn: &[Triple], j: u64) -> bool {
    let (insert, i) = write_op(j, churn.len() as u64);
    let done = if insert { live.insert(&churn[i]) } else { live.remove(&churn[i]) };
    matches!(done, Ok(true))
}

/// One batch: [`BATCH`] writes, one `sync()`, and the `compact()` that
/// falls due. `j` counts the writes applied so far.
fn batch(
    live: &mut LiveGraphStore,
    churn: &[Triple],
    j: &mut u64,
    w: &mut Written,
    epoch: Instant,
    tr: &mut Tracer,
) {
    let before = live.wal_bytes();
    tr.span("live.batch", |tr| {
        for _ in 0..BATCH {
            let ok = tr.span("live.write", |_| apply(live, churn, *j));
            w.failed += u64::from(!ok);
            *j += 1;
        }
        let synced = tr.span("live.sync", |_| live.sync());
        w.failed += if synced.is_err() { BATCH } else { 0 };
    });
    w.acked += BATCH;
    w.wal_bytes += live.wal_bytes() - before;
    if *j % COMPACT_EVERY == 0 {
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let done = tr.span("live.compact", |_| live.compact());
        w.failed += u64::from(done.is_err());
        let generation = live.generation();
        let file = hexsnap::generation_path(live.dir(), generation);
        w.compactions.push(Compaction {
            start_ns,
            end_ns: epoch.elapsed().as_nanos() as u64,
            generation,
            writes: *j,
            file_bytes: std::fs::metadata(file).map_or(0, |m| m.len()),
        });
    }
}

fn writer(
    ctx: &Ctx,
    mut live: LiveGraphStore,
    churn: &[Triple],
    mut stream: LookupStream,
    epoch: Instant,
    stop_reader: &AtomicBool,
    tr: &mut Tracer,
) -> Written {
    let mut w = Written {
        ack_ns: Vec::new(),
        late_ns: Vec::new(),
        compactions: Vec::new(),
        acked: 0,
        failed: 0,
        wal_bytes: 0,
        acked_wal_len: 0,
        overlay: QueryLog::default(),
    };
    let mut client = Client::new();
    let mut j = 0u64;
    let started = Instant::now();
    let mut b = 0u32;
    loop {
        let due = started + PERIOD * b;
        let go_on = match ctx.mode {
            Mode::Timed(s) => due.duration_since(started).as_secs_f64() < s,
            Mode::Check => u64::from(b) < CHECK_BATCHES,
        };
        if !go_on {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        w.late_ns.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        batch(&mut live, churn, &mut j, &mut w, epoch, tr);
        w.ack_ns.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        if tr.enabled {
            // Writer-side read through the overlay, once per batch.
            let q = stream.next();
            let got = tr.span("overlay.lookup", |tr| client.answer(live.dataset(), &q, tr));
            w.overlay.lat_ns.push(got.lat_ns);
            w.overlay.failed += u64::from(got.result.is_err());
        }
        b += 1;
    }
    stop_reader.store(true, Ordering::SeqCst);
    // Off the clock: go on, still acknowledged, until the WAL holds
    // exactly WAL_AT_CRASH writes, then leave a tail no sync() covers.
    while j % COMPACT_EVERY != WAL_AT_CRASH {
        batch(&mut live, churn, &mut j, &mut w, epoch, tr);
    }
    w.acked_wal_len = live.wal_bytes();
    for _ in 0..UNSYNCED_TAIL {
        apply(&mut live, churn, j);
        j += 1;
    }
    w
}

fn reader(
    handle: SnapshotHandle,
    mut stream: LookupStream,
    epoch: Instant,
    stop: &AtomicBool,
    drop_row: bool,
    tr: &mut Tracer,
) -> Reads {
    let mut out = Reads {
        log: QueryLog::with_room_for(LOG_ROOM),
        marks: Vec::with_capacity(LOG_ROOM),
        start_ns: Vec::new(),
        errors: 0,
        texts: HashMap::new(),
        first_seen: Vec::new(),
        client: ClientStats::default(),
        counts: WorkCounts::default(),
    };
    let mut client = Client::new();
    client.drop_row = drop_row;
    let mut current = None;
    let mut counting = None;
    let retire = |c: Option<Dataset<Counting<hexastore::FrozenHexastore>>>, out: &mut Reads| {
        if let Some(ds) = c {
            let (probes, touched) = ds.store().counts();
            out.counts.add(&WorkCounts { probes, touched, queries: 0, rows: 0 });
        }
    };
    while !stop.load(Ordering::SeqCst) {
        let q = stream.next();
        let start = Instant::now();
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let (generation, snap) = tr.span("snapshot.load", |_| handle.load_tagged());
        if current != Some(generation) {
            current = Some(generation);
            out.first_seen.push((generation, start_ns));
            if tr.enabled {
                retire(counting.take(), &mut out);
                counting = Some(Dataset::from_parts(
                    snap.dict().clone(),
                    Counting::new(snap.store().clone()),
                ));
            }
        }
        let got = match &counting {
            Some(ds) => client.answer(ds, &q, tr),
            None => client.answer(&*snap, &q, tr),
        };
        let lat_ns = start.elapsed().as_nanos() as u64;
        let digest = match got.digest() {
            Ok(digest) => digest,
            Err(e) => {
                out.errors += 1;
                if out.errors <= 3 {
                    eprintln!("FAILED read at generation {generation}: {}: {e}", q.text);
                }
                continue;
            }
        };
        drop(got);
        let next = out.texts.len() as u32;
        let text = *out.texts.entry(q.text).or_insert(next);
        out.log.push(lat_ns, digest.rows);
        out.marks.push(Mark { hash: digest.hash, generation: generation as u32, text });
        if tr.enabled {
            out.start_ns.push(start_ns);
        }
    }
    retire(counting.take(), &mut out);
    out.client = ClientStats::of(&client);
    out
}

/// Judges every read against a reference that replays the write schedule
/// up to the generation the read was served from, and counts the wrong
/// ones in `reads.log.failed`.
fn judge_reads<S: MutableStore>(
    mut reference: Dataset<S>,
    reads: &mut Reads,
    compactions: &[Compaction],
    churn: &[Triple],
) {
    let Reads { log, marks, texts, .. } = reads;
    let mut text_of = vec![""; texts.len()];
    for (text, &number) in texts.iter() {
        text_of[number as usize] = text;
    }
    let mut applied = 0u64;
    let mut i = 0;
    while i < marks.len() {
        let generation = marks[i].generation;
        let writes = compactions
            .iter()
            .find(|c| c.generation == u64::from(generation))
            .map_or(0, |c| c.writes);
        for j in applied..writes {
            let (insert, k) = write_op(j, churn.len() as u64);
            if insert {
                reference.insert(&churn[k]);
            } else {
                reference.remove(&churn[k]);
            }
        }
        applied = applied.max(writes);
        let mut refs = RefBook::new(&reference);
        while i < marks.len() && marks[i].generation == generation {
            let got = Digest { rows: u64::from(log.rows_each[i]), hash: marks[i].hash };
            let text = text_of[marks[i].text as usize];
            if !matches!(refs.expect(text), Ok(want) if *want == got) {
                log.failed += 1;
                if log.failed <= 3 {
                    eprintln!(
                        "FAILED read at generation {generation}: {text}: got {got:?}, want {:?}",
                        refs.expect(text)
                    );
                }
            }
            i += 1;
        }
    }
}

pub fn live_serve(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let scale = ctx.scale(data::D250K);
    let mut p = prepare(ctx, scale, 0.2, tr);
    let dir = ctx.work.join("live");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("live directory");
    std::fs::copy(ctx.work.join("setup.hexsnap"), hexsnap::generation_path(&dir, 1))
        .expect("base generation");
    let live = tr.span("live.open", |_| LiveGraphStore::open(&dir)).expect("live open");
    let handle = live.subscribe();
    let epoch = Instant::now();
    let stop = AtomicBool::new(false);
    let (reads_from, overlay_reads_from) = (p.stream.clone(), p.stream.fork(ctx.seed));
    let (mut wtr, mut rtr) =
        (Tracer::new(ctx.traced, "writer", epoch), Tracer::new(ctx.traced, "reader", epoch));
    let (written, mut reads) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(ctx, live, &p.churn, overlay_reads_from, epoch, &stop, &mut wtr));
        let r = s.spawn(|| reader(handle, reads_from, epoch, &stop, ctx.drop_row, &mut rtr));
        (w.join().expect("writer thread"), r.join().expect("reader thread"))
    });
    tr.absorb(wtr);
    tr.absorb(rtr);

    // The crash: whatever the last sync() had not flushed is discarded.
    let wal = dir.join("wal.hexwal");
    let file = std::fs::OpenOptions::new().write(true).open(&wal).expect("WAL file");
    file.set_len(written.acked_wal_len).expect("truncate WAL");
    file.sync_all().expect("sync WAL");
    drop(file);
    if tr.enabled {
        tr.span("wal.replay", |_| Wal::replay(&wal)).expect("WAL replay");
    }
    let mut recover_s = Vec::new();
    let mut recovered = None;
    for _ in 0..RECOVERIES {
        drop(recovered.take());
        let t = Instant::now();
        recovered = Some(tr.span("live.recover", |_| LiveGraphStore::open(&dir)).expect("recover"));
        recover_s.push(t.elapsed().as_secs_f64());
    }
    let recovered = recovered.expect("a recovery");
    // Every churn triple must be exactly where the acknowledged writes
    // left it, and nothing else may have appeared or gone.
    let present = model_after(written.acked, p.churn.len());
    let mut lost =
        present.iter().zip(&p.churn).filter(|(&want, t)| recovered.contains(t) != want).count()
            as u64;
    let want_len = p.ds.len() + present.iter().filter(|&&x| x).count();
    lost += u64::from(recovered.len() != want_len);
    if lost + written.failed > 0 {
        eprintln!(
            "FAILED writes: {} not applied as the model expects, {lost} acknowledged states lost \
             (recovered {} triples, model {want_len})",
            written.failed,
            recovered.len()
        );
    }
    drop(recovered);

    // The reference the reads are judged on: the `--check` oracle, else
    // a mutable Hexastore holding what the base generation holds.
    match p.oracle.take() {
        Some(oracle) => judge_reads(oracle, &mut reads, &written.compactions, &p.churn),
        None => {
            let ids = p.ds.store().iter_matching(IdPattern::ALL).collect();
            let reference = Dataset::from_parts(p.ds.dict().clone(), bulk::build(ids));
            judge_reads(reference, &mut reads, &written.compactions, &p.churn)
        }
    }
    let log = &reads.log;

    let mut out = Outcome::new("live_serve");
    describe(&mut out, ctx, scale, &p);
    out.note("churn_window", p.churn.len());
    out.note("timed_reads", log.attempted());
    out.note("timed_write_batches", written.ack_ns.len());
    out.note("writes_acknowledged", written.acked);
    out.note("compactions", written.compactions.len());
    out.universal(p.setup_s, &p.load, log, LOOKUP_WINDOW);
    let (ack, which) = tail_ns(&written.ack_ns);
    let batches = written.ack_ns.len();
    out.add_extra(
        "write_ack_p99_ms",
        ack / 1e6,
        "ms",
        format!("{which} of {batches} batches of {BATCH}, from the batch's due time"),
    );
    out.add_extra(
        "recover_s",
        median(&recover_s),
        "s",
        format!("median of {RECOVERIES} reopens with a WAL of {WAL_AT_CRASH} writes"),
    );
    if ctx.traced {
        let counts = WorkCounts { queries: log.attempted(), rows: log.rows(), ..reads.counts };
        let ms =
            |name: &str| tr.totals(name).iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<f64>>();
        let p99 = |v: &[u64]| percentile_ns(v, 99.0).unwrap_or(0.0);
        let visible: Vec<f64> = written
            .compactions
            .iter()
            .filter_map(|c| {
                let seen = reads.first_seen.iter().find(|(g, _)| *g == c.generation)?.1;
                Some(seen.saturating_sub(c.start_ns) as f64 / 1e6)
            })
            .collect();
        let compact = ms("live.compact");
        // Reads split by whether they overlapped a compact(), from outside.
        let (mut over, mut quiet) = (Vec::new(), Vec::new());
        for (&start, &lat) in reads.start_ns.iter().zip(&log.lat_ns) {
            let hit =
                written.compactions.iter().any(|c| start < c.end_ns && start + lat > c.start_ns);
            if hit { &mut over } else { &mut quiet }.push(lat);
        }
        let writes = written.acked.max(1) as f64;
        let rewritten = written.compactions.iter().map(|c| c.file_bytes).sum::<u64>() as f64;
        let count = |what: &str, span: &str| format!("median of {} {what}", tr.totals(span).len());
        // In the order of `report::LIVE_LAYERS`.
        let live = vec![
            (median_ns(tr.totals("live.open")) / 1e9, "open on the base generation".to_string()),
            (median_ns(tr.totals("live.write")) / 1e3, count("writes", "live.write")),
            (median(&ms("live.sync")), count("syncs", "live.sync")),
            (median(&compact), count("compactions", "live.compact")),
            (compact.iter().copied().fold(0.0, f64::max), String::new()),
            (written.compactions.len() as f64, String::new()),
            (written.wal_bytes as f64 / writes, String::new()),
            (rewritten / writes, "generation files written / writes".to_string()),
            (p99(&written.late_ns) / 1e6, "how late the generator started a batch".to_string()),
            (
                median_ns(tr.totals("wal.replay")) / 1e9,
                "Wal::replay of the crashed log".to_string(),
            ),
            (median_ns(tr.totals("snapshot.load")), String::new()),
            (p99(tr.totals("snapshot.load")), String::new()),
            (
                median(&visible),
                "from the start of compact() to the reader's first load of the new generation"
                    .to_string(),
            ),
            (p99(&quiet) / 1e3, format!("{} reads beside no compaction", quiet.len())),
            (p99(&over) / 1e3, format!("{} reads that overlapped one", over.len())),
            (
                over.len() as f64 / log.attempted().max(1) as f64,
                "timed reads that overlapped a compact()".to_string(),
            ),
            (
                median_ns(&written.overlay.lat_ns) / 1e3,
                "writer-side lookups through live.dataset()".to_string(),
            ),
        ];
        out.layers(tr, &p.load, &reads.client, counts, live);
    }
    out.count_ops(
        &[log, &written.overlay],
        written.acked + p.churn.len() as u64 + 1 + reads.errors,
        written.failed + lost + reads.errors,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_write_of_the_schedule_changes_the_store() {
        let c = 40;
        let mut present = vec![false; c];
        for j in 0..1000 {
            let (insert, i) = write_op(j, c as u64);
            assert_ne!(present[i], insert, "write {j} would be a no-op");
            present[i] = insert;
        }
        assert_eq!(present, model_after(1000, c));
    }
}
