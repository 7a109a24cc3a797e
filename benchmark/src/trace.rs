//! Spans recorded by the benchmark's own code around each call into a
//! layer. Kept in memory, folded into per-name total and self times, and
//! written to `benchmark/out/trace-<workload>.jsonl` when the run ends.
//! A disabled tracer runs the closure and records nothing, so the
//! untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Raw spans kept for the JSONL file. Totals and self times are folded
/// from every span; only the file is capped, so that a twelve-second
/// lookup run (millions of spans) does not write a gigabyte.
const RAW_SPAN_CAP: usize = 200_000;

struct Raw {
    id: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u64>,
    request: u64,
}

struct Open {
    id: u64,
    start_ns: u64,
    child_ns: u64,
}

pub struct Tracer {
    pub enabled: bool,
    thread: &'static str,
    epoch: Instant,
    next_id: u64,
    /// The request the spans being recorded belong to.
    pub request: u64,
    open: Vec<Open>,
    raw: Vec<Raw>,
    /// Raw spans of tracers folded in by [`Tracer::absorb`]; span ids are
    /// per thread.
    other_threads: Vec<(&'static str, Vec<Raw>)>,
    /// Per span name: every span's duration, and its duration minus the
    /// part its child spans cover.
    totals: BTreeMap<&'static str, Vec<u64>>,
    selfs: BTreeMap<&'static str, Vec<u64>>,
}

impl Tracer {
    /// `epoch` is shared by the tracers of one run, so that spans of
    /// different threads sit on one time axis.
    pub fn new(enabled: bool, thread: &'static str, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            thread,
            epoch,
            next_id: 0,
            request: 0,
            open: Vec::new(),
            raw: Vec::new(),
            other_threads: Vec::new(),
            totals: BTreeMap::new(),
            selfs: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span called `name`. The span's parent is the
    /// span open on this tracer when it starts.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.push(Open { id, start_ns, child_ns: 0 });
        let out = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let done = self.open.pop().expect("span stack underflow");
        let dur = end_ns - done.start_ns;
        self.totals.entry(name).or_default().push(dur);
        self.selfs.entry(name).or_default().push(dur.saturating_sub(done.child_ns));
        let parent = self.open.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        if self.raw.len() < RAW_SPAN_CAP {
            self.raw.push(Raw { id, name, start_ns, end_ns, parent, request: self.request });
        }
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn totals(&self, name: &str) -> &[u64] {
        self.totals.get(name).map_or(&[], Vec::as_slice)
    }

    /// Self times (ns) of every span called `name`.
    #[cfg(test)]
    pub fn selfs(&self, name: &str) -> &[u64] {
        self.selfs.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum of the self times of every span, per name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let mut v: Vec<_> =
            self.selfs.iter().map(|(n, s)| (*n, s.iter().sum::<u64>(), s.len())).collect();
        v.sort_by_key(|&(_, ns, _)| std::cmp::Reverse(ns));
        v
    }

    /// Folds another thread's tracer into this one (live_serve's reader
    /// and writer each record their own).
    pub fn absorb(&mut self, other: Tracer) {
        for (name, mut v) in other.totals {
            self.totals.entry(name).or_default().append(&mut v);
        }
        for (name, mut v) in other.selfs {
            self.selfs.entry(name).or_default().append(&mut v);
        }
        self.other_threads.push((other.thread, other.raw));
    }

    /// Writes the raw spans, one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut n = 0;
        let own = std::iter::once((self.thread, &self.raw));
        for (thread, raw) in own.chain(self.other_threads.iter().map(|(t, r)| (*t, r))) {
            for s in raw {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    w,
                    "{{\"thread\":\"{thread}\",\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                    s.id, s.name, s.start_ns, s.end_ns, s.request
                )?;
                n += 1;
            }
        }
        w.flush()?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true, "main", Instant::now());
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let outer = t.totals("outer")[0];
        let inner = t.totals("inner")[0];
        assert!(inner >= 5_000_000 && outer >= inner);
        assert_eq!(t.selfs("outer")[0], outer - inner);
        assert_eq!(t.selfs("inner")[0], inner);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, "main", Instant::now());
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.totals("x").is_empty());
    }
}
