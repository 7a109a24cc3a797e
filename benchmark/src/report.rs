//! The metric lists of record and how a run's numbers become them.
//!
//! [`E2E`] and [`layer_names`] are exactly `BENCHMARK.json`'s `end_to_end`
//! and `per_layer`: every workload reports every one of them (a layer a
//! workload does not run reports 0). The end-to-end *timings*
//! ([`TIMINGS`]) are on the per-layer list, which has no bounds: the
//! sandbox cannot hold any of them to 10 % (`README.md`, Repeatability).
//! An untraced run measures, prints and saves them as *extra*.

use crate::answer::{Client, QueryLog};
use crate::data::{PAPER, TEMPLATES};
use crate::load::LoadStats;
use crate::stats::{json_num, json_str, median, median_ns, tail_ns, Metric};
use crate::trace::Tracer;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("disk_bytes_per_triple", "B/triple"),
    ("heap_bytes_per_triple", "B/triple"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end timings. Every workload measures the first four;
/// `bulk_load` the next two, `analytic` `pass_p50_ms`, `live_serve` the
/// last two. A traced run reports them among the layers, 0 where the
/// workload has none.
pub const TIMINGS: [(&str, &str); 9] = [
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("queries_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("load_triples_per_s", "1/s"),
    ("reopen_first_answer_ms", "ms"),
    ("pass_p50_ms", "ms"),
    ("write_ack_p99_ms", "ms"),
    ("recover_s", "s"),
];

/// Per-layer metrics that are the median duration of a span: `(metric,
/// span, unit)`.
const SPAN_LAYERS: [(&str, &str, &str); 16] = [
    ("rdf_model.parse_s", "rdf_model.parse", "s"),
    ("hex_dict.encode_s", "hex_dict.encode", "s"),
    ("bulk.build_frozen_s", "bulk.build_frozen", "s"),
    ("hexsnap.save_s", "hexsnap.save", "s"),
    ("hexsnap.save_compressed_s", "hexsnap.save_compressed", "s"),
    ("hex_disk.open_s", "hex_disk.open", "s"),
    ("hex_disk.first_pass_ms", "hex_disk.first_pass", "ms"),
    ("hex_disk.warm_pass_ms", "hex_disk.warm_pass", "ms"),
    ("hexsnap.load_frozen_s", "hexsnap.load_frozen", "s"),
    ("hexsnap.load_compressed_s", "hexsnap.load_compressed", "s"),
    ("frozen.warm_pass_ms", "frozen.warm_pass", "ms"),
    ("parser.parse_us", "parser.parse", "us"),
    ("engine.compile_us", "engine.compile", "us"),
    ("engine.plan_us", "engine.plan", "us"),
    ("plan_cache.hit_us", "plan_cache.hit", "us"),
    ("solutions.decode_us", "solutions.decode", "us"),
];

/// Per-layer metrics that are not a span median, in the order
/// [`Outcome::layers`] computes them.
const OTHER_LAYERS: [(&str, &str); 10] = [
    ("hex_dict.terms", "count"),
    ("hexsnap.file_bytes", "B"),
    ("hexsnap.compressed_file_bytes", "B"),
    ("frozen.heap_bytes", "B"),
    ("hex_dict.heap_bytes", "B"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.invalidations", "count"),
    ("exec.merge_plan_share", "ratio"),
    ("store.probes_per_query", "count"),
    ("store.triples_scanned_per_row", "count"),
];

/// Per-layer metrics only `live_serve` has a value for (0 elsewhere), in
/// the order `live.rs` computes them.
pub const LIVE_LAYERS: [(&str, &str); 17] = [
    ("live.open_s", "s"),
    ("live.insert_us", "us"),
    ("live.sync_ms", "ms"),
    ("live.compact_ms", "ms"),
    ("live.compact_max_ms", "ms"),
    ("live.compactions", "count"),
    ("wal.bytes_per_write", "B"),
    ("hexsnap.bytes_rewritten_per_write", "B"),
    ("gen.late_p99_ms", "ms"),
    ("wal.replay_s", "s"),
    ("snapshot.load_p50_ns", "ns"),
    ("snapshot.load_p99_ns", "ns"),
    ("snapshot.publish_to_visible_ms", "ms"),
    ("query.quiet_p99_us", "us"),
    ("query.overlap_p99_us", "us"),
    ("query.overlap_share", "ratio"),
    ("overlay.lookup_us", "us"),
];

fn unit_scale(unit: &str) -> f64 {
    match unit {
        "s" => 1e9,
        "ms" => 1e6,
        "us" => 1e3,
        _ => 1.0,
    }
}

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
#[cfg(test)]
fn layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        SPAN_LAYERS.iter().map(|&(m, _, u)| (m.to_string(), u)).collect();
    v.push(("exec.walk_us".into(), "us"));
    for q in PAPER {
        v.push((format!("{q}_ms"), "ms"));
    }
    for t in TEMPLATES {
        v.push((format!("{t}_us"), "us"));
    }
    let rest = OTHER_LAYERS.iter().chain(&TIMINGS).chain(&LIVE_LAYERS);
    v.extend(rest.map(|&(n, u)| (n.to_string(), u)));
    v
}

/// Plan-cache and planner counters summed over the clients of a run.
#[derive(Default, Clone, Copy)]
pub struct ClientStats {
    pub hits: u64,
    pub misses: u64,
    pub merge_plans: u64,
    pub requests: u64,
    pub invalidations: u64,
}

impl ClientStats {
    pub fn of(c: &Client) -> ClientStats {
        ClientStats {
            hits: c.cache.hits(),
            misses: c.cache.misses(),
            merge_plans: c.merge_plans,
            requests: c.traced_requests,
            invalidations: c.invalidations,
        }
    }
    pub fn add(&mut self, o: &ClientStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.merge_plans += o.merge_plans;
        self.requests += o.requests;
        self.invalidations += o.invalidations;
    }
}

/// Exact counts from the counting store adaptor over a fixed number of
/// queries, with the rows those queries returned.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
pub struct WorkCounts {
    pub probes: u64,
    pub touched: u64,
    pub queries: u64,
    pub rows: u64,
}

impl WorkCounts {
    pub fn add(&mut self, o: &WorkCounts) {
        self.probes += o.probes;
        self.touched += o.touched;
        self.queries += o.queries;
        self.rows += o.rows;
    }
}

pub struct Outcome {
    pub workload: &'static str,
    pub e2e: Vec<Metric>,
    pub extra: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Dataset sizes and run lengths, for the result file.
    pub notes: Vec<(String, String)>,
    /// Mean latency of the timed section's queries: the traced run's
    /// against the untraced run's is the tracing overhead.
    pub mean_query_us: f64,
    /// `(span, summed self time in seconds, spans)` of the traced run.
    pub self_times: Vec<(&'static str, f64, usize)>,
    pub work_counts: Option<WorkCounts>,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

impl Outcome {
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            e2e: Vec::new(),
            extra: Vec::new(),
            layers: Vec::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            mean_query_us: 0.0,
            self_times: Vec::new(),
            work_counts: None,
        }
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// The metrics every workload reports: the bounded four, and as
    /// *extra* the four query timings. `load` is a load pipeline this run
    /// executed on its dataset (the byte counts are the same for every
    /// one of them); `log` holds the timed section's queries, whose rates
    /// are medians over windows of `window` queries.
    pub fn universal(&mut self, setup_s: f64, load: &LoadStats, log: &QueryLog, window: usize) {
        let n = log.lat_ns.len();
        let busy_s = log.lat_ns.iter().sum::<u64>() as f64 / 1e9;
        let (tail, which) = tail_ns(&log.lat_ns);
        let (qps, rows_ps) = log.window_rates(window);
        self.mean_query_us = busy_s * 1e6 / n as f64;
        let values = [
            (setup_s, "generate, render, load pipeline; once".to_string()),
            (load.disk_bytes_per_triple(), format!("{} stored triples", load.triples)),
            (load.heap_bytes_per_triple(), "frozen store + dictionary".to_string()),
            (peak_rss_mb(), "VmHWM of this process, harness and set-up included".to_string()),
            (median_ns(&log.lat_ns) / 1e3, format!("{n} queries")),
            (tail / 1e3, format!("{which} of {n} queries")),
            (median(&qps), format!("median of {} windows of {window} queries", qps.len())),
            (median(&rows_ps), format!("same windows; {} rows in all", log.rows())),
        ];
        for ((name, unit), (value, note)) in E2E.iter().chain(&TIMINGS).zip(values) {
            let list = if self.e2e.len() < E2E.len() { &mut self.e2e } else { &mut self.extra };
            list.push(Metric::new(*name, value, unit, note));
        }
    }

    /// An end-to-end timing of this workload alone (see [`TIMINGS`]).
    pub fn add_extra(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.extra.push(Metric::new(name, value, unit, note));
    }

    /// The per-layer metrics of a traced run; call it after the
    /// workload's own end-to-end metrics have been added. `live` is empty
    /// except in `live_serve`.
    pub fn layers(
        &mut self,
        tr: &Tracer,
        load: &LoadStats,
        clients: &ClientStats,
        counts: WorkCounts,
        live: Vec<(f64, String)>,
    ) {
        let span_median = |span: &str, unit: &str| {
            let v = tr.totals(span);
            (median_ns(v) / unit_scale(unit), format!("median of {} spans", v.len()))
        };
        for (metric, span, unit) in SPAN_LAYERS {
            let (value, note) = span_median(span, unit);
            self.layers.push(Metric::new(metric, value, unit, note));
        }
        let walk: Vec<u64> = tr
            .totals("plan.run")
            .iter()
            .zip(tr.totals("solutions.decode"))
            .map(|(run, decode)| run.saturating_sub(*decode))
            .collect();
        self.layers.push(Metric::new(
            "exec.walk_us",
            median_ns(&walk) / 1e3,
            "us",
            format!("median of {} (plan.run minus solutions.decode)", walk.len()),
        ));
        for q in PAPER {
            let (value, note) = span_median(q, "ms");
            self.layers.push(Metric::new(format!("{q}_ms"), value, "ms", note));
        }
        for t in TEMPLATES {
            let (value, note) = span_median(t, "us");
            self.layers.push(Metric::new(format!("{t}_us"), value, "us", note));
        }
        let lookups = (clients.hits + clients.misses).max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let counted = format!("first {} timed queries, {} rows", counts.queries, counts.rows);
        for ((name, unit), (value, note)) in OTHER_LAYERS.into_iter().zip([
            (load.terms as f64, String::new()),
            (load.file_bytes as f64, String::new()),
            (load.compressed_bytes.unwrap_or(0) as f64, "varint-delta slabs".to_string()),
            (load.store_heap as f64, String::new()),
            (load.dict_heap as f64, String::new()),
            (
                clients.hits as f64 / lookups,
                format!("{} hits, {} misses", clients.hits, clients.misses),
            ),
            (
                clients.invalidations as f64,
                "plan caches emptied by a new dataset identity".to_string(),
            ),
            (
                ratio(clients.merge_plans, clients.requests),
                format!("of {} requests", clients.requests),
            ),
            (ratio(counts.probes, counts.queries), counted.clone()),
            (ratio(counts.touched, counts.rows), counted),
        ]) {
            self.layers.push(Metric::new(name, value, unit, note));
        }
        for (name, unit) in TIMINGS {
            let own = self.extra.iter().find(|m| m.name == name);
            let (value, note) = own.map_or((0.0, String::new()), |m| (m.value, m.note.clone()));
            self.layers.push(Metric::new(name, value, unit, note));
        }
        let live =
            if live.is_empty() { vec![(0.0, String::new()); LIVE_LAYERS.len()] } else { live };
        assert_eq!(live.len(), LIVE_LAYERS.len());
        for ((name, unit), (value, note)) in LIVE_LAYERS.into_iter().zip(live) {
            self.layers.push(Metric::new(name, value, unit, note));
        }
        self.self_times =
            tr.self_time_by_name().into_iter().map(|(n, ns, c)| (n, ns as f64 / 1e9, c)).collect();
        self.work_counts = Some(counts);
    }

    /// Operations attempted and failed: every query of `logs`, plus
    /// `other` operations of which `other_failed` failed.
    pub fn count_ops(&mut self, logs: &[&QueryLog], other: u64, other_failed: u64) {
        self.attempted = logs.iter().map(|l| l.attempted()).sum::<u64>() + other;
        self.failed = logs.iter().map(|l| l.failed).sum::<u64>() + other_failed;
    }

    /// Prints every metric by name with its unit, then the one-line JSON
    /// document the driver reads: end-to-end metrics for an untraced
    /// run, per-layer metrics for a traced one.
    pub fn print(&self, traced: bool) {
        let show = |title: &str, list: &[Metric]| {
            if list.is_empty() {
                return;
            }
            println!("-- {title}");
            for m in list {
                println!("{:<36} {:>16.4} {:<9} {}", m.name, m.value, m.unit, m.note);
            }
        };
        println!("== {} ({}) ==", self.workload, if traced { "traced" } else { "untraced" });
        for (k, v) in &self.notes {
            println!("{k}: {v}");
        }
        let not_of_record = if traced { ", as the traced run saw them: not of record" } else { "" };
        show(&format!("end-to-end, bounded in BENCHMARK.json{not_of_record}"), &self.e2e);
        show(
            &format!("end-to-end timings, per-layer in BENCHMARK.json{not_of_record}"),
            &self.extra,
        );
        if traced {
            show("per layer (BENCHMARK.json)", &self.layers);
            println!("-- self time by span (span minus children), largest first");
            for (name, s, count) in self.self_times.iter().take(12) {
                println!("{name:<36} {s:>16.4} s         {count} spans");
            }
        }
        println!("operations attempted {} failed {}", self.attempted, self.failed);
    }

    pub fn json_line(&self, traced: bool) -> String {
        let list = if traced { &self.layers } else { &self.e2e };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics_json(list)
        )
    }

    /// The result file: environment, inputs and every metric of the run.
    pub fn result_json(&self, traced: bool, env: &[(String, String)]) -> String {
        let pairs = |kv: &[(String, String)]| {
            kv.iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"workload\": {}, \"traced\": {traced}, \"env\": {{{}}}, \"notes\": {{{}}}, \
             \"attempted\": {}, \"failed\": {}, \"end_to_end\": {{{}}}, \"extra\": {{{}}}, \
             \"per_layer\": {{{}}}, \"self_time_s\": {{{}}}}}\n",
            json_str(self.workload),
            pairs(env),
            pairs(&self.notes),
            self.attempted,
            self.failed,
            metrics_json(&self.e2e),
            metrics_json(&self.extra),
            metrics_json(&self.layers),
            self.self_times
                .iter()
                .map(|(name, s, _)| format!("{}: {}", json_str(name), json_num(*s)))
                .collect::<Vec<_>>()
                .join(", "),
        )
    }
}

fn metrics_json(list: &[Metric]) -> String {
    list.iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_list_has_unique_names_within_the_contract_limits() {
        let names = layer_names();
        let set: std::collections::BTreeSet<&String> = names.iter().map(|(n, _)| n).collect();
        assert_eq!(set.len(), names.len());
        assert!(names.len() <= 128);
        assert!(names.iter().all(|(n, u)| n.len() <= 64 && u.len() <= 16));
    }

    /// `(name, unit)` of the metrics `BENCHMARK.json` lists under `key`.
    fn listed(key: &str) -> Vec<(String, String)> {
        let spec = include_str!("../../BENCHMARK.json");
        let section = spec.split_once(&format!("\"{key}\": [")).expect("section").1;
        let section = section.split_once(']').expect("end of section").0;
        let field = |entry: &str, name: &str| {
            let rest = entry.split_once(&format!("\"{name}\": \"")).expect("field").1;
            rest.split_once('"').expect("closing quote").0.to_string()
        };
        section.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_a_run_reports() {
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(E2E.iter().map(|&(n, u)| (n.to_string(), u)).collect())
        );
        assert_eq!(listed("per_layer"), own(layer_names()));
    }

    /// A traced run must name the layers [`layer_names`] lists, in order.
    #[test]
    fn a_traced_run_reports_exactly_the_listed_layers() {
        let load = LoadStats {
            triples_in: 1,
            triples: 1,
            load_s: 1.0,
            file_bytes: 1,
            store_heap: 1,
            dict_heap: 1,
            terms: 1,
            compressed_bytes: None,
        };
        let tr = Tracer::new(true, "main", std::time::Instant::now());
        let mut out = Outcome::new("lookup");
        let (clients, counts) = (ClientStats::default(), WorkCounts::default());
        out.layers(&tr, &load, &clients, counts, Vec::new());
        let reported: Vec<(String, &str)> =
            out.layers.iter().map(|m| (m.name.clone(), m.unit)).collect();
        assert_eq!(reported, layer_names());
    }
}
