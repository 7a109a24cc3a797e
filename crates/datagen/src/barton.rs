//! Barton-like synthetic library catalog (paper §5.1.1).
//!
//! The paper's first dataset is the MIT Libraries Barton catalog: 61.2M
//! cleaned triples, **285 unique properties**, "quite irregular" structure,
//! "the vast majority of properties appear infrequently". The raw dump is
//! not redistributable here, so this generator synthesizes a catalog with
//! the same *shape*:
//!
//! - 285 distinct properties: a small core the benchmark queries touch
//!   (`Type`, `Language`, `Origin`, `Records`, `Encoding`, `Point`, …) plus
//!   a Zipf-skewed long tail;
//! - `Type: Text` as the dominant record type, a spread of minority types
//!   (including `Date` records carrying `Point`/`Encoding`, the subjects of
//!   BQ7);
//! - `Origin: DLC` records that `Records` other resources whose `Type`
//!   drives the BQ5/BQ6 inference step;
//! - irregularity: most properties are absent from most records.
//!
//! DESIGN.md §5 documents why this substitution preserves the queries'
//! cost profile.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdf_model::{Term, Triple};

/// Namespace prefix of all generated Barton-like resources.
pub const NS: &str = "http://barton.example.org/";

/// Total distinct properties, matching the paper's count.
pub const PROPERTY_COUNT: usize = 285;

/// The core properties the benchmark queries bind.
pub const CORE_PROPERTIES: [&str; 9] =
    ["Type", "Language", "Origin", "Records", "Encoding", "Point", "Title", "Creator", "Subject"];

/// IRI constructors for the generated catalog.
pub struct Vocab;

impl Vocab {
    /// A property IRI. Core properties by name; the tail is `tailProp{i}`.
    pub fn property(name: &str) -> Term {
        Term::iri(format!("{NS}prop/{name}"))
    }

    /// The `i`-th long-tail property, `i < PROPERTY_COUNT - CORE_PROPERTIES`.
    pub fn tail_property(i: usize) -> Term {
        Term::iri(format!("{NS}prop/tailProp{i}"))
    }

    /// A record (catalog item) IRI.
    pub fn record(i: usize) -> Term {
        Term::iri(format!("{NS}record/{i}"))
    }

    /// A type value IRI, e.g. `Text`.
    pub fn type_value(name: &str) -> Term {
        Term::iri(format!("{NS}type/{name}"))
    }
}

/// The record types and their relative weights. `Text` dominates, as in
/// the paper's browsing-session queries (BQ2 selects on `Type: Text`).
pub const TYPE_WEIGHTS: [(&str, u32); 10] = [
    ("Text", 40),
    ("Date", 12),
    ("Person", 10),
    ("Organization", 8),
    ("NotatedMusic", 7),
    ("Place", 6),
    ("Image", 6),
    ("Map", 4),
    ("Audio", 4),
    ("Event", 3),
];

/// Languages with `French` present at a realistic minority share (BQ4
/// selects `Language: French`).
pub const LANGUAGES: [(&str, u32); 6] = [
    ("English", 55),
    ("French", 12),
    ("German", 12),
    ("Spanish", 9),
    ("Italian", 7),
    ("Russian", 5),
];

/// Cataloguing origins; `DLC` (US Library of Congress) is the value BQ5
/// selects, present as a substantial minority.
pub const ORIGINS: [(&str, u32); 5] =
    [("DLC", 25), ("OCoLC", 35), ("MH", 18), ("CtY", 12), ("NjP", 10)];

/// Generation parameters.
#[derive(Clone, Debug)]
pub struct BartonConfig {
    /// Number of catalog records. Triples ≈ 8–9 × records.
    pub records: usize,
    /// RNG seed.
    pub seed: u64,
    /// Zipf exponent for the long-tail property skew.
    pub tail_exponent: f64,
    /// Mean number of long-tail properties per record.
    pub tail_properties_per_record: usize,
}

impl Default for BartonConfig {
    fn default() -> Self {
        BartonConfig {
            records: 10_000,
            seed: 0xba5704,
            tail_exponent: 1.4,
            tail_properties_per_record: 4,
        }
    }
}

impl BartonConfig {
    /// A small configuration for unit tests.
    pub fn tiny() -> Self {
        BartonConfig { records: 800, seed: 11, ..Default::default() }
    }
}

fn weighted<'a, R: Rng>(rng: &mut R, table: &'a [(&'a str, u32)]) -> &'a str {
    let total: u32 = table.iter().map(|&(_, w)| w).sum();
    let mut x = rng.gen_range(0..total);
    for &(name, w) in table {
        if x < w {
            return name;
        }
        x -= w;
    }
    unreachable!("weights exhausted")
}

/// Generates the catalog as a vector of triples.
pub fn generate(config: &BartonConfig) -> Vec<Triple> {
    let mut out = Vec::new();
    generate_into(config, &mut |t| out.push(t));
    out
}

/// Streaming generation in a stable, seed-deterministic record order, so
/// stream prefixes are meaningful workloads.
pub fn generate_into(config: &BartonConfig, emit: &mut dyn FnMut(Triple)) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let tail_count = PROPERTY_COUNT - CORE_PROPERTIES.len();
    let zipf = Zipf::new(tail_count, config.tail_exponent);

    let p_type = Vocab::property("Type");
    let p_lang = Vocab::property("Language");
    let p_origin = Vocab::property("Origin");
    let p_records = Vocab::property("Records");
    let p_encoding = Vocab::property("Encoding");
    let p_point = Vocab::property("Point");
    let p_title = Vocab::property("Title");
    let p_creator = Vocab::property("Creator");
    let p_subject = Vocab::property("Subject");

    for i in 0..config.records {
        let rec = Vocab::record(i);
        let ty = weighted(&mut rng, &TYPE_WEIGHTS);
        emit(Triple::new(rec.clone(), p_type.clone(), Vocab::type_value(ty)));

        match ty {
            "Text" => {
                let lang = weighted(&mut rng, &LANGUAGES);
                emit(Triple::new(rec.clone(), p_lang.clone(), Term::literal(lang)));
                emit(Triple::new(
                    rec.clone(),
                    p_title.clone(),
                    Term::literal(format!("Title of record {i}")),
                ));
                if rng.gen_bool(0.7) {
                    emit(Triple::new(
                        rec.clone(),
                        p_creator.clone(),
                        Term::literal(format!(
                            "Creator {}",
                            rng.gen_range(0..config.records / 20 + 1)
                        )),
                    ));
                }
                if rng.gen_bool(0.5) {
                    emit(Triple::new(
                        rec.clone(),
                        p_subject.clone(),
                        Term::literal(format!("Subject {}", rng.gen_range(0..120))),
                    ));
                }
            }
            "Date" => {
                // BQ7: Point 'end' records are Dates with an Encoding.
                let point = if rng.gen_bool(0.5) { "end" } else { "start" };
                emit(Triple::new(rec.clone(), p_point.clone(), Term::literal(point)));
                let enc = if rng.gen_bool(0.8) { "marc8" } else { "utf8" };
                emit(Triple::new(rec.clone(), p_encoding.clone(), Term::literal(enc)));
            }
            _ => {
                if rng.gen_bool(0.3) {
                    emit(Triple::new(
                        rec.clone(),
                        p_title.clone(),
                        Term::literal(format!("Title of record {i}")),
                    ));
                }
            }
        }

        // Origin: a spread of cataloguing sources with DLC (the US Library
        // of Congress) as one value among several — so selecting
        // Origin:DLC genuinely filters. DLC records usually Record another
        // record, the BQ5 inference population; the recorded target's own
        // Type triple is what the inference step reads.
        if rng.gen_bool(0.45) {
            let origin = weighted(&mut rng, &ORIGINS);
            emit(Triple::new(rec.clone(), p_origin.clone(), Term::literal(origin)));
            if origin == "DLC" && rng.gen_bool(0.8) {
                let target = Vocab::record(rng.gen_range(0..config.records));
                emit(Triple::new(rec.clone(), p_records.clone(), target));
            }
        }

        // Long-tail properties: Zipf-ranked, so a handful are common and
        // most of the 285 appear only a few times. Values come from small
        // pools so BQ3's "appears more than once" filter selects some.
        let k = rng.gen_range(0..=config.tail_properties_per_record * 2);
        for _ in 0..k {
            let rank = zipf.sample(&mut rng);
            let prop = Vocab::tail_property(rank);
            let value = Term::literal(format!("v{}", rng.gen_range(0..40)));
            emit(Triple::new(rec.clone(), prop, value));
        }
    }
}

/// The 28 "interesting" properties of the Abadi et al. study: the core
/// properties plus the head of the long tail. Methods with the `_28`
/// suffix restrict non-property-bound queries to this set, as the paper's
/// comparison does.
pub fn interesting_properties() -> Vec<Term> {
    let mut props: Vec<Term> = CORE_PROPERTIES.iter().map(|n| Vocab::property(n)).collect();
    let tail_needed = 28 - props.len();
    for i in 0..tail_needed {
        props.push(Vocab::tail_property(i));
    }
    props
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = BartonConfig::tiny();
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn property_universe_is_bounded_by_285() {
        let triples = generate(&BartonConfig { records: 20_000, ..BartonConfig::tiny() });
        let props: BTreeSet<String> = triples.iter().map(|t| t.predicate.to_string()).collect();
        assert!(props.len() <= PROPERTY_COUNT);
        // With enough records the universe should be nearly saturated.
        assert!(props.len() > 200, "only {} properties generated", props.len());
    }

    #[test]
    fn property_frequencies_are_skewed() {
        let triples = generate(&BartonConfig::tiny());
        let mut freq: BTreeMap<String, usize> = BTreeMap::new();
        for t in &triples {
            *freq.entry(t.predicate.to_string()).or_default() += 1;
        }
        let mut counts: Vec<usize> = freq.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Head property at least 20× the median — "the vast majority of
        // properties appear infrequently".
        let median = counts[counts.len() / 2];
        assert!(counts[0] >= 20 * median.max(1), "head {} median {median}", counts[0]);
    }

    #[test]
    fn text_is_the_dominant_type() {
        let triples = generate(&BartonConfig::tiny());
        let p_type = Vocab::property("Type");
        let mut by_type: BTreeMap<String, usize> = BTreeMap::new();
        for t in triples.iter().filter(|t| t.predicate == p_type) {
            *by_type.entry(t.object.to_string()).or_default() += 1;
        }
        let text = by_type.get(&Vocab::type_value("Text").to_string()).copied().unwrap_or(0);
        assert!(by_type.values().all(|&c| c <= text));
        assert!(by_type.len() >= 8, "expected a spread of types");
    }

    #[test]
    fn bq_query_populations_exist() {
        let triples = generate(&BartonConfig::tiny());
        let has = |p: &Term, o: Option<&Term>| {
            triples.iter().any(|t| &t.predicate == p && o.is_none_or(|o| &t.object == o))
        };
        // BQ4: French texts; BQ5: DLC records with Records; BQ7: Point end.
        assert!(has(&Vocab::property("Language"), Some(&Term::literal("French"))));
        assert!(has(&Vocab::property("Origin"), Some(&Term::literal("DLC"))));
        assert!(has(&Vocab::property("Records"), None));
        assert!(has(&Vocab::property("Point"), Some(&Term::literal("end"))));
        assert!(has(&Vocab::property("Encoding"), None));
    }

    #[test]
    fn dlc_records_point_at_typed_targets() {
        let triples = generate(&BartonConfig::tiny());
        let p_records = Vocab::property("Records");
        let p_type = Vocab::property("Type");
        let typed: BTreeSet<&Term> =
            triples.iter().filter(|t| t.predicate == p_type).map(|t| &t.subject).collect();
        let targets: Vec<&Term> =
            triples.iter().filter(|t| t.predicate == p_records).map(|t| &t.object).collect();
        assert!(!targets.is_empty());
        assert!(targets.iter().all(|t| typed.contains(t)), "Records targets must have a Type");
    }

    #[test]
    fn interesting_properties_are_28() {
        let props = interesting_properties();
        assert_eq!(props.len(), 28);
        let set: BTreeSet<String> = props.iter().map(Term::to_string).collect();
        assert_eq!(set.len(), 28, "no duplicates");
    }

    #[test]
    fn triple_volume_tracks_records() {
        let small = generate(&BartonConfig { records: 500, ..BartonConfig::tiny() }).len();
        let large = generate(&BartonConfig { records: 1000, ..BartonConfig::tiny() }).len();
        let ratio = large as f64 / small as f64;
        assert!((1.6..2.4).contains(&ratio), "ratio {ratio}");
    }
}
