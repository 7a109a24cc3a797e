//! Inputs made from `--seed`: the Barton + LUBM dataset as N-Triples
//! text, the lookup query stream, and the twelve paper queries. The same
//! seed gives the same inputs; the program under test sees only these.

use hex_datagen::barton::{self, BartonConfig};
use hex_datagen::lubm::{self, LubmConfig};
use hex_datagen::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdf_model::Triple;

/// Dataset size: Barton records and LUBM universities. Triple counts are
/// what the generators give (≈7.2 per record, ≈31k per university).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub name: &'static str,
    pub barton_records: usize,
    pub lubm_universities: usize,
}

/// Barton ≈250k + LUBM ≈250k triples under one dictionary.
pub const D500K: Scale = Scale { name: "D500k", barton_records: 35_000, lubm_universities: 8 };
/// Half of [`D500K`], for `live_serve`.
pub const D250K: Scale = Scale { name: "D250k", barton_records: 17_500, lubm_universities: 4 };
/// The `--check` size: small enough for the triples-table oracle.
pub const D50K: Scale = Scale { name: "D50k", barton_records: 3_500, lubm_universities: 1 };

/// SplitMix64 step: derives independent generator seeds from `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generated dataset: Barton triples, then LUBM triples.
pub struct Inputs {
    pub triples: Vec<Triple>,
    pub n_barton: usize,
}

impl Inputs {
    /// Splits off the last `share` of each generator's stream: the base
    /// generation stays, the held-back triples are `live_serve`'s churn
    /// window (interleaved Barton, LUBM; distinct, and none of them in
    /// the base, so that inserting one always changes the store).
    pub fn hold_back(mut self, share: f64) -> (Inputs, Vec<Triple>) {
        if share == 0.0 {
            return (self, Vec::new());
        }
        let lubm = self.triples.split_off(self.n_barton);
        let keep = |n: usize| n - (n as f64 * share) as usize;
        let (kb, kl) = (keep(self.triples.len()), keep(lubm.len()));
        let mut churn = Vec::new();
        let (mut b, mut l) = (self.triples[kb..].iter(), lubm[kl..].iter());
        loop {
            let (x, y) = (b.next(), l.next());
            if x.is_none() && y.is_none() {
                break;
            }
            churn.extend(x.into_iter().chain(y).cloned());
        }
        self.triples.truncate(kb);
        self.triples.extend_from_slice(&lubm[..kl]);
        let mut seen: std::collections::HashSet<&Triple> = self.triples.iter().collect();
        let distinct: Vec<bool> = churn.iter().map(|t| seen.insert(t)).collect();
        drop(seen);
        let mut keep = distinct.into_iter();
        churn.retain(|_| keep.next().expect("one flag per triple"));
        (Inputs { triples: self.triples, n_barton: kb }, churn)
    }
}

pub fn generate(scale: Scale, seed: u64) -> Inputs {
    let mut triples = barton::generate(&BartonConfig {
        records: scale.barton_records,
        seed: derive_seed(seed, 1),
        ..BartonConfig::default()
    });
    let n_barton = triples.len();
    triples.extend(lubm::generate(&LubmConfig {
        seed: derive_seed(seed, 2),
        ..LubmConfig::with_universities(scale.lubm_universities)
    }));
    Inputs { triples, n_barton }
}

/// One query of a stream: its class (a span name, `template.T3` or
/// `query.BQ1`) and its text.
#[derive(Clone, Debug)]
pub struct Query {
    pub class: &'static str,
    pub text: String,
}

pub const TEMPLATES: [&str; 8] = [
    "template.T1",
    "template.T2",
    "template.T3",
    "template.T4",
    "template.T5",
    "template.T6",
    "template.T7",
    "template.T8",
];

pub const PAPER: [&str; 12] = [
    "query.BQ1",
    "query.BQ2",
    "query.BQ3",
    "query.BQ4",
    "query.BQ5",
    "query.BQ6",
    "query.BQ7",
    "query.LQ1",
    "query.LQ2",
    "query.LQ3",
    "query.LQ4",
    "query.LQ5",
];

/// The twelve paper queries, in the paper's order, as stream entries.
pub fn paper_queries(dict: &hex_dict::Dictionary) -> Vec<Query> {
    let barton = hex_bench_queries::barton_queries(dict).expect("Barton constants in the dataset");
    let lubm = hex_bench_queries::lubm_queries(dict).expect("LUBM constants in the dataset");
    barton
        .into_iter()
        .chain(lubm)
        .zip(PAPER)
        .map(|(q, class)| {
            assert_eq!(&class[6..], q.name);
            Query { class, text: q.text }
        })
        .collect()
}

/// Largest number of entities one pool holds; Zipf(1.0) over it.
const POOL_CAP: usize = 20_000;

/// Entity pools drawn from the dataset itself, so that every lookup has
/// constants the dictionary knows, rendered in N-Triples syntax.
#[derive(Clone)]
struct Pools {
    /// Barton record subjects.
    records: Vec<String>,
    /// Barton long-tail `(property, value)` pairs.
    tail: Vec<(String, String)>,
    /// LUBM `(student, course)` of `takesCourse` triples.
    takes: Vec<(String, String)>,
    /// LUBM `teacherOf` subjects.
    teachers: Vec<String>,
}

/// The selective-query stream of `lookup` and `live_serve`: eight
/// templates over every bound/unbound shape, constants Zipf(1.0) from
/// pools shuffled by the seed. Unbounded: `next` draws on demand.
///
/// | class | text | shape |
/// |---|---|---|
/// | T1 | `SELECT ?p ?o { R ?p ?o }` | s |
/// | T2 | `SELECT ?o { R Type ?o }` | sp |
/// | T3 | `SELECT ?s { ?s P V } LIMIT 10` | po |
/// | T4 | `SELECT ?s ?p { ?s ?p C }` | o |
/// | T5 | `SELECT ?p { S ?p C }` | so |
/// | T6 | `ASK { S takesCourse C }` | spo |
/// | T7 | `SELECT ?s ?c { T teacherOf ?c . ?s takesCourse ?c }` | sp then po, nested |
/// | T8 | `SELECT ?s { ?s takesCourse C . ?s type Undergraduate }` | po ∩ po, merge |
#[derive(Clone)]
pub struct LookupStream {
    pools: Pools,
    zipf: [Zipf; 4],
    rng: StdRng,
    type_p: String,
    takes_p: String,
    teacher_p: String,
    lubm_type_p: String,
    undergrad: String,
}

impl LookupStream {
    pub fn new(inputs: &Inputs, seed: u64) -> LookupStream {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 3));
        let type_p = barton::Vocab::property("Type");
        let takes_p = lubm::Vocab::predicate("takesCourse");
        let teacher_p = lubm::Vocab::predicate("teacherOf");
        let (b, l) = inputs.triples.split_at(inputs.n_barton);
        let mut records: Vec<String> =
            b.iter().filter(|t| t.predicate == type_p).map(|t| t.subject.to_string()).collect();
        let mut tail: Vec<(String, String)> = b
            .iter()
            .filter(|t| t.predicate.as_iri().is_some_and(|p| p.contains("tailProp")))
            .map(|t| (t.predicate.to_string(), t.object.to_string()))
            .collect();
        tail.sort();
        tail.dedup();
        let mut takes: Vec<(String, String)> = l
            .iter()
            .filter(|t| t.predicate == takes_p)
            .map(|t| (t.subject.to_string(), t.object.to_string()))
            .collect();
        let mut teachers: Vec<String> =
            l.iter().filter(|t| t.predicate == teacher_p).map(|t| t.subject.to_string()).collect();
        teachers.sort();
        teachers.dedup();
        fn shuffle<T>(v: &mut Vec<T>, rng: &mut StdRng) {
            for i in (1..v.len()).rev() {
                v.swap(i, rng.gen_range(0..=i));
            }
            v.truncate(POOL_CAP);
        }
        shuffle(&mut records, &mut rng);
        shuffle(&mut tail, &mut rng);
        shuffle(&mut takes, &mut rng);
        shuffle(&mut teachers, &mut rng);
        let zipf = [
            Zipf::new(records.len(), 1.0),
            Zipf::new(tail.len(), 1.0),
            Zipf::new(takes.len(), 1.0),
            Zipf::new(teachers.len(), 1.0),
        ];
        LookupStream {
            pools: Pools { records, tail, takes, teachers },
            zipf,
            rng,
            type_p: type_p.to_string(),
            takes_p: takes_p.to_string(),
            teacher_p: teacher_p.to_string(),
            lubm_type_p: lubm::Vocab::predicate("type").to_string(),
            undergrad: lubm::Vocab::class("UndergraduateStudent").to_string(),
        }
    }

    /// A second client's stream over the same pools: its own draws.
    pub fn fork(&self, seed: u64) -> LookupStream {
        LookupStream { rng: StdRng::seed_from_u64(derive_seed(seed, 4)), ..self.clone() }
    }

    pub fn next(&mut self) -> Query {
        let template = self.rng.gen_range(0..TEMPLATES.len());
        let pool = match template {
            0 | 1 => 0,
            2 => 1,
            3..=5 | 7 => 2,
            _ => 3,
        };
        let k = self.zipf[pool].sample(&mut self.rng);
        let p = &self.pools;
        let text = match template {
            0 => format!("SELECT ?p ?o WHERE {{ {} ?p ?o . }}", p.records[k]),
            1 => format!("SELECT ?o WHERE {{ {} {} ?o . }}", p.records[k], self.type_p),
            2 => format!("SELECT ?s WHERE {{ ?s {} {} . }} LIMIT 10", p.tail[k].0, p.tail[k].1),
            3 => format!("SELECT ?s ?p WHERE {{ ?s ?p {} . }}", p.takes[k].1),
            4 => format!("SELECT ?p WHERE {{ {} ?p {} . }}", p.takes[k].0, p.takes[k].1),
            5 => format!("ASK {{ {} {} {} . }}", p.takes[k].0, self.takes_p, p.takes[k].1),
            6 => format!(
                "SELECT ?s ?c WHERE {{ {} {} ?c . ?s {} ?c . }}",
                p.teachers[k], self.teacher_p, self.takes_p
            ),
            _ => format!(
                "SELECT ?s WHERE {{ ?s {} {} . ?s {} {} . }}",
                self.takes_p, p.takes[k].1, self.lubm_type_p, self.undergrad
            ),
        };
        Query { class: TEMPLATES[template], text }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_stream() {
        let a = generate(D50K, 7);
        let b = generate(D50K, 7);
        assert_eq!(a.triples, b.triples);
        assert_ne!(a.triples, generate(D50K, 8).triples);
        let (mut sa, mut sb) = (LookupStream::new(&a, 7), LookupStream::new(&b, 7));
        for _ in 0..200 {
            assert_eq!(sa.next().text, sb.next().text);
        }
    }

    #[test]
    fn every_template_parses() {
        let inputs = generate(D50K, 1);
        let mut s = LookupStream::new(&inputs, 1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..400 {
            let q = s.next();
            hex_query::parse_query(&q.text).unwrap_or_else(|e| panic!("{}: {e}", q.text));
            seen.insert(q.class);
        }
        assert_eq!(seen.len(), TEMPLATES.len());
    }
}
