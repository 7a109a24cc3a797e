//! A bundle of the four stores built over one dataset and one dictionary —
//! the unit the figure harness sweeps over dataset prefixes.

use hex_baselines::{Covp1, Covp2, TriplesTable};
use hex_dict::{Dictionary, IdTriple};
use hexastore::{Dataset, DatasetStats, FrozenGraphStore, GraphStore, Hexastore, TripleStore};
use rdf_model::Triple;

/// All four stores over the same dictionary-encoded triples.
pub struct Suite {
    /// The shared dictionary (one mapping table, as in the paper).
    pub dict: Dictionary,
    /// The dictionary-encoded triples, deduplicated, in input order.
    pub triples: Vec<IdTriple>,
    /// The sextuple-index store.
    pub hexastore: Hexastore,
    /// The giant-triples-table baseline.
    pub table: TriplesTable,
    /// Single-index vertical partitioning.
    pub covp1: Covp1,
    /// Two-index vertical partitioning.
    pub covp2: Covp2,
}

impl Suite {
    /// Encodes and loads the triples into all four stores.
    pub fn build(triples: &[Triple]) -> Suite {
        let mut dict = Dictionary::new();
        let encoded: Vec<IdTriple> = triples.iter().map(|t| dict.encode_triple(t)).collect();
        Suite {
            hexastore: Hexastore::from_triples(encoded.iter().copied()),
            table: TriplesTable::from_triples(encoded.iter().copied()),
            covp1: Covp1::from_triples(encoded.iter().copied()),
            covp2: Covp2::from_triples(encoded.iter().copied()),
            triples: encoded,
            dict,
        }
    }

    /// Number of distinct triples loaded.
    pub fn len(&self) -> usize {
        self.hexastore.len()
    }

    /// True if the suite holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The writable string-level facade over the suite's Hexastore: a
    /// clean overlay on it. Every paper query must answer byte-identically
    /// here and on [`Suite::frozen_dataset`].
    pub fn dataset(&self) -> GraphStore {
        self.frozen_dataset().thaw()
    }

    /// The read-only slab-backed facade over the suite's Hexastore — the
    /// unit the planner-chosen query paths run on. Clones the dictionary
    /// (term storage is shared) and the store (its slabs are shared).
    pub fn frozen_dataset(&self) -> FrozenGraphStore {
        Dataset::from_parts(self.dict.clone(), self.hexastore.clone())
    }

    /// Summary statistics of the loaded data, for the statistics-driven
    /// planner mode (one pass over the Hexastore).
    pub fn stats(&self) -> DatasetStats {
        DatasetStats::compute(&self.hexastore)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::Term;

    #[test]
    fn build_loads_all_stores_identically() {
        let triples: Vec<Triple> = (0..50)
            .map(|i| {
                Triple::new(
                    Term::iri(format!("http://x/s{}", i % 9)),
                    Term::iri(format!("http://x/p{}", i % 4)),
                    Term::literal(format!("o{}", i % 11)),
                )
            })
            .collect();
        let suite = Suite::build(&triples);
        assert!(!suite.is_empty());
        assert_eq!(suite.len(), suite.table.len());
        assert_eq!(suite.len(), suite.covp1.len());
        assert_eq!(suite.len(), suite.covp2.len());
        // Input order deduplicated: suite.triples may contain duplicates of
        // logically equal triples only if the input repeated them.
        assert_eq!(suite.triples.len(), 50);
        assert!(suite.len() <= 50);
    }
}
