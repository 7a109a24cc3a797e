//! The mapped store's statistics come from its orderings
//! ([`hexastore::DatasetStats::compute`]), and they are the numbers the
//! in-memory frozen store and the hashed full scan give for the same file.

use hex_datagen::barton::{generate, BartonConfig};
use hexastore::{DatasetStats, FrozenGraphStore, GraphStore};

#[test]
fn mapped_stats_equal_the_frozen_store_and_the_full_scan() -> Result<(), Box<dyn std::error::Error>>
{
    let mut g = GraphStore::new();
    for t in generate(&BartonConfig::tiny()) {
        g.insert(&t);
    }
    let path = std::env::temp_dir().join(format!("hexdisk-stats-{}.hexsnap", std::process::id()));
    g.freeze().save(&path)?;
    let mapped = hex_disk::open_dataset(&path);
    let loaded = FrozenGraphStore::load(&path);
    std::fs::remove_file(&path)?;
    let (mapped, loaded) = (mapped?, loaded?);

    let stats = mapped.stats();
    assert_eq!(stats.triples, g.len());
    assert!(stats.property_cardinalities.len() > 1 && stats.multi_valued_sp_fraction > 0.0);
    assert_eq!(stats, loaded.stats());
    assert_eq!(DatasetStats::from_store(mapped.store()), stats);
    assert_eq!(DatasetStats::from_store(loaded.store()), stats);
    Ok(())
}
