//! Format version 5, the one this build writes, over its committed files
//! (`tests/data/v5_small{,_frzc}.hexsnap`; the table and the checks are
//! `support/mod.rs`'s).

mod support;

use hexastore::hexsnap;
use support::{fixture_bytes, fixture_graph, fixtures_of, temp_path};

#[test]
fn v5_writer_output_is_bit_identical_to_the_committed_fixtures() {
    let g = fixture_graph();
    let frozen = g.store().freeze();
    for (name, _, compression, _) in fixtures_of(5) {
        let path = temp_path(name);
        hexsnap::save_frozen_with(&path, g.dict(), &frozen, compression).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), fixture_bytes(name), "{name}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn committed_v5_fixtures_open_through_every_reader_and_answer() {
    for f in fixtures_of(5) {
        support::opens_through_the_reader(f);
        support::opens_through_the_loaders(f);
    }
}

#[test]
fn a_resaved_v5_fixture_is_the_current_version_and_roundtrips_equal() {
    fixtures_of(5).for_each(support::resaves_as_the_current_version_and_roundtrips_equal);
}

#[test]
fn a_live_directory_left_at_a_v5_generation_reopens_and_compacts() {
    for f in fixtures_of(5) {
        support::a_live_directory_left_at_it_upgrades_on_compaction(f);
    }
}
