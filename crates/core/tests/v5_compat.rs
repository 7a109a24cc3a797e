//! Format version 5 over its committed files
//! (`tests/data/v5_small{,_frzc}.hexsnap`; the table and the checks are
//! `support/mod.rs`'s). Its dictionary and arenas are v6's; its index
//! levels store whole `u32`s, which a read packs.

mod support;

use support::fixtures_of;

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
