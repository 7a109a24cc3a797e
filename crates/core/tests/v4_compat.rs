//! Format version 4 over its committed files
//! (`tests/data/v4_small{,_frzc}.hexsnap`; the table and the checks are
//! `support/mod.rs`'s). Its slab sections are v5's; its dictionary stores
//! whole terms, which a read interns again in id order.

mod support;

use support::fixtures_of;

#[test]
fn committed_v4_fixtures_open_through_every_reader_and_answer() {
    for f in fixtures_of(4) {
        support::opens_through_the_reader(f);
        support::opens_through_the_loaders(f);
    }
}

#[test]
fn a_resaved_v4_fixture_is_the_current_version_and_roundtrips_equal() {
    fixtures_of(4).for_each(support::resaves_as_the_current_version_and_roundtrips_equal);
}

#[test]
fn a_live_directory_left_at_a_v4_generation_reopens_and_compacts() {
    for f in fixtures_of(4) {
        support::a_live_directory_left_at_it_upgrades_on_compaction(f);
    }
}
