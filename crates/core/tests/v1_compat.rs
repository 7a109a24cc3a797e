//! Backward compatibility with hexsnap format version 1.
//!
//! `tests/data/v1_small.hexsnap` was written by the last v1 build: no
//! alignment padding, `(offset, length)` pairs, a `TRPL` column beside
//! the slabs. The current reader must keep opening real v1 files forever.
//! The table and the checks are `support/mod.rs`'s.

mod support;

use support::fixtures_of;

#[test]
fn committed_v1_fixture_opens_and_answers() {
    fixtures_of(1).for_each(support::opens_through_the_reader);
}

#[test]
fn v2_reader_defaults_still_open_v1_files_saved_to_disk() {
    // End-to-end through the file-level loaders, not just the Reader.
    fixtures_of(1).for_each(support::opens_through_the_loaders);
}

#[test]
fn a_resaved_v1_fixture_is_the_current_version_and_roundtrips_equal() {
    fixtures_of(1).for_each(support::resaves_as_the_current_version_and_roundtrips_equal);
}

#[test]
fn a_live_directory_left_at_a_v1_generation_upgrades_on_compaction() {
    for f in fixtures_of(1) {
        support::a_live_directory_left_at_it_upgrades_on_compaction(f);
    }
}
