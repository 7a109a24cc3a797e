//! Backward compatibility with hexsnap format version 3.
//!
//! `tests/data/v3_small.hexsnap` (raw `FROZ`) and `v3_small_frzc.hexsnap`
//! (compressed `FRZC`) were written by the last v3 build. A v3 `FROZ`
//! arena is an offsets column over an item column; the current reader
//! appends those lists to a slot arena and must keep doing so forever:
//! a `LiveGraphStore` directory in the field may have a v3 file as its
//! newest generation. The table and the checks are `support/mod.rs`'s.

mod support;

use support::fixtures_of;

#[test]
fn committed_v3_fixtures_open_through_every_reader_and_answer() {
    for f in fixtures_of(3) {
        support::opens_through_the_reader(f);
        support::opens_through_the_loaders(f);
    }
}

#[test]
fn a_resaved_v3_fixture_is_the_current_version_and_roundtrips_equal() {
    // Raw: 36 bytes fewer (four per singleton list less, four per longer
    // list more); compressed: equal behind the version word.
    fixtures_of(3).for_each(support::resaves_as_the_current_version_and_roundtrips_equal);
}

#[test]
fn a_live_directory_left_at_a_v3_generation_upgrades_on_compaction() {
    for f in fixtures_of(3) {
        support::a_live_directory_left_at_it_upgrades_on_compaction(f);
    }
}
