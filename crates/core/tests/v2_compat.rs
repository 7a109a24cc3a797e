//! Backward compatibility with hexsnap format version 2.
//!
//! `tests/data/v2_small.hexsnap` (raw `FROZ`) and `v2_small_frzc.hexsnap`
//! (compressed `FRZC`) were written by the last v2 build. A v2 file
//! stores what v3 and later derive — `(offset, length)` pairs, list
//! references for the primary orderings, a `TRPL` column beside the
//! slabs — and the current reader must keep opening such files forever.
//! The table and the checks are `support/mod.rs`'s; a live directory left
//! at a v2 generation is `hexsnap_roundtrip.rs`'s.

mod support;

use support::fixtures_of;

#[test]
fn committed_v2_fixtures_open_through_every_reader_and_answer() {
    for f in fixtures_of(2) {
        support::opens_through_the_reader(f);
        support::opens_through_the_loaders(f);
    }
}

#[test]
fn a_resaved_v2_fixture_is_the_current_version_and_roundtrips_equal() {
    // Smaller: v2 stores what later versions derive.
    fixtures_of(2).for_each(support::resaves_as_the_current_version_and_roundtrips_equal);
}
