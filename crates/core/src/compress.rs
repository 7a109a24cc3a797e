//! Varint-delta compression for the sorted id runs inside flat slabs.
//!
//! The query-ready slab file trades space for speed: at 200k triples it
//! is ~3.3× the compact snapshot, because every ordering stores its key
//! and item columns as raw `u32`s. But almost every column the
//! [`crate::FrozenHexastore`] holds is *sorted* — terminal lists are
//! strictly ascending id runs, header key columns are strictly
//! ascending, and each header's `k2` group is strictly ascending — so
//! the gaps between consecutive ids are small and an LEB128 varint of
//! the *delta* is usually one byte instead of four.
//!
//! This module provides the codec primitives; [`crate::hexsnap`]
//! composes them into the compressed `FRZC` snapshot section
//! ([`crate::hexsnap::Compression::VarintDelta`]). Decoding validates as
//! strictly as the raw path: every count is bounded by the payload size
//! before any allocation, deltas of zero (a non-ascending run) are
//! rejected, id arithmetic is checked against `u32` overflow, and a
//! truncated payload decodes to `None`, never a panic.
//!
//! ```
//! use hexastore::compress::{encode_sorted_run, decode_sorted_run};
//! use hex_dict::Id;
//!
//! let run = [Id(3), Id(4), Id(100), Id(1_000_000)];
//! let mut buf = Vec::new();
//! encode_sorted_run(&mut buf, &run);
//! assert!(buf.len() < run.len() * 4); // beats the raw u32 column
//!
//! let mut pos = 0;
//! let mut out = Vec::new();
//! decode_sorted_run(&buf, &mut pos, run.len(), &mut out).unwrap();
//! assert_eq!(out, run);
//! ```

use crate::slab::FlatArena;
use hex_dict::Id;

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit =
/// continuation). Ids and deltas fit `u32`, so at most 5 bytes.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads an LEB128 varint at `*pos`, advancing it. Returns `None` on
/// truncation or a value that overflows `u64` (more than 10 bytes) —
/// corrupt input is an error, never a wrap.
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None; // would overflow u64
        }
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Reads a varint that must fit `u32` (the width of every id and count
/// in the slab columns).
pub fn get_uvarint32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    u32::try_from(get_uvarint(buf, pos)?).ok()
}

/// Encodes a strictly ascending id run as `first` followed by the
/// deltas between consecutive entries. Empty runs emit nothing.
///
/// The run must be strictly ascending (debug-asserted) — this is the
/// invariant [`FlatArena`] lists and flat key columns already hold.
pub fn encode_sorted_run(out: &mut Vec<u8>, run: &[Id]) {
    debug_assert!(crate::sorted::is_sorted_set(run));
    encode_ascending(out, run.iter().map(|id| id.0));
}

/// [`encode_sorted_run`] of a run handed over value by value, as a
/// packed column's decoder yields it.
pub(crate) fn encode_ascending(out: &mut Vec<u8>, mut run: impl Iterator<Item = u32>) {
    let Some(first) = run.next() else { return };
    put_uvarint(out, u64::from(first));
    let mut prev = first;
    for v in run {
        put_uvarint(out, u64::from(v - prev));
        prev = v;
    }
}

/// Decodes `n` ids of a strictly ascending run, appending to `out`.
/// Rejects (returns `None`) zero deltas — the run would not be strictly
/// ascending — and deltas that carry past `u32::MAX`.
pub fn decode_sorted_run(buf: &[u8], pos: &mut usize, n: usize, out: &mut Vec<Id>) -> Option<()> {
    if n == 0 {
        return Some(());
    }
    let mut prev = get_uvarint32(buf, pos)?;
    out.push(Id(prev));
    for _ in 1..n {
        let delta = get_uvarint32(buf, pos)?;
        if delta == 0 {
            return None;
        }
        prev = prev.checked_add(delta)?;
        out.push(Id(prev));
    }
    Some(())
}

/// Encodes a [`FlatArena`] as varints: per-list lengths, then each
/// list's items delta-encoded ([`encode_sorted_run`] — every terminal
/// list is strictly ascending by construction). The encoding is of the
/// lists, not of the arena's columns, so how an arena addresses its lists
/// in memory never shows in these bytes.
pub fn encode_arena(out: &mut Vec<u8>, arena: &FlatArena) {
    for list in arena.lists() {
        put_uvarint(out, list.len() as u64);
    }
    for list in arena.lists() {
        encode_ascending(out, list.into_iter().map(|id| id.0));
    }
}

/// Encodes a cumulative offsets column as its window lengths, one varint
/// per window (one fewer than the offsets).
pub(crate) fn encode_offsets(out: &mut Vec<u8>, mut offs: impl Iterator<Item = u32>) {
    let Some(mut prev) = offs.next() else { return };
    for end in offs {
        put_uvarint(out, u64::from(end - prev));
        prev = end;
    }
}

/// Decodes `n` window lengths straight into the cumulative offsets column
/// (`n + 1` entries, starting at 0) of a column of exactly `total`
/// elements. Returns `None` on truncation, an empty window, or lengths
/// that do not sum to `total`.
pub(crate) fn decode_offsets(
    buf: &[u8],
    pos: &mut usize,
    n: usize,
    total: usize,
) -> Option<Vec<u32>> {
    let mut offs = Vec::with_capacity(n + 1);
    let mut end = 0u32;
    offs.push(end);
    for _ in 0..n {
        let len = get_uvarint32(buf, pos)?;
        if len == 0 {
            return None; // terminal lists and header groups are never empty
        }
        end = end.checked_add(len).filter(|&e| e as usize <= total)?;
        offs.push(end);
    }
    (end as usize == total).then_some(offs)
}

/// Decodes a [`FlatArena`] of exactly `n_lists` lists and `n_items`
/// total items from `buf` at `*pos`.
///
/// Both counts must come from a source that has already bounded them
/// against the payload size (each list and each item costs at least one
/// byte, so `n_lists + n_items <= buf.len()` is the natural cap the
/// caller enforces before allocating). Returns `None` on truncation,
/// zero-length lists, non-ascending runs, or a length sum that
/// disagrees with `n_items`.
pub fn decode_arena(
    buf: &[u8],
    pos: &mut usize,
    n_lists: usize,
    n_items: usize,
) -> Option<FlatArena> {
    let offs = decode_offsets(buf, pos, n_lists, n_items)?;
    let mut items = Vec::with_capacity(n_items);
    for w in offs.windows(2) {
        decode_sorted_run(buf, pos, (w[1] - w[0]) as usize, &mut items)?;
    }
    // from_offsets revalidates the tiling and per-list sortedness — the
    // same gate the offset-addressed raw sections go through, so a
    // compressed section can never smuggle in a slab a raw one would
    // have rejected.
    FlatArena::from_offsets(&items, &offs)
}

/// 32-bit FNV-1a over a byte slice — the one checksum of the on-disk
/// formats: it seals compressed snapshot payloads and every WAL record. A flipped payload byte
/// must be *detected*, not decoded into a different-but-valid slab:
/// varint streams are dense enough that many single-byte corruptions
/// still parse, so structural validation alone cannot catch them.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_roundtrip_boundaries() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX];
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_uvarint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        // One past the end: truncation is None, not a panic.
        assert_eq!(get_uvarint(&buf, &mut pos), None);
    }

    #[test]
    fn uvarint_rejects_overflow_and_runaway_continuation() {
        // Eleven continuation bytes can never be a u64.
        let runaway = [0xFFu8; 11];
        assert_eq!(get_uvarint(&runaway, &mut 0), None);
        // 2^64 exactly: ten bytes whose last carries past bit 63.
        let overflow = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        assert_eq!(get_uvarint(&overflow, &mut 0), None);
        // u64::MAX itself still decodes.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        assert_eq!(get_uvarint(&buf, &mut 0), Some(u64::MAX));
    }

    #[test]
    fn sorted_run_roundtrip_and_density() {
        let run: Vec<Id> = (0..1000u32).map(|i| Id(i * 3 + 7)).collect();
        let mut buf = Vec::new();
        encode_sorted_run(&mut buf, &run);
        // Dense ascending runs cost ~1 byte per entry vs 4 raw.
        assert!(buf.len() < run.len() * 2, "{} bytes for {} ids", buf.len(), run.len());
        let mut out = Vec::new();
        decode_sorted_run(&buf, &mut 0, run.len(), &mut out).unwrap();
        assert_eq!(out, run);
    }

    #[test]
    fn sorted_run_rejects_zero_delta_and_overflow() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 5);
        put_uvarint(&mut buf, 0); // zero delta = duplicate id
        assert!(decode_sorted_run(&buf, &mut 0, 2, &mut Vec::new()).is_none());
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::from(u32::MAX));
        put_uvarint(&mut buf, 1); // would carry past u32::MAX
        assert!(decode_sorted_run(&buf, &mut 0, 2, &mut Vec::new()).is_none());
    }

    #[test]
    fn arena_roundtrip() {
        let arena = FlatArena::from_lists(&[
            &[Id(1), Id(4), Id(9)][..],
            &[Id(0)],
            &[Id(100), Id(101), Id(4_000_000)],
        ]);
        let mut buf = Vec::new();
        encode_arena(&mut buf, &arena);
        let mut pos = 0;
        let back = decode_arena(&buf, &mut pos, arena.list_count(), arena.total_items()).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back, arena);
        // Three slots of 2 bits (runs 0 and 1 under the flag), three run
        // ends of 3 bits and six run ids of 22 bits (4,000,000 needs 22).
        let bytes = |len, width| crate::packed::bytes_for(len, width).unwrap();
        let exact = bytes(3, 2) + bytes(3, 3) + bytes(6, 22);
        assert_eq!(back.heap_bytes(), exact, "decoded exact-sized");
    }

    #[test]
    fn arena_decode_rejects_truncation_at_every_byte() {
        let arena = FlatArena::from_lists(&[&[Id(3), Id(7), Id(8)][..], &[Id(2), Id(900)]]);
        let mut buf = Vec::new();
        encode_arena(&mut buf, &arena);
        for cut in 0..buf.len() {
            assert!(
                decode_arena(&buf[..cut], &mut 0, 2, 5).is_none(),
                "truncation to {cut}/{} bytes must not decode",
                buf.len()
            );
        }
    }

    #[test]
    fn arena_decode_rejects_count_mismatches() {
        let arena = FlatArena::from_lists(&[[Id(3), Id(7)]]);
        let mut buf = Vec::new();
        encode_arena(&mut buf, &arena);
        assert!(decode_arena(&buf, &mut 0, 1, 3).is_none(), "wrong item total");
        assert!(decode_arena(&buf, &mut 0, 2, 2).is_none(), "wrong list count");
    }

    #[test]
    fn fnv1a_detects_any_single_flip() {
        let payload: Vec<u8> = (0..200u8).collect();
        let seal = fnv1a(&payload);
        for i in 0..payload.len() {
            let mut copy = payload.clone();
            copy[i] ^= 0x40;
            assert_ne!(fnv1a(&copy), seal, "flip at {i} must change the checksum");
        }
    }
}
