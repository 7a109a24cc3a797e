//! Sort-based bulk loader, serial or parallel.
//!
//! Random-order [`TripleStore::insert`](crate::TripleStore::insert) pays
//! `O(n)` vector shifts when keys arrive out of order. Loading a batch is
//! the common case (the paper loads dataset *prefixes* for every
//! experiment), so this loader sorts the batch three ways and emits each
//! index pair of a [`FrozenHexastore`] by pure appends: every header,
//! vector entry and terminal list goes into its slab in final sorted
//! order. [`build`] wraps the result in an [`OverlayHexastore`], the
//! write path.
//!
//! The batch only needs **three** sort orders — `(s,p,o)`, `(s,o,p)` and
//! `(p,o,s)` — because paired indices read the same run: spo/pso share the
//! first, sop/osp the second, pos/ops the third. The loader exploits three
//! further structural facts:
//!
//! 1. **Index pairs are independent.** Each pair owns disjoint parts of the
//!    store, so with [`Config::threads`] > 1 the three pairs build
//!    concurrently under [`std::thread::scope`].
//! 2. **Runs share work — and the batch is never copied.** The batch is
//!    sorted (and deduplicated) once in spo order and then shared
//!    immutably; the sop and pos pairs each view it through a
//!    4-byte-per-triple `u32` *permutation* (the sop permutation is an
//!    `(o,p)` sort of short subject-group ranges, much cheaper than a
//!    full re-sort; only pos pays one) — zero extra
//!    12-byte-per-triple batch copies.
//! 3. **Sizes are knowable up front.** A
//!    [`SpaceStats`](crate::SpaceStats)-style counting pass over each run
//!    computes the exact number of headers, terminal lists, runs and run
//!    ids, the widest list slot and the sizes that choose each key
//!    column's encoding, so every slab is allocated once at its final size
//!    and width and the emission is append-only.

use crate::frozen::{FrozenHexastore, FrozenIndex, FrozenPair, LevelSize};
use crate::overlay::OverlayHexastore;
use crate::slab::{ArenaSize, FlatArena};
use hex_dict::{Id, IdTriple};
use std::ops::Range;

/// Projection of a triple into one ordering's `(k1, k2, item)` key order.
/// A plain `fn` pointer so it is trivially `Send` across build threads.
type KeyFn = fn(&IdTriple) -> (Id, Id, Id);

fn key_spo(t: &IdTriple) -> (Id, Id, Id) {
    (t.s, t.p, t.o)
}
fn key_sop(t: &IdTriple) -> (Id, Id, Id) {
    (t.s, t.o, t.p)
}
fn key_pos(t: &IdTriple) -> (Id, Id, Id) {
    (t.p, t.o, t.s)
}

/// Batches smaller than this always build serially under an auto
/// ([`Config::threads`] = 0) configuration: thread spawn overhead would
/// dominate. An explicit thread count is always honored, so tests can
/// drive the parallel path on tiny batches.
///
/// Measured with [`build_frozen_with`] on 2 vCPUs, serial against two
/// threads, median of 41 runs: 2 k triples 0.33 ms either way, 4 Ki 1.22
/// against 0.88 ms, 16 Ki 3.58 against 2.42 ms.
const AUTO_SERIAL_BELOW: usize = 4 * 1024;

/// How many cores a load may take.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Config {
    /// Worker threads for sorting and index building. `0` (the default)
    /// means auto-detect ([`std::thread::available_parallelism`], capped
    /// at 8, and serial for small batches); `1` forces the serial path;
    /// larger values are used as given.
    pub threads: usize,
}

impl Config {
    /// Resolves `threads` to the count actually used for `batch_len`
    /// triples.
    pub fn effective_threads(&self, batch_len: usize) -> usize {
        match self.threads {
            0 => {
                if batch_len < AUTO_SERIAL_BELOW {
                    1
                } else {
                    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
                }
            }
            n => n,
        }
    }
}

/// Builds a writable store from an arbitrary (unsorted, possibly
/// duplicated) triple batch: the slabs of [`build_frozen`] as the base of
/// a clean [`OverlayHexastore`].
pub fn build(triples: Vec<IdTriple>) -> OverlayHexastore {
    build_frozen(triples).thaw()
}

/// Builds a [`FrozenHexastore`] from an arbitrary triple batch using the
/// default [`Config`] — see [`build_frozen_with`].
pub fn build_frozen(triples: Vec<IdTriple>) -> FrozenHexastore {
    build_frozen_with(triples, Config::default())
}

/// Builds a [`FrozenHexastore`] from an arbitrary triple batch on an
/// explicit [`Config`]'s thread budget, emitting the flat slabs directly
/// from sorted runs.
///
/// The batch is sorted and deduplicated once into the canonical spo run,
/// which is then shared immutably and never copied: the sop and pos pairs
/// each view it through a 4-byte-per-triple `u32` *permutation* (positions
/// sorted into the pair's order, gathered during emission) instead of a
/// re-sorted clone of the 12-byte-per-triple batch. The caller's thread
/// builds spo; the first spare worker takes pos — the only order needing a
/// full re-sort, the critical path — the second takes sop, and any beyond
/// those speed the pos sort. Pairs without a worker are built by the
/// caller after spo.
pub fn build_frozen_with(mut triples: Vec<IdTriple>, config: Config) -> FrozenHexastore {
    let threads = config.effective_threads(triples.len()).max(1);
    sort_dedup(&mut triples, threads);
    let ((spo, pso, o), (sop, osp, p), (pos, ops, s)) = build_pairs(&triples, threads);
    FrozenHexastore::from_raw_parts([spo, sop, pso, pos, osp, ops], [o, p, s], triples.len())
}

/// The loader's thread schedule, as [`build_frozen_with`] documents it:
/// emits the three index pairs of a sort-deduplicated spo `run` on up to
/// `threads` threads.
fn build_pairs(run: &[IdTriple], threads: usize) -> (FrozenPair, FrozenPair, FrozenPair) {
    let n = run.len();
    let sop = move || {
        let mut perm = identity_perm(n);
        permute_sop(run, &mut perm);
        emit_pair(run, Some(&perm), key_sop)
    };
    let pos = move || {
        let mut perm = identity_perm(n);
        par_sort(&mut perm, threads.saturating_sub(2), |&i: &u32| key_pos(&run[i as usize]));
        emit_pair(run, Some(&perm), key_pos)
    };
    std::thread::scope(|s| {
        let pos_task = (threads >= 2).then(|| s.spawn(pos));
        let sop_task = (threads >= 3).then(|| s.spawn(sop));
        let spo_pair = emit_pair(run, None, key_spo);
        let sop_pair = sop_task.map_or_else(sop, |t| t.join().expect("sop build task panicked"));
        let pos_pair = pos_task.map_or_else(pos, |t| t.join().expect("pos build task panicked"));
        (spo_pair, sop_pair, pos_pair)
    })
}

pub(crate) fn identity_perm(n: usize) -> Vec<u32> {
    u32::try_from(n).expect("bulk batch exceeds 2^32 triples");
    (0..n as u32).collect()
}

/// Turns the identity permutation over an spo-sorted run into the sop
/// permutation: subject groups are contiguous, so an `(o, p)` sort of
/// each group's positions suffices — much cheaper than the full re-sort
/// the pos permutation pays.
fn permute_sop(run: &[IdTriple], perm: &mut [u32]) {
    let n = run.len();
    let mut i = 0;
    while i < n {
        let s = run[i].s;
        let mut j = i + 1;
        while j < n && run[j].s == s {
            j += 1;
        }
        perm[i..j].sort_unstable_by_key(|&x| {
            let t = &run[x as usize];
            (t.o, t.p)
        });
        i = j;
    }
}

/// Emits one index pair from a strict-ascending run, viewed through
/// `perm` when the pair's order differs from the run's physical order: the
/// primary ordering and its arena by [`emit_primary`], then the mirror
/// over the same lists.
fn emit_pair(run: &[IdTriple], perm: Option<&[u32]>, key: KeyFn) -> FrozenPair {
    let (primary, arena) = emit_primary(run, perm, key);

    // Mirror: group the primary's leaves by k2, referencing the
    // already-emitted shared lists (leaf i is list i).
    let mut mirror_entries = Vec::with_capacity(primary.k2.len());
    let keys = primary.k2.view();
    for (k1, h, leaves) in primary.groups() {
        let k2s = keys.iter(h, leaves.clone());
        mirror_entries.extend(k2s.zip(leaves).map(|(k2, i)| (Id(k2), k1, i as u32)));
    }
    mirror_entries.sort_unstable_by_key(|e| (e.0, e.1));
    let m = mirror_entries.len();
    let mut mirror = FrozenIndex::mirror(mirror_size(&mirror_entries));
    let mut i = 0;
    while i < m {
        let k2 = mirror_entries[i].0;
        let mut j = i;
        while j < m && mirror_entries[j].0 == k2 {
            mirror.push_leaf(mirror_entries[j].1, mirror_entries[j].2);
            j += 1;
        }
        mirror.end_k1(k2);
        i = j;
    }
    (primary, mirror, arena)
}

/// Emits one primary ordering and its own arena from a strict-ascending
/// run, viewed through `perm` when the ordering differs from the run's
/// physical order — the half of a pair that a partial store's orderings
/// are made of. A counting pass first makes every allocation exact; then
/// the same walk over the run's [`leaves`] drives every slab append, with
/// `at` the hot projection (a perm indirection plus a key gather). Lists
/// enter the arena in leaf order, which is why a primary stores no list
/// references.
pub(crate) fn emit_primary(
    run: &[IdTriple],
    perm: Option<&[u32]>,
    key: impl Fn(&IdTriple) -> (Id, Id, Id),
) -> (FrozenIndex, FlatArena) {
    let n = run.len();
    let at = at_fn(run, perm, key);
    let RunCounts { level, lists } = count_groups(n, &at);
    let mut primary = FrozenIndex::primary(level);
    let mut arena = FlatArena::with_capacity(lists);
    let mut open = None;
    for (k1, k2, range) in leaves(n, &at) {
        if let Some(done) = open.filter(|&k| k != k1) {
            primary.end_k1(done);
        }
        open = Some(k1);
        let lid = arena.push_list(range.map(|x| at(x).2));
        primary.push_leaf(k2, lid);
    }
    if let Some(last) = open {
        primary.end_k1(last);
    }
    (primary, arena)
}

/// Sorts the batch in spo order (parallel for `threads > 1`) and removes
/// duplicates. The strict-ascending invariant every downstream append
/// relies on is asserted here **once**, instead of per index pair.
pub(crate) fn sort_dedup(triples: &mut Vec<IdTriple>, threads: usize) {
    par_sort(triples, threads, key_spo);
    triples.dedup();
    debug_assert!(
        triples.windows(2).all(|w| w[0] < w[1]),
        "bulk run must be strictly increasing after sort + dedup"
    );
}

/// Sorts `v` by `key` across `threads` scoped threads: sort equal chunks
/// concurrently, then merge runs pairwise (also concurrently) through one
/// scratch buffer. Generic over the element so the same machinery sorts
/// the triple batch and the `u32` permutations viewing it.
fn par_sort<T, K>(v: &mut Vec<T>, threads: usize, key: K)
where
    T: Copy + Send + Sync,
    K: Fn(&T) -> (Id, Id, Id) + Copy + Send + Sync,
{
    let n = v.len();
    if threads <= 1 || n < 2 * threads {
        v.sort_unstable_by_key(key);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for part in v.chunks_mut(chunk) {
            s.spawn(move || part.sort_unstable_by_key(key));
        }
    });
    // Run boundaries into `v`: [0, chunk, 2*chunk, .., n].
    let mut bounds: Vec<usize> = (0..).map(|i| i * chunk).take_while(|&b| b < n).collect();
    bounds.push(n);
    let mut src = std::mem::take(v);
    // Scratch buffer, fully overwritten by every merge pass. A fill (not
    // a clone) initializes it write-only; `forbid(unsafe_code)` rules out
    // an uninitialized buffer.
    let mut dst = vec![src[0]; n];
    while bounds.len() > 2 {
        let mut new_bounds = vec![0];
        {
            // Give each pair merge its own disjoint output region.
            let mut regions: Vec<(&[T], &[T], &mut [T])> = Vec::new();
            let mut rest: &mut [T] = &mut dst;
            let mut i = 0;
            while i + 2 < bounds.len() {
                let (a, b) = (&src[bounds[i]..bounds[i + 1]], &src[bounds[i + 1]..bounds[i + 2]]);
                let (out, tail) = rest.split_at_mut(a.len() + b.len());
                rest = tail;
                regions.push((a, b, out));
                new_bounds.push(new_bounds.last().unwrap() + a.len() + b.len());
                i += 2;
            }
            if i + 1 < bounds.len() {
                // Odd run out: copy through unchanged.
                let a = &src[bounds[i]..bounds[i + 1]];
                let (out, _) = rest.split_at_mut(a.len());
                out.copy_from_slice(a);
                new_bounds.push(new_bounds.last().unwrap() + a.len());
            }
            std::thread::scope(|s| {
                for (a, b, out) in regions {
                    s.spawn(move || merge_into(a, b, out, key));
                }
            });
        }
        std::mem::swap(&mut src, &mut dst);
        bounds = new_bounds;
    }
    *v = src;
}

/// Merges two `key`-sorted slices into `out` (`out.len() == a.len() +
/// b.len()`).
fn merge_into<T: Copy>(a: &[T], b: &[T], out: &mut [T], key: impl Fn(&T) -> (Id, Id, Id)) {
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        *slot = if i < a.len() && (j >= b.len() || key(&a[i]) <= key(&b[j])) {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
    }
}

/// The positional key view of a run, optionally through a permutation —
/// the one projection the grouped walks below share.
fn at_fn<'a>(
    run: &'a [IdTriple],
    perm: Option<&'a [u32]>,
    key: impl Fn(&IdTriple) -> (Id, Id, Id) + 'a,
) -> impl Fn(usize) -> (Id, Id, Id) + 'a {
    move |i| match perm {
        Some(p) => key(&run[p[i] as usize]),
        None => key(&run[i]),
    }
}

/// What [`count_groups`] counts: the headers and their vector-key
/// windows, as the [`LevelSize`] that sizes the ordering's columns and
/// chooses its vector-key encoding; and the terminal lists, one per
/// distinct `(k1, k2)` pair, as the [`ArenaSize`] that sizes their
/// arena's slot, run-ends and key columns and chooses the key column's
/// encoding.
struct RunCounts {
    level: LevelSize,
    lists: ArenaSize,
}

/// Exact counts of a run viewed through `at` — the same
/// header/vector/list accounting as [`SpaceStats`](crate::SpaceStats),
/// but *before* building, so every slab allocation can be exact.
fn count_groups(n: usize, at: impl Fn(usize) -> (Id, Id, Id)) -> RunCounts {
    let mut counts = RunCounts { level: LevelSize::default(), lists: ArenaSize::default() };
    // The open header: its key, its window's first `k2`, last `k2` and
    // length.
    let mut open: Option<(Id, Id, Id, usize)> = None;
    for (k1, k2, range) in leaves(n, &at) {
        match &mut open {
            Some((key, _, last, len)) if *key == k1 => (*last, *len) = (k2, *len + 1),
            _ => {
                if let Some((key, first, last, len)) = open {
                    counts.level.add(key, len, first, last);
                }
                open = Some((k1, k2, k2, 1));
            }
        }
        // Nine lists in ten hold one id: gather a list's last id only when
        // it is not its first.
        let first = at(range.start).2;
        let last = if range.len() > 1 { at(range.end - 1).2 } else { first };
        counts.lists.add(range.len(), first, last);
    }
    if let Some((key, first, last, len)) = open {
        counts.level.add(key, len, first, last);
    }
    counts
}

/// The `(k1, k2)` groups of `n` positions sorted under `at`, in order,
/// each with its contiguous positions (resolve items through the same
/// `at`) — the one place the run's group boundaries are found.
fn leaves(
    n: usize,
    at: impl Fn(usize) -> (Id, Id, Id),
) -> impl Iterator<Item = (Id, Id, Range<usize>)> {
    let mut i = 0;
    std::iter::from_fn(move || {
        if i >= n {
            return None;
        }
        let start = i;
        let (k1, k2, _) = at(start);
        i += 1;
        while i < n && matches!(at(i), (a, b, _) if (a, b) == (k1, k2)) {
            i += 1;
        }
        Some((k1, k2, start..i))
    })
}

/// The size of a mirror ordering about to be built from its sorted
/// `(k1, k2, list)` leaves: one header per distinct `k1`, whose window
/// holds its `k2`s and their lists. Sorted by `(k1, k2)`, a window's lists
/// ascend too — the primary's leaves run in `(k2, k1)` order — so they
/// are sized as its keys are.
fn mirror_size(entries: &[(Id, Id, u32)]) -> LevelSize {
    let mut size = LevelSize::default();
    for group in entries.chunk_by(|a, b| a.0 == b.0) {
        let (first, last) = (group[0], group[group.len() - 1]);
        size.add(first.0, group.len(), first.1, last.1);
        size.refs.add(group.len(), Id(first.2), Id(last.2));
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IdPattern;
    use crate::store::Hexastore;
    use crate::traits::TripleStore;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        IdTriple::from((s, p, o))
    }

    fn sample() -> Vec<IdTriple> {
        vec![
            t(3, 1, 9),
            t(0, 2, 4),
            t(3, 1, 2),
            t(0, 1, 4),
            t(7, 7, 7),
            t(3, 2, 9),
            t(0, 2, 4), // duplicate
        ]
    }

    #[test]
    fn bulk_equals_incremental() {
        let triples = sample();
        let bulk = build(triples.clone());
        let inc = insert_built(&triples);
        assert_eq!(bulk.len(), inc.len());
        assert_eq!(bulk.matching(IdPattern::ALL), inc.matching(IdPattern::ALL));
        assert_eq!(bulk.freeze().space_stats(), inc.freeze().space_stats());
        for &tr in &triples {
            assert!(bulk.contains(tr));
            assert_eq!(bulk.matching(IdPattern::o(tr.o)), inc.matching(IdPattern::o(tr.o)));
            assert_eq!(
                bulk.matching(IdPattern::so(tr.s, tr.o)),
                inc.matching(IdPattern::so(tr.s, tr.o))
            );
        }
    }

    /// The triples written one at a time through the overlay.
    fn insert_built(triples: &[IdTriple]) -> OverlayHexastore {
        let mut inc = OverlayHexastore::default();
        for &tr in triples {
            inc.insert(tr);
        }
        inc
    }

    /// Every access shape, probed at a sample of the batch's own triples.
    fn probe_patterns(triples: &[IdTriple]) -> Vec<IdPattern> {
        let mut pats = vec![IdPattern::ALL];
        for &tr in triples.iter().step_by(37) {
            pats.extend([
                IdPattern::sp(tr.s, tr.p),
                IdPattern::so(tr.s, tr.o),
                IdPattern::po(tr.p, tr.o),
                IdPattern::s(tr.s),
                IdPattern::p(tr.p),
                IdPattern::o(tr.o),
                IdPattern::spo(tr),
            ]);
        }
        pats
    }

    #[test]
    fn every_config_builds_the_same_store() {
        let triples: Vec<IdTriple> = (0..500u32).map(|i| t(i % 23, i % 7, i % 41)).collect();
        let serial = build_frozen_with(triples.clone(), Config { threads: 1 });
        for threads in [1, 2, 3, 4, 8] {
            let cfg = Config { threads };
            let frozen = build_frozen_with(triples.clone(), cfg);
            assert_eq!(frozen, serial, "{cfg:?}");
            assert_eq!(frozen.heap_bytes(), serial.heap_bytes(), "{cfg:?}");
        }
    }

    #[test]
    fn frozen_build_equals_mutable_for_every_config() {
        let triples: Vec<IdTriple> = (0..700u32).map(|i| t(i % 23, i % 7, i % 41)).collect();
        let reference = insert_built(&triples);
        for threads in [1, 2, 3, 4, 8] {
            let cfg = Config { threads };
            let frozen = build_frozen_with(triples.clone(), cfg);
            assert_eq!(frozen.len(), reference.len(), "{cfg:?}");
            assert_eq!(frozen.space_stats(), reference.freeze().space_stats(), "{cfg:?}");
            for pat in probe_patterns(&triples) {
                assert_eq!(frozen.matching(pat), reference.matching(pat), "{cfg:?} {pat:?}");
            }
        }
    }

    #[test]
    fn parallel_mutable_build_equals_serial_and_frozen_thaw() {
        // The writable store of every config is the thaw of its slabs, and
        // has the serial thaw's heap size and the insert-built store's
        // contents.
        let triples: Vec<IdTriple> = (0..900u32).map(|i| t(i % 31, i % 11, i % 37)).collect();
        let reference = insert_built(&triples);
        let serial = build_frozen_with(triples.clone(), Config { threads: 1 }).thaw();
        for threads in [1, 2, 3, 4, 8] {
            let cfg = Config { threads };
            let frozen = build_frozen_with(triples.clone(), cfg);
            let thawed = frozen.clone().thaw();
            assert_eq!(thawed.len(), serial.len(), "{cfg:?}");
            assert_eq!(thawed.heap_bytes(), serial.heap_bytes(), "{cfg:?}");
            assert_eq!(thawed.freeze().space_stats(), reference.freeze().space_stats(), "{cfg:?}");
            for pat in probe_patterns(&triples) {
                assert_eq!(thawed.matching(pat), reference.matching(pat), "{cfg:?} {pat:?}");
                assert_eq!(thawed.matching(pat), frozen.matching(pat), "{cfg:?} {pat:?}");
            }
        }
    }

    #[test]
    fn presize_leaves_no_slack_capacity() {
        let triples: Vec<IdTriple> = (0..2000u32).map(|i| t(i % 97, i % 13, i)).collect();
        let built = build_frozen(triples);
        // A packed column is exact when its words are the ones its length
        // and width need, and canonical when the width is its largest
        // value's.
        let exact = |c: &crate::packed::PackedColumn| {
            c.heap_bytes() == crate::packed::bytes_for(c.len(), c.width()).unwrap()
                && c.view().validate().is_ok()
        };
        // A coded one, its stream and select directory.
        let image = |offs: crate::succinct::OffsetsView<'_>| match offs {
            crate::succinct::OffsetsView::Packed(col) => {
                crate::packed::bytes_for(col.len(), col.width()).unwrap()
            }
            crate::succinct::OffsetsView::EliasFano(ef) => [ef.stream, ef.selects]
                .map(|col| crate::packed::bytes_for(col.len(), col.width()).unwrap())
                .iter()
                .sum(),
        };
        for ix in built.orderings() {
            match &ix.offs {
                crate::succinct::OffsetsColumn::Packed(offs) => assert!(exact(offs)),
                coded => assert_eq!(coded.heap_bytes(), image(coded.view())),
            }
        }
        // The header bitmaps, the vector keys and the mirrors' references
        // hold no more than their images, which are what the eager reader
        // keeps of them.
        let mut w = crate::hexsnap::Writer::new(std::io::Cursor::new(Vec::new())).unwrap();
        w.frozen(&built).unwrap();
        let file = w.finish().unwrap().into_inner();
        let loaded = crate::hexsnap::Reader::new(std::io::Cursor::new(file)).unwrap().frozen();
        assert_eq!(loaded.unwrap().heap_breakdown(), built.heap_breakdown());
        for arena in built.arenas() {
            let view = arena.view();
            let bytes = |col: crate::packed::PackedView<'_>| {
                crate::packed::bytes_for(col.len(), col.width()).unwrap()
            };
            let keys = match view.keys {
                crate::succinct::KeysRef::Packed(keys) => bytes(keys),
                crate::succinct::KeysRef::EliasFano(coded) => {
                    let ef = coded.view();
                    let parts = [ef.base, ef.stream.bits, ef.stream.ranks];
                    parts.map(bytes).iter().sum::<usize>() + image(ef.offs)
                }
            };
            let exact = bytes(view.slots) + image(view.ends) + keys;
            assert_eq!(arena.heap_bytes(), exact, "a bulk build must already be exact");
            assert_eq!(view.validate(), Ok(arena.total_items()), "and canonical");
        }
    }

    #[test]
    fn effective_threads_auto_is_serial_for_small_batches() {
        let auto = Config::default();
        assert_eq!(auto.effective_threads(100), 1);
        assert!(auto.effective_threads(AUTO_SERIAL_BELOW) >= 1);
        assert_eq!(Config { threads: 6 }.effective_threads(100), 6);
        assert_eq!(Config { threads: 1 }.effective_threads(1 << 20), 1);
    }

    #[test]
    fn par_sort_matches_std_sort() {
        let mut rng_state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        for n in [0usize, 1, 2, 7, 100, 1000, 4096, 5000] {
            for threads in [2usize, 3, 4, 8] {
                let mut v: Vec<IdTriple> = (0..n)
                    .map(|_| {
                        let r = next();
                        t((r % 50) as u32, ((r >> 8) % 50) as u32, ((r >> 16) % 50) as u32)
                    })
                    .collect();
                let mut expected = v.clone();
                expected.sort_unstable_by_key(key_pos);
                par_sort(&mut v, threads, key_pos);
                assert_eq!(v, expected, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn bulk_empty() {
        let h = build(Vec::new());
        assert!(h.is_empty());
        assert_eq!(h.matching(IdPattern::ALL), Vec::new());
    }

    #[test]
    fn bulk_store_supports_updates_afterwards() {
        let mut h = build(vec![t(1, 2, 3), t(4, 5, 6)]);
        assert!(h.insert(t(0, 0, 0)));
        assert!(h.remove(t(4, 5, 6)));
        assert_eq!(h.len(), 2);
        assert!(h.contains(t(0, 0, 0)));
        assert!(!h.contains(t(4, 5, 6)));
    }

    #[test]
    fn frozen_build_direct_equals_freeze_of_mutable() {
        // Freezing the thaw of emitted slabs re-emits them byte for byte:
        // thaw and freeze are inverse.
        let triples: Vec<IdTriple> = (0..300u32).map(|i| t(i % 17, i % 5, i % 29)).collect();
        let direct = build_frozen(triples.clone());
        let via_freeze = build(triples).freeze();
        assert_eq!(direct, via_freeze);
    }

    #[test]
    fn frozen_build_empty() {
        let frozen = build_frozen(Vec::new());
        assert!(frozen.is_empty());
        assert_eq!(frozen.matching(IdPattern::ALL), Vec::new());
        let frozen = build_frozen_with(Vec::new(), Config { threads: 4 });
        assert!(frozen.is_empty());
    }

    #[test]
    fn from_triples_constructor_uses_bulk() {
        let h = Hexastore::from_triples([t(9, 1, 1), t(2, 1, 1)]);
        assert_eq!(h.len(), 2);
        assert_eq!(h, build_frozen(vec![t(2, 1, 1), t(9, 1, 1)]));
    }
}
