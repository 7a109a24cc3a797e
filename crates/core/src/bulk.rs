//! Sort-based bulk loader, serial or parallel.
//!
//! Random-order [`TripleStore::insert`](crate::TripleStore::insert) pays
//! `O(n)` vector shifts when keys arrive out of order. Loading a batch is
//! the common case (the paper loads dataset *prefixes* for every
//! experiment), so this loader sorts the batch three ways and builds each
//! index pair by pure appends: every header, vector entry and terminal
//! list is emitted in final sorted order.
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
//!    12-byte-per-triple batch copies on every path, mutable or frozen.
//! 3. **Sizes are knowable up front.** A
//!    [`SpaceStats`](crate::SpaceStats)-style counting pass over each run
//!    computes the exact number of headers and terminal lists, so every
//!    run-level `VecMap` and [`ListArena`] allocation is exact and the
//!    build path is append-only with no reallocation. (Inner per-header
//!    vectors are exact-sized by the grouping pass, which counts them as
//!    it walks.)

use crate::arena::{ListArena, ListId};
use crate::frozen::{FrozenHexastore, FrozenIndex, FrozenPair};
use crate::slab::{overflow_words, FlatArena};
use crate::store::Hexastore;
use crate::traits::TripleStore as _;
use crate::vecmap::VecMap;
use hex_dict::{Id, IdTriple};

type TwoLevel = VecMap<Id, VecMap<Id, ListId>>;

/// One built index pair: primary ordering, mirror ordering, shared arena.
type Pair = (TwoLevel, TwoLevel, ListArena);

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

/// Builds a Hexastore from an arbitrary (unsorted, possibly duplicated)
/// triple batch using the default [`Config`].
pub fn build(triples: Vec<IdTriple>) -> Hexastore {
    build_with(triples, Config::default())
}

/// Builds a Hexastore from an arbitrary triple batch on an explicit
/// [`Config`]'s thread budget.
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
pub fn build_with(mut triples: Vec<IdTriple>, config: Config) -> Hexastore {
    let threads = config.effective_threads(triples.len()).max(1);
    sort_dedup(&mut triples, threads);
    let (spo_pair, sop_pair, pos_pair) = build_pairs(&triples, threads, build_pair);
    Hexastore::from_built_parts(spo_pair, sop_pair, pos_pair, triples.len())
}

/// Builds a [`FrozenHexastore`] from an arbitrary triple batch using the
/// default [`Config`] — see [`build_frozen_with`].
pub fn build_frozen(triples: Vec<IdTriple>) -> FrozenHexastore {
    build_frozen_with(triples, Config::default())
}

/// Folds an [`OverlayHexastore`](crate::OverlayHexastore)'s merged view
/// (base minus tombstones, plus delta) into a new frozen generation —
/// the compaction entry point of the live write path.
///
/// The overlay's full-scan cursor already yields distinct triples in
/// `(s, p, o)` order, so the builder's sort-dedup pass runs over
/// presorted input and the cost is dominated by the same
/// permutation-gather emission as any other frozen build.
pub fn compact_frozen(overlay: &crate::overlay::OverlayHexastore) -> FrozenHexastore {
    let mut triples = Vec::with_capacity(overlay.len());
    triples.extend(overlay.iter_matching(crate::pattern::IdPattern::ALL));
    build_frozen(triples)
}

/// Builds a [`FrozenHexastore`] from an arbitrary triple batch, emitting
/// the flat slabs *directly* from sorted runs — the nested
/// `VecMap`/`Vec<Vec<Id>>` form is never materialized. Same copy
/// discipline and thread schedule as [`build_with`].
pub fn build_frozen_with(mut triples: Vec<IdTriple>, config: Config) -> FrozenHexastore {
    let threads = config.effective_threads(triples.len()).max(1);
    sort_dedup(&mut triples, threads);
    let (spo_pair, sop_pair, pos_pair) = build_pairs(&triples, threads, build_pair_frozen);
    FrozenHexastore::from_parts(spo_pair, sop_pair, pos_pair, triples.len())
}

/// The loader's thread schedule, as [`build_with`] documents it: emits
/// the three index pairs of a sort-deduplicated spo `run` through `emit`,
/// on up to `threads` threads.
fn build_pairs<P: Send>(
    run: &[IdTriple],
    threads: usize,
    emit: impl Fn(&[IdTriple], Option<&[u32]>, KeyFn) -> P + Sync,
) -> (P, P, P) {
    let (n, emit) = (run.len(), &emit);
    let sop = move || {
        let mut perm = identity_perm(n);
        permute_sop(run, &mut perm);
        emit(run, Some(&perm), key_sop)
    };
    let pos = move || {
        let mut perm = identity_perm(n);
        par_sort(&mut perm, threads.saturating_sub(2), |&i: &u32| key_pos(&run[i as usize]));
        emit(run, Some(&perm), key_pos)
    };
    std::thread::scope(|s| {
        let pos_task = (threads >= 2).then(|| s.spawn(pos));
        let sop_task = (threads >= 3).then(|| s.spawn(sop));
        let spo_pair = emit(run, None, key_spo);
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

/// Builds one frozen index pair from a strict-ascending run, viewed
/// through `perm` when the pair's order differs from the run's physical
/// order: the primary ordering and its arena by [`emit_primary`], then the
/// mirror over the same lists.
fn build_pair_frozen(run: &[IdTriple], perm: Option<&[u32]>, key: KeyFn) -> FrozenPair {
    let (primary, arena) = emit_primary(run, perm, key);

    // Mirror: group the primary's leaves by k2, referencing the
    // already-emitted shared lists (leaf i is list i).
    let mut mirror_entries = Vec::with_capacity(primary.k2.len());
    for (k1, leaves) in primary.groups() {
        mirror_entries.extend(leaves.map(|i| (primary.k2[i], k1, i as u32)));
    }
    mirror_entries.sort_unstable_by_key(|e| (e.0, e.1));
    let m = mirror_entries.len();
    let mut mirror = FrozenIndex::mirror(count_distinct_adjacent(&mirror_entries, |e| e.0), m);
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
/// physical order — the half of a frozen pair build that a partial store's
/// orderings are made of. A counting pass first makes every allocation
/// exact; then every slab append is driven by the shared grouping pass,
/// with `at` the hot projection (a perm indirection plus a key gather).
/// Lists enter the arena in leaf order, which is why a primary stores no
/// list references.
pub(crate) fn emit_primary(
    run: &[IdTriple],
    perm: Option<&[u32]>,
    key: impl Fn(&IdTriple) -> (Id, Id, Id),
) -> (FrozenIndex, FlatArena) {
    let n = run.len();
    let at = at_fn(run, perm, key);
    let RunCounts { headers, pairs, overflow } = count_groups(n, &at);
    let mut primary = FrozenIndex::primary(headers, pairs);
    let mut arena = FlatArena::with_capacity(pairs, overflow);
    scan_groups(n, &at, |event| match event {
        GroupEvent::Header { .. } => {}
        GroupEvent::Leaf { k2, range } => {
            let lid = arena.push_list(range.map(|x| at(x).2));
            primary.push_leaf(k2, lid);
        }
        GroupEvent::EndHeader { k1 } => primary.end_k1(k1),
    });
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

/// What [`count_groups`] counts: distinct `k1` values, distinct
/// `(k1, k2)` pairs — one terminal list each — and the words those lists
/// take in a [`FlatArena`]'s overflow column.
struct RunCounts {
    headers: usize,
    pairs: usize,
    overflow: usize,
}

/// Exact counts of a run viewed through `at` — the same
/// header/vector/list accounting as [`SpaceStats`](crate::SpaceStats),
/// but *before* building, so every allocation in the pair builders can be
/// exact.
fn count_groups(n: usize, at: impl Fn(usize) -> (Id, Id, Id)) -> RunCounts {
    let mut counts = RunCounts { headers: 0, pairs: 0, overflow: 0 };
    let mut prev: Option<(Id, Id)> = None;
    // First item and length so far of the open (k1, k2) group's list.
    let (mut first, mut len) = (Id(0), 0);
    for i in 0..n {
        let (k1, k2, item) = at(i);
        if prev == Some((k1, k2)) {
            len += 1;
            continue;
        }
        if prev.is_none_or(|(p1, _)| p1 != k1) {
            counts.headers += 1;
        }
        counts.pairs += 1;
        if len > 0 {
            counts.overflow += overflow_words(len, first);
        }
        (prev, first, len) = (Some((k1, k2)), item, 1);
    }
    if len > 0 {
        counts.overflow += overflow_words(len, first);
    }
    counts
}

/// One step of a grouped walk over a sorted run — see [`scan_groups`].
enum GroupEvent {
    /// A new `k1` group starts; `distinct_k2` is its exact vector length.
    Header { k1: Id, distinct_k2: usize },
    /// One `(k1, k2)` group's contiguous positions, in sorted order
    /// (resolve items through the same `at` view the walk was given).
    Leaf { k2: Id, range: std::ops::Range<usize> },
    /// The current `k1` group is complete.
    EndHeader { k1: Id },
}

/// Walks `n` positions sorted under `at`, emitting `Header` / `Leaf`* /
/// `EndHeader` per first-level group. The mutable pair build and
/// [`emit_primary`] (every frozen ordering and every partial-store
/// ordering) drive their append-only fills from this one grouping pass,
/// so the boundary logic lives in exactly one place.
fn scan_groups(n: usize, at: impl Fn(usize) -> (Id, Id, Id), mut emit: impl FnMut(GroupEvent)) {
    let mut i = 0;
    while i < n {
        let k1 = at(i).0;
        // First scan: find the group's end and its distinct-k2 count, so
        // the receiver can allocate its vector exactly.
        let mut j = i;
        let mut distinct_k2 = 0;
        let mut prev_k2: Option<Id> = None;
        while j < n {
            let (a, b, _) = at(j);
            if a != k1 {
                break;
            }
            if prev_k2 != Some(b) {
                distinct_k2 += 1;
                prev_k2 = Some(b);
            }
            j += 1;
        }
        emit(GroupEvent::Header { k1, distinct_k2 });
        // Second scan: emit each (k1, k2) group's contiguous positions.
        let mut g = i;
        while g < j {
            let k2 = at(g).1;
            let mut h = g + 1;
            while h < j && at(h).1 == k2 {
                h += 1;
            }
            emit(GroupEvent::Leaf { k2, range: g..h });
            g = h;
        }
        emit(GroupEvent::EndHeader { k1 });
        i = j;
    }
}

/// Number of distinct adjacent `head` values in a sorted slice — the
/// header count of a run that is about to be group-built.
fn count_distinct_adjacent<T, K: PartialEq>(items: &[T], head: impl Fn(&T) -> K) -> usize {
    let mut count = 0;
    let mut prev: Option<K> = None;
    for item in items {
        let k = head(item);
        if prev.as_ref() != Some(&k) {
            count += 1;
            prev = Some(k);
        }
    }
    count
}

/// Builds one index pair plus its shared arena from a strict-ascending
/// run, viewed through `perm` when the pair's order differs from the
/// run's physical (spo) order — the same permutation-gather walk as
/// [`build_pair_frozen`], emitting the nested `VecMap`/[`ListArena`]
/// form. A counting pass first sizes every container at its exact final
/// size, so the fill is append-only and leaves no slack capacity.
fn build_pair(run: &[IdTriple], perm: Option<&[u32]>, key: KeyFn) -> Pair {
    let n = run.len();
    let at = at_fn(run, perm, key);

    let RunCounts { headers, pairs, .. } = count_groups(n, &at);
    let mut primary = TwoLevel::with_capacity(headers);
    let mut arena = ListArena::with_capacity(pairs);
    let mut mirror_entries = Vec::with_capacity(pairs);

    // Emission walk: the same shared grouping pass as the frozen builder;
    // each `(k1, k2)` leaf gathers its exact-size terminal list through
    // the permutation.
    let mut inner: VecMap<Id, ListId> = VecMap::new();
    let mut current_k1 = Id(0);
    scan_groups(n, &at, |event| match event {
        GroupEvent::Header { k1, distinct_k2 } => {
            inner = VecMap::with_capacity(distinct_k2);
            current_k1 = k1;
        }
        GroupEvent::Leaf { k2, range } => {
            let list: Vec<Id> = range.map(|x| at(x).2).collect();
            let lid = arena.alloc_sorted(list);
            inner.push_sorted(k2, lid);
            mirror_entries.push((k2, current_k1, lid));
        }
        GroupEvent::EndHeader { k1 } => primary.push_sorted(k1, std::mem::take(&mut inner)),
    });

    // Mirror: group by k2, push (k1 -> list) in sorted order. Each (k2,
    // k1) appears once, so group lengths are exact inner capacities.
    mirror_entries.sort_unstable_by_key(|e| (e.0, e.1));
    let m = mirror_entries.len();
    let mut mirror = TwoLevel::with_capacity(count_distinct_adjacent(&mirror_entries, |e| e.0));
    let mut i = 0;
    while i < m {
        let k2 = mirror_entries[i].0;
        let mut j = i + 1;
        while j < m && mirror_entries[j].0 == k2 {
            j += 1;
        }
        let mut inner: VecMap<Id, ListId> = VecMap::with_capacity(j - i);
        for &(_, k1, lid) in &mirror_entries[i..j] {
            inner.push_sorted(k1, lid);
        }
        mirror.push_sorted(k2, inner);
        i = j;
    }
    (primary, mirror, arena)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IdPattern;
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
        let mut inc = Hexastore::new();
        for tr in &triples {
            inc.insert(*tr);
        }
        assert_eq!(bulk.len(), inc.len());
        assert_eq!(bulk.matching(IdPattern::ALL), inc.matching(IdPattern::ALL));
        assert_eq!(bulk.space_stats(), inc.space_stats());
        for &tr in &triples {
            assert!(bulk.contains(tr));
            assert_eq!(bulk.matching(IdPattern::o(tr.o)), inc.matching(IdPattern::o(tr.o)));
            assert_eq!(
                bulk.matching(IdPattern::so(tr.s, tr.o)),
                inc.matching(IdPattern::so(tr.s, tr.o))
            );
        }
    }

    #[test]
    fn every_config_builds_the_same_store() {
        let triples: Vec<IdTriple> = (0..500u32).map(|i| t(i % 23, i % 7, i % 41)).collect();
        let reference = build_with(triples.clone(), Config { threads: 1 });
        for threads in [2, 3, 4, 8] {
            let cfg = Config { threads };
            let store = build_with(triples.clone(), cfg);
            assert_eq!(store.len(), reference.len(), "{cfg:?}");
            assert_eq!(
                store.matching(IdPattern::ALL),
                reference.matching(IdPattern::ALL),
                "{cfg:?}"
            );
            assert_eq!(store.space_stats(), reference.space_stats(), "{cfg:?}");
        }
    }

    #[test]
    fn presize_leaves_no_slack_capacity() {
        let triples: Vec<IdTriple> = (0..2000u32).map(|i| t(i % 97, i % 13, i)).collect();
        let mut built = build_with(triples, Config { threads: 1 });
        let before = built.heap_bytes();
        built.shrink_to_fit();
        assert_eq!(built.heap_bytes(), before, "a bulk build must already be exact");
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
        let h = build_with(Vec::new(), Config { threads: 4 });
        assert!(h.is_empty());
    }

    #[test]
    fn bulk_store_supports_updates_afterwards() {
        for cfg in [Config { threads: 1 }, Config { threads: 4 }] {
            let mut h = build_with(vec![t(1, 2, 3), t(4, 5, 6)], cfg);
            assert!(h.insert(t(0, 0, 0)));
            assert!(h.remove(t(4, 5, 6)));
            assert_eq!(h.len(), 2);
            assert!(h.contains(t(0, 0, 0)));
            assert!(!h.contains(t(4, 5, 6)));
        }
    }

    #[test]
    fn parallel_mutable_build_equals_serial_and_frozen_thaw() {
        // The permutation-gather mutable path must agree byte-for-byte
        // with the serial build AND with the frozen builder's view of
        // the same batch (build_frozen + thaw).
        let triples: Vec<IdTriple> = (0..900u32).map(|i| t(i % 31, i % 11, i % 37)).collect();
        let serial = build_with(triples.clone(), Config { threads: 1 });
        for threads in [2, 3, 4, 8] {
            let cfg = Config { threads };
            let parallel = build_with(triples.clone(), cfg);
            assert_eq!(parallel.len(), serial.len(), "{cfg:?}");
            assert_eq!(parallel.matching(IdPattern::ALL), serial.matching(IdPattern::ALL));
            assert_eq!(parallel.space_stats(), serial.space_stats(), "{cfg:?}");
            assert_eq!(parallel.heap_bytes(), serial.heap_bytes(), "{cfg:?}");
            let thawed = build_frozen_with(triples.clone(), cfg).thaw();
            assert_eq!(thawed.matching(IdPattern::ALL), parallel.matching(IdPattern::ALL));
            assert_eq!(thawed.space_stats(), parallel.space_stats(), "{cfg:?}");
        }
    }

    #[test]
    fn frozen_build_equals_mutable_for_every_config() {
        let triples: Vec<IdTriple> = (0..700u32).map(|i| t(i % 23, i % 7, i % 41)).collect();
        let reference = build_with(triples.clone(), Config { threads: 1 });
        for threads in [1, 2, 3, 4, 8] {
            let cfg = Config { threads };
            let frozen = build_frozen_with(triples.clone(), cfg);
            assert_eq!(frozen.len(), reference.len(), "{cfg:?}");
            assert_eq!(frozen.space_stats(), reference.space_stats(), "{cfg:?}");
            assert_eq!(
                frozen.matching(IdPattern::ALL),
                reference.matching(IdPattern::ALL),
                "{cfg:?}"
            );
            for &tr in triples.iter().step_by(37) {
                for pat in [
                    IdPattern::sp(tr.s, tr.p),
                    IdPattern::so(tr.s, tr.o),
                    IdPattern::po(tr.p, tr.o),
                    IdPattern::s(tr.s),
                    IdPattern::p(tr.p),
                    IdPattern::o(tr.o),
                    IdPattern::spo(tr),
                ] {
                    assert_eq!(frozen.matching(pat), reference.matching(pat), "{cfg:?} {pat:?}");
                }
            }
        }
    }

    #[test]
    fn frozen_build_direct_equals_freeze_of_mutable() {
        // Emitting slabs from sorted runs and flattening a mutable build
        // must produce byte-identical structures.
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
        assert_eq!(h.subject_vector_of_property(Id(1)), vec![Id(2), Id(9)]);
    }
}
