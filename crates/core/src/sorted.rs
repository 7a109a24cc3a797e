//! Sorted-slice primitives: the merge-join machinery of the Hexastore.
//!
//! Every vector and terminal list in a Hexastore is sorted (§4.2: "The keys
//! of resources in all vectors and lists used in a Hexastore are sorted"),
//! which is what makes "every pairwise join that needs to be performed
//! during the first step of query processing … a fast, linear-time
//! merge-join". This module implements those linear-time set operations on
//! sorted, duplicate-free slices, plus the insertion/removal primitives that
//! keep lists sorted under updates.
//!
//! The slice functions are generic over `T: Ord + Copy`; in practice `T`
//! is [`hex_dict::Id`]. [`intersect_many`] reads a store's terminal lists
//! in place, as the [`List`]s it hands out.

use crate::slab::List;
use hex_dict::Id;

/// True if the slice is strictly increasing (sorted and duplicate-free).
pub fn is_sorted_set<T: Ord>(xs: &[T]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1])
}

/// Binary-search membership test.
#[inline]
pub fn contains<T: Ord>(xs: &[T], x: &T) -> bool {
    xs.binary_search(x).is_ok()
}

/// Inserts `x` into a sorted, duplicate-free vector, keeping it sorted.
/// Returns `false` if `x` was already present.
pub fn insert<T: Ord>(xs: &mut Vec<T>, x: T) -> bool {
    match xs.binary_search(&x) {
        Ok(_) => false,
        Err(pos) => {
            xs.insert(pos, x);
            true
        }
    }
}

/// Removes `x` from a sorted vector. Returns `false` if absent.
pub fn remove<T: Ord>(xs: &mut Vec<T>, x: &T) -> bool {
    match xs.binary_search(x) {
        Ok(pos) => {
            xs.remove(pos);
            true
        }
        Err(_) => false,
    }
}

/// When the larger list is at least this many times the smaller, the
/// per-element galloping search (O(small · log(large/small))) beats the
/// linear merge (O(small + large)). Below it the merge's sequential scan
/// wins on branch predictability.
const GALLOP_RATIO: usize = 8;

/// Index of the first element of `xs[from..]` that is `>= target`, found by
/// exponential (galloping) search: probe at offsets 1, 2, 4, … from `from`,
/// then binary-search the bracketed run. O(log d) where d is the distance
/// advanced, so a sequence of searches with increasing targets costs
/// O(k · log(n/k)) total instead of O(k · log n).
#[inline]
pub(crate) fn gallop<T: Ord>(xs: &[T], from: usize, target: &T) -> usize {
    let mut lo = from;
    let mut probe = from;
    let mut step = 1usize;
    while probe < xs.len() && xs[probe] < *target {
        lo = probe + 1;
        probe += step;
        step <<= 1;
    }
    let hi = probe.min(xs.len());
    lo + xs[lo..hi].partition_point(|x| x < target)
}

/// Merge-join (set intersection) of two sorted sets.
///
/// This is the paper's first-step pairwise join: e.g. intersecting the
/// subject lists of two (property, object) pairs. Comparable sizes take
/// the linear merge the paper describes; heavily asymmetric sizes gallop
/// through the larger list, costing O(small · log(large/small)).
pub fn intersect<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    intersect_into(a, b, &mut out);
    out
}

/// [`intersect`] writing into a caller-provided buffer (cleared first), so
/// repeated intersections can reuse one allocation.
pub fn intersect_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    out.clear();
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len().saturating_mul(GALLOP_RATIO) < large.len() {
        let mut j = 0;
        for x in small {
            j = gallop(large, j, x);
            if j >= large.len() {
                break;
            }
            if large[j] == *x {
                out.push(*x);
                j += 1;
            }
        }
        return;
    }
    let (mut i, mut j) = (0, 0);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(small[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Linear-time set union of two sorted sets.
pub fn union<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Set difference `a \ b` of two sorted sets. Linear for comparable
/// sizes; gallops through `b` when it dwarfs `a`.
pub fn difference<T: Ord + Copy>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len());
    let gallop_b = a.len().saturating_mul(GALLOP_RATIO) < b.len();
    let mut j = 0;
    for &x in a {
        if gallop_b {
            j = gallop(b, j, &x);
        } else {
            while j < b.len() && b[j] < x {
                j += 1;
            }
        }
        if j >= b.len() || b[j] != x {
            out.push(x);
        }
    }
    out
}

/// K-way set union of sorted sets, used when a plan must combine many
/// per-property result lists (the unions the paper says property-oriented
/// schemes need; Hexastore also needs them in final aggregation steps).
pub fn union_many<T: Ord + Copy>(mut lists: Vec<&[T]>) -> Vec<T> {
    // Pairwise balanced merging: O(total · log k) without a heap.
    lists.retain(|l| !l.is_empty());
    match lists.len() {
        0 => return Vec::new(),
        1 => return lists[0].to_vec(),
        _ => {}
    }
    let mut owned: Vec<Vec<T>> = lists.iter().map(|l| l.to_vec()).collect();
    while owned.len() > 1 {
        let mut next = Vec::with_capacity(owned.len().div_ceil(2));
        let mut iter = owned.chunks(2);
        for chunk in &mut iter {
            match chunk {
                [a, b] => next.push(union(a, b)),
                [a] => next.push(a.clone()),
                _ => unreachable!(),
            }
        }
        owned = next;
    }
    owned.pop().unwrap_or_default()
}

/// Intersection of many terminal lists, smallest-first for early exit.
/// The smallest is decoded into the accumulator, which never grows; each
/// other list is then merged with it in one sequential pass or, when it is
/// more than eight times longer (the galloping rule of [`intersect`]),
/// galloped through with [`List::seek`] — in place, never decoded whole. Two buffers are
/// ping-ponged across the whole reduction instead of allocating per list.
pub fn intersect_many(mut lists: Vec<List<'_>>) -> Vec<Id> {
    if lists.is_empty() {
        return Vec::new();
    }
    lists.sort_by_key(|l| l.len());
    let mut acc = lists[0].to_vec();
    let mut buf = Vec::with_capacity(acc.len());
    for &l in &lists[1..] {
        if acc.is_empty() {
            break;
        }
        buf.clear();
        if acc.len().saturating_mul(GALLOP_RATIO) < l.len() {
            let mut j = 0;
            for &x in &acc {
                j = l.seek(j, x);
                if l.get(j) == Some(x) {
                    buf.push(x);
                    j += 1;
                }
            }
        } else {
            let mut ids = l.into_iter().peekable();
            for &x in &acc {
                while ids.next_if(|&y| y < x).is_some() {}
                if ids.next_if_eq(&x).is_some() {
                    buf.push(x);
                }
            }
        }
        std::mem::swap(&mut acc, &mut buf);
    }
    acc
}

/// Sorts and deduplicates a vector in place, turning it into a sorted set.
pub fn sort_dedup<T: Ord>(xs: &mut Vec<T>) {
    xs.sort_unstable();
    xs.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_sorted_set_checks_strictness() {
        assert!(is_sorted_set::<u32>(&[]));
        assert!(is_sorted_set(&[1]));
        assert!(is_sorted_set(&[1, 2, 5]));
        assert!(!is_sorted_set(&[1, 1]));
        assert!(!is_sorted_set(&[2, 1]));
    }

    #[test]
    fn insert_keeps_sorted_and_rejects_dupes() {
        let mut v = vec![2u32, 4, 6];
        assert!(insert(&mut v, 5));
        assert!(insert(&mut v, 1));
        assert!(insert(&mut v, 7));
        assert!(!insert(&mut v, 4));
        assert_eq!(v, vec![1, 2, 4, 5, 6, 7]);
    }

    #[test]
    fn remove_only_removes_present() {
        let mut v = vec![1u32, 3, 5];
        assert!(remove(&mut v, &3));
        assert!(!remove(&mut v, &3));
        assert_eq!(v, vec![1, 5]);
    }

    #[test]
    fn contains_uses_binary_search() {
        let v = vec![10u32, 20, 30];
        assert!(contains(&v, &20));
        assert!(!contains(&v, &25));
    }

    #[test]
    fn intersect_basic() {
        assert_eq!(intersect(&[1u32, 3, 5, 7], &[2, 3, 4, 7, 9]), vec![3, 7]);
        assert_eq!(intersect::<u32>(&[], &[1, 2]), Vec::<u32>::new());
        assert_eq!(intersect(&[1u32, 2], &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn union_basic() {
        assert_eq!(union(&[1u32, 3], &[2, 3, 4]), vec![1, 2, 3, 4]);
        assert_eq!(union::<u32>(&[], &[]), Vec::<u32>::new());
        assert_eq!(union(&[5u32], &[]), vec![5]);
    }

    #[test]
    fn difference_basic() {
        assert_eq!(difference(&[1u32, 2, 3, 4], &[2, 4]), vec![1, 3]);
        assert_eq!(difference(&[1u32, 2], &[]), vec![1, 2]);
        assert_eq!(difference::<u32>(&[], &[1]), Vec::<u32>::new());
    }

    #[test]
    fn union_many_merges_all() {
        let a = [1u32, 5];
        let b = [2u32, 5, 9];
        let c = [0u32];
        let d: [u32; 0] = [];
        assert_eq!(union_many(vec![&a, &b, &c, &d]), vec![0, 1, 2, 5, 9]);
        assert_eq!(union_many::<u32>(vec![]), Vec::<u32>::new());
        assert_eq!(union_many(vec![&a[..]]), vec![1, 5]);
    }

    #[test]
    fn intersect_many_starts_smallest() {
        let a = [1u32, 2, 3, 4, 5, 6];
        let b = [2u32, 4, 6];
        let c = [4u32];
        let ids = |xs: &[u32]| xs.iter().copied().map(Id).collect::<Vec<_>>();
        let (a, b, c) = (ids(&a), ids(&b), ids(&c));
        let lists = vec![List::from(&a[..]), List::from(&b[..]), List::from(&c[..])];
        assert_eq!(intersect_many(lists), [Id(4)]);
        assert_eq!(intersect_many(vec![]), Vec::<Id>::new());
    }

    #[test]
    fn sort_dedup_normalizes() {
        let mut v = vec![5u32, 1, 5, 2, 2];
        sort_dedup(&mut v);
        assert_eq!(v, vec![1, 2, 5]);
    }

    #[test]
    fn gallop_finds_lower_bound() {
        let xs = [10u32, 20, 30, 40, 50];
        assert_eq!(gallop(&xs, 0, &5), 0);
        assert_eq!(gallop(&xs, 0, &10), 0);
        assert_eq!(gallop(&xs, 0, &25), 2);
        assert_eq!(gallop(&xs, 2, &30), 2);
        assert_eq!(gallop(&xs, 0, &50), 4);
        assert_eq!(gallop(&xs, 0, &51), 5);
        assert_eq!(gallop(&xs, 5, &1), 5);
        assert_eq!(gallop::<u32>(&[], 0, &1), 0);
    }

    #[test]
    fn one_element_against_100k() {
        // The 1-vs-100 000 extreme the galloping path exists for.
        let large: Vec<u32> = (0..100_000).map(|i| i * 2).collect();
        assert_eq!(intersect(&[131_071u32], &large), Vec::<u32>::new());
        assert_eq!(intersect(&[131_072u32], &large), vec![131_072]);
        assert_eq!(intersect(&large, &[0u32]), vec![0]);
        assert_eq!(difference(&[7u32], &large), vec![7]);
        assert_eq!(difference(&[8u32], &large), Vec::<u32>::new());
    }

    /// Reference implementations via naive set logic.
    fn naive_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().filter(|x| b.contains(x)).copied().collect()
    }

    fn naive_difference(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().filter(|x| !b.contains(x)).copied().collect()
    }

    mod asymmetric_props {
        use super::*;
        use proptest::prelude::*;

        /// A small sorted set and a large one (up to 100k elements,
        /// generated as a strided range so cases stay fast) whose size
        /// ratio drives the galloping branch.
        fn skewed_pair() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
            let small = proptest::collection::btree_set(0u32..400_000, 0..12)
                .prop_map(|s| s.into_iter().collect::<Vec<u32>>());
            let large = (1u32..8, 1usize..100_001).prop_map(|(stride, len)| {
                (0..len as u32).map(|i| i * stride).collect::<Vec<u32>>()
            });
            (small, large)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn galloping_intersect_matches_naive(pair in skewed_pair()) {
                let (small, large) = pair;
                prop_assert_eq!(intersect(&small, &large), naive_intersect(&small, &large));
                prop_assert_eq!(intersect(&large, &small), naive_intersect(&small, &large));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn galloping_difference_matches_naive(pair in skewed_pair()) {
                let (small, large) = pair;
                prop_assert_eq!(difference(&small, &large), naive_difference(&small, &large));
                let flipped = difference(&large, &small);
                prop_assert_eq!(flipped.len(), large.len() - naive_intersect(&small, &large).len());
                prop_assert!(is_sorted_set(&flipped));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn intersect_many_reuses_buffers_correctly(
                pair in skewed_pair(),
                mid in proptest::collection::btree_set(0u32..400_000, 0..64),
            ) {
                let (small, large) = pair;
                let mid: Vec<u32> = mid.into_iter().collect();
                let expected = naive_intersect(&naive_intersect(&small, &mid), &large);
                let ids = |xs: &[u32]| xs.iter().copied().map(Id).collect::<Vec<_>>();
                let (small, mid, large) = (ids(&small), ids(&mid), ids(&large));
                let lists = [&large, &small, &mid].map(|l| List::from(&l[..]));
                prop_assert_eq!(intersect_many(lists.to_vec()), ids(&expected));
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn comparable_sizes_agree_with_naive(
                a in proptest::collection::btree_set(0u32..64, 0..24),
                b in proptest::collection::btree_set(0u32..64, 0..24),
            ) {
                let a: Vec<u32> = a.into_iter().collect();
                let b: Vec<u32> = b.into_iter().collect();
                prop_assert_eq!(intersect(&a, &b), naive_intersect(&a, &b));
                prop_assert_eq!(difference(&a, &b), naive_difference(&a, &b));
            }
        }
    }
}
