//! `VecMap`: an association map stored as a sorted vector of `(key, value)`
//! pairs.
//!
//! This is the paper's "vector" (Figure 2): a header resource is associated
//! with a *sorted vector* of second-level keys, each carrying a payload (for
//! the Hexastore, a terminal-list handle). A sorted vector gives
//!
//! - `O(log n)` point lookups via binary search,
//! - sorted iteration for merge joins at zero extra cost,
//! - compact memory (no per-node overhead as in a B-tree/AVL — the paper
//!   contrasts with Kowari's AVL trees),
//!
//! at the cost of `O(n)` random inserts. Dictionary ids are allocated in
//! first-seen order, so bulk loading in dataset order makes most inserts
//! appends; the dedicated bulk loader sorts first and only ever appends.

use std::fmt;

/// A map from `K` to `V` backed by a sorted `Vec<(K, V)>`.
#[derive(Clone)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap { entries: Vec::new() }
    }
}

impl<K: Ord + Copy, V> VecMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty map with room for `n` entries.
    pub fn with_capacity(n: usize) -> Self {
        VecMap { entries: Vec::with_capacity(n) }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn position(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Looks up a key.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Looks up a key, returning a mutable value reference.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.position(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// True if the key is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.position(key).is_ok()
    }

    /// Inserts a key-value pair, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.position(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Returns a mutable reference to the value for `key`, inserting the
    /// result of `default()` first if absent.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let i = match self.position(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Appends an entry whose key must be greater than all existing keys.
    /// Used by the bulk loader. Panics in debug builds on misuse.
    pub fn push_sorted(&mut self, key: K, value: V) {
        debug_assert!(self.entries.last().is_none_or(|(k, _)| *k < key));
        self.entries.push((key, value));
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.position(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Sorted iteration over `(key, &value)`.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Sorted iteration over keys.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.entries.iter().map(|(k, _)| *k)
    }

    /// Collects the keys into a vector (already sorted).
    pub fn key_vec(&self) -> Vec<K> {
        self.keys().collect()
    }

    /// Sorted iteration over values.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Heap bytes used by the entry vector itself (not the values' own heap).
    pub fn heap_bytes_shallow(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(K, V)>()
    }

    /// Shrinks the backing storage to fit.
    pub fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
    }
}

impl<K: Ord + Copy + fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.entries.iter().map(|(k, v)| (k, v))).finish()
    }
}

impl<K: Ord + Copy, V> FromIterator<(K, V)> for VecMap<K, V> {
    /// Builds a map from possibly-unsorted pairs. Later duplicates win.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut entries: Vec<(K, V)> = iter.into_iter().collect();
        entries.sort_by_key(|e| e.0);
        // Keep the last occurrence of each key.
        let mut dedup: Vec<(K, V)> = Vec::with_capacity(entries.len());
        for (k, v) in entries {
            if dedup.last().map(|(lk, _)| *lk == k).unwrap_or(false) {
                *dedup.last_mut().unwrap() = (k, v);
            } else {
                dedup.push((k, v));
            }
        }
        VecMap { entries: dedup }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut m: VecMap<u32, &str> = VecMap::new();
        assert_eq!(m.insert(5, "five"), None);
        assert_eq!(m.insert(1, "one"), None);
        assert_eq!(m.insert(3, "three"), None);
        assert_eq!(m.get(&3), Some(&"three"));
        assert_eq!(m.insert(3, "THREE"), Some("three"));
        assert_eq!(m.remove(&1), Some("one"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert!(m.contains_key(&5));
        assert!(!m.contains_key(&1));
    }

    #[test]
    fn iteration_is_key_sorted() {
        let mut m: VecMap<u32, u32> = VecMap::new();
        for k in [9, 2, 7, 4] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u32> = m.keys().collect();
        assert_eq!(keys, vec![2, 4, 7, 9]);
        let pairs: Vec<(u32, u32)> = m.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(pairs, vec![(2, 20), (4, 40), (7, 70), (9, 90)]);
        let vals: Vec<u32> = m.values().copied().collect();
        assert_eq!(vals, vec![20, 40, 70, 90]);
    }

    #[test]
    fn get_or_insert_with_creates_once() {
        let mut m: VecMap<u32, Vec<u32>> = VecMap::new();
        m.get_or_insert_with(1, Vec::new).push(10);
        m.get_or_insert_with(1, || panic!("must not be called")).push(11);
        assert_eq!(m.get(&1), Some(&vec![10, 11]));
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut m: VecMap<u32, u32> = VecMap::new();
        m.insert(1, 10);
        *m.get_mut(&1).unwrap() += 5;
        assert_eq!(m.get(&1), Some(&15));
        assert_eq!(m.get_mut(&2), None);
    }

    #[test]
    fn push_sorted_appends() {
        let mut m: VecMap<u32, u32> = VecMap::new();
        m.push_sorted(1, 10);
        m.push_sorted(4, 40);
        assert_eq!(m.key_vec(), vec![1, 4]);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn push_sorted_panics_on_out_of_order() {
        let mut m: VecMap<u32, u32> = VecMap::new();
        m.push_sorted(4, 40);
        m.push_sorted(1, 10);
    }

    #[test]
    fn from_iterator_sorts_and_last_dup_wins() {
        let m: VecMap<u32, &str> = [(3, "a"), (1, "b"), (3, "c"), (2, "d")].into_iter().collect();
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&3), Some(&"c"));
        assert_eq!(m.key_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn heap_bytes_reflects_capacity() {
        let mut m: VecMap<u32, u64> = VecMap::with_capacity(16);
        assert_eq!(m.heap_bytes_shallow(), 16 * std::mem::size_of::<(u32, u64)>());
        m.insert(1, 1);
        m.shrink_to_fit();
        assert_eq!(m.heap_bytes_shallow(), std::mem::size_of::<(u32, u64)>());
    }
}
