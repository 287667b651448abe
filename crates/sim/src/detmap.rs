//! Insertion-ordered, seed-independent map and set.
//!
//! `std::collections::HashMap` iterates in an order derived from a
//! per-process random hasher seed, so any code that iterates one — or
//! whose behavior depends on which entry a scan visits first — breaks
//! the bit-identical same-seed replay the whole test suite asserts.
//! [`DetMap`] and [`DetSet`] keep the O(1) keyed lookups of a hash map
//! but iterate strictly in **insertion order**, which depends only on
//! the simulation's own event sequence and is therefore reproducible.
//!
//! The API mirrors `HashMap`/`HashSet` closely enough that migrating a
//! field is a type change plus an import. Differences worth knowing:
//!
//! * `remove` is O(n) in the number of live entries (it preserves the
//!   order of the survivors). That is cheap for tables of tens of
//!   entries, but not for tables that hold hundreds (the NIC's per-frame
//!   transmit map reaches hundreds of frames in flight). A table keyed by
//!   monotonically allocated tokens iterates in insertion order as a
//!   `BTreeMap` too, with O(log n) removes; prefer that there.
//! * Re-inserting an existing key replaces the value but keeps the
//!   key's original position, exactly like `HashMap`.
//! * Iteration order is part of the contract and is tested.
//!
//! `dcs-lint` enforces that simulation crates use these types instead
//! of the std hash containers (rule `hash-collection`).

// dcs-lint: allow-file(hash-collection) — this module wraps HashMap; the interior index is lookup-only and every iteration goes through the insertion-ordered Vec

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// A hash map that iterates in insertion order.
///
/// Drop-in replacement for the `std::collections::HashMap` patterns
/// used in this workspace; see the module docs for the differences.
#[derive(Clone)]
pub struct DetMap<K, V> {
    /// key -> position in `entries`. Never iterated.
    index: HashMap<K, usize>,
    /// Live entries in insertion order.
    entries: Vec<(K, V)>,
}

impl<K, V> Default for DetMap<K, V> {
    fn default() -> Self {
        DetMap {
            index: HashMap::new(),
            entries: Vec::new(),
        }
    }
}

impl<K: Eq + Hash + Clone, V> DetMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty map with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        DetMap {
            index: HashMap::with_capacity(cap),
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.index.clear();
        self.entries.clear();
    }

    /// Inserts `value` under `key`, returning the previous value if the
    /// key was present. An existing key keeps its insertion position.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.index.get(&key) {
            Some(&i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            None => {
                self.index.insert(key.clone(), self.entries.len());
                self.entries.push((key, value));
                None
            }
        }
    }

    /// Borrows the value for `key`, if present.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.index.get(key).map(|&i| &self.entries[i].1)
    }

    /// Mutably borrows the value for `key`, if present.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        match self.index.get(key) {
            Some(&i) => Some(&mut self.entries[i].1),
            None => None,
        }
    }

    /// True when `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.index.contains_key(key)
    }

    /// Removes `key`, returning its value if it was present. The
    /// relative order of the surviving entries is preserved (O(n)).
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let i = self.index.remove(key)?;
        let (_, value) = self.entries.remove(i);
        // Positions after the hole shift left by one. Order-independent
        // fix-up, so scanning the hash index here is benign.
        // dcs-lint: allow(hash-iter) — order-independent position fix-up
        for pos in self.index.values_mut() {
            if *pos > i {
                *pos -= 1;
            }
        }
        Some(value)
    }

    /// Removes and returns the oldest (first-inserted) entry.
    pub fn pop_first(&mut self) -> Option<(K, V)> {
        if self.entries.is_empty() {
            return None;
        }
        let (key, value) = self.entries.remove(0);
        self.index.remove(&key);
        // dcs-lint: allow(hash-iter) — order-independent position fix-up
        for pos in self.index.values_mut() {
            *pos -= 1;
        }
        Some((key, value))
    }

    /// The in-place entry API: `map.entry(k).or_insert(v)` etc.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        Entry { map: self, key }
    }

    /// Iterates `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates `(key, mut value)` pairs in insertion order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> + '_ {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Iterates keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Iterates mutable values in insertion order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Keeps only the entries for which `keep` returns true, preserving
    /// the order of the survivors.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
        self.index.clear();
        for (i, (k, _)) in self.entries.iter().enumerate() {
            self.index.insert(k.clone(), i);
        }
    }

    /// Empties the map, yielding the entries in insertion order.
    pub fn drain(&mut self) -> impl Iterator<Item = (K, V)> {
        self.index.clear();
        std::mem::take(&mut self.entries).into_iter()
    }
}

impl<K: Eq + Hash + Clone, V> Extend<(K, V)> for DetMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K: Eq + Hash + Clone, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = DetMap::new();
        map.extend(iter);
        map
    }
}

impl<K: Eq + Hash + Clone, V> IntoIterator for DetMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a, K: Eq + Hash + Clone, V> IntoIterator for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> (&'a K, &'a V)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl<K, Q, V> std::ops::Index<&Q> for DetMap<K, V>
where
    K: Eq + Hash + Clone + Borrow<Q>,
    Q: Eq + Hash + ?Sized,
{
    type Output = V;
    fn index(&self, key: &Q) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<K: Eq + Hash + Clone, V: PartialEq> PartialEq for DetMap<K, V> {
    /// Content equality, like `HashMap`: insertion order does not
    /// participate.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .all(|(k, v)| other.get(k).is_some_and(|ov| ov == v))
    }
}

impl<K: Eq + Hash + Clone, V: Eq> Eq for DetMap<K, V> {}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for DetMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

/// View into a single key of a [`DetMap`], occupied or vacant.
pub struct Entry<'a, K, V> {
    map: &'a mut DetMap<K, V>,
    key: K,
}

impl<'a, K: Eq + Hash + Clone, V> Entry<'a, K, V> {
    /// Inserts `default` if the key is vacant; returns the value.
    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    /// Inserts `make()` if the key is vacant; returns the value.
    pub fn or_insert_with(self, make: impl FnOnce() -> V) -> &'a mut V {
        let i = match self.map.index.get(&self.key) {
            Some(&i) => i,
            None => {
                let i = self.map.entries.len();
                self.map.index.insert(self.key.clone(), i);
                self.map.entries.push((self.key, make()));
                i
            }
        };
        &mut self.map.entries[i].1
    }

    /// Mutates the value in place if the key is occupied.
    pub fn and_modify(self, f: impl FnOnce(&mut V)) -> Self {
        if let Some(&i) = self.map.index.get(&self.key) {
            f(&mut self.map.entries[i].1);
        }
        self
    }
}

impl<'a, K: Eq + Hash + Clone, V: Default> Entry<'a, K, V> {
    /// Inserts `V::default()` if the key is vacant; returns the value.
    pub fn or_default(self) -> &'a mut V {
        self.or_insert_with(V::default)
    }
}

/// A hash set that iterates in insertion order. See [`DetMap`].
#[derive(Clone, Default)]
pub struct DetSet<T> {
    map: DetMap<T, ()>,
}

impl<T: Eq + Hash + Clone> DetSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        DetSet { map: DetMap::new() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Adds `value`; returns true if it was not already present.
    pub fn insert(&mut self, value: T) -> bool {
        self.map.insert(value, ()).is_none()
    }

    /// True when `value` is present.
    pub fn contains<Q>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.contains_key(value)
    }

    /// Removes `value`; returns true if it was present.
    pub fn remove<Q>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.map.remove(value).is_some()
    }

    /// Iterates elements in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.map.keys()
    }

    /// Keeps only the elements for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.map.retain(|k, _| keep(k));
    }
}

impl<T: Eq + Hash + Clone> Extend<T> for DetSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<T: Eq + Hash + Clone> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = DetSet::new();
        set.extend(iter);
        set
    }
}

impl<T: Eq + Hash + Clone> IntoIterator for DetSet<T> {
    type Item = T;
    type IntoIter = std::iter::Map<std::vec::IntoIter<(T, ())>, fn((T, ())) -> T>;
    fn into_iter(self) -> Self::IntoIter {
        self.map.into_iter().map(|(k, ())| k)
    }
}

impl<T: Eq + Hash + Clone + PartialEq> PartialEq for DetSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<T: fmt::Debug> fmt::Debug for DetSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.map.entries.iter().map(|(k, _)| k))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_is_insertion_ordered() {
        let mut m = DetMap::new();
        for k in [30u32, 10, 20, 5] {
            m.insert(k, k * 2);
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![30, 10, 20, 5]);
        let vals: Vec<u32> = m.values().copied().collect();
        assert_eq!(vals, vec![60, 20, 40, 10]);
        let pairs: Vec<(u32, u32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(pairs, vec![(30, 60), (10, 20), (20, 40), (5, 10)]);
    }

    #[test]
    fn reinsert_keeps_position_and_returns_old() {
        let mut m = DetMap::new();
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.insert("a", 9), Some(1));
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(m["a"], 9);
    }

    #[test]
    fn remove_preserves_survivor_order() {
        let mut m: DetMap<u8, u8> = (0..6).map(|i| (i, i)).collect();
        assert_eq!(m.remove(&2), Some(2));
        assert_eq!(m.remove(&2), None);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![0, 1, 3, 4, 5]);
        // Lookups survive the index fix-up.
        for k in [0u8, 1, 3, 4, 5] {
            assert_eq!(m.get(&k), Some(&k));
        }
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn pop_first_is_fifo() {
        let mut m: DetMap<u8, &str> = DetMap::new();
        m.insert(7, "x");
        m.insert(3, "y");
        assert_eq!(m.pop_first(), Some((7, "x")));
        assert_eq!(m.get(&3), Some(&"y"));
        assert_eq!(m.pop_first(), Some((3, "y")));
        assert_eq!(m.pop_first(), None);
    }

    #[test]
    fn entry_api_matches_hashmap_semantics() {
        let mut m: DetMap<&str, u32> = DetMap::new();
        *m.entry("hits").or_insert(0) += 1;
        *m.entry("hits").or_insert(0) += 1;
        assert_eq!(m["hits"], 2);
        m.entry("tags").or_default();
        assert_eq!(m["tags"], 0);
        m.entry("hits").and_modify(|v| *v *= 10).or_insert(99);
        assert_eq!(m["hits"], 20);
        m.entry("fresh").and_modify(|v| *v *= 10).or_insert(99);
        assert_eq!(m["fresh"], 99);
        let called = m.entry("lazy").or_insert_with(|| 42);
        assert_eq!(*called, 42);
    }

    #[test]
    fn borrowed_key_lookup() {
        let mut m: DetMap<String, u32> = DetMap::new();
        m.insert("pool-a".to_string(), 1);
        assert_eq!(m.get("pool-a"), Some(&1));
        assert!(m.contains_key("pool-a"));
        assert_eq!(m.remove("pool-a"), Some(1));
        assert!(m.is_empty());
    }

    #[test]
    fn retain_and_drain() {
        let mut m: DetMap<u8, u8> = (0..8).map(|i| (i, i)).collect();
        m.retain(|k, _| k % 2 == 0);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![0, 2, 4, 6]);
        assert_eq!(m.get(&4), Some(&4));
        let drained: Vec<(u8, u8)> = m.drain().collect();
        assert_eq!(drained, vec![(0, 0), (2, 2), (4, 4), (6, 6)]);
        assert!(m.is_empty());
        assert_eq!(m.get(&0), None);
    }

    #[test]
    fn equality_ignores_order() {
        let a: DetMap<u8, u8> = [(1, 10), (2, 20)].into_iter().collect();
        let b: DetMap<u8, u8> = [(2, 20), (1, 10)].into_iter().collect();
        assert_eq!(a, b);
        let c: DetMap<u8, u8> = [(1, 10), (2, 21)].into_iter().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn set_basics_and_order() {
        let mut s = DetSet::new();
        assert!(s.insert(9u16));
        assert!(s.insert(4));
        assert!(!s.insert(9));
        assert!(s.contains(&4));
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![9, 4]);
        assert!(s.remove(&9));
        assert!(!s.remove(&9));
        assert_eq!(s.len(), 1);
        s.retain(|_| false);
        assert!(s.is_empty());
    }

    #[test]
    fn debug_formats_like_std() {
        let m: DetMap<u8, u8> = [(1, 2)].into_iter().collect();
        assert_eq!(format!("{m:?}"), "{1: 2}");
        let s: DetSet<u8> = [3].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{3}");
    }
}
