//! Sorted-`Vec` map and set for the per-instance tables.
//!
//! The paper's §4.2 gives every workflow instance its own small tables
//! (rules, events, data items, step status), and a distributed agent keeps
//! them again for every instance it touches. Their size is bounded by the
//! *schema* — a handful of entries — so a `BTreeMap`, whose smallest
//! allocation is a leaf with room for eleven, holds mostly air. [`VecMap`]
//! and [`VecSet`] keep the entries in one key-ordered `Vec` sized to what
//! it holds: the same iteration order, the `BTreeMap` / `BTreeSet` method
//! subset the run-times use, one allocation per table. Tables that grow
//! with instances, nodes or requirements stay B-trees (DESIGN.md §6j).

/// A map kept as a `Vec` of entries in ascending key order.
#[derive(Debug, Clone, PartialEq)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// Create a new, empty map (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// `Ok(index)` of `key`'s entry, or `Err(index)` where it would go.
    fn slot(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Open entry `at`, growing the table by exactly the one entry.
    fn insert_at(&mut self, at: usize, key: K, value: V) -> &mut V {
        self.entries.reserve_exact(1);
        self.entries.insert(at, (key, value));
        &mut self.entries[at].1
    }

    /// Value of `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.slot(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable value of `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.slot(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// True if `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.slot(key).is_ok()
    }

    /// Insert or overwrite `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.slot(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.insert_at(i, key, value);
                None
            }
        }
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.slot(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// The entry of `key` for in-place insert-or-update.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        let slot = self.slot(&key);
        Entry {
            map: self,
            key,
            slot,
        }
    }

    /// Make room, in one allocation, for every one of `keys` the map does
    /// not hold yet, so that inserting them all keeps the table exact-fit
    /// without growing it once per entry. `keys` are distinct, as the keys
    /// of a table or a packet are.
    pub fn reserve_missing<'a>(&mut self, keys: impl IntoIterator<Item = &'a K>)
    where
        K: 'a,
    {
        let missing = keys.into_iter().filter(|k| !self.contains_key(k)).count();
        self.entries.reserve_exact(missing);
    }

    /// Make room for `n` more entries in one allocation, exactly: for a
    /// table whose final size is known before it fills, such as an
    /// instance's tables sized from its schema.
    pub fn reserve(&mut self, n: usize) {
        self.entries.reserve_exact(n);
    }

    /// Keep only the entries `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }
}

impl<K, V> VecMap<K, V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Entries the table has room for without growing.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// The entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.into_iter()
    }

    /// The keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// The values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// The values in key order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

/// A position in a [`VecMap`], occupied or vacant (`BTreeMap::entry`).
pub struct Entry<'a, K, V> {
    map: &'a mut VecMap<K, V>,
    key: K,
    slot: Result<usize, usize>,
}

impl<'a, K: Ord, V> Entry<'a, K, V> {
    /// The entry's value, inserting `default` if it was vacant.
    pub fn or_insert(self, default: V) -> &'a mut V {
        self.or_insert_with(|| default)
    }

    /// The entry's value, inserting `default()` if it was vacant.
    pub fn or_insert_with(self, default: impl FnOnce() -> V) -> &'a mut V {
        match self.slot {
            Ok(i) => &mut self.map.entries[i].1,
            Err(i) => self.map.insert_at(i, self.key, default()),
        }
    }

    /// The entry's value, inserting `V::default()` if it was vacant.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert_with(V::default)
    }

    /// Apply `f` to the value if the entry is occupied.
    pub fn and_modify(self, f: impl FnOnce(&mut V)) -> Self {
        if let Ok(i) = self.slot {
            f(&mut self.map.entries[i].1);
        }
        self
    }
}

impl<K: Ord, V> Extend<(K, V)> for VecMap<K, V> {
    fn extend<T: IntoIterator<Item = (K, V)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for VecMap<K, V> {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut map = VecMap::new();
        map.extend(iter);
        map
    }
}

impl<K, V> IntoIterator for VecMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    /// The entries by value, in key order.
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a, K, V> IntoIterator for &'a VecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> Self::Item>;

    fn into_iter(self) -> Self::IntoIter {
        let entry: fn(&'a (K, V)) -> Self::Item = |(k, v)| (k, v);
        self.entries.iter().map(entry)
    }
}

impl<K: Ord, V> std::ops::Index<&K> for VecMap<K, V> {
    type Output = V;

    /// The value of `key`; panics if it has no entry (`BTreeMap`'s `Index`).
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

/// A set kept as a `Vec` of members in ascending order.
#[derive(Debug, Clone, PartialEq)]
pub struct VecSet<K> {
    members: VecMap<K, ()>,
}

impl<K> Default for VecSet<K> {
    fn default() -> Self {
        VecSet {
            members: VecMap::default(),
        }
    }
}

impl<K: Ord> VecSet<K> {
    /// Create a new, empty set (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `key`; `true` if it was not yet a member.
    pub fn insert(&mut self, key: K) -> bool {
        self.members.insert(key, ()).is_none()
    }

    /// Remove `key`; `true` if it was a member.
    pub fn remove(&mut self, key: &K) -> bool {
        self.members.remove(key).is_some()
    }

    /// True if `key` is a member.
    pub fn contains(&self, key: &K) -> bool {
        self.members.contains_key(key)
    }

    /// Keep only the members `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.members.retain(|k, _| keep(k));
    }
}

impl<K> VecSet<K> {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when there are no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        self.members.clear();
    }

    /// The members in order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.into_iter()
    }
}

impl<K: Ord> Extend<K> for VecSet<K> {
    fn extend<T: IntoIterator<Item = K>>(&mut self, iter: T) {
        self.members.extend(iter.into_iter().map(|k| (k, ())));
    }
}

impl<K: Ord> FromIterator<K> for VecSet<K> {
    fn from_iter<T: IntoIterator<Item = K>>(iter: T) -> Self {
        let mut set = VecSet::new();
        set.extend(iter);
        set
    }
}

impl<K> IntoIterator for VecSet<K> {
    type Item = K;
    type IntoIter = std::iter::Map<std::vec::IntoIter<(K, ())>, fn((K, ())) -> K>;

    /// The members by value, in order.
    fn into_iter(self) -> Self::IntoIter {
        let member: fn((K, ())) -> K = |(k, ())| k;
        self.members.into_iter().map(member)
    }
}

impl<'a, K> IntoIterator for &'a VecSet<K> {
    type Item = &'a K;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, ())>, fn(&'a (K, ())) -> &'a K>;

    fn into_iter(self) -> Self::IntoIter {
        let member: fn(&'a (K, ())) -> &'a K = |(k, ())| k;
        self.members.entries.iter().map(member)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_stay_in_key_order_whatever_the_insert_order() {
        let map: VecMap<u8, &str> = [(3, "c"), (1, "a"), (2, "b"), (1, "A")]
            .into_iter()
            .collect();
        assert_eq!(
            map.iter().collect::<Vec<_>>(),
            [(&1, &"A"), (&2, &"b"), (&3, &"c")]
        );
        assert_eq!(map[&2], "b");
        let set: VecSet<u8> = [9, 4, 9, 1].into_iter().collect();
        assert_eq!(set.iter().copied().collect::<Vec<_>>(), [1, 4, 9]);
    }

    #[test]
    #[should_panic(expected = "no entry found for key")]
    fn index_panics_on_a_missing_key() {
        let map: VecMap<u8, u8> = [(1, 1)].into_iter().collect();
        let _ = map[&2];
    }

    #[test]
    fn entry_and_modify_or_insert() {
        let mut map: VecMap<u8, u32> = VecMap::new();
        for _ in 0..3 {
            map.entry(7).and_modify(|v| *v += 10).or_insert(1);
        }
        assert_eq!(map.get(&7), Some(&21));
        *map.entry(2).or_default() += 5;
        assert_eq!(map.iter().collect::<Vec<_>>(), [(&2, &5), (&7, &21)]);
    }

    #[test]
    fn a_table_holds_exactly_what_was_put_in_it() {
        let mut map: VecMap<u8, u64> = VecMap::new();
        assert_eq!(map.entries.capacity(), 0, "an empty table owns nothing");
        for k in [5, 1, 3] {
            map.insert(k, 0);
            assert_eq!(map.entries.capacity(), map.len());
        }
    }

    #[test]
    fn a_batch_grows_the_table_once_and_exactly() {
        let mut map: VecMap<u8, u64> = [(1, 0), (3, 0)].into_iter().collect();
        let batch = [0, 1, 2, 3, 4];
        map.reserve_missing(&batch);
        assert_eq!(map.capacity(), 5, "room for the three missing keys only");
        let room = map.entries.as_ptr();
        for k in batch {
            map.insert(k, 1);
        }
        assert_eq!(map.entries.as_ptr(), room, "no insert reallocated");
        assert_eq!(map.capacity(), map.len());
        map.reserve_missing(&batch);
        assert_eq!(map.capacity(), 5, "nothing missing, nothing reserved");
    }

    #[test]
    fn a_reserved_table_fills_without_growing() {
        let mut map: VecMap<u8, u64> = VecMap::new();
        map.reserve(4);
        assert_eq!(map.capacity(), 4);
        let room = map.entries.as_ptr();
        for k in [4, 2, 3] {
            map.insert(k, 0);
        }
        assert_eq!(map.entries.as_ptr(), room, "no insert reallocated");
        assert_eq!(map.capacity(), 4);
    }
}
