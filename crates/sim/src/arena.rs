//! Dense entity stores for the simulation hot path.
//!
//! The runtime layers identify every entity — units, pilots, batch jobs,
//! engine tasks — by a dense monotonic counter, yet historically kept the
//! records in hash maps, paying a hash and a probe on every lookup of an
//! integer that is already a perfect index. [`DenseStore`] is the
//! replacement: a slab `Vec<Option<V>>` keyed directly by the dense id.
//! Lookup is a bounds check and a pointer add. Ids are never reused (the
//! counters only grow), so the slab only grows; removal leaves a `None`
//! hole. Iteration is in id order, which keeps every consumer deterministic
//! by construction — unlike the hash maps it replaces. A table whose every
//! id is occupied for good is a plain `Vec` of rows, grown by
//! [`reserve_batch`].

/// Makes room in a per-entity table for a batch of `additional` rows whose
/// size the caller knows (a pattern's task count, a unit submission).
///
/// `Vec::reserve` would round the request up to twice the capacity: a
/// 200 001-row table ends at 262 144 or 400 000 slots, and every doubling
/// copies the table and leaves its old block to the allocator. Here a large
/// batch gets exactly its size and a trickle of single rows grows the table
/// by a quarter, so growth stays amortized O(1) with at most 25 % slack.
pub fn reserve_batch<T>(table: &mut Vec<T>, additional: usize) {
    if additional > table.capacity() - table.len() {
        table.reserve_exact(additional.max(table.capacity() / 4));
    }
}

/// A slab keyed by an already-dense `u64` id.
///
/// `insert` grows the slab to cover the id; `remove` leaves a hole. All
/// operations on existing ids are O(1) with no hashing.
#[derive(Debug, Clone)]
pub struct DenseStore<V> {
    slots: Vec<Option<V>>,
    len: usize,
}

impl<V> Default for DenseStore<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> DenseStore<V> {
    /// Creates an empty store.
    pub fn new() -> Self {
        DenseStore {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty store with room for `capacity` ids.
    pub fn with_capacity(capacity: usize) -> Self {
        DenseStore {
            slots: Vec::with_capacity(capacity),
            len: 0,
        }
    }

    /// Makes room for `additional` more ids past the highest one seen;
    /// see [`reserve_batch`].
    pub fn reserve(&mut self, additional: usize) {
        reserve_batch(&mut self.slots, additional);
    }

    /// Inserts `value` at `id`, returning the previous occupant if any.
    pub fn insert(&mut self, id: u64, value: V) -> Option<V> {
        let idx = id as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Value at `id`.
    pub fn get(&self, id: u64) -> Option<&V> {
        self.slots.get(id as usize).and_then(Option::as_ref)
    }

    /// Mutable value at `id`.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        self.slots.get_mut(id as usize).and_then(Option::as_mut)
    }

    /// Removes and returns the value at `id`.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let removed = self.slots.get_mut(id as usize).and_then(Option::take);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Whether `id` is occupied.
    pub fn contains(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Occupied `(id, &value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (i as u64, v)))
    }

    /// Occupied `(id, &mut value)` pairs in id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut V)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, v)| v.as_mut().map(|v| (i as u64, v)))
    }

    /// Occupied values in id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Occupied ids in order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|_| i as u64))
    }
}

impl<V> std::ops::Index<u64> for DenseStore<V> {
    type Output = V;
    fn index(&self, id: u64) -> &V {
        self.get(id)
            .unwrap_or_else(|| panic!("DenseStore: no entry for id {id}"))
    }
}

impl<V> std::ops::IndexMut<u64> for DenseStore<V> {
    fn index_mut(&mut self, id: u64) -> &mut V {
        self.get_mut(id)
            .unwrap_or_else(|| panic!("DenseStore: no entry for id {id}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_store_insert_get_remove() {
        let mut s: DenseStore<&str> = DenseStore::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(3, "three"), None);
        assert_eq!(s.insert(0, "zero"), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(3), Some(&"three"));
        assert_eq!(s.get(1), None, "hole inside the slab");
        assert_eq!(s.get(99), None, "past the end");
        assert_eq!(s.insert(3, "replaced"), Some("three"));
        assert_eq!(s.len(), 2, "replacement does not grow the store");
        assert_eq!(s.remove(3), Some("replaced"));
        assert_eq!(s.remove(3), None, "double remove");
        assert_eq!(s.len(), 1);
        assert!(s.contains(0));
        assert!(!s.contains(3));
    }

    #[test]
    fn dense_store_iterates_in_id_order() {
        let mut s = DenseStore::new();
        for id in [5u64, 1, 9, 3] {
            s.insert(id, id * 10);
        }
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(
            pairs,
            vec![(1u64, &10u64), (3, &30), (5, &50), (9, &90)],
            "iteration must be deterministic id order, not insertion order"
        );
        assert_eq!(s.keys().collect::<Vec<_>>(), vec![1, 3, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "no entry for id 7")]
    fn dense_store_index_panics_on_hole() {
        let mut s = DenseStore::new();
        s.insert(1, ());
        let _ = &s[7];
    }
}
