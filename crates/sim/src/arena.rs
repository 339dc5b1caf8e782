//! Dense entity stores for the simulation hot path.
//!
//! The runtime layers identify every entity — units, pilots, batch jobs,
//! engine tasks — by a dense monotonic counter, yet historically kept the
//! records in hash maps, paying a hash and a probe on every lookup of an
//! integer that is already a perfect index. This module provides the two
//! replacements:
//!
//! * [`DenseStore`] — a slab `Vec<Option<V>>` keyed directly by the dense
//!   id. Lookup is a bounds check and a pointer add. Ids are never reused
//!   (the counters only grow), so the slab only grows; removal leaves a
//!   `None` hole. Iteration is in id order, which keeps every consumer
//!   deterministic by construction — unlike the hash maps it replaces.
//! * [`Arena`] — a generational arena for records whose slots *are*
//!   recycled (e.g. per-job node allocations that come and go). A
//!   [`GenId`] carries the slot index plus a generation stamp; accessing a
//!   slot through a stale id after the slot was freed and reused returns
//!   `None` (or panics deterministically through the indexing operators)
//!   instead of silently aliasing the new occupant.

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

    /// Occupied values, mutably, in id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.slots.iter_mut().filter_map(Option::as_mut)
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

/// Handle into an [`Arena`]: slot index plus generation stamp.
///
/// The generation is bumped every time the slot is vacated, so a handle
/// taken before a free/reuse cycle no longer resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GenId {
    index: u32,
    generation: u32,
}

impl GenId {
    /// Slot index within the arena.
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// Generation stamp of the slot at handle-creation time.
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// Packed `generation << 32 | index` form, for logs and diagnostics.
    pub fn raw(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.index)
    }
}

#[derive(Debug, Clone)]
enum Slot<T> {
    Vacant { generation: u32 },
    Occupied { generation: u32, value: T },
}

/// A generational arena: O(1) insert/remove with slot reuse, where stale
/// handles are detected by a generation mismatch instead of silently
/// reading the slot's new occupant.
#[derive(Debug, Clone)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Inserts `value`, reusing the most recently freed slot if any.
    pub fn insert(&mut self, value: T) -> GenId {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            let generation = match *slot {
                Slot::Vacant { generation } => generation,
                Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
            };
            *slot = Slot::Occupied { generation, value };
            GenId { index, generation }
        } else {
            let index = u32::try_from(self.slots.len()).expect("arena outgrew u32 indices");
            self.slots.push(Slot::Occupied {
                generation: 0,
                value,
            });
            GenId {
                index,
                generation: 0,
            }
        }
    }

    /// Value behind `id`; `None` if the slot was freed (and possibly
    /// reused) since the handle was created.
    pub fn get(&self, id: GenId) -> Option<&T> {
        match self.slots.get(id.index()) {
            Some(Slot::Occupied { generation, value }) if *generation == id.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Mutable value behind `id`, with the same staleness rule as [`get`](Self::get).
    pub fn get_mut(&mut self, id: GenId) -> Option<&mut T> {
        match self.slots.get_mut(id.index()) {
            Some(Slot::Occupied { generation, value }) if *generation == id.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Removes and returns the value behind `id`, bumping the slot's
    /// generation so every outstanding handle to it goes stale. Removing
    /// through a stale handle returns `None` and changes nothing.
    pub fn remove(&mut self, id: GenId) -> Option<T> {
        match self.slots.get_mut(id.index()) {
            Some(slot @ Slot::Occupied { .. }) => {
                let Slot::Occupied { generation, .. } = *slot else {
                    unreachable!()
                };
                if generation != id.generation {
                    return None;
                }
                let Slot::Occupied { value, .. } = std::mem::replace(
                    slot,
                    Slot::Vacant {
                        generation: generation.wrapping_add(1),
                    },
                ) else {
                    unreachable!()
                };
                self.free.push(id.index);
                self.len -= 1;
                Some(value)
            }
            _ => None,
        }
    }

    /// Whether `id` still resolves.
    pub fn contains(&self, id: GenId) -> bool {
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

    /// Occupied `(handle, &value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (GenId, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Occupied { generation, value } => Some((
                GenId {
                    index: i as u32,
                    generation: *generation,
                },
                value,
            )),
            Slot::Vacant { .. } => None,
        })
    }
}

impl<T> std::ops::Index<GenId> for Arena<T> {
    type Output = T;
    fn index(&self, id: GenId) -> &T {
        self.get(id).unwrap_or_else(|| {
            panic!(
                "Arena: stale or vacant handle (index {}, generation {})",
                id.index(),
                id.generation()
            )
        })
    }
}

impl<T> std::ops::IndexMut<GenId> for Arena<T> {
    fn index_mut(&mut self, id: GenId) -> &mut T {
        self.get_mut(id).unwrap_or_else(|| {
            panic!(
                "Arena: stale or vacant handle (index {}, generation {})",
                id.index(),
                id.generation()
            )
        })
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

    #[test]
    fn arena_insert_get_remove() {
        let mut a = Arena::new();
        let x = a.insert("x");
        let y = a.insert("y");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(x), Some(&"x"));
        assert_eq!(a[y], "y");
        assert_eq!(a.remove(x), Some("x"));
        assert_eq!(a.len(), 1);
        assert_eq!(a.remove(x), None, "remove through a stale handle");
    }

    /// The satellite requirement: a generation-mismatched access returns
    /// `None` (never the slot's new occupant), deterministically.
    #[test]
    fn arena_stale_handle_returns_none_after_reuse() {
        let mut a = Arena::new();
        let old = a.insert("old");
        assert_eq!(a.remove(old), Some("old"));
        let new = a.insert("new");
        assert_eq!(new.index(), old.index(), "slot must be recycled");
        assert_ne!(new.generation(), old.generation());
        assert_eq!(a.get(old), None, "stale read");
        assert_eq!(a.get_mut(old), None, "stale write");
        assert!(!a.contains(old));
        assert_eq!(a.remove(old), None, "stale remove leaves the slot alone");
        assert_eq!(a.get(new), Some(&"new"));
    }

    #[test]
    #[should_panic(expected = "stale or vacant handle (index 0, generation 0)")]
    fn arena_index_panics_deterministically_on_stale_handle() {
        let mut a = Arena::new();
        let old = a.insert(1u32);
        a.remove(old);
        a.insert(2u32);
        let _ = a[old];
    }

    #[test]
    fn arena_generations_survive_many_reuse_cycles() {
        let mut a = Arena::new();
        let mut stale = Vec::new();
        for round in 0..100u32 {
            let id = a.insert(round);
            assert_eq!(id.index(), 0, "single slot recycled every round");
            assert_eq!(id.generation(), round);
            assert_eq!(a.remove(id), Some(round));
            stale.push(id);
        }
        let live = a.insert(u32::MAX);
        for old in stale {
            assert_eq!(a.get(old), None);
        }
        assert_eq!(a.get(live), Some(&u32::MAX));
    }

    #[test]
    fn arena_iter_skips_vacant_slots() {
        let mut a = Arena::new();
        let _x = a.insert(1);
        let y = a.insert(2);
        let _z = a.insert(3);
        a.remove(y);
        let values: Vec<_> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, vec![1, 3]);
    }
}
