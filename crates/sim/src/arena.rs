//! Dense entity tables for the simulation hot path.
//!
//! The runtime layers identify every entity — tasks, units, pilots, batch
//! jobs — by a dense monotonic counter, so each table is a plain `Vec` of
//! rows indexed by that id: lookup is a bounds check and a pointer add, and
//! iteration is in id order, deterministic by construction. A table whose
//! oldest rows retire is a `VecDeque` behind a base id instead. Tables grow
//! by [`reserve_batch`].

use std::collections::VecDeque;

/// A table [`reserve_batch`] grows: a `Vec`, or a `VecDeque` whose oldest
/// rows leave from the front.
pub trait Table {
    /// Rows it can take before it reallocates.
    fn spare(&self) -> usize;
    /// Rows it holds or can take: its capacity.
    fn slots(&self) -> usize;
    /// Makes room for exactly `additional` more rows.
    fn grow_exact(&mut self, additional: usize);
}

macro_rules! table {
    ($t:ident) => {
        impl<T> Table for $t<T> {
            fn spare(&self) -> usize {
                self.capacity() - self.len()
            }
            fn slots(&self) -> usize {
                self.capacity()
            }
            fn grow_exact(&mut self, additional: usize) {
                self.reserve_exact(additional);
            }
        }
    };
}
table!(Vec);
table!(VecDeque);

/// Makes room in a per-entity table for a batch of `additional` rows whose
/// size the caller knows (a unit submission, the units entering scheduling).
///
/// `Vec::reserve` would round the request up to twice the capacity: a
/// 200 001-row table ends at 262 144 or 400 000 slots, and every doubling
/// copies the table and leaves its old block to the allocator. Here a large
/// batch gets exactly its size and a trickle of single rows grows the table
/// by a quarter, so growth stays amortized O(1) with at most 25 % slack.
pub fn reserve_batch(table: &mut impl Table, additional: usize) {
    if additional > table.spare() {
        table.grow_exact(additional.max(table.slots() / 4));
    }
}
