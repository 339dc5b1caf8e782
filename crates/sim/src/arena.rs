//! Dense entity tables for the simulation hot path.
//!
//! The runtime layers identify every entity — tasks, units, pilots, batch
//! jobs — by a dense monotonic counter, so each table is a plain `Vec` of
//! rows indexed by that id: lookup is a bounds check and a pointer add, and
//! iteration is in id order, deterministic by construction. Tables grow by
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
