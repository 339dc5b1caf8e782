//! Dense entity tables for the simulation hot path.
//!
//! The runtime layers identify every entity — tasks, units, pilots, batch
//! jobs — by a dense monotonic counter, so each table is a plain `Vec` of
//! rows indexed by that id: lookup is a bounds check and a pointer add, and
//! iteration is in id order, deterministic by construction. A table whose
//! rows leave once their entity is done is a [`Window`] instead. Every table
//! grows by [`growth`] and keeps drained room up to [`SCRATCH_KEEP`] slots.

use std::collections::VecDeque;

/// Most slots of room a drained table or reused scratch vector keeps.
pub const SCRATCH_KEEP: usize = 4_096;

/// Empties `buf` for its next use, freeing it if a large batch grew it.
pub fn recycle<T>(buf: &mut Vec<T>) {
    buf.clear();
    if buf.capacity() > SCRATCH_KEEP {
        *buf = Vec::new();
    }
}

/// The rows a table holding `len` rows in `capacity` slots reserves, with
/// `reserve_exact`, to take `additional` more: none while they fit.
///
/// `Vec::reserve` would round the request up to twice the capacity: a
/// 200 001-row table ends at 262 144 or 400 000 slots, and every doubling
/// copies the table and leaves its old block to the allocator. Here a large
/// batch (a unit submission, the units entering scheduling) gets exactly
/// its size and a trickle of single rows grows the table by a quarter, so
/// growth stays amortized O(1) with at most 25 % slack.
pub fn growth(len: usize, capacity: usize, additional: usize) -> usize {
    if additional <= capacity - len {
        0
    } else {
        additional.max(capacity / 4)
    }
}

/// A dense-id table whose rows leave from the front: slot `i` holds id
/// `base + i`, so lookup stays a subtraction and an index, and the table
/// spans only the ids from the oldest row still held to the newest.
///
/// [`Window::take`] vacates a row; vacancies at the front leave, so the
/// base only rises and [`Window::end`] stays monotone past an emptied
/// window. A vacancy behind a held row stays until that row is taken.
/// A room past [`SCRATCH_KEEP`] slots and four times the span shrinks to twice it.
pub struct Window<T> {
    base: u64,
    rows: VecDeque<Option<T>>,
}

impl<T> Default for Window<T> {
    fn default() -> Self {
        Window {
            base: 0,
            rows: VecDeque::new(),
        }
    }
}

impl<T> Window<T> {
    /// One past the greatest id the window spans: the next id of a table
    /// that hands ids out in order.
    pub fn end(&self) -> u64 {
        self.base + self.rows.len() as u64
    }

    /// Slots the window spans, held or vacant.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the window spans no slot.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Puts `row` at `id`, extending the window below its base or past its
    /// end with vacant slots (by [`growth`]); an empty window re-bases at
    /// `id`.
    pub fn insert(&mut self, id: u64, row: T) {
        if self.rows.is_empty() {
            self.base = id;
        }
        let below = self.base.saturating_sub(id) as usize;
        let beyond = (id + 1).saturating_sub(self.end()) as usize;
        self.reserve(below + beyond);
        for _ in 0..below {
            self.rows.push_front(None);
        }
        self.base = self.base.min(id);
        self.rows.resize_with(self.rows.len() + beyond, || None);
        self.rows[(id - self.base) as usize] = Some(row);
    }

    /// The row at `id`; `None` for a vacancy or an id outside the window.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.rows.get(id.checked_sub(self.base)? as usize)?.as_ref()
    }

    /// The row at `id`, mutably.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.rows
            .get_mut(id.checked_sub(self.base)? as usize)?
            .as_mut()
    }

    /// Vacates the row at `id` and returns it; the vacancies at the front
    /// leave the window.
    pub fn take(&mut self, id: u64) -> Option<T> {
        let row = self
            .rows
            .get_mut(id.checked_sub(self.base)? as usize)?
            .take()?;
        while matches!(self.rows.front(), Some(None)) {
            self.rows.pop_front();
            self.base += 1;
        }
        if self.rows.capacity() > SCRATCH_KEEP && self.rows.len() <= self.rows.capacity() / 4 {
            self.rows.shrink_to(2 * self.rows.len());
        }
        Some(row)
    }

    /// The rows held, with their ids, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.base..)
            .zip(&self.rows)
            .filter_map(|(id, row)| Some((id, row.as_ref()?)))
    }

    /// Makes room for `additional` more slots by [`growth`], afresh if empty.
    pub fn reserve(&mut self, additional: usize) {
        let more = growth(self.rows.len(), self.rows.capacity(), additional);
        if more > 0 && self.rows.is_empty() {
            self.rows = VecDeque::new();
        }
        self.rows.reserve_exact(more);
    }

    /// Hands back the room the window does not use.
    pub fn shrink_to_fit(&mut self) {
        self.rows.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(window: &Window<char>) -> Vec<(u64, char)> {
        window.iter().map(|(id, &row)| (id, row)).collect()
    }

    #[test]
    fn inserts_extend_the_window_at_either_end() {
        let mut window = Window::default();
        window.insert(10, 'a');
        assert_eq!((window.len(), window.end()), (1, 11), "re-based at 10");
        window.insert(7, 'b');
        assert_eq!((window.len(), window.end()), (4, 11), "grown below");
        window.insert(13, 'c');
        assert_eq!((window.len(), window.end()), (7, 14), "grown past the end");
        assert_eq!(ids(&window), [(7, 'b'), (10, 'a'), (13, 'c')]);
        assert_eq!(
            (window.get(8), window.get(6), window.get(14)),
            (None, None, None)
        );
        *window.get_mut(10).expect("held") = 'd';
        assert_eq!(window.get(10), Some(&'d'));
    }

    #[test]
    fn a_take_in_the_middle_keeps_the_rows_behind_it() {
        let mut window = Window::default();
        for (id, row) in (0..).zip(['a', 'b', 'c']) {
            window.insert(id, row);
        }
        assert_eq!(window.take(1), Some('b'));
        assert_eq!(window.take(1), None, "a row is taken once");
        assert_eq!(window.len(), 3, "row 0 holds the vacancy behind it");
        assert_eq!(ids(&window), [(0, 'a'), (2, 'c')]);
    }

    #[test]
    fn a_take_at_the_front_lets_the_leading_vacancies_leave() {
        let mut window = Window::default();
        for (id, row) in (5..).zip(['a', 'b', 'c', 'd']) {
            window.insert(id, row);
        }
        window.take(6);
        window.take(7);
        assert_eq!(window.take(5), Some('a'));
        assert_eq!((window.len(), window.end()), (1, 9));
        assert_eq!(ids(&window), [(8, 'd')]);
        assert_eq!(window.get(5), None);
    }

    #[test]
    fn an_emptied_window_keeps_the_next_id_monotone() {
        let mut window = Window::default();
        window.insert(0, 'a');
        window.insert(1, 'b');
        window.take(1);
        window.take(0);
        assert!(window.is_empty());
        assert_eq!(window.end(), 2, "the ids handed out stay handed out");
        window.insert(window.end(), 'c');
        assert_eq!(ids(&window), [(2, 'c')]);
    }

    /// A window holding ids `0..n`, each row its id.
    fn filled(n: u64) -> Window<u64> {
        let mut window = Window::default();
        window.reserve(n as usize);
        for id in 0..n {
            window.insert(id, id);
        }
        window
    }

    #[test]
    fn a_window_drained_to_a_quarter_of_its_room_shrinks() {
        let mut window = filled(40_000);
        assert_eq!(window.rows.capacity(), 40_000);
        for id in 0..29_999 {
            window.take(id);
        }
        assert_eq!(window.rows.capacity(), 40_000, "a span above a quarter");
        window.take(29_999);
        assert_eq!(window.len(), 10_000);
        assert_eq!(window.rows.capacity(), 20_000, "twice the span");
        for id in 30_000..40_000 {
            window.take(id);
        }
        assert!(window.is_empty());
        assert!(window.rows.capacity() <= SCRATCH_KEEP, "the room left too");
        assert_eq!(window.end(), 40_000);
    }

    #[test]
    fn a_window_within_scratch_keep_keeps_its_room() {
        let n = SCRATCH_KEEP as u64;
        let mut window = filled(n);
        for id in 0..n {
            window.take(id);
        }
        assert!(window.is_empty());
        assert_eq!(window.rows.capacity(), SCRATCH_KEEP);
        let mut scratch = vec![0u8; SCRATCH_KEEP];
        recycle(&mut scratch);
        assert_eq!((scratch.len(), scratch.capacity()), (0, SCRATCH_KEEP));
        scratch.resize(SCRATCH_KEEP + 1, 0);
        recycle(&mut scratch);
        assert_eq!(scratch.capacity(), 0, "a larger one is freed");
    }

    #[test]
    fn a_batch_gets_its_size_and_a_trickle_a_quarter_more() {
        let mut window = Window::<char>::default();
        window.reserve(1_000);
        assert_eq!(
            window.rows.capacity(),
            1_000,
            "a batch gets exactly its size"
        );
        for id in 0..1_000 {
            window.insert(id, 'a');
        }
        assert_eq!(window.rows.capacity(), 1_000, "the batch fits its room");
        window.insert(1_000, 'b');
        assert_eq!(
            window.rows.capacity(),
            1_250,
            "a trickle grows by a quarter"
        );
        window.reserve(2_000);
        assert_eq!(
            window.rows.capacity(),
            3_001,
            "a batch past the room gets its size"
        );
        assert_eq!(growth(3, 4, 1), 0, "a row that fits reserves nothing");
    }
}
