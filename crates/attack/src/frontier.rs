//! A hierarchical bitset for event-driven frontier iteration.
//!
//! The frontier campaign engine needs a set of node indexes supporting
//! O(1) insert/remove/membership, **ascending-order traversal that costs
//! O(set size)** rather than O(universe), and a clear that only touches
//! what was set. A sorted `Vec` gives the traversal order but O(len)
//! inserts (quadratic over a full sweep); a `BTreeSet` allocates per
//! node. [`ActiveSet`] is a three-level bitset instead: level 0 holds
//! one bit per index, level 1 one bit per level-0 word, level 2 one bit
//! per level-1 word. At 10^6 indexes the summary levels total ~250
//! words, so [`ActiveSet::next_at_or_after`] skips empty regions in a
//! handful of word reads and a sparse set traverses in time proportional
//! to its population.
//!
//! Traversal is cursor-based on purpose: the campaign engine mutates the
//! set mid-iteration (nodes saturate out of the frontier, PLCs become
//! payload-eligible), and `next_at_or_after(cursor)` makes the
//! visit-or-skip rule explicit — mutations behind the cursor are not
//! revisited, mutations ahead of it are seen this pass, exactly the
//! semantics of a dense ascending scan that re-checks eligibility at
//! visit time.
//!
//! `next_at_or_after` is split for the tick loop that calls it once per
//! visit: an inlined fast path reads only the cursor's level-0 word and
//! returns the next member in it, or `None` when that word is the set's
//! last (every traversal of a plant of at most 64 nodes ends there). Only
//! when the word is exhausted and others follow does it call the
//! out-of-line, `#[cold]` summary climb through levels 1 and 2.

/// Bits of `word` strictly above `bit`.
fn after_mask(bit: usize) -> u64 {
    if bit == 63 {
        0
    } else {
        !0u64 << (bit + 1)
    }
}

/// A set of `usize` indexes below a fixed capacity, stored as a
/// three-level bitset. All operations are allocation-free after
/// [`ActiveSet::resize`].
#[derive(Debug, Clone, Default)]
pub struct ActiveSet {
    /// One bit per index.
    l0: Vec<u64>,
    /// One bit per `l0` word: "that word is non-zero".
    l1: Vec<u64>,
    /// One bit per `l1` word.
    l2: Vec<u64>,
    len: usize,
    capacity: usize,
}

impl ActiveSet {
    /// An empty set accepting indexes in `0..capacity`.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let mut set = ActiveSet::default();
        set.resize(capacity);
        set
    }

    /// Empties the set and changes its capacity, reusing the word
    /// buffers where possible.
    pub fn resize(&mut self, capacity: usize) {
        let w0 = capacity.div_ceil(64);
        let w1 = w0.div_ceil(64);
        let w2 = w1.div_ceil(64);
        self.l0.clear();
        self.l0.resize(w0, 0);
        self.l1.clear();
        self.l1.resize(w1, 0);
        self.l2.clear();
        self.l2.resize(w2, 0);
        self.len = 0;
        self.capacity = capacity;
    }

    /// The exclusive upper bound on member indexes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `i` is a member.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        assert!(i < self.capacity, "index {i} out of capacity");
        self.l0[i / 64] & (1 << (i % 64)) != 0
    }

    /// Adds `i`; a no-op if already present.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.capacity, "index {i} out of capacity");
        let w0 = i / 64;
        let bit = 1u64 << (i % 64);
        if self.l0[w0] & bit != 0 {
            return;
        }
        self.l0[w0] |= bit;
        let w1 = w0 / 64;
        self.l1[w1] |= 1 << (w0 % 64);
        self.l2[w1 / 64] |= 1 << (w1 % 64);
        self.len += 1;
    }

    /// Removes `i`; a no-op if absent. Summary bits are pruned as words
    /// empty, so traversal never visits dead regions.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity`.
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.capacity, "index {i} out of capacity");
        let w0 = i / 64;
        let bit = 1u64 << (i % 64);
        if self.l0[w0] & bit == 0 {
            return;
        }
        self.l0[w0] &= !bit;
        self.len -= 1;
        if self.l0[w0] == 0 {
            let w1 = w0 / 64;
            self.l1[w1] &= !(1 << (w0 % 64));
            if self.l1[w1] == 0 {
                self.l2[w1 / 64] &= !(1 << (w1 % 64));
            }
        }
    }

    /// The smallest member `>= from`, or `None`. The traversal idiom is
    ///
    /// ```
    /// # use diversify_attack::frontier::ActiveSet;
    /// # let mut set = ActiveSet::with_capacity(100);
    /// # set.insert(3);
    /// let mut cursor = 0;
    /// while let Some(i) = set.next_at_or_after(cursor) {
    ///     cursor = i + 1;
    ///     // visit i; inserts/removes at any position are fine here
    /// }
    /// ```
    #[inline]
    #[must_use]
    pub fn next_at_or_after(&self, from: usize) -> Option<usize> {
        // Bits at or above `capacity` are never set, so a `from` past it
        // finds nothing in its word, or has no word at all.
        let w0 = from / 64;
        let bits = *self.l0.get(w0)? & (!0u64 << (from % 64));
        if bits != 0 {
            return Some(w0 * 64 + bits.trailing_zeros() as usize);
        }
        if self.len == 0 || w0 + 1 == self.l0.len() {
            return None;
        }
        self.next_after_word(w0)
    }

    /// The smallest member in a level-0 word after `w0`: the summary
    /// climb of [`ActiveSet::next_at_or_after`] once the cursor's word
    /// is exhausted, kept out of line so the caller's fast path stays
    /// small.
    #[cold]
    fn next_after_word(&self, w0: usize) -> Option<usize> {
        let w1 = w0 / 64;
        let bits1 = self.l1[w1] & after_mask(w0 % 64);
        let next_w0 = if bits1 != 0 {
            w1 * 64 + bits1.trailing_zeros() as usize
        } else {
            let w2 = w1 / 64;
            let bits2 = self.l2[w2] & after_mask(w1 % 64);
            let next_w1 = if bits2 != 0 {
                w2 * 64 + bits2.trailing_zeros() as usize
            } else {
                let (off, word) = self.l2[w2 + 1..]
                    .iter()
                    .enumerate()
                    .find(|(_, &w)| w != 0)?;
                (w2 + 1 + off) * 64 + word.trailing_zeros() as usize
            };
            next_w1 * 64 + self.l1[next_w1].trailing_zeros() as usize
        };
        Some(next_w0 * 64 + self.l0[next_w0].trailing_zeros() as usize)
    }

    /// Empties the set by walking the summary hierarchy — cost is
    /// proportional to the *populated* region, not the capacity (plus
    /// the level-2 array, which is `capacity / 262_144` words).
    pub fn clear(&mut self) {
        for w2 in 0..self.l2.len() {
            let mut bits2 = self.l2[w2];
            while bits2 != 0 {
                let w1 = w2 * 64 + bits2.trailing_zeros() as usize;
                bits2 &= bits2 - 1;
                let mut bits1 = self.l1[w1];
                while bits1 != 0 {
                    let w0 = w1 * 64 + bits1.trailing_zeros() as usize;
                    bits1 &= bits1 - 1;
                    self.l0[w0] = 0;
                }
                self.l1[w1] = 0;
            }
            self.l2[w2] = 0;
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversify_des::{RngStream, StreamId};
    use std::collections::BTreeSet;

    fn collect(set: &ActiveSet) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cursor = 0;
        while let Some(i) = set.next_at_or_after(cursor) {
            out.push(i);
            cursor = i + 1;
        }
        out
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let mut set = ActiveSet::with_capacity(1000);
        assert!(set.is_empty());
        set.insert(7);
        set.insert(7); // idempotent
        set.insert(999);
        assert_eq!(set.len(), 2);
        assert!(set.contains(7));
        assert!(!set.contains(8));
        set.remove(7);
        set.remove(7); // idempotent
        assert_eq!(set.len(), 1);
        assert_eq!(collect(&set), vec![999]);
    }

    #[test]
    fn traversal_is_ascending_across_word_boundaries() {
        let mut set = ActiveSet::with_capacity(300_000);
        // Straddle every level: same word, adjacent l0 words, adjacent
        // l1 words (4096) and adjacent l2 words (262144).
        let ids = [0usize, 1, 63, 64, 127, 4095, 4096, 262_143, 262_144];
        for &i in ids.iter().rev() {
            set.insert(i);
        }
        assert_eq!(collect(&set), ids);
        assert_eq!(set.next_at_or_after(65), Some(127));
        assert_eq!(set.next_at_or_after(4097), Some(262_143));
        assert_eq!(set.next_at_or_after(262_145), None);
    }

    #[test]
    fn remove_prunes_summaries() {
        let mut set = ActiveSet::with_capacity(300_000);
        set.insert(5);
        set.insert(262_200);
        set.remove(262_200);
        // If the l1/l2 bits were left stale, traversal would dive into an
        // empty region and panic or loop; it must cleanly find nothing.
        assert_eq!(set.next_at_or_after(6), None);
        assert_eq!(collect(&set), vec![5]);
    }

    #[test]
    fn clear_empties_and_is_reusable() {
        let mut set = ActiveSet::with_capacity(100_000);
        for i in (0..100_000).step_by(997) {
            set.insert(i);
        }
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.next_at_or_after(0), None);
        set.insert(42);
        assert_eq!(collect(&set), vec![42]);
    }

    /// Inserts or removes `i` in both the set and its model.
    fn apply(set: &mut ActiveSet, model: &mut BTreeSet<usize>, i: usize, insert: bool) {
        if insert {
            set.insert(i);
            model.insert(i);
        } else {
            set.remove(i);
            model.remove(&i);
        }
    }

    /// [`ActiveSet`] against a `BTreeSet` model at capacities on and
    /// around every word and summary boundary, sparse and dense. After
    /// random inserts and removes the contents and range queries agree;
    /// then a cursor traversal mutates the set as it goes (removing the
    /// visited index, inserting and removing both ahead of and behind the
    /// cursor), and each visit must be the documented one: the smallest
    /// member at or after the cursor in the set as it stands.
    #[test]
    fn matches_btreeset_under_random_operations() {
        let mut rng = RngStream::new(0xB17, StreamId(1));
        for cap in [1, 12, 63, 64, 65, 4095, 4096, 4097, 262_144, 262_145] {
            for ops in [40, 20_000] {
                let mut set = ActiveSet::with_capacity(cap);
                let mut model = BTreeSet::new();
                for _ in 0..ops {
                    let i = rng.index(cap);
                    apply(&mut set, &mut model, i, rng.bernoulli(0.6));
                }
                let mut cursor = 0;
                loop {
                    let next = set.next_at_or_after(cursor);
                    assert_eq!(
                        next,
                        model.range(cursor..).next().copied(),
                        "cap {cap}, cursor {cursor}"
                    );
                    let Some(i) = next else { break };
                    cursor = i + 1;
                    if rng.bernoulli(0.5) {
                        apply(&mut set, &mut model, i, false);
                    }
                    if cursor < cap {
                        let ahead = cursor + rng.index(cap - cursor);
                        apply(&mut set, &mut model, ahead, rng.bernoulli(0.3));
                    }
                    if i > 0 {
                        let behind = rng.index(i);
                        apply(&mut set, &mut model, behind, rng.bernoulli(0.5));
                    }
                }
                assert_eq!(set.len(), model.len());
                assert_eq!(collect(&set), model.iter().copied().collect::<Vec<_>>());
                // Spot-check next_at_or_after against the model's range
                // query, including cursors past the capacity.
                for _ in 0..200 {
                    let from = rng.index(cap + 70);
                    assert_eq!(
                        set.next_at_or_after(from),
                        model.range(from..).next().copied(),
                        "cap {cap}, from {from}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_capacity_is_inert() {
        let set = ActiveSet::with_capacity(0);
        assert_eq!(set.next_at_or_after(0), None);
        assert!(set.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_range_insert_panics() {
        let mut set = ActiveSet::with_capacity(10);
        set.insert(10);
    }
}
