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
//! words, so a traversal skips empty regions in a handful of word reads
//! and a sparse set traverses in time proportional to its population.
//!
//! Traversal is cursor-based on purpose: the campaign engine mutates the
//! set mid-iteration (nodes saturate out of the frontier, PLCs become
//! payload-eligible), and a [`Cursor`] makes the visit-or-skip rule
//! explicit — mutations behind the cursor are not revisited, mutations
//! ahead of it are seen this pass, exactly the semantics of a dense
//! ascending scan that re-checks eligibility at visit time.
//!
//! A [`Cursor`] caches the unvisited members of its current level-0
//! word, so a visit costs a `tzcnt` and a bit-clear. Only a spent word
//! sends it up through levels 1 and 2, in a `#[cold]`, never-inlined
//! call on the set that takes the word index by value and reads the
//! summaries as they stand; no reference to the cursor leaves
//! [`Cursor::next`], so a caller's cursor can live in registers. A
//! traversal that ends in the set's last word (every traversal of a
//! plant of at most 64 nodes) never climbs. The cached word is a copy:
//! after an insert or a remove that may land in the cursor's word ahead
//! of it, the caller calls [`Cursor::resync`] to re-read that word.
//! Removing the index just visited needs none. Debug builds assert at
//! every advance that the cache equals the live word above the cursor,
//! so a forgotten resync panics there.

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

    /// A cursor before the set's smallest index. The traversal idiom is
    ///
    /// ```
    /// # use diversify_attack::frontier::ActiveSet;
    /// let mut set = ActiveSet::with_capacity(100);
    /// set.insert(3);
    /// set.insert(70);
    /// let mut visited = Vec::new();
    /// let mut cursor = set.cursor();
    /// while let Some(i) = cursor.next(&set) {
    ///     visited.push(i);
    ///     set.remove(i); // the visited index: no resync needed
    ///     if i == 3 {
    ///         set.insert(5); // ahead of the cursor: visited this pass
    ///         set.insert(1); // behind it: not
    ///         cursor.resync(&set);
    ///     }
    /// }
    /// assert_eq!(visited, [3, 5, 70]);
    /// assert!(set.contains(1));
    /// ```
    #[must_use]
    pub fn cursor(&self) -> Cursor {
        Cursor {
            word: 0,
            ahead: !0,
            bits: self.l0.first().copied().unwrap_or(0),
        }
    }

    /// The first non-empty level-0 word after `w0`, found through the
    /// summary levels: the climb a [`Cursor`] takes once its word is
    /// spent. Cold and out of line, and it takes the word index by value,
    /// so the cursor's visit path stays small and the cursor itself stays
    /// in registers.
    #[cold]
    #[inline(never)]
    fn next_word_after(&self, w0: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let w1 = w0 / 64;
        let bits1 = self.l1[w1] & after_mask(w0 % 64);
        if bits1 != 0 {
            return Some(w1 * 64 + bits1.trailing_zeros() as usize);
        }
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
        Some(next_w1 * 64 + self.l1[next_w1].trailing_zeros() as usize)
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

/// An ascending traversal of an [`ActiveSet`] (see
/// [`ActiveSet::cursor`]). It holds no borrow, so the set may change
/// between visits; it caches the unvisited members of its current
/// level-0 word, which [`Cursor::resync`] re-reads.
#[derive(Debug, Clone)]
pub struct Cursor {
    /// The level-0 word the cursor stands in.
    word: usize,
    /// Bits of `word` above the last visit in it; all of them before
    /// the first.
    ahead: u64,
    /// Members of `word` under `ahead`, as of the last read of the word.
    bits: u64,
}

impl Cursor {
    /// Visits the smallest member above the last visit, or returns
    /// `None` once the set holds none. Words after the cursor's are read
    /// as they stand; its own word as of its last read.
    #[inline]
    pub fn next(&mut self, set: &ActiveSet) -> Option<usize> {
        debug_assert_eq!(
            self.bits,
            self.live_bits(set),
            "the set changed ahead of the cursor in its word without a resync"
        );
        if self.bits == 0 {
            if self.word + 1 >= set.l0.len() {
                return None;
            }
            self.word = set.next_word_after(self.word)?;
            self.ahead = !0;
            self.bits = set.l0[self.word];
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.ahead = !(self.bits ^ (self.bits - 1));
        self.bits &= self.bits - 1;
        Some(self.word * 64 + bit)
    }

    /// Re-reads the cursor's word, so inserts and removes in it ahead of
    /// the cursor are seen.
    #[inline]
    pub fn resync(&mut self, set: &ActiveSet) {
        self.bits = self.live_bits(set);
    }

    /// The members of the cursor's word above it, as the set stands.
    #[inline]
    fn live_bits(&self, set: &ActiveSet) -> u64 {
        set.l0.get(self.word).map_or(0, |&w| w & self.ahead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversify_des::{RngStream, StreamId};
    use std::collections::BTreeSet;

    /// The rest of a traversal.
    fn drain(cursor: &mut Cursor, set: &ActiveSet) -> Vec<usize> {
        std::iter::from_fn(|| cursor.next(set)).collect()
    }

    fn collect(set: &ActiveSet) -> Vec<usize> {
        drain(&mut set.cursor(), set)
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
        // Words after the cursor's are read as they stand when the
        // cursor reaches them, so changes there need no resync.
        let mut cursor = set.cursor();
        assert_eq!(cursor.next(&set), Some(0));
        set.insert(200);
        set.remove(4095);
        set.insert(262_145);
        assert_eq!(
            drain(&mut cursor, &set),
            [1, 63, 64, 127, 200, 4096, 262_143, 262_144, 262_145]
        );
    }

    #[test]
    fn remove_prunes_summaries() {
        let mut set = ActiveSet::with_capacity(300_000);
        set.insert(5);
        set.insert(262_200);
        set.remove(262_200);
        // If the l1/l2 bits were left stale, traversal would dive into an
        // empty region and panic or loop; it must cleanly find nothing.
        let mut cursor = set.cursor();
        assert_eq!(cursor.next(&set), Some(5));
        assert_eq!(cursor.next(&set), None);
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
        assert_eq!(collect(&set), []);
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

    /// [`ActiveSet`] and its [`Cursor`] against a `BTreeSet` model at
    /// capacities on and around every word and summary boundary, sparse
    /// and dense. After random inserts and removes, a cursor traversal
    /// mutates the set as it goes: it sometimes removes the visited
    /// index alone, which needs no resync, and otherwise also inserts and
    /// removes ahead of and behind the cursor, then resyncs. Each visit
    /// must be the documented one: the smallest member above the last
    /// visit in the set as it stands. In debug builds every advance also
    /// checks the cached word against the set.
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
                let mut cursor = set.cursor();
                let mut next = 0;
                loop {
                    let visit = cursor.next(&set);
                    assert_eq!(
                        visit,
                        model.range(next..).next().copied(),
                        "cap {cap}, next {next}"
                    );
                    let Some(i) = visit else { break };
                    next = i + 1;
                    if rng.bernoulli(0.5) {
                        apply(&mut set, &mut model, i, false);
                    }
                    if rng.bernoulli(0.25) {
                        continue;
                    }
                    if next < cap {
                        let ahead = next + rng.index(cap - next);
                        apply(&mut set, &mut model, ahead, rng.bernoulli(0.3));
                    }
                    if i > 0 {
                        let behind = rng.index(i);
                        apply(&mut set, &mut model, behind, rng.bernoulli(0.5));
                    }
                    cursor.resync(&set);
                }
                assert_eq!(set.len(), model.len());
                assert_eq!(collect(&set), model.iter().copied().collect::<Vec<_>>());
            }
        }
    }

    /// A change ahead of the cursor in its word that is not followed by
    /// a resync trips the debug assertion at the next advance.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "without a resync")]
    fn forgotten_resync_panics_in_debug_builds() {
        let mut set = ActiveSet::with_capacity(100);
        set.insert(3);
        let mut cursor = set.cursor();
        assert_eq!(cursor.next(&set), Some(3));
        set.insert(5);
        let _ = cursor.next(&set);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let set = ActiveSet::with_capacity(0);
        let mut cursor = set.cursor();
        assert_eq!(cursor.next(&set), None);
        cursor.resync(&set);
        assert_eq!(cursor.next(&set), None);
        assert!(set.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_range_insert_panics() {
        let mut set = ActiveSet::with_capacity(10);
        set.insert(10);
    }
}
