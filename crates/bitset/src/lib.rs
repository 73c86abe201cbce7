//! # qbe-bitset — dense u64-word bitsets over interned ids
//!
//! Every learner in the workspace reasons about *sets of small integers*: document nodes
//! ([`qbe_xml::NodeId`]-style interned ids), graph vertices, indices into a cartesian product of
//! tuples, candidate paths. The interactive hot paths are dominated by set algebra over those
//! ids — intersect a match set with a constraint, subtract the newly determined region from the
//! candidate pool, count an overlap — and the paper-era representations (`BTreeSet`, sorted
//! `Vec`) pay a pointer chase or a branch per *element*.
//!
//! [`DenseSet`] stores the same sets as packed `u64` words, so every bulk operation is a
//! word-level kernel: intersection is `AND`, union is `OR`, difference is `AND NOT`, cardinality
//! is `popcount`, and membership is one shift. Sets over a universe of `n` ids cost `n/8` bytes
//! and their bulk operations touch `n/64` words — for the document and instance sizes the
//! learners see, whole match sets fit in a cache line or two.
//!
//! [`SetArena`] recycles the backing word buffers so a session that builds and discards
//! thousands of transient sets per round (the indexed twig evaluator, the incremental candidate
//! pools) allocates only at its high-water mark.
//!
//! Iteration order is always ascending id order, which is exactly the sorted order the
//! `BTreeSet`/sorted-`Vec` representations produced — the differential suites
//! (`tests/prop_bitset.rs` at the workspace root) pin the equivalence on hundreds of random
//! instances per model.
//!
//! ```
//! use qbe_bitset::DenseSet;
//!
//! // A set over a universe of 200 interned ids.
//! let mut evens: DenseSet = DenseSet::new(200);
//! for id in (0..200).step_by(2) {
//!     evens.insert(id);
//! }
//! let mut multiples_of_3: DenseSet = DenseSet::new(200);
//! for id in (0..200).step_by(3) {
//!     multiples_of_3.insert(id);
//! }
//!
//! // Intersection is a word-level AND; counting is popcount.
//! let mut both = evens.clone();
//! both.and_with(&multiples_of_3);
//! assert_eq!(both.len(), 34); // multiples of 6 in 0..200
//! assert_eq!(evens.intersection_len(&multiples_of_3), 34); // without materialising
//!
//! // Iteration yields ascending ids, like the sorted representations it replaces.
//! assert_eq!(both.iter().take(3).collect::<Vec<_>>(), vec![0, 6, 12]);
//! ```
//!
//! [`qbe_xml::NodeId`]: https://docs.rs/qbe-xml

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::marker::PhantomData;

/// An id type a [`DenseSet`] can be indexed by: anything with a dense `usize` interning.
///
/// Implemented here for `usize` and `u32`; the model crates implement it for their interned id
/// newtypes (`NodeId`, `GNodeId`, …) so their sets are type-checked end to end.
pub trait DenseId: Copy {
    /// Rebuild the id from its dense index.
    fn from_index(index: usize) -> Self;
    /// The dense index of the id.
    fn index(self) -> usize;
}

impl DenseId for usize {
    fn from_index(index: usize) -> usize {
        index
    }
    fn index(self) -> usize {
        self
    }
}

impl DenseId for u32 {
    fn from_index(index: usize) -> u32 {
        index as u32
    }
    fn index(self) -> usize {
        self as usize
    }
}

/// A dense bitset over a fixed universe of interned ids.
///
/// All bulk operations ([`and_with`](DenseSet::and_with), [`or_with`](DenseSet::or_with),
/// [`and_not_with`](DenseSet::and_not_with), [`len`](DenseSet::len),
/// [`intersection_len`](DenseSet::intersection_len)) are word-level kernels over the packed
/// `u64` representation. Two sets can be combined only when they share a universe size (checked
/// by assertion — mixing sets over different documents is a logic error).
///
/// ```
/// use qbe_bitset::DenseSet;
///
/// let mut s: DenseSet = DenseSet::new(70);
/// assert!(s.insert(69));
/// assert!(!s.insert(69), "already present");
/// assert!(s.contains(69));
/// assert_eq!(s.len(), 1);
/// s.remove(69);
/// assert!(s.is_empty());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DenseSet<T: DenseId = usize> {
    words: Vec<u64>,
    universe: usize,
    _ids: PhantomData<T>,
}

impl<T: DenseId> DenseSet<T> {
    /// The empty set over a universe of `universe` ids (`0..universe`).
    pub fn new(universe: usize) -> DenseSet<T> {
        DenseSet {
            words: vec![0u64; universe.div_ceil(64)],
            universe,
            _ids: PhantomData,
        }
    }

    /// The full set: every id in `0..universe`.
    pub fn full(universe: usize) -> DenseSet<T> {
        let mut set = DenseSet {
            words: vec![u64::MAX; universe.div_ceil(64)],
            universe,
            _ids: PhantomData,
        };
        set.mask_tail();
        set
    }

    /// Collect ids into a set over the given universe.
    pub fn from_ids(universe: usize, ids: impl IntoIterator<Item = T>) -> DenseSet<T> {
        let mut set = DenseSet::new(universe);
        for id in ids {
            set.insert(id);
        }
        set
    }

    /// Zero any bits of the last word beyond the universe, so word-level kernels (`NOT`,
    /// popcount) never see phantom members.
    fn mask_tail(&mut self) {
        let tail = self.universe % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Size of the universe the set ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Insert an id; returns `true` when it was not yet present.
    ///
    /// Panics on an out-of-universe id (also in release builds: an id that lands inside the
    /// tail word would otherwise become a phantom member that `len`/`iter` report but
    /// [`contains`](Self::contains) denies).
    pub fn insert(&mut self, id: T) -> bool {
        let ix = id.index();
        assert!(
            ix < self.universe,
            "id {ix} outside universe {}",
            self.universe
        );
        let word = &mut self.words[ix / 64];
        let bit = 1u64 << (ix % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Remove an id; returns `true` when it was present. Panics on an out-of-universe id,
    /// like [`insert`](Self::insert).
    pub fn remove(&mut self, id: T) -> bool {
        let ix = id.index();
        assert!(
            ix < self.universe,
            "id {ix} outside universe {}",
            self.universe
        );
        let word = &mut self.words[ix / 64];
        let bit = 1u64 << (ix % 64);
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// Whether the set contains the id.
    pub fn contains(&self, id: T) -> bool {
        let ix = id.index();
        ix < self.universe && self.words[ix / 64] & (1u64 << (ix % 64)) != 0
    }

    /// Number of members (sum of word popcounts).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// In-place intersection: `self &= other`.
    pub fn and_with(&mut self, other: &DenseSet<T>) {
        self.check_universe(other);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// In-place union: `self |= other`.
    pub fn or_with(&mut self, other: &DenseSet<T>) {
        self.check_universe(other);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// In-place difference: `self &= !other`.
    pub fn and_not_with(&mut self, other: &DenseSet<T>) {
        self.check_universe(other);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Whether every member of `self` is also in `other` — one AND-NOT per word, no
    /// materialisation. The empty set is a subset of everything.
    pub fn is_subset(&self, other: &DenseSet<T>) -> bool {
        self.check_universe(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(w, o)| w & !o == 0)
    }

    /// `|self ∩ other|` without materialising the intersection — one AND+popcount per word.
    pub fn intersection_len(&self, other: &DenseSet<T>) -> usize {
        self.check_universe(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(w, o)| (w & o).count_ones() as usize)
            .sum()
    }

    /// Overwrite `self` with a copy of `other` (reusing the existing buffer).
    pub fn copy_from(&mut self, other: &DenseSet<T>) {
        self.check_universe(other);
        self.words.copy_from_slice(&other.words);
    }

    /// The members, in ascending id order — the same order the sorted representations this
    /// kernel replaces produced.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        self.words.iter().enumerate().flat_map(|(wix, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(T::from_index(wix * 64 + bit))
            })
        })
    }

    fn check_universe(&self, other: &DenseSet<T>) {
        assert_eq!(
            self.universe, other.universe,
            "combining DenseSets over different universes"
        );
    }
}

impl<T: DenseId> fmt::Debug for DenseSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut set = f.debug_set();
        for id in self.iter() {
            set.entry(&id.index());
        }
        set.finish()
    }
}

/// A recycling pool for [`DenseSet`] word buffers.
///
/// Sessions build and discard many transient sets per round (per-edge constraint sets in the
/// twig evaluator, per-round scratch pools). Routing those through an arena caps allocation at
/// the high-water mark: [`take`](SetArena::take) hands out a cleared set reusing a previously
/// [`put`](SetArena::put) buffer when one with enough capacity exists.
///
/// ```
/// use qbe_bitset::{DenseSet, SetArena};
///
/// let mut arena = SetArena::new();
/// let mut a: DenseSet = arena.take(100);
/// a.insert(42);
/// arena.put(a);
/// let b: DenseSet = arena.take(100); // reuses a's buffer…
/// assert!(b.is_empty());             // …but hands it back cleared
/// assert_eq!(arena.recycled(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SetArena {
    free: Vec<Vec<u64>>,
    recycled: usize,
}

impl SetArena {
    /// An empty arena.
    pub fn new() -> SetArena {
        SetArena::default()
    }

    /// A cleared set over `universe` ids, reusing a recycled buffer when one fits.
    pub fn take<T: DenseId>(&mut self, universe: usize) -> DenseSet<T> {
        let needed = universe.div_ceil(64);
        match self.free.iter().position(|buf| buf.capacity() >= needed) {
            Some(pos) => {
                let mut words = self.free.swap_remove(pos);
                words.clear();
                words.resize(needed, 0);
                self.recycled += 1;
                DenseSet {
                    words,
                    universe,
                    _ids: PhantomData,
                }
            }
            None => DenseSet::new(universe),
        }
    }

    /// A copy of `src` backed by a recycled buffer when one fits.
    pub fn take_copy<T: DenseId>(&mut self, src: &DenseSet<T>) -> DenseSet<T> {
        let mut set = self.take(src.universe());
        set.copy_from(src);
        set
    }

    /// Return a set's buffer to the pool.
    pub fn put<T: DenseId>(&mut self, set: DenseSet<T>) {
        self.free.push(set.words);
    }

    /// How many takes were served from recycled buffers (observability for tests/benches).
    pub fn recycled(&self) -> usize {
        self.recycled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains_roundtrip() {
        let mut s: DenseSet = DenseSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert_eq!(s.len(), 3);
        assert!(s.contains(64) && !s.contains(63));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn full_masks_the_tail_word() {
        let s: DenseSet = DenseSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        let empty: DenseSet = DenseSet::full(0);
        assert!(empty.is_empty());
    }

    #[test]
    fn bulk_kernels_match_set_semantics() {
        let a: DenseSet = DenseSet::from_ids(200, (0..200).step_by(2));
        let b: DenseSet = DenseSet::from_ids(200, (0..200).step_by(3));
        let mut and = a.clone();
        and.and_with(&b);
        let mut or = a.clone();
        or.or_with(&b);
        let mut diff = a.clone();
        diff.and_not_with(&b);
        for id in 0..200usize {
            assert_eq!(and.contains(id), id % 6 == 0, "{id}");
            assert_eq!(or.contains(id), id % 2 == 0 || id % 3 == 0, "{id}");
            assert_eq!(diff.contains(id), id % 2 == 0 && id % 3 != 0, "{id}");
        }
        assert_eq!(a.intersection_len(&b), and.len());
        assert!(and.is_subset(&a) && and.is_subset(&b));
        assert!(a.is_subset(&or) && b.is_subset(&or));
        assert!(!a.is_subset(&b));
        assert!(DenseSet::<usize>::new(200).is_subset(&a), "∅ ⊆ anything");
    }

    #[test]
    fn iteration_is_ascending() {
        let ids = [199usize, 0, 64, 63, 128, 1];
        let s: DenseSet = DenseSet::from_ids(200, ids);
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        assert_eq!(s.iter().collect::<Vec<_>>(), sorted);
    }

    #[test]
    #[should_panic]
    fn out_of_universe_insert_panics_in_all_builds() {
        // 100 lands inside the 70-universe's second word: without the unconditional bound
        // check it would become a phantom member that len/iter report but contains denies.
        let mut s: DenseSet = DenseSet::new(70);
        s.insert(100);
    }

    #[test]
    fn arena_recycles_buffers() {
        let mut arena = SetArena::new();
        let mut a: DenseSet = arena.take(128);
        a.insert(7);
        arena.put(a);
        let b: DenseSet = arena.take(64);
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(arena.recycled(), 1);
        let c: DenseSet = arena.take(4096);
        assert!(c.is_empty());
        assert_eq!(arena.recycled(), 1, "no fitting buffer for the larger set");
        let copy_src: DenseSet = DenseSet::from_ids(64, [3usize, 9]);
        arena.put(b);
        let copied = arena.take_copy(&copy_src);
        assert_eq!(copied, copy_src);
    }

    #[test]
    #[should_panic]
    fn mixing_universes_panics() {
        let mut a: DenseSet = DenseSet::new(64);
        let b: DenseSet = DenseSet::new(128);
        a.and_with(&b);
    }

    #[test]
    fn u32_ids_work() {
        let mut s: DenseSet<u32> = DenseSet::new(80);
        s.insert(79u32);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![79u32]);
    }
}
