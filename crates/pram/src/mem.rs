//! Shared-memory arena with size-class reuse, space accounting, and
//! 32-bit cells.
//!
//! The paper's algorithms repeatedly allocate *blocks* (of size `b_ℓ`)
//! and the analysis bounds the total space by `O(m)`. To make that
//! measurable, allocation goes through an arena that (a) rounds requests
//! to size classes, (b) reuses freed blocks, and (c) tracks the live-word
//! count and its high-water mark.
//!
//! # Memory image
//!
//! Per simulated word the arena stores:
//!
//! * the cell itself — 4 bytes (see below);
//! * and a 4-byte *stamp* (id of the last step that wrote the cell),
//!   which is how the commit phase detects "first write of this step"
//!   without clearing any per-step structure.
//!
//! Nothing else is kept per word under any write policy: the seeded
//! policy recomputes the incumbent's priority from the *stored value*
//! (it is a hash of `(seed, addr, value)`), and the PRIORITY policies
//! rest on the order records reach the cell. That makes the footprint
//! 8 bytes/word — down from the historical 20.
//!
//! # Words
//!
//! A simulated word is 32 bits: the paper's machine has `O(log n)`-bit
//! words, and the address space already stops at 2^32 words. The API
//! passes words as `u64`; a cell holds a value in `[0, 2^32 − 2]` or
//! [`NULL`] (`u64::MAX`, stored as `0xFFFF_FFFF`). Storing any other
//! value panics with a message naming the word size, whether a step
//! writes it or the host does. Everything the drivers store — vertex
//! ids, parents, offsets and generation stamps for `n < 2^31` — fits.
//!
//! # Size classes
//!
//! Block sizes of ≤ 16 words round to powers of two; larger requests
//! round up to a quarter-power-of-two granule (`{4,5,6,7} · 2^k`), so the
//! worst-case rounding waste is 25% instead of the ~100% a pure
//! power-of-two ladder can hit. This matters at the top of the address
//! space: the arena is capped at 2^32 words (`Handle` addresses are
//! `u32`, see [`crate::PramError::ArenaExhausted`]), and `n = 1e8` runs
//! only fit under the finer rounding.

use std::collections::HashMap;

/// The canonical "empty cell" sentinel.
///
/// Vertex ids, parent pointers and table cells use `NULL` for "no value".
/// It is `u64::MAX`, which no vertex id or packed value ever equals.
pub const NULL: u64 = u64::MAX;

/// Cell encoding of [`NULL`].
pub(crate) const NARROW_NULL: u32 = u32::MAX;

/// Encode a value for a cell. Panics, naming the word size, unless `v`
/// is [`NULL`] or at most `2^32 − 2`.
#[inline]
pub(crate) fn narrow_encode(v: u64) -> u32 {
    if v < NARROW_NULL as u64 {
        v as u32
    } else if v == NULL {
        NARROW_NULL
    } else {
        word_overflow(v)
    }
}

#[cold]
#[inline(never)]
fn word_overflow(v: u64) -> ! {
    panic!("value {v:#x} does not fit a 32-bit machine word (a cell holds 0..=0xFFFF_FFFE or NULL)")
}

/// Decode a cell.
#[inline]
pub(crate) fn narrow_decode(cell: u32) -> u64 {
    match cell {
        NARROW_NULL => NULL,
        x => x as u64,
    }
}

/// Host-side read view of one block.
///
/// Every controller-side scan in the drivers goes through `get`/`iter`,
/// which decode the block's cells. Obtained from [`crate::Pram::view`].
#[derive(Clone, Copy)]
pub struct MemView<'a> {
    cells: &'a [u32],
}

impl<'a> MemView<'a> {
    pub(crate) fn new(cells: &'a [u32]) -> Self {
        MemView { cells }
    }

    /// Number of words in the viewed block.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the viewed block is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The value of cell `i` (bounds-checked against the block).
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        narrow_decode(self.cells[i])
    }

    /// Iterate the block's values in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.cells.iter().map(|&c| narrow_decode(c))
    }

    /// Copy the block out as a `Vec<u64>`.
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }
}

/// A handle to a contiguous block of shared-memory words.
///
/// Handles are plain `(base, len)` pairs; they are `Copy` and can be stored
/// in host-side structures freely. All accesses are bounds-checked against
/// the handle's length, so an algorithm cannot silently read a neighbouring
/// allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Handle {
    pub(crate) base: u32,
    pub(crate) len: u32,
}

impl Handle {
    /// Number of words in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the block is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The absolute word address of cell `i` (bounds-checked).
    #[inline]
    pub(crate) fn addr(&self, i: usize) -> u32 {
        assert!(
            i < self.len as usize,
            "index {i} out of bounds for block of len {}",
            self.len
        );
        self.base + i as u32
    }
}

/// Hard cap of the word address space: [`Handle`] bases are `u32`.
pub(crate) const MAX_WORDS: usize = u32::MAX as usize;

/// Round a request up to its size class (see the module docs): powers of
/// two through 16 words, quarter-power granules above.
#[inline]
fn block_size(len: usize) -> usize {
    if len <= 16 {
        len.next_power_of_two()
    } else {
        let b = usize::BITS as usize - 1 - len.leading_zeros() as usize;
        let unit = 1usize << (b - 2);
        len.div_ceil(unit) * unit
    }
}

/// Size-class arena backing the shared memory.
pub(crate) struct Arena {
    /// The memory words themselves, encoded by [`narrow_encode`].
    cells: Vec<u32>,
    /// Per-word stamp: the id of the last step that wrote the cell.
    pub(crate) stamp: Vec<u32>,
    /// Free lists keyed by exact block size in words.
    free: HashMap<usize, Vec<u32>>,
    /// Currently live words (counting size-class rounding).
    live: usize,
    /// High-water mark of `live`.
    peak: usize,
    /// Address-space cap in words (`MAX_WORDS` outside capacity tests).
    cap_words: usize,
}

impl Arena {
    pub(crate) fn new() -> Self {
        Arena {
            cells: Vec::new(),
            stamp: Vec::new(),
            free: HashMap::new(),
            live: 0,
            peak: 0,
            cap_words: MAX_WORDS,
        }
    }

    /// Narrow the address-space cap (capacity-boundary tests only).
    #[cfg(test)]
    pub(crate) fn set_cap_words(&mut self, cap: usize) {
        self.cap_words = cap;
    }

    /// Allocate a block of at least `len` words, filled with `fill`;
    /// panics (naming the 2^32-word limit) on exhaustion.
    pub(crate) fn alloc(&mut self, len: usize, fill: u64) -> Handle {
        match self.try_alloc(len, fill) {
            Ok(h) => h,
            Err(e) => panic!("{e}"),
        }
    }

    /// Allocate a block of at least `len` words, filled with `fill`.
    pub(crate) fn try_alloc(&mut self, len: usize, fill: u64) -> Result<Handle, crate::PramError> {
        assert!(len > 0, "zero-length allocation");
        let fill = narrow_encode(fill);
        let size = block_size(len);
        // Reuse-before-grow: exact-class pop, then best-fit split of a
        // larger free block, and only then new backing. Growing first
        // looks cheaper per call but strands every freed block whose
        // class never recurs; on a path/1e8 Theorem-3 run that pushes
        // backing to the 2^32-word cap with ~2e9 words sitting unusable
        // in the free lists (interleaved with live blocks too finely for
        // even coalescing to recover a large span). Reusing first keeps
        // backing tracking *live peak* instead, which is what the
        // words/vertex budget is measured against.
        let reuse = self
            .free
            .get_mut(&size)
            .and_then(Vec::pop)
            .or_else(|| self.split_reuse(size));
        let base = if let Some(base) = reuse {
            self.cells[base as usize..][..size].fill(fill);
            base
        } else {
            let grown = self.cells.len();
            if grown + size <= self.cap_words {
                self.grow(size, fill);
                grown as u32
            } else if let Some(base) = {
                self.coalesce_free();
                self.free
                    .get_mut(&size)
                    .and_then(Vec::pop)
                    .or_else(|| self.split_reuse(size))
            } {
                self.cells[base as usize..][..size].fill(fill);
                base
            } else {
                return Err(crate::PramError::ArenaExhausted {
                    requested: size,
                    live: self.live,
                    limit: self.cap_words,
                });
            }
        };
        self.live += size;
        self.peak = self.peak.max(self.live);
        Ok(Handle {
            base,
            len: len as u32,
        })
    }

    /// Largest size class ≤ `r` (see [`block_size`]): powers of two below
    /// 16, quarter-power granules above. Used to decompose a split
    /// block's remainder into exact classes, so no words ever leak out
    /// of the free lists.
    fn largest_class_at_most(r: usize) -> usize {
        debug_assert!(r > 0);
        let b = usize::BITS as usize - 1 - r.leading_zeros() as usize;
        if r < 16 {
            1 << b
        } else {
            (r >> (b - 2)) << (b - 2)
        }
    }

    /// Best-fit split: serve `size` by splitting the smallest free block
    /// large enough to hold it, pushing the remainder back onto the free
    /// lists as exact size classes (no words ever leak — remainder
    /// pieces stay available, including to later splits). Tried on
    /// every allocation whose exact class misses, *before* growing the
    /// backing: growth-first strands every freed block whose class never
    /// recurs, and a path/1e8 Theorem-3 run dies that way at ≈ 2.3e9
    /// live words with ≈ 2e9 stranded. Deterministic across processes
    /// and thread counts: the donor is chosen by block size, never by
    /// map iteration order.
    fn split_reuse(&mut self, size: usize) -> Option<u32> {
        let donor = self
            .free
            .iter()
            .filter(|(sz, blocks)| **sz > size && !blocks.is_empty())
            .map(|(sz, _)| *sz)
            .min()?;
        let base = self.free.get_mut(&donor)?.pop()?;
        let mut rem_base = base as usize + size;
        let mut rem = donor - size;
        while rem > 0 {
            let piece = Self::largest_class_at_most(rem);
            self.free.entry(piece).or_default().push(rem_base as u32);
            rem_base += piece;
            rem -= piece;
        }
        Some(base)
    }

    /// Defragment the free lists: merge address-adjacent free blocks into
    /// maximal spans and re-bucket each span as exact size classes.
    /// Per-round table clusters are allocated at consecutive addresses
    /// and freed together, so when a run strands its free words in many
    /// *small* classes (no single block can serve a large request even
    /// after [`Self::split_reuse`]), merging rebuilds the large
    /// contiguous spans those rounds occupied. Only called when the
    /// backing cannot grow; the cost is `O(F log F)` in the number of
    /// free blocks, and each pass restocks the split-reuse donor pool so
    /// passes stay rare. Deterministic: spans are sorted by base address
    /// before merging, never visited in map order.
    fn coalesce_free(&mut self) {
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for (&sz, blocks) in &self.free {
            for &b in blocks {
                spans.push((b as usize, sz));
            }
        }
        spans.sort_unstable();
        for list in self.free.values_mut() {
            list.clear();
        }
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(spans.len());
        for (b, s) in spans {
            match merged.last_mut() {
                Some((mb, ms)) if *mb + *ms == b => *ms += s,
                _ => merged.push((b, s)),
            }
        }
        for (mut b, mut s) in merged {
            while s > 0 {
                let piece = Self::largest_class_at_most(s);
                self.free.entry(piece).or_default().push(b as u32);
                b += piece;
                s -= piece;
            }
        }
    }

    fn grow(&mut self, size: usize, fill: u32) {
        if size >= (1 << 18) && std::env::var_os("LOGDIAM_ARENA_TRACE").is_some() {
            let backing = self.cells.len();
            let largest = self
                .free
                .iter()
                .filter(|(_, b)| !b.is_empty())
                .map(|(s, _)| *s)
                .max()
                .unwrap_or(0);
            eprintln!(
                "arena-trace grow size={size} backing={backing} live={} stranded={} largest_free={largest}",
                self.live,
                backing - self.live,
            );
        }
        let new_len = self.cells.len() + size;
        self.cells.resize(new_len, fill);
        self.stamp.resize(new_len, 0);
    }

    /// Fill `len` words starting at absolute address `start` with `v`.
    pub(crate) fn fill_words(&mut self, start: usize, len: usize, v: u64) {
        self.cells[start..start + len].fill(narrow_encode(v));
    }

    /// Decode the word at absolute address `a`.
    #[inline]
    pub(crate) fn load(&self, a: usize) -> u64 {
        narrow_decode(self.cells[a])
    }

    /// Store `v` at absolute address `a`.
    #[inline]
    pub(crate) fn store(&mut self, a: usize, v: u64) {
        self.cells[a] = narrow_encode(v);
    }

    /// Copy `len` words from absolute address `s` to `d` (ranges may
    /// overlap, like `copy_within`).
    pub(crate) fn copy_words(&mut self, s: usize, d: usize, len: usize) {
        self.cells.copy_within(s..s + len, d);
    }

    /// The whole cell store, read-only (step reads and host views).
    pub(crate) fn cells(&self) -> &[u32] {
        &self.cells
    }

    /// Raw commit pointers (see `machine::ShardedMem`).
    pub(crate) fn commit_ptrs(&mut self) -> (*mut u32, *mut u32) {
        (self.cells.as_mut_ptr(), self.stamp.as_mut_ptr())
    }

    /// Return a block to its size-class free list.
    pub(crate) fn dealloc(&mut self, h: Handle) {
        if h.len == 0 {
            return;
        }
        let size = block_size(h.len as usize);
        self.free.entry(size).or_default().push(h.base);
        self.live -= size;
    }

    /// Drop all allocations and free lists but keep the backing capacity
    /// (cell/stamp buffers, free-list vectors), so the next run
    /// re-grows into already-mapped memory. After a reset the arena is
    /// observationally identical to a fresh one: the same allocation
    /// sequence yields the same addresses and the same initial contents.
    pub(crate) fn reset_keep_capacity(&mut self) {
        self.cells.clear();
        self.stamp.clear();
        for list in self.free.values_mut() {
            list.clear();
        }
        self.live = 0;
        self.peak = 0;
    }

    #[inline]
    pub(crate) fn live_words(&self) -> usize {
        self.live
    }

    #[inline]
    pub(crate) fn peak_words(&self) -> usize {
        self.peak
    }

    /// Words currently backed by the cell store (≥ live, the grow
    /// high-water of this run).
    #[cfg(test)]
    pub(crate) fn len_words(&self) -> usize {
        self.cells.len()
    }

    /// Actual heap bytes behind the arena's per-word arrays (cells +
    /// stamps), by capacity. The footprint measure the bytes/word
    /// acceptance tests pin.
    pub(crate) fn backing_bytes(&self) -> usize {
        self.cells.capacity() * 4 + self.stamp.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> Arena {
        Arena::new()
    }

    #[test]
    fn alloc_rounds_to_size_class_and_reuses() {
        let mut a = arena();
        let h1 = a.alloc(5, 0); // class => 8 words
        assert_eq!(a.live_words(), 8);
        let h2 = a.alloc(8, 0);
        assert_eq!(a.live_words(), 16);
        a.dealloc(h1);
        assert_eq!(a.live_words(), 8);
        let h3 = a.alloc(6, 7); // should reuse h1's slot
        assert_eq!(h3.base, h1.base);
        assert_eq!(a.live_words(), 16);
        assert_eq!(a.peak_words(), 16);
        // Reused block is re-filled.
        for i in 0..6 {
            assert_eq!(a.load(h3.base as usize + i), 7);
        }
        let _ = h2;
    }

    #[test]
    fn quarter_classes_bound_rounding_waste() {
        // Above 16 words, rounding goes to {4,5,6,7}·2^k granules.
        assert_eq!(block_size(16), 16);
        assert_eq!(block_size(17), 20);
        assert_eq!(block_size(31), 32);
        assert_eq!(block_size(32), 32);
        assert_eq!(block_size(1000), 1024);
        assert_eq!(block_size(200_000_000), 201_326_592); // 6 · 2^25
        for len in [1usize, 2, 3, 9, 17, 33, 100, 5000, 1 << 20] {
            let s = block_size(len);
            assert!(s >= len);
            assert!(s < len * 2, "waste over 2x at {len}");
            if len > 16 {
                assert!(s as f64 <= len as f64 * 1.25, "waste over 25% at {len}");
            }
        }
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut a = arena();
        let hs: Vec<_> = (0..10).map(|_| a.alloc(16, 0)).collect();
        assert_eq!(a.peak_words(), 160);
        for h in hs {
            a.dealloc(h);
        }
        assert_eq!(a.live_words(), 0);
        assert_eq!(a.peak_words(), 160);
        let _ = a.alloc(16, 0);
        // No growth: reused freed block.
        assert_eq!(a.len_words(), 160);
    }

    #[test]
    fn capacity_boundary_is_a_typed_error() {
        let mut a = arena();
        a.set_cap_words(32);
        let h = a.alloc(16, 0); // fits
        let err = a.try_alloc(32, 0).unwrap_err();
        match err {
            crate::PramError::ArenaExhausted {
                requested, limit, ..
            } => {
                assert_eq!(requested, 32);
                assert_eq!(limit, 32);
            }
        }
        // Freed space is reusable at the boundary.
        a.dealloc(h);
        assert!(a.try_alloc(16, 0).is_ok());
    }

    #[test]
    fn split_reuse_serves_other_classes_at_the_address_cap() {
        let mut a = arena();
        a.set_cap_words(1 << 12);
        let big = a.alloc(3000, 0); // class 3072
        let keep = a.alloc(1000, 0); // class 1024 → backing at the 4096 cap
        a.dealloc(big);
        // Class 2048 is empty and growth would cross the cap: the freed
        // 3072-word block must be split instead of erroring out.
        let h = a.alloc(2000, 7);
        assert_eq!(h.base, 0);
        assert_eq!(a.load(h.base as usize), 7);
        // The 1024-word remainder landed back on its exact class list
        // and serves the next request without growth.
        let h2 = a.alloc(900, 9);
        assert_eq!(h2.base, 2048);
        assert_eq!(a.load(h2.base as usize), 9);
        // Genuine exhaustion (nothing big enough anywhere) still errors.
        assert!(a.try_alloc(2000, 0).is_err());
        let _ = keep;
    }

    #[test]
    fn coalescing_merges_adjacent_small_blocks_at_the_address_cap() {
        let mut a = arena();
        a.set_cap_words(1 << 12);
        // Four adjacent 1024-class blocks fill the backing to the cap.
        let hs: Vec<_> = (0..4).map(|i| a.alloc(1000, i)).collect();
        for h in hs {
            a.dealloc(h);
        }
        // Class 4096 is empty, growth would cross the cap, and no single
        // free block exceeds 4096 — split_reuse alone cannot serve this.
        // Coalescing must merge the four neighbours into one 4096 span.
        let h = a.alloc(4000, 7);
        assert_eq!(h.base, 0);
        assert_eq!(a.load(h.base as usize), 7);
        assert_eq!(a.load(h.base as usize + 3999), 7);
        // Everything is live again: any further request is exhaustion.
        assert!(a.try_alloc(1, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "2^32")]
    fn exhaustion_panic_names_the_limit() {
        let mut a = arena();
        a.set_cap_words(8);
        let _ = a.alloc(16, 0);
    }

    #[test]
    fn reset_keep_capacity_restores_fresh_addressing() {
        let mut a = arena();
        let h1 = a.alloc(100, 3);
        let h2 = a.alloc(8, 9);
        a.dealloc(h1);
        a.reset_keep_capacity();
        assert_eq!(a.live_words(), 0);
        assert_eq!(a.peak_words(), 0);
        // Same allocation sequence gives the same addresses and contents
        // as a brand-new arena.
        let h1b = a.alloc(100, 3);
        let h2b = a.alloc(8, 9);
        assert_eq!((h1b.base, h1b.len), (h1.base, h1.len));
        assert_eq!((h2b.base, h2b.len), (h2.base, h2.len));
        assert_eq!(a.load(h2b.base as usize), 9);
        assert_eq!(a.load(h1b.base as usize + 99), 3);
    }

    #[test]
    fn cells_hold_the_whole_word_range_and_null() {
        let mut a = arena();
        let h = a.alloc(8, NULL);
        let base = h.base as usize;
        assert!((0..8).all(|i| a.load(base + i) == NULL));
        a.store(base, 7);
        a.store(base + 1, 0xFFFF_FFFE); // the largest value
        a.store(base + 2, 0);
        // Copies move values and NULL alike.
        a.copy_words(base, base + 4, 4);
        let want = [7, 0xFFFF_FFFE, 0, NULL];
        assert!((0..8).all(|i| a.load(base + i) == want[i % 4]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn handle_index_out_of_bounds_panics() {
        let mut a = arena();
        let h = a.alloc(4, 0);
        let _ = h.addr(4);
    }
}
