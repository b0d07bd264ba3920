//! Per-processor step context: the only way simulated processors touch
//! shared memory.
//!
//! A [`Ctx`] is handed to the step closure for every simulated processor.
//! Reads go straight to the frozen pre-step memory image; writes are
//! buffered (sharded by address block, see `shard_of`, so the commit
//! phase can run in parallel on disjoint address sets) and committed by
//! the machine when the step ends.
//!
//! A buffered write is 8 bytes under every policy (see `NarrowRec` in
//! this module): records carry neither a priority nor a processor id.
//! The seeded-arbitrary policy derives the winner from `(seed, addr,
//! value)` at commit time, and the PRIORITY policies from the order the
//! records reach a cell, which is processor order.

use crate::mem::{narrow_decode, narrow_encode, Handle};
use crate::splitmix64;

/// log₂ of the words in one commit block. Shard `s` owns every block
/// whose index `addr >> SHARD_BLOCK_BITS` is `≡ s` modulo the shard
/// count: 1024 words is 4 KiB of cells and 4 KiB of stamps, so apart
/// from the lines a block shares with its neighbours (the arrays are not
/// line-aligned), each cache line is committed by one shard task.
const SHARD_BLOCK_BITS: u32 = 10;

/// The shard that buffers — and commits — writes to `addr`, for a
/// power-of-two shard count `mask + 1`. The one partition both
/// [`Ctx::write`] and the machine's commit rely on.
#[inline]
pub(crate) fn shard_of(addr: u32, mask: u32) -> usize {
    ((addr >> SHARD_BLOCK_BITS) & mask) as usize
}

/// One buffered write: 8 bytes, the address and the written value in
/// cell encoding.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NarrowRec {
    pub(crate) addr: u32,
    pub(crate) val: u32,
}

/// The write buffers produced by one chunk of a step (see
/// `Pram::run_procs`): one record list per shard.
pub(crate) struct CtxOut {
    pub(crate) shards: Vec<Vec<NarrowRec>>,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    pub(crate) max_ops: u32,
}

/// Execution context of a simulated processor within one synchronous step.
///
/// All memory operations are counted; the per-processor operation count is
/// audited so that "each processor does O(1) work per step" is a measured
/// property, not an assumption (see `Stats::max_ops_per_proc`).
pub struct Ctx<'a> {
    mem: &'a [u32],
    shard_mask: u32,
    shards: Vec<Vec<NarrowRec>>,
    step_seed: u64,
    proc: u64,
    ops_this_proc: u32,
    max_ops: u32,
    reads: u64,
    writes: u64,
}

impl<'a> Ctx<'a> {
    /// Fresh-buffer constructor (tests; the machine recycles via
    /// [`Ctx::new_in`]).
    #[cfg(test)]
    pub(crate) fn new(mem: &'a [u32], shard_count: u32, step_seed: u64) -> Self {
        Self::new_in(
            mem,
            shard_count,
            step_seed,
            vec![Vec::new(); shard_count as usize],
        )
    }

    /// Like [`Ctx::new`] but reusing `shards` buffers recycled from an
    /// earlier step (must be empty, `shard_count` of them; their
    /// capacity is the point — steady-state steps allocate nothing).
    pub(crate) fn new_in(
        mem: &'a [u32],
        shard_count: u32,
        step_seed: u64,
        shards: Vec<Vec<NarrowRec>>,
    ) -> Self {
        debug_assert!(shard_count.is_power_of_two());
        debug_assert_eq!(shards.len(), shard_count as usize);
        debug_assert!(shards.iter().all(Vec::is_empty));
        Ctx {
            mem,
            shard_mask: shard_count - 1,
            shards,
            step_seed,
            proc: 0,
            ops_this_proc: 0,
            max_ops: 0,
            reads: 0,
            writes: 0,
        }
    }

    #[inline]
    pub(crate) fn begin_proc(&mut self, p: u64) {
        self.proc = p;
        self.ops_this_proc = 0;
    }

    #[inline]
    pub(crate) fn end_proc(&mut self) {
        self.max_ops = self.max_ops.max(self.ops_this_proc);
    }

    pub(crate) fn finish(self) -> CtxOut {
        CtxOut {
            shards: self.shards,
            reads: self.reads,
            writes: self.writes,
            max_ops: self.max_ops,
        }
    }

    /// The id of the processor currently executing.
    #[inline]
    pub fn proc(&self) -> u64 {
        self.proc
    }

    /// Read cell `i` of block `h` (sees the pre-step memory image).
    #[inline]
    pub fn read(&mut self, h: Handle, i: usize) -> u64 {
        self.reads += 1;
        self.ops_this_proc += 1;
        narrow_decode(self.mem[h.addr(i) as usize])
    }

    /// Write `val` into cell `i` of block `h` (committed at end of step;
    /// concurrent writes resolved by the machine's [`crate::WritePolicy`]).
    ///
    /// Panics unless `val` fits a 32-bit word: `[0, 2^32 − 2]` or
    /// [`crate::NULL`] (see [`crate::mem`]).
    #[inline]
    pub fn write(&mut self, h: Handle, i: usize, val: u64) {
        self.writes += 1;
        self.ops_this_proc += 1;
        let addr = h.addr(i);
        let val = narrow_encode(val);
        self.shards[shard_of(addr, self.shard_mask)].push(NarrowRec { addr, val });
    }

    /// Read cell `i` of a generation-stamped block: the stored value if
    /// its stamp is fresh, else `stale`. Charged as the 1–2 real reads it
    /// performs (stamp probe, then value on a hit).
    #[inline]
    pub fn read_stamped(&mut self, s: crate::machine::Stamped, i: usize, stale: u64) -> u64 {
        if self.read(s.stamps, i) == s.gen {
            self.read(s.values, i)
        } else {
            stale
        }
    }

    /// Write `val` into cell `i` of a generation-stamped block: the value
    /// write plus the stamp write (2 charged writes, committed in this
    /// step). Concurrent writers to the cell are resolved per the machine
    /// policy on the value cell; the stamp cell receives the same
    /// generation from every writer, so it is conflict-free in value.
    #[inline]
    pub fn write_stamped(&mut self, s: crate::machine::Stamped, i: usize, val: u64) {
        self.write(s.values, i, val);
        self.write(s.stamps, i, s.gen);
    }

    /// A deterministic per-step, per-processor pseudo-random word.
    ///
    /// `tag` distinguishes multiple draws by the same processor in one step.
    /// The stream depends on (machine seed, step number, processor, tag), so
    /// runs are reproducible while different seeds give independent-looking
    /// randomness. This models the private random bits PRAM processors are
    /// assumed to hold.
    #[inline]
    pub fn rand(&mut self, tag: u64) -> u64 {
        self.ops_this_proc += 1;
        splitmix64(
            self.step_seed
                ^ self.proc.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ tag.wrapping_mul(0xD134_2543_DE82_EF95),
        )
    }

    /// A deterministic Bernoulli draw: true with probability ≈ `p`.
    #[inline]
    pub fn coin(&mut self, tag: u64, p: f64) -> bool {
        let x = self.rand(tag);
        // Map to [0, 1) with 53 bits of precision.
        let u = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Arena;

    /// An arena holding one zeroed block of `len` words.
    fn arena(len: usize) -> (Arena, Handle) {
        let mut a = Arena::new();
        let h = a.alloc(len, 0);
        (a, h)
    }

    #[test]
    fn writes_are_sharded_by_address_block() {
        let (mem, h) = arena(8 << 10);
        let mut ctx = Ctx::new(mem.cells(), 4, 0);
        ctx.begin_proc(1);
        // Four writes per 1024-word block; blocks b and b + 4 share a
        // shard.
        for i in (0..8 << 10).step_by(256) {
            ctx.write(h, i, i as u64);
        }
        ctx.end_proc();
        let out = ctx.finish();
        assert_eq!(out.writes, 32);
        for (s, recs) in out.shards.iter().enumerate() {
            assert_eq!(recs.len(), 8);
            for rec in recs {
                assert_eq!(shard_of(rec.addr, 3), s);
                assert_eq!((rec.addr >> 10) as usize % 4, s);
            }
        }
        assert_eq!(out.max_ops, 32);
    }

    #[test]
    fn rand_depends_on_proc_and_tag() {
        let (mem, _) = arena(1);
        let mut ctx = Ctx::new(mem.cells(), 1, 7);
        ctx.begin_proc(0);
        let a = ctx.rand(0);
        let b = ctx.rand(1);
        ctx.begin_proc(1);
        let c = ctx.rand(0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Same (seed, proc, tag) => same value.
        ctx.begin_proc(0);
        assert_eq!(a, ctx.rand(0));
    }

    #[test]
    fn coin_matches_probability_roughly() {
        let (mem, _) = arena(1);
        let mut ctx = Ctx::new(mem.cells(), 1, 99);
        let mut hits = 0;
        let trials = 20_000;
        for p in 0..trials {
            ctx.begin_proc(p);
            if ctx.coin(0, 0.25) {
                hits += 1;
            }
        }
        let frac = hits as f64 / trials as f64;
        assert!((0.22..0.28).contains(&frac), "fraction {frac}");
    }
}
