//! The PRAM machine: synchronous step execution and commit.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rayon::prelude::*;

use crate::ctx::{shard_of, Ctx, CtxOut, NarrowRec};
use crate::mem::{narrow_decode, narrow_encode, Arena, Handle, MemView};
use crate::resolve::{hashed_prio, CombineOp, Resolution, WritePolicy};
use crate::splitmix64;
use crate::stats::Stats;
use crate::PramError;

/// Base processor count below which a step always runs on the calling
/// thread. The actual cutover scales with the pool size (see
/// [`par_threshold`]). Purely a host-side performance knob — simulated
/// semantics are identical.
const PAR_THRESHOLD_BASE: usize = 4096;

/// Processor count above which a step is split across the rayon pool.
///
/// With one pool thread the parallel path is pure overhead (chunk
/// bookkeeping without concurrency), so it is disabled outright; with more
/// threads the cutover grows with the pool so that each worker gets enough
/// processors per chunk to amortize the dispatch.
fn par_threshold(threads: usize) -> usize {
    if threads <= 1 {
        usize::MAX
    } else {
        PAR_THRESHOLD_BASE.max(1024 * threads)
    }
}

/// Chunks a pooled step's processors are split into, per pool thread: a
/// little oversplitting evens out chunks that finish at different times
/// (the pool hands out chunks from one counter, without stealing). At
/// the threshold a chunk still runs at least 256 processors.
const RUN_CHUNKS_PER_THREAD: u64 = 4;

/// A simulated CRCW PRAM.
///
/// See the crate docs for the model. Host code (the "controller") drives the
/// machine by allocating memory, running synchronous [`Pram::step`]s, and
/// inspecting memory between steps; only steps are charged simulated time.
pub struct Pram {
    mem: Arena,
    policy: WritePolicy,
    stats: Stats,
    step_id: u32,
    seed: u64,
    shard_count: u32,
    par_threshold: usize,
    /// Recycled per-`Ctx` shard buffer sets (emptied, capacity kept), so
    /// steady-state steps allocate no write buffers at all. A `Mutex`
    /// because pool workers draw from it inside `run_procs`.
    spare_bufs: Mutex<Vec<Vec<Vec<NarrowRec>>>>,
    /// Optional observability sink (see [`Pram::set_obs_registry`]).
    obs: Option<Obs>,
}

/// An attached registry plus the host-time counters every executed step
/// adds to. Host time never enters [`Stats`], which must repeat exactly
/// across runs.
struct Obs {
    registry: Arc<logdiam_obs::Registry>,
    /// Nanoseconds spent running step closures (`run_procs`).
    step_run_ns: logdiam_obs::Counter,
    /// Nanoseconds spent resolving and committing the buffered writes
    /// (plus recycling the write buffers).
    commit_ns: logdiam_obs::Counter,
}

impl Pram {
    /// Create a machine with the given write-resolution policy.
    ///
    /// A word is 32 bits: a cell holds a value in `[0, 2^32 − 2]` or
    /// [`crate::NULL`], and storing any other value panics (see
    /// [`crate::mem`]).
    pub fn new(policy: WritePolicy) -> Self {
        let threads = rayon::current_num_threads();
        // Sharding the commit by address only pays for itself across real
        // threads; scale shards with the pool (a few per thread so commit
        // chunks stay balanced), bounded to keep per-Ctx overhead small.
        let shard_count = (threads.next_power_of_two() as u32 * 4).clamp(8, 256);
        let seed = match policy {
            WritePolicy::ArbitrarySeeded(s) => s,
            _ => 0x5EED_0BAD_CAFE_F00D,
        };
        Pram {
            mem: Arena::new(),
            policy,
            stats: Stats {
                host_threads: threads as u64,
                ..Stats::default()
            },
            step_id: 0,
            seed,
            shard_count,
            par_threshold: par_threshold(threads),
            spare_bufs: Mutex::new(Vec::new()),
            obs: None,
        }
    }

    /// The machine's write-resolution policy.
    pub fn policy(&self) -> WritePolicy {
        self.policy
    }

    /// Resource accounting so far (space fields refreshed on read).
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        s.live_words = self.mem.live_words() as u64;
        s.peak_words = self.mem.peak_words() as u64;
        s
    }

    /// Actual heap bytes behind the arena's per-word arrays (cells and
    /// stamps) — the measured bytes-per-word footprint: ≤ 8·words under
    /// every policy.
    pub fn arena_backing_bytes(&self) -> usize {
        self.mem.backing_bytes()
    }

    /// Attach an observability registry: records the `sim_*` stats gauges
    /// now and on every [`Pram::reset_for_run`] (which also emits a
    /// `run_reset` event), and adds every executed step's host time to
    /// the `sim_step_run_ns` / `sim_commit_ns` counters. See
    /// `docs/obs-schema.md`.
    pub fn set_obs_registry(&mut self, registry: Arc<logdiam_obs::Registry>) {
        self.stats().record_into(&registry, "sim");
        self.obs = Some(Obs {
            step_run_ns: registry.counter("sim_step_run_ns"),
            commit_ns: registry.counter("sim_commit_ns"),
            registry,
        });
    }

    /// Reset time/work/traffic counters (space high-water and the recorded
    /// host thread count are kept).
    pub fn reset_stats(&mut self) {
        self.stats = Stats {
            host_threads: self.stats.host_threads,
            ..Stats::default()
        };
    }

    /// Reset the machine for a fresh driver run while keeping every
    /// backing buffer: cell/stamp capacity, size-class free-list
    /// vectors, and the recycled per-step write buffers all survive, so a
    /// bench rep re-grows into already-mapped memory instead of paying
    /// page faults again.
    ///
    /// After the reset the machine is observationally identical to a
    /// newly constructed one — same allocation addresses, same step ids,
    /// and therefore (for the seeded policies) bit-identical write
    /// resolution. With an attached registry ([`Pram::set_obs_registry`])
    /// this emits a `run_reset` event carrying the finished run's
    /// occupancy and refreshes the `sim_*` gauges.
    pub fn reset_for_run(&mut self) {
        let live = self.mem.live_words() as u64;
        let peak = self.mem.peak_words() as u64;
        let backing = self.mem.backing_bytes() as u64;
        self.mem.reset_keep_capacity();
        self.step_id = 0;
        self.reset_stats();
        if let Some(Obs { registry: reg, .. }) = &self.obs {
            reg.event(
                logdiam_obs::Event::new("run_reset")
                    .with("live_words", live)
                    .with("peak_words", peak)
                    .with("backing_bytes", backing),
            );
            self.stats().record_into(reg, "sim");
        }
    }

    /// Record a pure model charge of `steps` time units on `nprocs`
    /// processors without executing anything.
    ///
    /// Used by primitives that run extra bookkeeping steps at charge 0 and
    /// then account the cost the paper proves for them (e.g. approximate
    /// compaction's O(1)-time `n log n`-processor mode, Lemma D.2). Unlike
    /// executed steps, charges have no processor-count cap.
    pub fn charge(&mut self, nprocs: usize, steps: u64) {
        self.stats.record_step(nprocs as u64, steps);
    }

    // ----------------------------------------------------------------- memory

    /// Allocate a block of `len` words filled with `fill` (which must fit
    /// a 32-bit word, see [`Pram::new`]).
    pub fn alloc_filled(&mut self, len: usize, fill: u64) -> Handle {
        self.mem.alloc(len, fill)
    }

    /// Allocate a zero-filled block of `len` words.
    pub fn alloc(&mut self, len: usize) -> Handle {
        self.mem.alloc(len, 0)
    }

    /// Fallible allocation: like [`Pram::alloc`] but surfaces arena
    /// exhaustion (the 2^32-word address-space cap) as a typed error
    /// instead of panicking.
    pub fn try_alloc(&mut self, len: usize) -> Result<Handle, PramError> {
        self.mem.try_alloc(len, 0)
    }

    /// Return a block to the arena (it may be reused by later allocations).
    pub fn free(&mut self, h: Handle) {
        self.mem.dealloc(h);
    }

    /// Host read of one cell (not charged as simulated time).
    #[inline]
    pub fn get(&self, h: Handle, i: usize) -> u64 {
        self.mem.load(h.addr(i) as usize)
    }

    /// Host write of one cell (setup only; not charged). Panics unless
    /// `v` fits a 32-bit word, like a step's write.
    #[inline]
    pub fn set(&mut self, h: Handle, i: usize, v: u64) {
        self.mem.store(h.addr(i) as usize, v);
    }

    /// Host view of a whole block.
    pub fn view(&self, h: Handle) -> MemView<'_> {
        let base = h.base as usize;
        MemView::new(&self.mem.cells()[base..base + h.len()])
    }

    /// Copy a block out (host side).
    pub fn read_vec(&self, h: Handle) -> Vec<u64> {
        self.view(h).to_vec()
    }

    /// Host bulk fill of `len` cells starting at cell `start` (setup only;
    /// not charged; for a charged parallel fill use [`Pram::fill_step`]).
    /// The block-heap allocators use this instead of per-cell [`Pram::set`]
    /// loops so clearing a table costs a memset, not a call per word.
    pub fn host_fill_range(&mut self, h: Handle, start: usize, len: usize, v: u64) {
        assert!(start + len <= h.len(), "host_fill_range out of bounds");
        self.mem.fill_words(h.addr(start) as usize, len, v);
    }

    /// Allocate a generation-stamped block of `len` cells, logically
    /// filled with a caller-chosen stale sentinel (see [`Stamped`]).
    ///
    /// The stamp cells start at 0 and the generation at 1, so nothing is
    /// ever spuriously fresh. Both blocks are plain arena memory — two
    /// words per logical cell.
    pub fn alloc_stamped(&mut self, len: usize) -> Stamped {
        Stamped {
            values: self.mem.alloc(len, 0),
            stamps: self.mem.alloc(len, 0),
            gen: 1,
        }
    }

    /// Host-side *stamped* bulk fill: logically reset every cell of `s` to
    /// its stale sentinel by advancing the generation — O(1) host work and
    /// zero simulated time, where [`Pram::host_fill_range`]
    /// memset O(len) words. This is what lets per-phase flag arrays sized
    /// at `n` be "cleared" each phase without any O(n) pass, host or
    /// simulated (`logdiam-cc` uses it for EXPAND's per-phase arrays and
    /// between MAXLINK's candidate iterations).
    pub fn host_stamped_fill(&mut self, s: &mut Stamped) {
        s.gen = s.gen.checked_add(1).expect("stamp generation overflow");
    }

    /// Host read of one stamped cell: the written value if fresh this
    /// generation, else `stale` (not charged, like [`Pram::get`]).
    #[inline]
    pub fn get_stamped(&self, s: Stamped, i: usize, stale: u64) -> u64 {
        if self.get(s.stamps, i) == s.gen {
            self.get(s.values, i)
        } else {
            stale
        }
    }

    /// Return a stamped block's value and stamp blocks to the arena.
    pub fn free_stamped(&mut self, s: Stamped) {
        self.mem.dealloc(s.values);
        self.mem.dealloc(s.stamps);
    }

    /// Host copy of `src` into the front of `dst` (`src.len() ≤ dst.len()`).
    /// Setup/bookkeeping only — callers that model a PRAM copy must charge a
    /// step themselves.
    pub fn host_copy(&mut self, src: Handle, dst: Handle) {
        assert!(src.len() <= dst.len(), "host_copy: dst too small");
        self.mem
            .copy_words(src.base as usize, dst.base as usize, src.len as usize);
    }

    /// Charged parallel fill: one step with `h.len()` processors.
    pub fn fill_step(&mut self, h: Handle, v: u64) {
        self.step(h.len(), move |p, ctx| {
            ctx.write(h, p as usize, v);
        });
    }

    // ------------------------------------------------------------------ steps

    /// Execute one synchronous parallel step with `nprocs` processors.
    ///
    /// Each processor `p ∈ [0, nprocs)` runs `f(p, ctx)`; reads see the
    /// pre-step memory, writes are resolved per the machine policy and
    /// committed at the end. Charged as 1 unit of simulated time.
    ///
    /// An executed step is capped at 2^32 processors, the size of the
    /// arena's address space: executing more closures than that is
    /// infeasible anyway (write records carry no processor id, so no
    /// record format needs the cap). Where the paper proves an O(1)- or
    /// O(k)-time bound on processor slack the simulator does not spend
    /// host time emulating, the caller records it with [`Pram::charge`].
    pub fn step<F>(&mut self, nprocs: usize, f: F)
    where
        F: Fn(u64, &mut Ctx) + Send + Sync,
    {
        self.stats.record_step(nprocs as u64, 1);
        self.execute(nprocs, &f, self.policy.resolution());
    }

    /// Execute one synchronous parallel step with one processor per element
    /// of a *compacted index slice* — the entry point live-work schedulers
    /// use so that per-step cost (both charged and host wall-clock) scales
    /// with the surviving work items, not with the full arrays the items
    /// index into, while staying on the same (possibly chunked-parallel)
    /// dispatch path as [`Pram::step`].
    ///
    /// Processor `p ∈ [0, items.len())` runs `f(p, &items[p], ctx)`. Note
    /// that `p` — the position in the compacted slice, not the item value —
    /// is the processor id seen by write resolution and [`Ctx::rand`]; a
    /// deterministic host-built slice therefore yields runs that are
    /// reproducible and thread-count invariant exactly like plain steps.
    ///
    /// # Example
    ///
    /// ```
    /// use pram_sim::{Pram, WritePolicy};
    ///
    /// let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
    /// let out = pram.alloc(10);
    /// // One processor per *live* item — the step charges 3 processors,
    /// // not the 10 cells the items index into.
    /// let live: Vec<usize> = vec![2, 5, 7];
    /// pram.step_over(&live, |_p, &i, ctx| ctx.write(out, i, 1));
    /// assert_eq!(pram.read_vec(out).iter().sum::<u64>(), 3);
    /// assert_eq!(pram.stats().max_procs, 3);
    /// ```
    pub fn step_over<T, F>(&mut self, items: &[T], f: F)
    where
        T: Sync,
        F: Fn(u64, &T, &mut Ctx) + Send + Sync,
    {
        self.step(items.len(), move |p, ctx| f(p, &items[p as usize], ctx));
    }

    /// Execute one synchronous COMBINING CRCW step: concurrent writes to a
    /// cell leave `op` applied over *all written values* in the cell.
    pub fn step_combine<F>(&mut self, nprocs: usize, op: CombineOp, f: F)
    where
        F: Fn(u64, &mut Ctx) + Send + Sync,
    {
        self.stats.record_step(nprocs as u64, 1);
        self.execute(nprocs, &f, Resolution::Combine(op));
    }

    /// Run one step's processors, then commit their buffered writes under
    /// `rule` and add both halves' host time to the attached registry's
    /// counters, if any.
    fn execute<F>(&mut self, nprocs: usize, f: &F, rule: Resolution)
    where
        F: Fn(u64, &mut Ctx) + Send + Sync,
    {
        if nprocs == 0 {
            return;
        }
        self.step_id += 1;
        // A step below the threshold runs inline, and so does its commit:
        // for a few thousand writes a pool task per shard costs more than
        // the writes themselves.
        let parallel = nprocs >= self.par_threshold;
        let start = self.obs.is_some().then(Instant::now);
        let outs = self.run_procs(nprocs, parallel, f);
        let ran = start.map(|_| Instant::now());
        self.commit(&outs, rule, parallel);
        self.retire(outs);
        if let (Some(obs), Some(start), Some(ran)) = (&self.obs, start, ran) {
            obs.step_run_ns.add((ran - start).as_nanos() as u64);
            obs.commit_ns.add(ran.elapsed().as_nanos() as u64);
        }
    }

    /// Run processors `0..nprocs` in chunks of consecutive ids and return
    /// each chunk's buffered writes in chunk order, i.e. processor order.
    /// A step below the threshold is one chunk, run inline; a pooled step
    /// is `RUN_CHUNKS_PER_THREAD` chunks per pool thread, run as pool
    /// tasks. Either way a chunk's processors all borrow one [`Ctx`]: a
    /// per-item accumulator (a `fold`) would move the context into and
    /// out of its closure once per processor, which costs more than a
    /// one-read processor does.
    fn run_procs<F>(&mut self, nprocs: usize, parallel: bool, f: &F) -> Vec<CtxOut>
    where
        F: Fn(u64, &mut Ctx) + Send + Sync,
    {
        assert!(
            nprocs <= u32::MAX as usize,
            "executed steps are capped at 2^32 processors (see Pram::step)"
        );
        let mem_ref = self.mem.cells();
        let shard_count = self.shard_count;
        let step_seed = splitmix64(self.seed ^ (self.step_id as u64) << 17);
        let spare_bufs = &self.spare_bufs;
        let nprocs = nprocs as u64;
        let chunks = if parallel {
            rayon::current_num_threads() as u64 * RUN_CHUNKS_PER_THREAD
        } else {
            1
        };
        let run_chunk = |k: u64| {
            // The chunk's context draws its shard buffers from the recycle
            // pool (filled back by `retire`) so capacity carries across
            // steps.
            let bufs = spare_bufs
                .lock()
                .unwrap()
                .pop()
                .unwrap_or_else(|| vec![Vec::new(); shard_count as usize]);
            let mut ctx = Ctx::new_in(mem_ref, shard_count, step_seed, bufs);
            for p in k * nprocs / chunks..(k + 1) * nprocs / chunks {
                ctx.begin_proc(p);
                f(p, &mut ctx);
                ctx.end_proc();
            }
            ctx.finish()
        };
        if parallel {
            (0..chunks).into_par_iter().map(&run_chunk).collect()
        } else {
            vec![run_chunk(0)]
        }
    }

    /// Post-commit bookkeeping, one pass over the step's outputs: merge the
    /// per-chunk counters into [`Stats`] and recycle the (emptied) shard
    /// buffers for the next step.
    fn retire(&mut self, outs: Vec<CtxOut>) {
        let mut spare = self.spare_bufs.lock().unwrap();
        for out in outs {
            self.stats.reads += out.reads;
            self.stats.writes += out.writes;
            self.stats.max_ops_per_proc = self.stats.max_ops_per_proc.max(out.max_ops as u64);
            let mut bufs = out.shards;
            for recs in &mut bufs {
                recs.clear();
            }
            spare.push(bufs);
        }
    }

    /// Apply every buffered write of the step under `rule`, shard by
    /// shard, and add the step's write conflicts to [`Stats`].
    fn commit(&mut self, outs: &[CtxOut], rule: Resolution, parallel: bool) {
        let step = self.step_id;
        let mask = self.shard_count - 1;
        let mem = ShardedMem::new(&mut self.mem);
        let conflicts = AtomicU64::new(0);
        over_shards(self.shard_count, parallel, |s| {
            let mut n = 0;
            for_each_rec(outs, s, mask, |addr, val| {
                // SAFETY: `for_each_rec` yields only records with
                // `shard_of(addr) == s`, and distinct shards own disjoint
                // 1024-word address blocks (see `ShardedMem`), so no other
                // task touches this cell or stamp.
                n += u64::from(unsafe { mem.commit_one(step, addr, val, rule) });
            });
            conflicts.fetch_add(n, Ordering::Relaxed);
        });
        self.stats.write_conflicts += conflicts.into_inner();
    }
}

/// Run `task(s)` for every shard `s < shard_count`: as pool tasks when
/// the step ran on the pool, inline otherwise.
fn over_shards<F>(shard_count: u32, parallel: bool, task: F)
where
    F: Fn(usize) + Send + Sync,
{
    let shards = 0..shard_count as usize;
    if parallel {
        shards.into_par_iter().for_each(task);
    } else {
        shards.for_each(task);
    }
}

/// Feed shard `s`'s buffered writes, from every chunk in chunk order, to
/// `apply(addr, value)`: processor order, which the PRIORITY rules rest
/// on. Checks in debug builds that each record belongs to the shard it
/// was buffered in.
#[inline]
fn for_each_rec(outs: &[CtxOut], s: usize, mask: u32, mut apply: impl FnMut(u32, u64)) {
    for out in outs {
        for rec in &out.shards[s] {
            debug_assert_eq!(shard_of(rec.addr, mask), s);
            apply(rec.addr, narrow_decode(rec.val));
        }
    }
}

/// A generation-stamped block: `len` logical cells backed by a value
/// block and a parallel stamp block plus a current generation.
///
/// A cell is *fresh* when its stamp equals the current generation; stale
/// cells read as a caller-chosen sentinel. Advancing the generation
/// ([`Pram::host_stamped_fill`]) is therefore a logical O(1) re-fill of
/// the whole block — the replacement for per-phase O(len) memsets on
/// arrays indexed by full-range vertex ids whose live subset is much
/// smaller. Writes pay 2 simulated writes (value + stamp, same step) and
/// reads up to 2 simulated reads; concurrent writers are resolved per
/// cell by the machine policy exactly as for plain cells (every writer
/// stores the same stamp, so the stamp cell is conflict-free in value).
///
/// The struct is `Copy` — step closures capture the generation *at step
/// construction*, which is the intended snapshot semantics.
#[derive(Clone, Copy, Debug)]
pub struct Stamped {
    /// Value cells.
    pub values: Handle,
    /// Stamp cells (same length as `values`).
    pub stamps: Handle,
    /// Current generation (stamps equal to this are fresh); counts from 1
    /// so zeroed stamp blocks start fully stale.
    pub gen: u64,
}

/// Raw-pointer view of the arena used by the sharded commit.
///
/// The commit runs one task per shard, and shard `s` owns every address
/// `a` with [`shard_of`]`(a) == s`: the 1024-word blocks whose index is
/// `≡ s` modulo the shard count. [`Ctx::write`] buffers each record in
/// its address's shard, so the tasks write disjoint cells and stamps,
/// and — but for the lines at block edges — disjoint cache lines.
///
/// Methods take `&self` so that commit closures capture the whole struct
/// (keeping the `Sync` reasoning in one place) rather than the raw-pointer
/// fields individually.
struct ShardedMem<'a> {
    cells: *mut u32,
    stamp: *mut u32,
    /// Holds the arena's exclusive borrow while the pointers are in use,
    /// so nothing can resize the cell or stamp arrays under them.
    _arena: PhantomData<&'a mut Arena>,
}

impl<'a> ShardedMem<'a> {
    fn new(arena: &'a mut Arena) -> Self {
        let (cells, stamp) = arena.commit_ptrs();
        ShardedMem {
            cells,
            stamp,
            _arena: PhantomData,
        }
    }

    /// Decode the committed value at `a`.
    ///
    /// # Safety
    /// `a` in bounds; no concurrent access to the cell (see commit).
    #[inline]
    unsafe fn load(&self, a: usize) -> u64 {
        narrow_decode(unsafe { *self.cells.add(a) })
    }

    /// Store `v` at `a`; panics if `v` does not fit a 32-bit word.
    ///
    /// # Safety
    /// As for [`ShardedMem::load`].
    #[inline]
    unsafe fn store(&self, a: usize, v: u64) {
        let cell = narrow_encode(v);
        unsafe { *self.cells.add(a) = cell };
    }

    /// Apply one buffered write under `rule`. Returns true when the cell
    /// had already been written in this step (a write conflict).
    ///
    /// # Safety
    /// Caller must guarantee `addr` is in bounds and no other thread is
    /// concurrently accessing that cell (the commit task calling this
    /// owns `addr`'s block, see [`ShardedMem`]).
    unsafe fn commit_one(&self, step: u32, addr: u32, val: u64, rule: Resolution) -> bool {
        let a = addr as usize;
        unsafe {
            if *self.stamp.add(a) != step {
                *self.stamp.add(a) = step;
                self.store(a, val);
                return false;
            }
            match rule {
                Resolution::Hashed(seed) => {
                    let cur = self.load(a);
                    let (pn, pc) = (hashed_prio(seed, addr, val), hashed_prio(seed, addr, cur));
                    if pn > pc || (pn == pc && val > cur) {
                        self.store(a, val);
                    }
                }
                Resolution::First => {}
                Resolution::Last => self.store(a, val),
                Resolution::Combine(op) => self.store(a, op.apply(self.load(a), val)),
            }
            true
        }
    }
}

// SAFETY: the commit tasks partition addresses by block — task `s` touches
// only addresses `a` with `shard_of(a) == s` (checked by a debug assertion
// in `for_each_rec`) — so no two threads access the same cell or stamp.
// `_arena` is a marker and holds no data.
unsafe impl Sync for ShardedMem<'_> {}
unsafe impl Send for ShardedMem<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NULL;

    #[test]
    fn reads_see_pre_step_memory() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let xs = pram.alloc_filled(4, 5);
        // Every processor increments its left neighbour's cell; since reads
        // see the old image, the result is old[left]+1 everywhere, not a
        // cascade.
        pram.step(4, |p, ctx| {
            let i = p as usize;
            let left = (i + 3) % 4;
            let v = ctx.read(xs, left);
            ctx.write(xs, i, v + 1);
        });
        assert_eq!(pram.read_vec(xs), vec![6, 6, 6, 6]);
    }

    #[test]
    fn seeded_arbitrary_is_reproducible() {
        let run = |seed| {
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
            let xs = pram.alloc_filled(1, NULL);
            pram.step(10_000, |p, ctx| {
                ctx.write(xs, 0, p);
            });
            pram.get(xs, 0)
        };
        assert_eq!(run(7), run(7));
        // Different seeds should (almost surely) pick different winners.
        let distinct = (0..16).map(run).collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn priority_policies_pick_extremes() {
        for (policy, expect) in [
            (WritePolicy::PriorityMin, 0u64),
            (WritePolicy::PriorityMax, 9_999),
        ] {
            let mut pram = Pram::new(policy);
            let xs = pram.alloc(1);
            pram.step(10_000, |p, ctx| {
                ctx.write(xs, 0, p);
            });
            assert_eq!(pram.get(xs, 0), expect);
        }
    }

    #[test]
    fn combine_sum_counts_writers() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
        let c = pram.alloc_filled(1, 99);
        pram.step_combine(12_345, CombineOp::Sum, |_, ctx| {
            ctx.write(c, 0, 1);
        });
        // Previous content (99) does not participate.
        assert_eq!(pram.get(c, 0), 12_345);
        // Combining steps count conflicts like any other step.
        assert_eq!(pram.stats().write_conflicts, 12_344);
    }

    #[test]
    fn combine_min_max_or() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
        let c = pram.alloc_filled(3, 0);
        pram.step_combine(100, CombineOp::Min, |p, ctx| {
            ctx.write(c, 0, 1000 - p);
        });
        pram.step_combine(100, CombineOp::Max, |p, ctx| {
            ctx.write(c, 1, p);
        });
        pram.step_combine(64, CombineOp::Or, |p, ctx| {
            ctx.write(c, 2, 1 << (p % 8));
        });
        assert_eq!(pram.get(c, 0), 901);
        assert_eq!(pram.get(c, 1), 99);
        assert_eq!(pram.get(c, 2), 0xFF);
    }

    #[test]
    fn stats_account_time_work_and_space() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let xs = pram.alloc(1000);
        pram.step(1000, |p, ctx| {
            ctx.write(xs, p as usize, p);
        });
        pram.step(10, |p, ctx| {
            let _ = ctx.read(xs, p as usize);
        });
        pram.charge(10, 3);
        let s = pram.stats();
        assert_eq!(s.steps, 5);
        assert_eq!(s.step_calls, 3);
        assert_eq!(s.work, 1000 + 10 + 30);
        assert_eq!(s.max_procs, 1000);
        assert_eq!(s.writes, 1000);
        assert_eq!(s.reads, 10);
        assert_eq!(s.peak_words, 1024); // size-class rounding
        pram.free(xs);
        assert_eq!(pram.stats().live_words, 0);
        assert_eq!(pram.stats().peak_words, 1024);
    }

    #[test]
    fn fill_step_is_charged() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let xs = pram.alloc_filled(8, 0);
        pram.fill_step(xs, 42);
        assert_eq!(pram.read_vec(xs), vec![42; 8]);
        assert_eq!(pram.stats().steps, 1);
    }

    #[test]
    fn stamped_fill_is_a_logical_refill() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(2));
        let mut s = pram.alloc_stamped(8);
        // Fresh allocation: everything stale.
        for i in 0..8 {
            assert_eq!(pram.get_stamped(s, i, NULL), NULL);
        }
        pram.step(4, move |p, ctx| {
            ctx.write_stamped(s, p as usize, 100 + p);
        });
        assert_eq!(pram.get_stamped(s, 2, NULL), 102);
        assert_eq!(pram.get_stamped(s, 7, NULL), NULL);
        // Reads through a step context honour staleness too.
        let probe = pram.alloc(8);
        pram.step(8, move |p, ctx| {
            let v = ctx.read_stamped(s, p as usize, 7777);
            ctx.write(probe, p as usize, v);
        });
        assert_eq!(pram.get(probe, 1), 101);
        assert_eq!(pram.get(probe, 5), 7777);
        // O(1) refill: old values become invisible without any pass.
        pram.host_stamped_fill(&mut s);
        for i in 0..8 {
            assert_eq!(pram.get_stamped(s, i, NULL), NULL);
        }
        // Rewrite after the refill is visible again.
        pram.step(1, move |_, ctx| ctx.write_stamped(s, 3, 9));
        assert_eq!(pram.get_stamped(s, 3, NULL), 9);
        pram.free_stamped(s);
        assert_eq!(pram.stats().live_words, 8);
    }

    #[test]
    fn large_parallel_step_matches_sequential_semantics() {
        // Same program under the parallel path (big nprocs) and a
        // semantically equivalent host-side loop.
        let n = 100_000usize;
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(11));
        let xs = pram.alloc(n);
        let ys = pram.alloc(n);
        pram.step(n, |p, ctx| {
            ctx.write(xs, p as usize, p * 2);
        });
        pram.step(n, |p, ctx| {
            let v = ctx.read(xs, p as usize);
            ctx.write(ys, (p as usize + 1) % n, v + 1);
        });
        let ys = pram.read_vec(ys);
        for p in 0..n {
            assert_eq!(ys[(p + 1) % n], (p as u64) * 2 + 1);
        }
    }

    #[test]
    fn step_over_runs_one_proc_per_item_and_charges_item_count() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
        let xs = pram.alloc_filled(16, 0);
        // A compacted index set touching a sparse subset of cells.
        let idx: Vec<u32> = vec![1, 5, 11];
        pram.step_over(&idx, |p, &i, ctx| {
            ctx.write(xs, i as usize, 100 + p);
        });
        let v = pram.read_vec(xs);
        assert_eq!(v[1], 100);
        assert_eq!(v[5], 101);
        assert_eq!(v[11], 102);
        assert_eq!(v[0], 0);
        let s = pram.stats();
        // Charged at the live-item count, not the full array length.
        assert_eq!(s.steps, 1);
        assert_eq!(s.work, 3);
        assert_eq!(s.max_procs, 3);
    }

    #[test]
    fn step_over_empty_slice_is_free() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
        let empty: Vec<u32> = Vec::new();
        pram.step_over(&empty, |_, &_i, _ctx| unreachable!());
        assert_eq!(pram.stats().work, 0);
    }

    #[test]
    fn step_over_matches_step_semantics_on_large_slices() {
        // Above the parallel threshold the chunked pool path must produce
        // the same committed image as an equivalent plain step.
        let n = 50_000usize;
        let run = |over: bool| {
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(9));
            let xs = pram.alloc(n);
            if over {
                let idx: Vec<u32> = (0..n as u32).collect();
                pram.step_over(&idx, |p, &i, ctx| {
                    ctx.write(xs, i as usize, p * 3);
                });
            } else {
                pram.step(n, |p, ctx| {
                    ctx.write(xs, p as usize, p * 3);
                });
            }
            pram.read_vec(xs)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn max_ops_audit_reports_heaviest_processor() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let xs = pram.alloc(64);
        pram.step(8, |p, ctx| {
            for i in 0..=p as usize {
                let _ = ctx.read(xs, i);
            }
        });
        assert_eq!(pram.stats().max_ops_per_proc, 8);
    }

    /// Every processor of a step runs exactly once, inline or on the pool:
    /// at counts around the 2-thread parallel threshold, and at one no
    /// chunk count divides, `Stats` matches host-computed totals for
    /// `step`, `step_over` and `step_combine`, and a `Sum` step counts
    /// each processor once. Processor `p` reads `p mod 5` cells and
    /// writes one; the last one reads 7, so it alone is the heaviest.
    #[test]
    fn pooled_steps_run_each_processor_exactly_once() {
        const CELLS: usize = 1000;
        for nprocs in [4095usize, 4096, 4097, 100_003] {
            let last = nprocs as u64 - 1;
            let reads = move |p: u64| if p == last { 7 } else { p % 5 };
            let total_reads: u64 = (0..nprocs as u64).map(reads).sum();
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(5));
            let xs = pram.alloc(nprocs);
            let counts = pram.alloc(CELLS);
            let read_some = move |p: u64, ctx: &mut Ctx| {
                for i in 0..reads(p) {
                    let _ = ctx.read(xs, i as usize);
                }
            };
            let check = |pram: &mut Pram, what: &str| {
                let s = pram.stats();
                assert_eq!(s.reads, total_reads, "{what}, {nprocs} procs");
                assert_eq!(s.writes, nprocs as u64, "{what}, {nprocs} procs");
                assert_eq!(s.max_ops_per_proc, 8, "{what}, {nprocs} procs");
                pram.reset_stats();
            };

            pram.step(nprocs, |p, ctx| {
                read_some(p, ctx);
                ctx.write(xs, p as usize, p + 1);
            });
            check(&mut pram, "step");
            let written = pram.read_vec(xs);
            assert!(written.iter().zip(1..).all(|(&v, want)| v == want));

            let items: Vec<u64> = (0..nprocs as u64).rev().collect();
            pram.step_over(&items, |p, &q, ctx| {
                read_some(p, ctx);
                ctx.write(xs, q as usize, p);
            });
            check(&mut pram, "step_over");
            let written = pram.read_vec(xs);
            assert!(written.iter().rev().zip(0..).all(|(&v, want)| v == want));

            pram.step_combine(nprocs, CombineOp::Sum, |p, ctx| {
                read_some(p, ctx);
                ctx.write(counts, p as usize % CELLS, 1);
            });
            check(&mut pram, "step_combine");
            let want = |c: usize| (nprocs + CELLS - 1 - c) / CELLS;
            let summed = pram.read_vec(counts);
            assert!(summed.iter().enumerate().all(|(c, &v)| v == want(c) as u64));
        }
    }

    #[test]
    fn crew_checker_counts_conflicts() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(5));
        let xs = pram.alloc(4);
        // Exclusive writes: no conflicts.
        pram.step(4, |p, ctx| ctx.write(xs, p as usize, p));
        assert_eq!(pram.stats().write_conflicts, 0);
        // 10 writers to one cell: 9 conflicting writes.
        pram.step(10, |_, ctx| ctx.write(xs, 0, 7));
        assert_eq!(pram.stats().write_conflicts, 9);
        // Output is still a legal ARBITRARY result.
        assert_eq!(pram.get(xs, 0), 7);
    }

    #[test]
    fn arena_reuse_after_free_bounds_peak() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        for _ in 0..100 {
            let h = pram.alloc(1 << 10);
            pram.free(h);
        }
        assert_eq!(pram.stats().peak_words, 1 << 10);
    }

    /// A mixed program (small and 31-bit values, NULL, combining steps,
    /// stamped blocks), used by the replay tests below.
    fn mixed_program(pram: &mut Pram) -> Vec<u64> {
        let n = 4096usize;
        let xs = pram.alloc_filled(n, NULL);
        let ys = pram.alloc(n);
        pram.step(4 * n, |p, ctx| {
            let i = (p as usize * 7) % n;
            let v = if p.is_multiple_of(97) {
                (1u64 << 30) + p
            } else {
                p
            };
            ctx.write(xs, i, v);
        });
        pram.step(n, |p, ctx| {
            let i = p as usize;
            let v = ctx.read(xs, i);
            let w = v.rotate_left(9) & 0x7FFF_FFFF;
            ctx.write(ys, i, if v == NULL { 0 } else { w });
        });
        pram.step_combine(2 * n, CombineOp::Sum, |p, ctx| {
            ctx.write(ys, (p as usize) % 17, 1);
        });
        let mut s = pram.alloc_stamped(n);
        pram.step(n / 2, move |p, ctx| {
            ctx.write_stamped(s, p as usize * 2, p + (1 << 30));
        });
        let mut out = pram.read_vec(xs);
        out.extend(pram.read_vec(ys));
        for i in 0..n {
            out.push(pram.get_stamped(s, i, NULL));
        }
        pram.host_stamped_fill(&mut s);
        out.push(pram.get_stamped(s, 0, 7));
        pram.free_stamped(s);
        pram.free(xs);
        pram.free(ys);
        out
    }

    /// The committed image of one step of conflicting writes — many
    /// writers per cell, with values across the whole word (`0xFFFF_FFFE`,
    /// the largest, `NULL` and values with the top bit set among them) —
    /// equals a host-side model of the policy's winner rule: the highest
    /// `hashed_prio(seed, addr, val)` for the seeded policy (ties to the
    /// larger value), the extreme processor id for the priority ones.
    /// Every processor also writes two different values to one of the
    /// `TIES` cells, the smaller first below the middle id and last above
    /// it; the model keeps the winning processor's first write under
    /// `PriorityMin` and its last under `PriorityMax`, which is the
    /// smaller value both times. The step sizes straddle the parallel
    /// threshold, so both the inline and the pooled commit are checked,
    /// twice over the same cells so the first step's winners get
    /// overwritten.
    #[test]
    fn conflicting_writes_match_a_policy_model() {
        const WORDS: usize = 3000; // spans 3–4 commit blocks
        const TIES: usize = 8; // the last cells, written only in pairs
        const TOP: u64 = 0xFFFF_FFFE; // the largest value a cell holds
        let value = |p: u64, step: u64| match (p + step) % 6 {
            0 => (1 << 31) | p,
            1 => TOP,
            2 => TOP - 1,
            3 => NULL,
            _ => p ^ step,
        };
        for policy in [
            WritePolicy::ArbitrarySeeded(42),
            WritePolicy::PriorityMin,
            WritePolicy::PriorityMax,
        ] {
            for nprocs in [1_000usize, 200_000] {
                let mut pram = Pram::new(policy);
                let xs = pram.alloc_filled(WORDS, TOP);
                let mut model = vec![TOP; WORDS];
                for step in 0..2u64 {
                    let cell = move |p: u64| (p as usize * 7919 + step as usize) % (WORDS - TIES);
                    // Processor p's writes in program order: its own cell,
                    // then a small and a large value to a tie cell.
                    let writes = move |p: u64| {
                        let tie = WORDS - TIES + (p as usize + step as usize) % TIES;
                        let (small, large) = (2 * p, (1 << 31) | p);
                        let pair = if 2 * p < nprocs as u64 {
                            [small, large]
                        } else {
                            [large, small]
                        };
                        [(cell(p), value(p, step)), (tie, pair[0]), (tie, pair[1])]
                    };
                    pram.step(nprocs, move |p, ctx| {
                        for (i, v) in writes(p) {
                            ctx.write(xs, i, v);
                        }
                    });
                    let mut winner: Vec<Option<(u64, u64)>> = vec![None; WORDS];
                    for p in 0..nprocs as u64 {
                        for (i, v) in writes(p) {
                            let wins = winner[i].is_none_or(|(q, cur)| match policy {
                                WritePolicy::ArbitrarySeeded(seed) => {
                                    let a = xs.addr(i);
                                    let (pv, pc) =
                                        (hashed_prio(seed, a, v), hashed_prio(seed, a, cur));
                                    pv > pc || (pv == pc && v > cur)
                                }
                                WritePolicy::PriorityMin => p < q,
                                WritePolicy::PriorityMax => p >= q,
                            });
                            if wins {
                                winner[i] = Some((p, v));
                            }
                        }
                    }
                    for (m, w) in model.iter_mut().zip(&winner) {
                        if let Some((_, v)) = w {
                            *m = *v;
                        }
                    }
                    assert_eq!(pram.read_vec(xs), model, "{policy:?}, {nprocs} procs");
                }
            }
        }
    }

    #[test]
    fn largest_word_round_trips_through_commit_copy_and_read_vec() {
        const TOP: u64 = 0xFFFF_FFFE;
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let xs = pram.alloc_filled(4, NULL);
        pram.step(3, |p, ctx| ctx.write(xs, p as usize, TOP - p));
        let ys = pram.alloc(4);
        pram.host_copy(xs, ys);
        let want = vec![TOP, TOP - 1, TOP - 2, NULL];
        assert_eq!(pram.read_vec(xs), want);
        assert_eq!(pram.read_vec(ys), want);
    }

    #[test]
    #[should_panic(expected = "32-bit machine word")]
    fn step_write_past_the_word_panics() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let xs = pram.alloc(1);
        pram.step(1, |_, ctx| ctx.write(xs, 0, 1 << 32));
    }

    #[test]
    #[should_panic(expected = "32-bit machine word")]
    fn host_set_of_the_null_encoding_panics() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let xs = pram.alloc(1);
        // 0xFFFF_FFFF is how a cell stores NULL, so as a value it must not
        // read back as NULL.
        pram.set(xs, 0, u32::MAX as u64);
    }

    #[test]
    #[should_panic(expected = "32-bit machine word")]
    fn alloc_filled_past_the_word_panics() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let _ = pram.alloc_filled(8, NULL - 1);
    }

    #[test]
    #[should_panic(expected = "32-bit machine word")]
    fn combine_sum_past_the_word_panics() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let c = pram.alloc(1);
        // Both values fit a word; their sum, 2^32 − 1, does not.
        pram.step_combine(2, CombineOp::Sum, |p, ctx| ctx.write(c, 0, 0x7FFF_FFFF + p));
    }

    #[test]
    fn reset_for_run_replays_bit_identically_without_regrowth() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(77));
        let first = mixed_program(&mut pram);
        let stats_first = pram.stats();
        let backing = pram.arena_backing_bytes();
        pram.reset_for_run();
        assert_eq!(pram.stats().live_words, 0);
        assert_eq!(pram.stats().peak_words, 0);
        // Backing capacity survives the reset — that is the point.
        assert_eq!(pram.arena_backing_bytes(), backing);
        let second = mixed_program(&mut pram);
        assert_eq!(first, second);
        let stats_second = pram.stats();
        assert_eq!(stats_first, stats_second);
        // And no new backing was mapped on the replay.
        assert_eq!(pram.arena_backing_bytes(), backing);
    }

    #[test]
    fn footprint_is_at_most_8_bytes_per_word_for_default_policy() {
        // Narrow cell (4) + stamp (4) under every policy.
        for policy in [
            WritePolicy::ArbitrarySeeded(1),
            WritePolicy::PriorityMin,
            WritePolicy::PriorityMax,
        ] {
            let mut pram = Pram::new(policy);
            let _ = pram.alloc(1 << 18);
            let per_word = pram.arena_backing_bytes() as f64 / pram.stats().live_words as f64;
            assert!(per_word <= 8.0, "{policy:?}: bytes/word = {per_word}");
        }
    }

    #[test]
    fn try_alloc_surfaces_exhaustion() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        assert!(pram.try_alloc(64).is_ok());
        // The real 2^32 cap cannot be hit in a unit test without 32 GiB;
        // the boundary itself is pinned in `mem::tests` with a narrowed
        // cap. Here: the error type is part of the public API.
        let r: Result<Handle, PramError> = pram.try_alloc(1 << 20);
        assert!(r.is_ok());
    }

    #[test]
    fn run_reset_event_and_gauges_reach_the_registry() {
        let reg = Arc::new(logdiam_obs::Registry::new());
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(5));
        pram.set_obs_registry(reg.clone());
        let h = pram.alloc(100);
        pram.fill_step(h, 3);
        pram.reset_for_run();
        let snap = reg.snapshot();
        assert_eq!(snap.gauges["sim_live_words"], 0);
        assert_eq!(snap.gauges["sim_peak_words"], 0);
        let events = reg.drain_events();
        let reset = events
            .iter()
            .find(|e| e.name == "run_reset")
            .expect("run_reset event");
        assert_eq!(
            reset.field("peak_words"),
            Some(&logdiam_obs::Value::U64(112))
        );
        assert_eq!(
            reset.field("live_words"),
            Some(&logdiam_obs::Value::U64(112))
        );
    }

    #[test]
    fn step_host_time_reaches_the_registry_but_not_stats() {
        let reg = Arc::new(logdiam_obs::Registry::new());
        let mut timed = Pram::new(WritePolicy::ArbitrarySeeded(5));
        timed.set_obs_registry(reg.clone());
        let mut plain = Pram::new(WritePolicy::ArbitrarySeeded(5));
        for pram in [&mut timed, &mut plain] {
            let _ = mixed_program(pram);
        }
        let snap = reg.snapshot();
        assert!(snap.counters["sim_step_run_ns"] > 0);
        assert!(snap.counters["sim_commit_ns"] > 0);
        assert_eq!(timed.stats(), plain.stats());
    }
}
