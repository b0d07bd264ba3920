//! One round of EXPAND-MAXLINK (§3.1/§D.1, Steps (1)–(8)), scheduled over
//! the *live* subproblem.
//!
//! Per-round dataflow (table lifetimes):
//!
//! ```text
//!   persistent tables (added edges of prev round, per vertex)
//!     │ Step 1: MAXLINK over live arcs+tables; ALTER live arcs+tables
//!     │ compact: refresh the live index (arcs/cells/verts/roots)
//!     │ Step 2: random level raises on ongoing roots
//!     │ alloc:  every ongoing root gets work tables H3,H5 of √b cells
//!     │ Step 3: H3(v) ← same-budget neighbour roots (arcs + table edges)
//!     │ Step 4: collision ⇒ dormant; dormant table-members ⇒ dormant
//!     │ Step 5: H5(v) ← ∪ H3(w), w ∈ H3(v)  (squaring; collision ⇒ dormant)
//!     │ swap:   persistent ← H5 (old persistent and H3 freed)
//!     │ Step 6: MAXLINK; SHORTCUT; ALTER (live arcs + new tables)
//!     │ Step 7: dormant roots that didn't raise in Step 2 raise now
//!     │ Step 8: roots get budget b_{ℓ(v)} (compaction-charged)
//!     │ compact: refresh the live index for the next round
//!     ▼
//!   persistent tables (added edges for next round)
//! ```
//!
//! **Live-work scheduling.** The paper's rounds cost O(live) work because
//! COMPACT / approximate compaction (Lemma D.2) re-indexes the surviving
//! subproblem every round; a naive simulation that hands one processor to
//! every original vertex and arc instead pays O(n + m) per round even when
//! almost everything is finished. The [`LiveIndex`] is the controller-side
//! equivalent of that compaction: a [`LiveSet`] (non-loop arcs,
//! periodically deduplicated by hashing; the endpoints of the live arcs
//! and live table edges; the ongoing roots) plus the live
//! persistent-table cells. Every simulated step in this file iterates one
//! of those lists, so both the charged work and the host wall-clock of a
//! round scale with the live subproblem. Rebuilding the index is host
//! bookkeeping that scans only the previous live lists — O(live), never
//! O(n + m) — and is deterministic, which keeps runs reproducible and
//! thread-count invariant.
//!
//! **One root graph.** The live arcs and the edges held by the live table
//! cells are one graph, [`RootEdges`]: MAXLINK's candidate writes and the
//! edge steps of Steps 3 and 4 are its [`RootEdges::steps`] (an arc step,
//! then a cell step that visits each table edge in both orientations), and
//! ALTER, the live-cell predicate and the postprocess read a cell through
//! the one decode, [`cell_edge`].
//!
//! Finished vertices keep stale parents until the driver's final
//! `shortcut_until_flat_over`; the per-round SHORTCUT jumps live
//! vertices only, so the break condition fires as soon as the *live*
//! root graph has settled (the always-correct Theorem-1 postprocess
//! handles the rest).
//!
//! The break condition (§3.3) is evaluated from two flags filled here:
//! `changed` (any live parent or level moved — Steps 1/2/6/7) and
//! `ii_violated` (Step 5 found a pair at distance 2 not already in the
//! table).

use crate::live::{compact_live_arcs, LiveSet};
use crate::state::CcState;
use crate::theorem3::maxlink::{maxlink, MaxlinkCtx};
use crate::theorem3::tables::TableHeap;
use crate::theorem3::{FasterParams, DEDUP_CADENCE, SAMPLE_COEFF};
use pram_kit::ops::{alter_over, shortcut_flagged_over, Flag};
use pram_kit::{compact_over, PairSet, PairwiseHash};
use pram_sim::{Ctx, Handle, Pram, NULL};

/// Square root of a power-of-four budget.
#[inline]
pub(crate) fn sqb_of(b: u64) -> u64 {
    debug_assert!(b.is_power_of_two() && b.trailing_zeros().is_multiple_of(2));
    1 << (b.trailing_zeros() / 2)
}

/// "No slot" marker for [`RoundScratch::builder_slot`].
const NO_SLOT: u32 = u32::MAX;

/// The edge live table cell `(x, c)` holds, read through `read` (a step's
/// `Ctx::read`, or the host's `Pram::get`): `Some((heap index, w))`, or
/// `None` when `eoff[x]` is NULL, or the cell is NULL or holds `x`.
#[inline(always)]
pub(crate) fn cell_edge(
    x: u32,
    c: u32,
    eoff: Handle,
    heap: Handle,
    mut read: impl FnMut(Handle, usize) -> u64,
) -> Option<(usize, u64)> {
    let off = read(eoff, x as usize);
    if off == NULL {
        return None;
    }
    let at = off as usize + c as usize;
    let w = read(heap, at);
    (w != NULL && w != x as u64).then_some((at, w))
}

/// The root graph one EXPAND-MAXLINK round works on: the live arcs
/// `(eu[i], ev[i])` and the edges the live persistent-table cells hold.
#[derive(Clone, Copy)]
pub(crate) struct RootEdges<'a> {
    /// Live arc indices into `eu`/`ev`.
    pub arcs: &'a [u32],
    /// Live table cells `(owner, cell)`, decoded by [`cell_edge`].
    pub cells: &'a [(u32, u32)],
    /// Arc tails.
    pub eu: Handle,
    /// Arc heads.
    pub ev: Handle,
    /// Per-vertex persistent table offsets (NULL = none).
    pub eoff: Handle,
    /// The table heap.
    pub heap: Handle,
}

impl RootEdges<'_> {
    /// Two charged steps over the root graph: the arc step calls
    /// `f(a, b)` for each live arc that is not a loop, then the cell step
    /// calls `f(x, w)` and `f(w, x)` for each live cell holding an edge.
    #[inline(always)]
    pub(crate) fn steps<F>(&self, pram: &mut Pram, f: F)
    where
        F: Fn(&mut Ctx, u64, u64) + Sync,
    {
        let (eu, ev, eoff, heap, f) = (self.eu, self.ev, self.eoff, self.heap, &f);
        pram.step_over(self.arcs, move |_, &i, ctx| {
            let (a, b) = (ctx.read(eu, i as usize), ctx.read(ev, i as usize));
            if a != b {
                f(ctx, a, b);
            }
        });
        pram.step_over(self.cells, move |_, &(x, c), ctx| {
            if let Some((_, w)) = cell_edge(x, c, eoff, heap, |h, i| ctx.read(h, i)) {
                f(ctx, x as u64, w);
                f(ctx, w, x as u64);
            }
        });
    }
}

/// The compacted live-work index — the controller-side stand-in for the
/// paper's per-round approximate compaction (Lemma D.2): a [`LiveSet`]
/// plus the live table cells, rebuilt by [`LiveIndex::compact`] from the
/// previous live lists, in deterministic (first-seen) order.
///
/// The rebuild itself runs on charged `pram_kit` primitives: arc, cell,
/// and root filtering go through [`pram_kit::compact_over`] (a predicate
/// step plus the Lemma-D.2 placement charge, all at the previous live
/// count), and endpoint collection is charged as one emission step over
/// the surviving arcs/cells plus a Lemma-D.2 dedup/rename over the
/// endpoints — so the controller's compaction cost is *visible in
/// `Stats`* (reported per round as `compaction_work`) instead of being
/// free host bookkeeping. The host vectors are the controller's mirror of
/// the compacted arrays those primitives produce.
pub(crate) struct LiveIndex {
    /// The live arcs (non-loops and, when dedup ran, the first of each
    /// duplicate group), the endpoints of the live arcs and then of the
    /// live table edges, and the ongoing roots among them, which drive
    /// Steps 2/8 and the builder scan. Its slot map is the candidate-row
    /// index of the stamped MAXLINK.
    pub set: LiveSet,
    /// Live persistent-table cells `(owner, cell)`: value `w` non-NULL,
    /// non-self, and `parent[x] != parent[w]` at the last compaction.
    ///
    /// The parent test is what kills "zombie" cells of finished subtrees:
    /// once both endpoints share a parent the cell can only ever write a
    /// MAXLINK candidate at exactly the incumbent parent's level (never
    /// read by the strict selection scan), contributes nothing to Steps
    /// 3/4 (one endpoint is a non-root), and materializes as a self-loop —
    /// and since parents never leave their component, the condition is
    /// permanent. Dropping such cells is therefore exactly
    /// behaviour-preserving, and it is what lets the live vertex set (and
    /// with it the MAXLINK clear/selection cost) actually shrink to the
    /// ongoing frontier.
    pub table_cells: Vec<(u32, u32)>,
    /// How many of `set.verts` came from arcs (the Lemma-B.2 "ongoing
    /// vertex" count reported by per-round metrics).
    pub arc_verts: usize,
    /// Running maximum level (levels never decrease, and only ongoing
    /// roots raise, so scanning the roots per round keeps this exact).
    pub max_level_seen: u64,
}

impl LiveIndex {
    /// Seed the index from all of `st`'s arcs (driver start-up; every
    /// later rebuild scans live lists only). No dedup: COMPACT's rename
    /// already handed the rounds distinct arcs, and no table exists yet.
    pub(crate) fn seed(pram: &mut Pram, st: &CcState) -> Self {
        let set = LiveSet::full(pram, st);
        LiveIndex {
            arc_verts: set.verts.len(),
            max_level_seen: u64::from(!set.verts.is_empty()),
            table_cells: Vec::new(),
            set,
        }
    }

    /// Refresh every list from machine state: drop arcs that became loops
    /// (optionally deduplicating surviving arcs by endpoint pair), drop
    /// table cells that no longer hold an edge between two trees,
    /// recollect endpoints and roots.
    pub(crate) fn compact(
        &mut self,
        pram: &mut Pram,
        st: &CcState,
        eoff: Handle,
        heap: Handle,
        dedup: bool,
        dedup_seed: u64,
    ) {
        let parent = st.parent;

        // Live arcs: charged compaction (predicate = non-loop; the helper
        // shared with `LiveSet`), then the optional endpoint-pair dedup —
        // the paper's hashing pass, charged at the surviving count (each
        // survivor reads the hash function's two words and probes once).
        let mut kept = compact_live_arcs(pram, st, &self.set.arcs);
        if dedup {
            let survivors = kept.len();
            {
                let eu_h = pram.view(st.eu);
                let ev_h = pram.view(st.ev);
                let mut seen = PairSet::with_capacity(dedup_seed, kept.len());
                kept.retain(|&i| seen.insert(eu_h.get(i as usize), ev_h.get(i as usize)));
            }
            pram.charge(survivors, 2);
        }
        self.set.arcs = kept;

        // Live table cells: charged compaction. The predicate's reads are
        // real counted memory traffic (offset, cell value, both parents).
        self.table_cells = compact_over(pram, &self.table_cells, move |_, &(x, c), ctx| {
            cell_edge(x, c, eoff, heap, |h, i| ctx.read(h, i))
                .is_some_and(|(_, w)| ctx.read(parent, x as usize) != ctx.read(parent, w as usize))
        });

        // Endpoints: the arcs' first, then the live table edges', charged
        // as one emission over both; then the roots among them.
        self.set.collect_arc_endpoints(pram, st);
        self.arc_verts = self.set.verts.len();
        let (eo, hw) = (pram.view(eoff), pram.view(heap));
        let cells = self.table_cells.iter();
        let edges =
            cells.map(|&(x, c)| (x as u64, hw.get(eo.get(x as usize) as usize + c as usize)));
        self.set.collect_extra_endpoints(edges);
        let sources = self.set.arcs.len() + self.table_cells.len();
        self.set.charge_and_roots(pram, st, sources);
    }
}

/// One work-table owner this round: `(vertex, √b, H3 offset, H5 offset)`.
#[derive(Clone, Copy)]
pub(crate) struct Builder {
    pub v: u32,
    pub sqb: u32,
    pub o3: u64,
    pub o5: u64,
}

/// Per-round scratch buffers, reused across rounds with capacity
/// carry-over so the steady state allocates nothing.
pub(crate) struct RoundScratch {
    /// Ongoing roots with budget ≥ 4 that own work tables this round.
    pub builders: Vec<Builder>,
    /// Occupied H3 cells `(owner, cell)`, grouped by builder.
    pub h3_occ: Vec<(u32, u32)>,
    /// Per-builder `[start, end)` range into `h3_occ`.
    pub occ_range: Vec<(u32, u32)>,
    /// Step-5 work items `(owner, p-cell, q-cell)` over occupied cells —
    /// the compacted form of the paper's `√b × √b` processor grid.
    pub s5_index: Vec<(u32, u32, u32)>,
    /// vertex → index into `builders` (`NO_SLOT` = not a builder);
    /// entries are reset at the end of every round.
    pub builder_slot: Vec<u32>,
}

impl RoundScratch {
    pub(crate) fn new(n: usize) -> Self {
        RoundScratch {
            builders: Vec::new(),
            h3_occ: Vec::new(),
            occ_range: Vec::new(),
            s5_index: Vec::new(),
            builder_slot: vec![NO_SLOT; n],
        }
    }
}

/// All run-long machine state of the Theorem-3 rounds, over COMPACT's
/// renamed subproblem `st` (every per-vertex array is `st.n` wide).
pub(crate) struct FasterState<'s> {
    pub st: &'s CcState,
    /// Level array (`ℓ(v)`; every renamed vertex starts at 1).
    pub level: Handle,
    /// Budget array (`b(v)`, the block size owned; every renamed vertex
    /// starts at `b₁`).
    pub budget: Handle,
    /// Persistent ("added edges") table offset per vertex (NULL = none).
    pub eoff: Handle,
    /// Work-table offsets for the current round (NULL when not building).
    pub t3off: Handle,
    /// Second work table (Step 5 target).
    pub t5off: Handle,
    /// Dormant flags (builder entries only; reset per round).
    pub dormant: Handle,
    /// "Raised level in Step 2" flags (ongoing-root entries only; reset
    /// per round).
    pub raised2: Handle,
    /// The table heap.
    pub heap: TableHeap,
    /// Maximum level (budget schedule length - 1).
    pub lmax: usize,
    /// `budgets[ℓ]` = block size at level `ℓ` (powers of four).
    pub budgets: Vec<u64>,
    /// Host mirror of persistent tables: `(offset, √b)` per vertex.
    pub host_tbl: Vec<Option<(u64, u32)>>,
    /// The compacted live-work index.
    pub live: LiveIndex,
    /// Reused per-round scratch.
    pub scratch: RoundScratch,
}

impl FasterState<'_> {
    /// Release the machine arrays (the `CcState` belongs to the caller).
    pub(crate) fn free(self, pram: &mut Pram) {
        pram.free(self.level);
        pram.free(self.budget);
        pram.free(self.eoff);
        pram.free(self.t3off);
        pram.free(self.t5off);
        pram.free(self.dormant);
        pram.free(self.raised2);
        self.heap.free_all(pram);
    }

    /// The root graph over the live index, on the current table heap.
    pub(crate) fn edges(&self) -> RootEdges<'_> {
        RootEdges {
            arcs: &self.live.set.arcs,
            cells: &self.live.table_cells,
            eu: self.st.eu,
            ev: self.st.ev,
            eoff: self.eoff,
            heap: self.heap.handle(),
        }
    }
}

/// Per-round outcome for the break test and metrics.
pub(crate) struct RoundOutcome {
    pub changed: bool,
    pub ii_violated: bool,
    pub dormant: u64,
    pub max_level: u64,
    pub table_live: u64,
    /// Ongoing vertices (arc endpoints) at the end of the round.
    pub ongoing: usize,
    /// Live arcs at the end of the round.
    pub live_arcs: usize,
    /// Work charged by the round's two live-index compactions (the
    /// Lemma-D.2 rebuilds) — reported distinctly from step work.
    pub compaction_work: u64,
}

/// Run one MAXLINK invocation over the current live index, on
/// generation-stamped candidate cells allocated at the live size (see
/// [`crate::theorem3::maxlink`]).
fn run_maxlink(pram: &mut Pram, fs: &FasterState, params: &FasterParams, changed: &Flag) {
    let live = &fs.live.set;
    let mut mx = MaxlinkCtx {
        cand: pram.alloc_stamped((live.verts.len() * (fs.lmax + 1)).max(1)),
        vert_slot: live.slot(),
        level: fs.level,
        lmax: fs.lmax,
        edges: fs.edges(),
        live_verts: &live.verts,
    };
    maxlink(pram, fs.st.parent, &mut mx, changed, params.maxlink_iters);
    pram.free_stamped(mx.cand);
}

/// ALTER on the root graph: each live arc's endpoints, then each live
/// table cell's value, are replaced by their parents (one processor per
/// live arc, then per live cell).
fn alter_root_edges(pram: &mut Pram, fs: &FasterState) {
    let (parent, edges) = (fs.st.parent, fs.edges());
    let (eoff, heap) = (edges.eoff, edges.heap);
    alter_over(pram, edges.eu, edges.ev, parent, edges.arcs);
    pram.step_over(edges.cells, move |_, &(x, c), ctx| {
        if let Some((at, w)) = cell_edge(x, c, eoff, heap, |h, i| ctx.read(h, i)) {
            let pw = ctx.read(parent, w as usize);
            if pw != w {
                ctx.write(heap, at, pw);
            }
        }
    });
}

/// Steps 3 and 4's guard for the ordered root-graph edge `(a, b)`: the
/// heap index `b` hashes to in `H3(a)`, when `a` builds a work table this
/// round, `b` is a root and both have the same budget.
#[inline(always)]
fn h3_slot(
    ctx: &mut Ctx,
    (a, b): (u64, u64),
    parent: Handle,
    budget: Handle,
    t3off: Handle,
    hv: &PairwiseHash,
) -> Option<usize> {
    let o3 = ctx.read(t3off, a as usize);
    if o3 == NULL || ctx.read(parent, b as usize) != b {
        return None;
    }
    let ba = ctx.read(budget, a as usize);
    if ctx.read(budget, b as usize) != ba {
        return None;
    }
    Some(o3 as usize + hv.eval_range(b, sqb_of(ba)) as usize)
}

/// Step 5's item `(v, p, q)`, decoded: `v`'s `√b`, its `H3` offset, and
/// `u`, cell `q` of `H3(w)` for the `w` in cell `p` of `H3(v)` — `None`
/// when either cell is empty or `w` has no `H3`.
#[inline(always)]
fn square_item(
    ctx: &mut Ctx,
    (v, p, q): (u32, u32, u32),
    budget: Handle,
    t3off: Handle,
    heap: Handle,
) -> Option<(u64, usize, u64)> {
    let sqb = sqb_of(ctx.read(budget, v as usize));
    let o3 = ctx.read(t3off, v as usize) as usize;
    let w = ctx.read(heap, o3 + p as usize);
    if w == NULL {
        return None;
    }
    let o3w = ctx.read(t3off, w as usize);
    if o3w == NULL {
        return None;
    }
    let u = ctx.read(heap, o3w as usize + q as usize);
    (u != NULL).then_some((sqb, o3, u))
}

/// Execute one EXPAND-MAXLINK round.
pub(crate) fn expand_maxlink_round(
    pram: &mut Pram,
    fs: &mut FasterState,
    params: &FasterParams,
    seed: u64,
    round: u64,
) -> RoundOutcome {
    let round_seed = seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F);
    let hv = PairwiseHash::new(round_seed ^ 0x7AB1_E000, 1 << 30);
    let dedup = round.is_multiple_of(DEDUP_CADENCE);
    let changed = Flag::new(pram);
    let ii_flag = Flag::new(pram);
    let mut compaction_work = 0u64;

    let parent = fs.st.parent;
    let (level, budget) = (fs.level, fs.budget);
    let (eoff, t3off, t5off) = (fs.eoff, fs.t3off, fs.t5off);
    let (dormant, raised2) = (fs.dormant, fs.raised2);
    let heap = fs.heap.handle();

    // ---- Step 1: MAXLINK; ALTER (live arcs and live tables).
    run_maxlink(pram, fs, params, &changed);
    alter_root_edges(pram, fs);

    // ---- Compact: the mid-round live-index refresh every later step
    // schedules over (the Lemma-D.2 role; see module docs). Its charged
    // work is tallied separately for the `compaction_work` metric.
    let cw0 = pram.stats().work;
    fs.live
        .compact(pram, fs.st, eoff, heap, dedup, round_seed ^ 0xDED0_B001);
    compaction_work += pram.stats().work - cw0;

    // ---- Step 2: random level raises on ongoing roots.
    if params.enable_sampling {
        let (exp, cap) = (params.sample_exp, params.sample_cap);
        let lmax = fs.lmax as u64;
        pram.step_over(&fs.live.set.roots, move |_, &v, ctx| {
            let v = v as usize;
            if ctx.read(parent, v) != v as u64 {
                return;
            }
            let l = ctx.read(level, v);
            if l >= lmax {
                return;
            }
            let b = ctx.read(budget, v).max(4) as f64;
            let p_up = (SAMPLE_COEFF / b.powf(exp)).min(cap);
            if ctx.coin(0x5A_3B ^ seed, p_up) {
                ctx.write(level, v, l + 1);
                ctx.write(raised2, v, 1);
                changed.raise(ctx);
            }
        });
    }

    // ---- Work-table allocation for every ongoing root (the processor
    // blocks of Assumption 3.1 / Step 8). Charged at the builder count:
    // the paper hands out these blocks through approximate compaction of
    // the ongoing roots (Lemma D.2), so the round pays for live roots,
    // not for all n vertices.
    //
    // Roots already at the top of the budget schedule are *frozen*: a
    // MAXLINK hook needs a strictly higher-level parent, which cannot
    // exist above `lmax`, so their squaring can never cause another link —
    // it only re-derives the §3.3 closure certificate, at Θ(cluster³)
    // work per round once a stuck top-level cluster has densified. The
    // schedule's budget ceiling already forfeits that certificate on
    // stubborn inputs (see `budget_schedule`: the run then falls through
    // to the always-correct postprocess), so freezing changes no label,
    // only when the break fires. Their persistent tables stay live for
    // MAXLINK candidates, lower-level neighbours, and the postprocess.
    fs.scratch.builders.clear();
    {
        let buds = pram.view(budget);
        let lvls = pram.view(level);
        let lmax = fs.lmax as u64;
        for &v in &fs.live.set.roots {
            let b = buds.get(v as usize);
            if b >= 4 && lvls.get(v as usize) < lmax {
                fs.scratch.builders.push(Builder {
                    v,
                    sqb: sqb_of(b) as u32,
                    o3: 0,
                    o5: 0,
                });
            }
        }
    }
    for b in &mut fs.scratch.builders {
        b.o3 = fs.heap.alloc(pram, b.sqb as usize);
        b.o5 = fs.heap.alloc(pram, b.sqb as usize);
    }
    for &Builder { v, o3, o5, .. } in &fs.scratch.builders {
        pram.set(t3off, v as usize, o3);
        pram.set(t5off, v as usize, o5);
    }
    pram.charge(fs.scratch.builders.len(), 4);
    let heap = fs.heap.handle(); // may have grown

    // ---- Step 3: H3(v) ← same-budget root neighbours.
    pram.step_over(&fs.scratch.builders, move |_, b, ctx| {
        let v = b.v as u64;
        let o3 = ctx.read(t3off, b.v as usize);
        if o3 == NULL {
            return;
        }
        let sqb = sqb_of(ctx.read(budget, b.v as usize));
        ctx.write(heap, o3 as usize + hv.eval_range(v, sqb) as usize, v);
    });
    fs.edges().steps(pram, move |ctx, a, b| {
        if let Some(at) = h3_slot(ctx, (a, b), parent, budget, t3off, &hv) {
            ctx.write(heap, at, b);
        }
    });

    // ---- Host scan of the freshly-built H3 tables: occupied cells per
    // builder, plus the Step-5 work items over occupied pairs. This is the
    // controller's compacted view of the `√b × √b` processor grids the
    // paper allocates per block — empty cells hold no simulated work, so
    // they are neither executed nor charged. Roots whose H3 holds nothing
    // but themselves are skipped entirely (they would square to {v}; this
    // also keeps their persistent table empty rather than self-pointing).
    {
        let hw = pram.view(heap);
        let sc = &mut fs.scratch;
        sc.h3_occ.clear();
        sc.occ_range.clear();
        for (bi, b) in sc.builders.iter().enumerate() {
            let start = sc.h3_occ.len() as u32;
            for c in 0..b.sqb {
                if hw.get(b.o3 as usize + c as usize) != NULL {
                    sc.h3_occ.push((b.v, c));
                }
            }
            sc.occ_range.push((start, sc.h3_occ.len() as u32));
            sc.builder_slot[b.v as usize] = bi as u32;
        }
        sc.s5_index.clear();
        for (bi, b) in sc.builders.iter().enumerate() {
            let (s, e) = sc.occ_range[bi];
            let occ = &sc.h3_occ[s as usize..e as usize];
            if !occ
                .iter()
                .any(|&(_, c)| hw.get(b.o3 as usize + c as usize) != b.v as u64)
            {
                continue; // H3(v) = {v}: squaring is a no-op, skip unpaid
            }
            for &(_, p) in occ {
                let w = hw.get(b.o3 as usize + p as usize);
                let wi = sc.builder_slot[w as usize];
                if wi == NO_SLOT {
                    continue; // w lost its table race / is not a builder
                }
                let (ws, we) = sc.occ_range[wi as usize];
                for &(_, q) in &sc.h3_occ[ws as usize..we as usize] {
                    sc.s5_index.push((b.v, p, q));
                }
            }
        }
    }

    // ---- Step 4: collision ⇒ dormant; dormant members ⇒ dormant owner.
    pram.step_over(&fs.scratch.builders, move |_, b, ctx| {
        let v = b.v as u64;
        let o3 = ctx.read(t3off, b.v as usize);
        if o3 == NULL {
            return;
        }
        let sqb = sqb_of(ctx.read(budget, b.v as usize));
        if ctx.read(heap, o3 as usize + hv.eval_range(v, sqb) as usize) != v {
            ctx.write(dormant, b.v as usize, 1);
        }
    });
    fs.edges().steps(pram, move |ctx, a, b| {
        if let Some(at) = h3_slot(ctx, (a, b), parent, budget, t3off, &hv) {
            if ctx.read(heap, at) != b {
                ctx.write(dormant, a as usize, 1);
            }
        }
    });
    // Dormancy propagation through table membership (Step 4 sentence 2) —
    // one processor per *occupied* H3 cell.
    pram.step_over(&fs.scratch.h3_occ, move |_, &(v, c), ctx| {
        let o3 = ctx.read(t3off, v as usize);
        let w = ctx.read(heap, o3 as usize + c as usize);
        if w != NULL && ctx.read(dormant, w as usize) == 1 {
            ctx.write(dormant, v as usize, 1);
        }
    });

    // ---- Step 5: squaring H5(v) ← ∪_{w ∈ H3(v)} H3(w), over the
    // compacted occupied-pair items.
    pram.step_over(&fs.scratch.s5_index, move |_, &item, ctx| {
        if let Some((sqb, o3, u)) = square_item(ctx, item, budget, t3off, heap) {
            let slot = hv.eval_range(u, sqb) as usize;
            // Break-condition (ii): was u already present in H3(v)?
            if ctx.read(heap, o3 + slot) != u {
                ii_flag.raise(ctx);
            }
            let o5 = ctx.read(t5off, item.0 as usize);
            ctx.write(heap, o5 as usize + slot, u);
        }
    });
    pram.step_over(&fs.scratch.s5_index, move |_, &item, ctx| {
        if let Some((sqb, _, u)) = square_item(ctx, item, budget, t3off, heap) {
            let o5 = ctx.read(t5off, item.0 as usize);
            if ctx.read(heap, o5 as usize + hv.eval_range(u, sqb) as usize) != u {
                ctx.write(dormant, item.0 as usize, 1);
            }
        }
    });

    // ---- Swap: persistent ← H5; free H3 and old persistent blocks; the
    // work-table offsets are reset so `t3off`/`t5off` stay all-NULL
    // between rounds.
    for &Builder { v, sqb, o3, o5 } in &fs.scratch.builders {
        let v = v as usize;
        if let Some((old_off, old_sqb)) = fs.host_tbl[v] {
            fs.heap.dealloc(old_off, old_sqb as usize);
        }
        fs.heap.dealloc(o3, sqb as usize);
        fs.host_tbl[v] = Some((o5, sqb));
        pram.set(eoff, v, o5);
        pram.set(t3off, v, NULL);
        pram.set(t5off, v, NULL);
    }
    // Live table cells: builders' old entries died with the swap; the new
    // H5 tables contribute their occupied non-self cells.
    {
        let hw = pram.view(heap);
        let slot = &fs.scratch.builder_slot;
        let cells = &mut fs.live.table_cells;
        cells.retain(|&(x, _)| slot[x as usize] == NO_SLOT);
        for b in &fs.scratch.builders {
            for c in 0..b.sqb {
                let w = hw.get(b.o5 as usize + c as usize);
                if w != NULL && w != b.v as u64 {
                    cells.push((b.v, c));
                }
            }
        }
    }
    for b in &fs.scratch.builders {
        fs.scratch.builder_slot[b.v as usize] = NO_SLOT;
    }
    pram.charge(fs.scratch.builders.len(), 1); // table-pointer swap, one step

    // ---- Step 6: MAXLINK; SHORTCUT; ALTER (live arcs + new tables).
    // `live.verts` still covers every possible candidate target: new table
    // entries name roots that already were live-table/arc endpoints (a
    // target missing from the slot map is skipped, mirroring the clear
    // path's never-read cell).
    run_maxlink(pram, fs, params, &changed);
    shortcut_flagged_over(pram, parent, &fs.live.set.verts, &changed);
    alter_root_edges(pram, fs);

    // ---- Step 7: dormant roots that did not raise in Step 2 raise now.
    {
        let lmax = fs.lmax as u64;
        pram.step_over(&fs.scratch.builders, move |_, b, ctx| {
            let v = b.v as usize;
            if ctx.read(dormant, v) == 1
                && ctx.read(raised2, v) == 0
                && ctx.read(parent, v) == v as u64
            {
                let l = ctx.read(level, v);
                if l < lmax {
                    ctx.write(level, v, l + 1);
                    changed.raise(ctx);
                }
            }
        });
    }

    // ---- Step 8: roots get the budget of their level (zones +
    // approximate compaction; charged at the ongoing-root count per
    // Lemma D.2).
    {
        let budgets: &[u64] = &fs.budgets;
        pram.step_over(&fs.live.set.roots, move |_, &v, ctx| {
            let v = v as usize;
            if ctx.read(parent, v) == v as u64 {
                let l = ctx.read(level, v) as usize;
                let b = budgets[l.min(budgets.len() - 1)];
                if b > 0 && ctx.read(budget, v) != b {
                    ctx.write(budget, v, b);
                }
            }
        });
        pram.charge(fs.live.set.roots.len(), 4);
    }

    // ---- Outcome metrics, from the live index instead of full-n scans.
    let dormant_count = {
        let d = pram.view(dormant);
        fs.scratch
            .builders
            .iter()
            .filter(|b| d.get(b.v as usize) == 1)
            .count() as u64
    };
    {
        let lv = pram.view(level);
        for &v in &fs.live.set.roots {
            fs.live.max_level_seen = fs.live.max_level_seen.max(lv.get(v as usize));
        }
    }

    // ---- Cleanup: clear this round's flag writes (dormant ⊆ builders,
    // raised2 ⊆ ongoing roots), charged at the live counts.
    pram.step_over(&fs.scratch.builders, move |_, b, ctx| {
        ctx.write(dormant, b.v as usize, 0);
    });
    pram.step_over(&fs.live.set.roots, move |_, &v, ctx| {
        ctx.write(raised2, v as usize, 0);
    });

    // ---- Compact for the next round (Step 6's ALTER moved arcs/cells).
    let cw1 = pram.stats().work;
    fs.live
        .compact(pram, fs.st, eoff, heap, dedup, round_seed ^ 0xDED0_B002);
    compaction_work += pram.stats().work - cw1;

    let outcome = RoundOutcome {
        changed: changed.read(pram),
        ii_violated: ii_flag.read(pram),
        dormant: dormant_count,
        max_level: fs.live.max_level_seen,
        table_live: fs.heap.live_words() as u64,
        ongoing: fs.live.arc_verts,
        live_arcs: fs.live.set.arcs.len(),
        compaction_work,
    };
    changed.free(pram);
    ii_flag.free(pram);
    outcome
}
