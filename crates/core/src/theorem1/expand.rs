//! The EXPAND method (§B.3): hash-table neighbourhood squaring with
//! live/dormant bookkeeping.
//!
//! Protocol (steps numbered as in the paper):
//!
//! 1. every ongoing vertex starts *live*;
//! 2. vertices are hashed onto blocks by `h_B`; a vertex that does not win
//!    its block alone is **fully dormant** (it owns no table);
//! 3. every live vertex hashes itself and, per graph arc `(v, w)` with `v`
//!    live, its neighbour `w` into `H(v)`; arcs with a non-live tail mark
//!    their head dormant;
//! 4. any hash that collided marks the table's owner dormant;
//! 5. repeat (until no table gains a new entry): every owner `u` copies
//!    `H(v)` for all `v ∈ H(u)` into `H(u)` — after `i` clean rounds
//!    `H(u) = B(u, 2^i)` (Lemma B.7) — and dormancy propagates through
//!    table membership; collisions again mark owners dormant.
//!
//! The first-dormant-round of every vertex is recorded (`fdr`), because
//! Theorem 2's TREE-LINK replays liveness per round; Theorem 1 only needs
//! "dormant at the end" (`fdr != NULL`).
//!
//! **Live-work scheduling.** Every charged step iterates the caller's
//! [`LiveSet`]: the block lottery, liveness recording, and table seeding
//! run one processor per *ongoing* vertex (`live.verts`), the per-arc
//! inserts and collision checks one per *live* arc (`live.arcs`), and the
//! squaring rounds one per occupied-block cell pair (`owned` — already
//! live-sized). The per-vertex `fdr` and step-3 liveness flag arrays are
//! still `n` cells so runtime vertex ids index them directly, but they are
//! **generation-stamped** ([`ExpandScratch`], allocated once per driver
//! run): the per-phase "re-fill with NULL" is a generation bump — O(1)
//! host work, zero simulated time, and no O(n) memset per phase.

use crate::live::LiveSet;
use crate::state::CcState;
use pram_kit::ops::Flag;
use pram_kit::PairwiseHash;
use pram_sim::{Handle, Pram, Stamped, NULL};

/// First-dormant-round encoding: fully dormant (lost the block lottery).
pub const FDR_FULLY: u64 = 0;

/// Driver-lifetime scratch backing EXPAND's per-vertex phase arrays
/// (`fdr` and the step-3 liveness flags) as generation-stamped blocks:
/// allocated once per run, after which each phase's "refill with
/// NULL / 0" is a stamp-generation bump ([`Pram::host_stamped_fill`])
/// instead of an O(n) memset.
pub struct ExpandScratch {
    fdr: Stamped,
    live3: Stamped,
}

impl ExpandScratch {
    /// Allocate stamped blocks for `n` vertices.
    pub fn new(pram: &mut Pram, n: usize) -> Self {
        ExpandScratch {
            fdr: pram.alloc_stamped(n),
            live3: pram.alloc_stamped(n),
        }
    }

    /// Release the blocks.
    pub fn free(self, pram: &mut Pram) {
        pram.free_stamped(self.fdr);
        pram.free_stamped(self.live3);
    }
}

/// Parameters of one EXPAND invocation.
#[derive(Clone, Copy, Debug)]
pub struct ExpandParams {
    /// Hash-table size `K` (power of two) — the paper's `δ^{1/3}`.
    pub table_size: usize,
    /// Number of blocks for `h_B` (power of two) — the paper's `m/b^{12}`,
    /// i.e. `ñ · K`.
    pub nblocks: usize,
    /// Keep a snapshot of all tables after every round (Theorem 2 needs
    /// `H_j(u)` for the TREE-LINK replay).
    pub snapshot: bool,
    /// Cap on step-(5) rounds (safety; `log₂ d + O(1)` suffice).
    pub round_cap: u64,
}

/// The state EXPAND leaves behind for VOTE / LINK / TREE-LINK.
pub struct Expansion {
    /// Table size `K`.
    pub k: usize,
    /// Number of blocks.
    pub nblocks: usize,
    /// All tables, `nblocks × K` cells; `H(u)` is the row of `u`'s block.
    pub tables: Handle,
    /// Block owner per block (`NULL` = unowned).
    pub owner: Handle,
    /// First-dormant-round per vertex: `NULL` = never dormant (live),
    /// `FDR_FULLY` = no block, `i + 1` = became dormant in round `i`.
    /// A block of the caller's [`ExpandScratch`] whose stale value is
    /// `NULL`: read it with `read_stamped(.., NULL)`.
    pub fdr: Stamped,
    /// The vertex→block hash.
    pub hb: PairwiseHash,
    /// The vertex→cell hash.
    pub hv: PairwiseHash,
    /// Host list of `(block, owner)` pairs (controller bookkeeping).
    pub owned: Vec<(u64, u64)>,
    /// Step-(5) rounds executed (the `O(log d)` inner loop; E11).
    pub rounds: u64,
    /// Per-round table snapshots (`snapshots[j]` = tables in round `j`),
    /// present only when requested.
    pub snapshots: Vec<Handle>,
}

impl Expansion {
    /// Address of cell `i` of `H` for block `blk` within `tables`.
    #[inline]
    pub fn cell(&self, blk: u64, i: u64) -> usize {
        blk as usize * self.k + i as usize
    }

    /// Release everything but `fdr`, which the caller's scratch owns.
    pub fn free(self, pram: &mut Pram) {
        pram.free(self.tables);
        pram.free(self.owner);
        for s in self.snapshots {
            pram.free(s);
        }
    }
}

/// Run EXPAND on the current graph (the live arcs of `st`, scheduled over
/// `live`); see module docs. The per-vertex phase arrays are the
/// driver's `scratch` blocks, refilled here by a stamp bump.
pub fn expand(
    pram: &mut Pram,
    st: &CcState,
    params: &ExpandParams,
    seed: u64,
    live: &LiveSet,
    scratch: &mut ExpandScratch,
) -> Expansion {
    let k = params.table_size;
    let nblocks = params.nblocks;
    assert!(k.is_power_of_two() && nblocks.is_power_of_two());
    let (eu, ev) = (st.eu, st.ev);
    let hb = PairwiseHash::new(seed ^ 0xB10C_B10C, nblocks as u64);
    let hv = PairwiseHash::new(seed ^ 0x7AB1_E7AB, k as u64);

    let tables = pram.alloc_filled(nblocks * k, NULL);
    let owner = pram.alloc_filled(nblocks, NULL);
    pram.host_stamped_fill(&mut scratch.fdr);
    pram.host_stamped_fill(&mut scratch.live3);
    let (fdr, live3) = (scratch.fdr, scratch.live3);

    // (There is no ongoing-flag pass: `live.verts` *is* the set of
    // non-loop-arc endpoints — Definition B.1 via Lemma B.2 — and every
    // consumer iterates it directly.)

    // Step 2: block lottery.
    pram.step_over(&live.verts, move |_, &v, ctx| {
        ctx.write(owner, hb.eval(v as u64) as usize, v as u64);
    });
    pram.step_over(&live.verts, move |_, &v, ctx| {
        if ctx.read(owner, hb.eval(v as u64) as usize) != v as u64 {
            ctx.write_stamped(fdr, v as usize, FDR_FULLY);
        }
    });
    // Record step-3 liveness (the paper's "live before Step (3)").
    pram.step_over(&live.verts, move |_, &v, ctx| {
        if ctx.read_stamped(fdr, v as usize, NULL) == NULL {
            ctx.write_stamped(live3, v as usize, 1);
        }
    });

    // Step 3: seed the tables. Self-insert...
    pram.step_over(&live.verts, move |_, &v, ctx| {
        let v = v as u64;
        if ctx.read_stamped(live3, v as usize, 0) == 1 {
            let blk = hb.eval(v);
            ctx.write(tables, blk as usize * k + hv.eval(v) as usize, v);
        }
    });
    // ...and per-arc inserts; arcs with a non-live tail mark their head
    // dormant (round 0).
    pram.step_over(&live.arcs, move |_, &ai, ctx| {
        let i = ai as usize;
        let a = ctx.read(eu, i);
        let b = ctx.read(ev, i);
        if a == b {
            return;
        }
        if ctx.read_stamped(live3, a as usize, 0) == 1 {
            let blk = hb.eval(a);
            ctx.write(tables, blk as usize * k + hv.eval(b) as usize, b);
        } else if ctx.read_stamped(fdr, b as usize, NULL) == NULL {
            ctx.write_stamped(fdr, b as usize, 1);
        }
    });

    // Step 4: collision detection for every hash done in step 3.
    pram.step_over(&live.verts, move |_, &v, ctx| {
        let v = v as u64;
        if ctx.read_stamped(live3, v as usize, 0) == 1 {
            let blk = hb.eval(v);
            if ctx.read(tables, blk as usize * k + hv.eval(v) as usize) != v {
                ctx.write_stamped(fdr, v as usize, 1);
            }
        }
    });
    pram.step_over(&live.arcs, move |_, &ai, ctx| {
        let i = ai as usize;
        let a = ctx.read(eu, i);
        let b = ctx.read(ev, i);
        if a == b || ctx.read_stamped(live3, a as usize, 0) != 1 {
            return;
        }
        let blk = hb.eval(a);
        if ctx.read(tables, blk as usize * k + hv.eval(b) as usize) != b {
            ctx.write_stamped(fdr, a as usize, 1);
        }
    });

    // Host list of owned blocks (controller bookkeeping; frozen from here).
    let owned: Vec<(u64, u64)> = pram
        .view(owner)
        .iter()
        .enumerate()
        .filter_map(|(blk, u)| (u != NULL).then_some((blk as u64, u)))
        .collect();

    let mut snapshots = Vec::new();
    let snap = |pram: &mut Pram, snapshots: &mut Vec<Handle>| {
        if params.snapshot {
            let copy = pram.alloc(nblocks * k);
            pram.host_copy(tables, copy);
            pram.charge(nblocks * k, 1); // the copy is a real parallel step
            snapshots.push(copy);
        }
    };
    snap(pram, &mut snapshots); // H_0

    // Step 5: squaring rounds, double-buffered exactly as the paper
    // prescribes ("storing the old tables for all vertices while hashing
    // new items into the new table"): reads come from the frozen previous
    // round, writes and collision checks hit the current table. The
    // progress flag covers both new table occupancy *and* new dormancy, so
    // the loop only exits once dormancy has fully propagated — this is
    // what makes VOTE's live case ("live ⇒ table = whole component")
    // deterministic at loop exit.
    let progress = Flag::new(pram);
    let old = pram.alloc(nblocks * k);
    let mut rounds = 0;
    loop {
        if rounds >= params.round_cap {
            break;
        }
        let round_mark = rounds + 2; // fdr encoding for "dormant in round i"
        progress.clear(pram);
        pram.host_copy(tables, old);
        // The double-buffer copy is a real step.
        pram.charge(nblocks * k, 1);
        // (5a) propagate dormancy + rehash H(v) for v ∈ H(u) into H(u).
        pram.step(owned.len() * k * k, |pp, ctx| {
            let idx = (pp as usize) / (k * k);
            let rem = (pp as usize) % (k * k);
            let (p, q) = (rem / k, rem % k);
            let (blk, u) = owned[idx];
            let v = ctx.read(old, blk as usize * k + p);
            if v == NULL {
                return;
            }
            if q == 0
                && ctx.read_stamped(fdr, v as usize, NULL) != NULL
                && ctx.read_stamped(fdr, u as usize, NULL) == NULL
            {
                ctx.write_stamped(fdr, u as usize, round_mark);
                progress.raise(ctx);
            }
            // H(v) exists only if v owns its block.
            let blkv = hb.eval(v);
            if ctx.read(owner, blkv as usize) != v {
                return;
            }
            let w = ctx.read(old, blkv as usize * k + q);
            if w == NULL {
                return;
            }
            let dst = blk as usize * k + hv.eval(w) as usize;
            if ctx.read(tables, dst) == NULL {
                progress.raise(ctx);
            }
            ctx.write(tables, dst, w);
        });
        // (5b) collision detection for exactly the hashes done in (5a):
        // the sources are re-derived from the same frozen buffer.
        pram.step(owned.len() * k * k, |pp, ctx| {
            let idx = (pp as usize) / (k * k);
            let rem = (pp as usize) % (k * k);
            let (p, q) = (rem / k, rem % k);
            let (blk, u) = owned[idx];
            let v = ctx.read(old, blk as usize * k + p);
            if v == NULL {
                return;
            }
            let blkv = hb.eval(v);
            if ctx.read(owner, blkv as usize) != v {
                return;
            }
            let w = ctx.read(old, blkv as usize * k + q);
            if w == NULL {
                return;
            }
            if ctx.read(tables, blk as usize * k + hv.eval(w) as usize) != w
                && ctx.read_stamped(fdr, u as usize, NULL) == NULL
            {
                ctx.write_stamped(fdr, u as usize, round_mark);
                progress.raise(ctx);
            }
        });
        rounds += 1;
        snap(pram, &mut snapshots); // H_rounds
        if !progress.read(pram) {
            break;
        }
    }
    pram.free(old);
    progress.free(pram);

    Expansion {
        k,
        nblocks,
        tables,
        owner,
        fdr,
        hb,
        hv,
        owned,
        rounds,
        snapshots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::gen;
    use pram_sim::WritePolicy;
    use std::collections::HashSet;

    fn params(g: &cc_graph::Graph, k: usize, snapshot: bool) -> ExpandParams {
        ExpandParams {
            table_size: k,
            nblocks: (4 * g.n()).next_power_of_two(),
            snapshot,
            round_cap: 24,
        }
    }

    fn setup(g: &cc_graph::Graph, k: usize, seed: u64, snapshot: bool) -> (Pram, Expansion) {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let st = CcState::init(&mut pram, g);
        let live = LiveSet::full(&mut pram, &st);
        let mut scratch = ExpandScratch::new(&mut pram, st.n);
        let params = params(g, k, snapshot);
        let e = expand(&mut pram, &st, &params, seed, &live, &mut scratch);
        (pram, e)
    }

    /// Host view of every vertex's `fdr`.
    fn fdr_vec(pram: &Pram, e: &Expansion) -> Vec<u64> {
        (0..e.fdr.values.len())
            .map(|v| pram.get_stamped(e.fdr, v, NULL))
            .collect()
    }

    /// Host view of H(u) for an owner u.
    fn table_of(pram: &Pram, e: &Expansion, u: u64) -> HashSet<u64> {
        let blk = e.hb.eval(u);
        assert_eq!(pram.get(e.owner, blk as usize), u);
        (0..e.k)
            .map(|i| pram.get(e.tables, blk as usize * e.k + i))
            .filter(|&x| x != NULL)
            .collect()
    }

    #[test]
    fn live_vertices_learn_their_whole_component() {
        // Big tables, tiny components: everyone should stay live and learn
        // the full component (Lemma B.7 extreme).
        let g = gen::union_all(&[gen::path(6), gen::cycle(5)]);
        let (pram, e) = setup(&g, 64, 3, false);
        let fdr = fdr_vec(&pram, &e);
        for u in 0..g.n() as u64 {
            if fdr[u as usize] != NULL {
                continue; // unlucky block loser; allowed
            }
            let t = table_of(&pram, &e, u);
            let comp: HashSet<u64> = if u < 6 {
                (0..6).collect()
            } else {
                (6..11).collect()
            };
            assert_eq!(t, comp, "vertex {u}");
        }
    }

    #[test]
    fn rounds_scale_with_diameter() {
        let short = setup(&gen::complete(12), 64, 5, false).1.rounds;
        let long = setup(&gen::path(200), 512, 5, false).1.rounds;
        assert!(long > short, "short={short} long={long}");
        // log2(200) ≈ 7.6 — a couple of extra rounds for the final no-op.
        assert!(long <= 12, "long={long}");
    }

    #[test]
    fn tiny_tables_force_dormancy_in_big_component() {
        // K = 4 but the component has 40 vertices: collisions are
        // inevitable, so plenty of vertices must be dormant — and dormancy
        // must propagate (every live survivor has a full view, which is
        // impossible at K=4 < 40, so in fact *all* become dormant).
        let g = gen::cycle(40);
        let (pram, e) = setup(&g, 4, 7, false);
        let fdr = fdr_vec(&pram, &e);
        let dormant = fdr.iter().filter(|&&x| x != NULL).count();
        assert_eq!(dormant, 40, "all of the 40-cycle must go dormant at K=4");
    }

    #[test]
    fn fdr_records_first_round_monotonically() {
        let g = gen::path(100);
        let (pram, e) = setup(&g, 8, 11, false);
        let fdr = fdr_vec(&pram, &e);
        for (v, &x) in fdr.iter().enumerate() {
            assert!(
                x == NULL || x <= e.rounds + 1,
                "vertex {v}: fdr {x} beyond executed rounds {}",
                e.rounds
            );
        }
    }

    #[test]
    fn snapshots_are_monotone_in_occupancy() {
        let (pram, e) = setup(&gen::path(40), 64, 5, true);
        assert_eq!(e.snapshots.len() as u64, e.rounds + 1);
        for w in e.snapshots.windows(2) {
            let prev = pram.read_vec(w[0]);
            let next = pram.read_vec(w[1]);
            let p = prev.iter().filter(|&&x| x != NULL).count();
            let n2 = next.iter().filter(|&&x| x != NULL).count();
            assert!(n2 >= p, "occupancy shrank between rounds");
        }
    }

    #[test]
    fn reused_scratch_matches_a_fresh_one_under_priority_policies() {
        // A K=4 phase with a block per vertex marks every vertex dormant
        // after most won its lottery, so the scratch's fdr and liveness
        // cells hold values from that phase. The next phase has fewer
        // blocks than vertices, so some of those winners lose its lottery
        // and must not look live. The refill must hide all of it: under a
        // pid-only priority policy (address-independent write resolution,
        // and EXPAND flips no coins) the phase must record exactly what it
        // records on a fresh scratch, cell for cell.
        let g = gen::gnm(300, 900, 13);
        for policy in [WritePolicy::PriorityMin, WritePolicy::PriorityMax] {
            for seed in [1u64, 9, 42] {
                let run = |reuse: bool| {
                    let mut pram = Pram::new(policy);
                    let st = CcState::init(&mut pram, &g);
                    let live = LiveSet::full(&mut pram, &st);
                    let mut scratch = ExpandScratch::new(&mut pram, st.n);
                    if reuse {
                        let e = expand(
                            &mut pram,
                            &st,
                            &params(&g, 4, false),
                            seed ^ 0xD0,
                            &live,
                            &mut scratch,
                        );
                        let fdr = fdr_vec(&pram, &e);
                        assert!(
                            live.verts.iter().all(|&v| fdr[v as usize] != NULL),
                            "the K=4 phase left a live vertex (policy {policy:?} seed {seed})"
                        );
                        e.free(&mut pram);
                    }
                    let e = expand(
                        &mut pram,
                        &st,
                        &ExpandParams {
                            nblocks: 256,
                            ..params(&g, 16, false)
                        },
                        seed,
                        &live,
                        &mut scratch,
                    );
                    (fdr_vec(&pram, &e), e.rounds)
                };
                assert_eq!(run(true), run(false), "policy {policy:?} seed {seed}");
            }
        }
    }

    #[test]
    fn non_ongoing_vertices_stay_out() {
        // Only endpoints of non-loop arcs are ongoing: the live set — the
        // list every EXPAND step iterates — covers exactly the vertices
        // with real edges (all of them here), and contracting a vertex's
        // arcs to loops removes it.
        let g = gen::union_all(&[gen::path(5), gen::path(3)]);
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(9));
        let st = CcState::init(&mut pram, &g);
        let mut live = LiveSet::full(&mut pram, &st);
        assert_eq!(live.verts.len(), g.n()); // all have real edges here
                                             // Contract vertex 0's arcs to loops: it leaves the ongoing set.
        let eu = pram.read_vec(st.eu);
        let ev = pram.read_vec(st.ev);
        for i in 0..st.arcs {
            if eu[i] == 0 || ev[i] == 0 {
                pram.set(st.eu, i, 1);
                pram.set(st.ev, i, 1);
            }
        }
        live.refresh(&mut pram, &st);
        assert!(!live.verts.contains(&0));
    }
}
