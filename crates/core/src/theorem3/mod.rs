//! **Theorem 3** — Faster Connected Components in
//! `O(log d + log log_{m/n} n)` (§3 / §D of the paper):
//!
//! ```text
//! COMPACT;
//! repeat { EXPAND-MAXLINK } until diameter ≤ 1 and all trees flat;
//! run the Theorem-1 algorithm on the remaining graph.
//! ```
//!
//! * `COMPACT` (§D): Vanilla phases shrink the ongoing-vertex count, then
//!   approximate compaction renames the survivors so every one of them can
//!   own a level-1 block of size `b₁` (Assumption 3.1).
//! * Each round runs Steps (1)–(8) of `round` (EXPAND-MAXLINK): MAXLINK
//!   toward higher levels, random and collision-triggered level raises,
//!   same-budget table hashing, and table squaring. The level/budget
//!   machinery (`b_ℓ = b₁^{κ^{ℓ-1}}`, non-roots frozen — Lemma 3.2/D.4) is
//!   what turns the multiplicative `log d · log log n` of Theorem 1 into
//!   the additive `log d + log log n`.
//! * The break condition is the O(1) test of §3.3: no parent/level change
//!   and transitively-closed tables; when it fires the root graph has
//!   diameter ≤ 1 and the Theorem-1 postprocess finishes in
//!   `O(log log_{m/n} n)`.
//!
//! The driver's output is verified against ground truth in every test; a
//! safety round cap (counted by E6, never silently ignored) falls through
//! to the always-correct postprocess.

mod maxlink;
mod round;
mod tables;

use crate::live::LiveSet;
use crate::metrics::{RoundMetrics, RunReport, StopReason};
use crate::state::CcState;
use crate::theorem1::{self, Theorem1Params};
use crate::vanilla::vanilla_phase;
use crate::verify;
use cc_graph::Graph;
use pram_kit::compaction::{compact, CompactionMode};
use pram_kit::ops::{alter_over, shortcut_until_flat_over};
use pram_sim::{Pram, NULL};
use round::{expand_maxlink_round, FasterState, LiveIndex, RoundScratch};
use std::collections::HashMap;
use tables::TableHeap;

/// Tunable parameters (paper values in brackets; see crate docs on
/// parameter substitution).
#[derive(Clone, Debug)]
pub struct FasterParams {
    /// Initial budget `b₁` (power of four; 0 = auto from post-COMPACT
    /// density) [paper: `max(m/n, log^c n)/log² n`, `c = 200`].
    pub b1: u64,
    /// Budget growth exponent: `b_{ℓ+1} = b_ℓ^κ` [paper: κ = 1.01; default
    /// 1.5 — fast enough for double-exponential progress at laptop scale,
    /// gentle enough that a root's block never jumps from "small" straight
    /// to the `~n²` ceiling, which is what keeps per-round work near `O(m)`
    /// (E9). κ = 2 and 4 are exercised by the E10 ablation].
    pub kappa: f64,
    /// Budget ceiling (0 = auto) [paper: implicitly `poly(n)`].
    pub max_budget: u64,
    /// Step-2 sampling probability `min(sample_cap, sample_coeff /
    /// b^sample_exp)` [paper: `10 log n / b^{0.1}`].
    pub sample_coeff: f64,
    /// Exponent in the sampling probability [paper: 0.1].
    pub sample_exp: f64,
    /// Cap on the sampling probability.
    pub sample_cap: f64,
    /// Disable Step 2 entirely (E10 ablation).
    pub enable_sampling: bool,
    /// MAXLINK iterations per invocation [paper: 2] (E10 ablation).
    pub maxlink_iters: u32,
    /// Density PREPARE inside COMPACT must reach (0 disables the Vanilla
    /// prefix) [paper: `log^c n`].
    pub compact_delta0: f64,
    /// Round cap (0 = auto); hitting it is recorded, never hidden.
    pub round_cap: u64,
    /// Live-work scheduling: every `dedup_every` rounds the compacted
    /// live-arc index is also deduplicated by endpoint pair (ALTER maps
    /// many arcs onto the same root pair as components merge), so
    /// simulated steps pay for *distinct* live arcs. 0 disables dedup;
    /// loop filtering always runs. Purely a work/wall-clock knob — labels
    /// are unaffected (duplicate arcs write identical candidates).
    pub dedup_every: u64,
    /// Parameters of the Theorem-1 postprocess.
    pub postprocess: Theorem1Params,
}

impl Default for FasterParams {
    fn default() -> Self {
        FasterParams {
            b1: 0,
            kappa: 1.5,
            max_budget: 0,
            sample_coeff: 1.0,
            sample_exp: 0.3,
            sample_cap: 0.15,
            enable_sampling: true,
            maxlink_iters: 2,
            compact_delta0: 4.0,
            round_cap: 0,
            dedup_every: 4,
            postprocess: Theorem1Params::default(),
        }
    }
}

/// Round a value up to a power of four.
fn pow4_at_least(x: u64) -> u64 {
    let mut b = 4u64;
    while b < x {
        b <<= 2;
    }
    b
}

impl FasterParams {
    /// The budget schedule `budgets[ℓ]` (powers of four), `budgets[0] = 0`.
    fn budget_schedule(&self, n: usize, m: usize, ongoing: usize) -> Vec<u64> {
        let b1 = if self.b1 > 0 {
            pow4_at_least(self.b1)
        } else {
            let density = (m.max(1) as u64 / ongoing.max(1) as u64).clamp(16, 256);
            pow4_at_least(density)
        };
        let max_budget = if self.max_budget > 0 {
            pow4_at_least(self.max_budget)
        } else {
            // Budget ceiling: the paper's design needs the top-level table
            // `√b_L` to hold a whole component's root set (Lemma 3.19 gives
            // `b_L ≥ n⁴`; here `b_L ≈ 4n²`, i.e. tables of ~2n cells),
            // otherwise the §3.3 break condition can never fire on stubborn
            // inputs. A hard memory lid of 4M words bounds the footprint on
            // big inputs; if it ever binds the run falls through to the
            // always-correct postprocess (counted by E6).
            let cap = (4 * (n as u64) * (n as u64)).min(1 << 22);
            pow4_at_least(cap.max(4 * b1))
        };
        let mut budgets = vec![0, b1];
        loop {
            let last = *budgets.last().unwrap();
            if last >= max_budget {
                break;
            }
            let next = pow4_at_least((last as f64).powf(self.kappa).min(max_budget as f64) as u64)
                .min(max_budget)
                .max(last << 2); // strictly increasing even for κ near 1
            budgets.push(next);
        }
        budgets
    }
}

/// Full report of a Theorem-3 run.
#[derive(Clone, Debug)]
pub struct FasterReport {
    /// Main-loop report; `run.rounds` counts EXPAND-MAXLINK rounds and
    /// `run.labels` is the final verified labeling.
    pub run: RunReport,
    /// The Theorem-1 postprocess report (labels empty).
    pub post: RunReport,
    /// Retry rounds the initial approximate compaction needed.
    pub compaction_rounds: u64,
    /// Peak table-heap words over the run — the E4 measurement.
    pub table_peak_words: u64,
    /// Charged work of the whole postprocess (frontier flatten, final
    /// ALTER, remaining-graph materialization/rename, and the Theorem-1
    /// run on the renamed subproblem). With the postprocess folded onto
    /// the live lists this is o(n + m) once the frontier has shrunk — the
    /// regression guard in `tests/live_work.rs` pins it.
    pub post_work: u64,
}

/// Reusable host-side buffers for repeated [`faster_cc_with`] runs: the
/// live-work index, the per-round scratch, and the persistent-table
/// mirror survive between runs with their capacity intact, so a bench rep
/// (or a service resolving many queries) re-fills warm vectors instead of
/// re-growing them from nothing. Pairs with [`Pram::reset_for_run`] on the
/// machine side; a fresh workspace behaves exactly like none at all.
#[derive(Default)]
pub struct FasterWorkspace {
    live: Option<LiveIndex>,
    scratch: Option<RoundScratch>,
    host_tbl: Option<Vec<Option<(u64, u32)>>>,
}

impl FasterWorkspace {
    /// An empty workspace (first run allocates, later runs reuse).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Run Theorem 3's Faster Connected Components on `g`.
pub fn faster_cc(pram: &mut Pram, g: &Graph, seed: u64, params: &FasterParams) -> FasterReport {
    let mut ws = FasterWorkspace::new();
    faster_cc_with(pram, g, seed, params, &mut ws)
}

/// [`faster_cc`] with caller-owned reusable buffers (see
/// [`FasterWorkspace`]). Buffer reuse is capacity-only: results and
/// charged costs are identical to a fresh-workspace run.
pub fn faster_cc_with(
    pram: &mut Pram,
    g: &Graph,
    seed: u64,
    params: &FasterParams,
    ws: &mut FasterWorkspace,
) -> FasterReport {
    let st = CcState::init(pram, g);
    let n = st.n;
    let m = g.m();
    let mut per_round = Vec::new();

    // ------------------------------------------------------------ COMPACT
    // Vanilla prefix until the density target (the paper's PREPARE inside
    // COMPACT), then approximate compaction renames the ongoing vertices
    // (providing the distinct ids of Assumption 3.1). The prefix runs on a
    // LiveSet so its phases and its ongoing counts are charged at live
    // sizes (the previous host count was an O(n + m) scan per phase).
    let leader = pram.alloc(n);
    let mut prefix_live = LiveSet::full(pram, &st);
    let mut prepare_rounds = 0;
    let prep_cap = 4 + 2 * ((n.max(4) as f64).log2().log2().ceil() as u64);
    while params.compact_delta0 > 0.0 && prepare_rounds < prep_cap {
        let ongoing = prefix_live.verts.len();
        if ongoing == 0 || (m as f64) / (ongoing as f64) >= params.compact_delta0 {
            break;
        }
        prepare_rounds += 1;
        vanilla_phase(
            pram,
            &st,
            &prefix_live,
            leader,
            seed ^ 0xC0_4AC7 ^ prepare_rounds,
        );
        prefix_live.refresh(pram, &st);
    }
    pram.free(leader);

    let ongoing_now = prefix_live.verts.len();
    drop(prefix_live);
    let compaction_rounds = {
        // Rename ongoing vertices via approximate compaction (Lemma D.3).
        let active = pram.alloc_filled(n, 0);
        let eu = st.eu;
        let ev = st.ev;
        pram.step(st.arcs, |i, ctx| {
            let i = i as usize;
            let a = ctx.read(eu, i);
            let b = ctx.read(ev, i);
            if a != b {
                ctx.write(active, a as usize, 1);
                ctx.write(active, b as usize, 1);
            }
        });
        let res = compact(pram, active, seed ^ 0xC0317AC7, CompactionMode::ChargedO1)
            .expect("approximate compaction failed");
        let rounds = res.rounds;
        res.free(pram);
        pram.free(active);
        rounds
    };

    // ---------------------------------------------------- state init
    let budgets = params.budget_schedule(n, m, ongoing_now.max(1));
    let lmax = budgets.len() - 1;
    let b1 = budgets[1];
    let level = pram.alloc_filled(n, 0);
    let budget = pram.alloc_filled(n, 0);
    {
        let eu = st.eu;
        let ev = st.ev;
        // Assumption 3.1: every ongoing vertex starts at level 1 with a
        // b₁-sized block.
        pram.step(st.arcs, move |i, ctx| {
            let i = i as usize;
            let a = ctx.read(eu, i);
            let b = ctx.read(ev, i);
            if a != b {
                ctx.write(level, a as usize, 1);
                ctx.write(level, b as usize, 1);
                ctx.write(budget, a as usize, b1);
                ctx.write(budget, b as usize, b1);
            }
        });
    }
    let heap = TableHeap::new(pram, (4 * m).max(1024));
    let mut fs = FasterState {
        st,
        level,
        budget,
        eoff: pram.alloc_filled(n, NULL),
        t3off: pram.alloc_filled(n, NULL),
        t5off: pram.alloc_filled(n, NULL),
        dormant: pram.alloc_filled(n, 0),
        raised2: pram.alloc_filled(n, 0),
        heap,
        lmax,
        budgets,
        host_tbl: {
            // Reuse the workspace mirror when present: clear + resize
            // rewrites the same backing store instead of reallocating.
            let mut tbl = ws.host_tbl.take().unwrap_or_default();
            tbl.clear();
            tbl.resize(n, None);
            tbl
        },
        live: match ws.live.take() {
            Some(mut live) => {
                live.reset_for(n);
                live
            }
            None => LiveIndex::new(n),
        },
        scratch: match ws.scratch.take() {
            Some(mut scratch) => {
                scratch.reset_for(n);
                scratch
            }
            None => RoundScratch::new(n),
        },
    };
    // Seed the live-work index: the one O(m) pass; every per-round refresh
    // scans only the surviving lists.
    fs.live
        .init_from_arcs(pram, &fs.st, params.dedup_every > 0, seed ^ 0x11FE_11FE);
    fs.live.max_level_seen = if fs.live.verts.is_empty() { 0 } else { 1 };

    // ------------------------------------------------- EXPAND-MAXLINK loop
    let round_cap = if params.round_cap > 0 {
        params.round_cap
    } else {
        48 + 4 * (n.max(2) as f64).log2().ceil() as u64
    };
    let mut stop = StopReason::RoundCap;
    let mut rounds = 0;
    while rounds < round_cap {
        rounds += 1;
        let work_before = pram.stats().work;
        let outcome = expand_maxlink_round(pram, &mut fs, params, seed, rounds);
        let round_work = pram.stats().work - work_before;
        per_round.push(RoundMetrics {
            round: rounds,
            // Ongoing roots from the live index — the previous full-parent
            // host scan was the last per-round O(n) term.
            roots: fs.live.roots.len(),
            ongoing: outcome.ongoing,
            max_level: outcome.max_level,
            dormant: outcome.dormant,
            table_words: outcome.table_live,
            work: round_work - outcome.compaction_work,
            compaction_work: outcome.compaction_work,
            live_arcs: outcome.live_arcs,
            ..Default::default()
        });
        #[cfg(any(test, feature = "strict"))]
        assert_invariants(pram, &fs);
        if !outcome.changed && !outcome.ii_violated {
            stop = StopReason::Converged;
            break;
        }
    }

    // ------------------------------------------------------- postprocess
    // Folded into the final round's compacted state (the ROADMAP
    // "postprocess cost" item): flattening, the final ALTER, and the
    // remaining-graph materialization all run over the live lists, so
    // post-convergence work is charged at the surviving frontier — o(n+m)
    // once the main loop has shrunk it — never as full n/m sweeps.
    // Finished vertices keep stale (possibly non-flat) parents; the final
    // labeling chases roots host-side (`labels_rooted`), which is
    // controller bookkeeping exactly like the paper's output convention.
    let post_work0 = pram.stats().work;
    shortcut_until_flat_over(pram, fs.st.parent, &fs.live.verts);
    alter_over(pram, fs.st.eu, fs.st.ev, fs.st.parent, &fs.live.arcs);
    let post = postprocess_remaining(pram, &fs, seed, params);
    let post_work = pram.stats().work - post_work0;

    debug_assert!(
        verify::forest_heights(&pram.read_vec(fs.st.parent)).is_ok(),
        "Theorem 3 produced a cyclic labeled digraph"
    );
    let labels = fs.st.labels_rooted(pram);
    let stats = pram.stats();
    let table_peak_words = fs.heap.peak_words() as u64;

    // Tear down; the host-side buffers go back to the workspace.
    let (p, e1, e2) = (fs.st.parent, fs.st.eu, fs.st.ev);
    let (live, scratch, host_tbl) = fs.free(pram); // machine handles freed; CcState untouched
    ws.live = Some(live);
    ws.scratch = Some(scratch);
    ws.host_tbl = Some(host_tbl);
    pram.free(e1);
    pram.free(e2);
    pram.free(p);

    FasterReport {
        run: RunReport {
            labels,
            rounds,
            prepare_rounds,
            stop,
            stats,
            per_round,
        },
        post,
        compaction_rounds,
        table_peak_words,
        post_work,
    }
}

/// The Theorem-1 postprocess over the *remaining* graph, materialized from
/// the live lists instead of full-array sweeps.
///
/// The remaining connectivity lives entirely in the live arcs (dropped
/// arcs were loops or duplicates when dropped, and stay so — ALTER maps
/// loops to loops and duplicates to duplicates) and the live table cells
/// (dropped cells had NULL/self values or endpoints that already shared a
/// parent, i.e. were already connected). Both lists sit on roots after the
/// frontier flatten + ALTER above, so the root graph they induce is
/// renamed onto `[0, k)` (the Lemma-D.2 rename, charged at the root
/// count), solved by Theorem 1 on a k-vertex state, and linked back with
/// one charged step: each remaining root hooks onto its component's
/// representative root. An empty frontier skips all of it.
fn postprocess_remaining(
    pram: &mut Pram,
    fs: &FasterState,
    seed: u64,
    params: &FasterParams,
) -> RunReport {
    // Host mirror of the compacted remaining graph (charged below as the
    // materialization copy).
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    {
        let eu = pram.view(fs.st.eu);
        let ev = pram.view(fs.st.ev);
        for &i in &fs.live.arcs {
            let (a, b) = (eu.get(i as usize), ev.get(i as usize));
            if a != b {
                pairs.push((a, b));
            }
        }
    }
    {
        let eo = pram.view(fs.eoff);
        let hw = pram.view(fs.heap.handle());
        let parents = pram.view(fs.st.parent);
        for &(x, c) in &fs.live.table_cells {
            let off = eo.get(x as usize);
            if off == NULL {
                continue;
            }
            let w = hw.get(off as usize + c as usize);
            if w == NULL || w == x as u64 {
                continue;
            }
            let (a, b) = (parents.get(x as usize), parents.get(w as usize));
            if a != b {
                pairs.push((a, b));
                pairs.push((b, a));
            }
        }
    }
    if pairs.is_empty() {
        // Fully converged: nothing remains; the postprocess is free.
        return RunReport {
            labels: Vec::new(),
            rounds: 0,
            prepare_rounds: 0,
            stop: StopReason::Converged,
            stats: pram.stats(),
            per_round: Vec::new(),
        };
    }

    // Rename the remaining roots onto [0, k) — approximate compaction
    // (Lemma D.2), charged at the root count; the map is deterministic
    // first-seen order. Then deduplicate the renamed pairs (one charged
    // hashing pass, the same discipline as the round dedup): thousands of
    // live table cells can name the same root pair, and without this the
    // postprocess would re-iterate every duplicate in every Theorem-1
    // phase — the dedup is what keeps the whole postprocess an
    // O(frontier) emission plus a solve on the (tiny) distinct root graph.
    let mut rep_of: HashMap<u64, u32> = HashMap::with_capacity(pairs.len());
    let mut reps: Vec<u64> = Vec::new();
    let mut rename = |v: u64, reps: &mut Vec<u64>| -> u64 {
        *rep_of.entry(v).or_insert_with(|| {
            reps.push(v);
            (reps.len() - 1) as u32
        }) as u64
    };
    let n2 = {
        let mut renamed = Vec::with_capacity(pairs.len());
        for &(a, b) in &pairs {
            renamed.push((rename(a, &mut reps), rename(b, &mut reps)));
        }
        pairs = renamed;
        reps.len()
    };
    pram.charge(n2, 4); // the rename
    pram.charge(pairs.len(), 1); // the materialization copy
    {
        let emitted = pairs.len();
        let mut set = pram_kit::PairSet::with_capacity(seed ^ 0xDED0_9057, pairs.len());
        pairs.retain(|&(a, b)| set.insert(a, b));
        pram.charge(emitted, 2); // the dedup hashing pass
    }

    let sub_parent = pram.alloc(n2);
    for v in 0..n2 {
        pram.set(sub_parent, v, v as u64);
    }
    let eu2 = pram.alloc(pairs.len());
    let ev2 = pram.alloc(pairs.len());
    for (i, &(a, b)) in pairs.iter().enumerate() {
        pram.set(eu2, i, a);
        pram.set(ev2, i, b);
    }
    let post_state = CcState {
        n: n2,
        arcs: pairs.len(),
        parent: sub_parent,
        eu: eu2,
        ev: ev2,
    };
    let post = theorem1::connected_components_on_state(
        pram,
        &post_state,
        seed ^ 0x9057_9057,
        &params.postprocess,
        (pairs.len() / 2).max(1),
    );

    // Link every remaining root to its component's representative (one
    // charged step over the k renamed roots). Representatives stay their
    // own roots, so the labeled digraph remains a forest.
    let sub_labels = post_state.labels_rooted(pram);
    {
        let parent = fs.st.parent;
        let reps_ref: &[u64] = &reps;
        let labels_ref: &[u32] = &sub_labels;
        pram.step(n2, move |p, ctx| {
            let i = p as usize;
            let r = labels_ref[i] as usize;
            if r != i {
                ctx.write(parent, reps_ref[i] as usize, reps_ref[r]);
            }
        });
    }
    pram.free(sub_parent);
    pram.free(eu2);
    pram.free(ev2);
    post
}

/// Lemma 3.2 / D.4 and digraph sanity, asserted per round in tests and
/// under the `strict` feature.
#[cfg(any(test, feature = "strict"))]
fn assert_invariants(pram: &Pram, fs: &FasterState) {
    let parents = pram.read_vec(fs.st.parent);
    let levels = pram.read_vec(fs.level);
    verify::forest_heights(&parents).expect("labeled digraph contains a cycle");
    for (v, (&p, &l)) in parents.iter().zip(&levels).enumerate() {
        // §D.1: vertices of components finished during COMPACT (parent
        // level 0) are ignored — their trees are inert.
        if p != v as u64 && levels[p as usize] > 0 {
            assert!(
                levels[p as usize] > l,
                "Lemma 3.2 violated: non-root {v} level {l} parent {p} level {}",
                levels[p as usize]
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_labels;
    use cc_graph::gen;
    use pram_sim::WritePolicy;

    fn run(g: &Graph, seed: u64, params: &FasterParams) -> FasterReport {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        faster_cc(&mut pram, g, seed, params)
    }

    #[test]
    fn correct_on_basic_shapes() {
        let params = FasterParams::default();
        for g in [
            gen::path(50),
            gen::cycle(33),
            gen::star(40),
            gen::complete(16),
            gen::grid(6, 8),
            gen::union_all(&[gen::path(11), gen::cycle(8), gen::complete(5)]),
        ] {
            let report = run(&g, 7, &params);
            check_labels(&g, &report.run.labels)
                .unwrap_or_else(|e| panic!("graph n={} m={}: {e}", g.n(), g.m()));
        }
    }

    #[test]
    fn correct_on_random_graphs_multiple_seeds() {
        let params = FasterParams::default();
        for seed in 0..5 {
            let g = gen::gnm(300, 1200, seed);
            let report = run(&g, seed * 17 + 3, &params);
            check_labels(&g, &report.run.labels).unwrap();
        }
    }

    #[test]
    fn workspace_and_machine_reuse_replay_bit_identically() {
        // One machine + one workspace across reps must equal fresh
        // machine/workspace runs — the bench-loop reuse contract.
        let params = FasterParams::default();
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(21));
        let mut ws = FasterWorkspace::new();
        let mut reused = Vec::new();
        for seed in 0..3u64 {
            // Different graphs per rep to exercise size-changing resets.
            let g = gen::gnm(200 + 40 * seed as usize, 800, seed);
            pram.reset_for_run();
            let rep = faster_cc_with(&mut pram, &g, seed, &params, &mut ws);
            reused.push((rep.run.labels, rep.run.rounds, rep.run.stats));
        }
        for seed in 0..3u64 {
            let g = gen::gnm(200 + 40 * seed as usize, 800, seed);
            let mut fresh = Pram::new(WritePolicy::ArbitrarySeeded(21));
            let rep = faster_cc(&mut fresh, &g, seed, &params);
            let (labels, rounds, stats) = &reused[seed as usize];
            assert_eq!(&rep.run.labels, labels);
            assert_eq!(rep.run.rounds, *rounds);
            assert_eq!(&rep.run.stats, stats);
        }
    }

    #[test]
    fn correct_under_all_policies() {
        let g = gen::gnm(250, 900, 5);
        let params = FasterParams::default();
        for policy in [
            WritePolicy::ArbitrarySeeded(11),
            WritePolicy::PriorityMin,
            WritePolicy::PriorityMax,
            WritePolicy::Racy,
        ] {
            let mut pram = Pram::new(policy);
            let report = faster_cc(&mut pram, &g, 13, &params);
            check_labels(&g, &report.run.labels).unwrap();
        }
    }

    #[test]
    fn converges_and_rounds_scale_with_log_diameter() {
        let params = FasterParams::default();
        let short = run(&gen::clique_chain(4, 8), 3, &params);
        let long = run(&gen::clique_chain(128, 4), 3, &params);
        check_labels(&gen::clique_chain(4, 8), &short.run.labels).unwrap();
        check_labels(&gen::clique_chain(128, 4), &long.run.labels).unwrap();
        assert_eq!(short.run.stop, StopReason::Converged);
        assert!(
            long.run.rounds > short.run.rounds,
            "short={} long={}",
            short.run.rounds,
            long.run.rounds
        );
        // log2(diam≈380) ≈ 8.6; generous constant.
        assert!(long.run.rounds <= 60, "rounds={}", long.run.rounds);
    }

    #[test]
    fn multi_component_mixture() {
        let g = gen::union_all(&[
            gen::gnm(150, 450, 2),
            gen::path(40),
            gen::star(25),
            gen::binary_tree(31),
        ]);
        let report = run(&g, 29, &FasterParams::default());
        check_labels(&g, &report.run.labels).unwrap();
    }

    #[test]
    fn levels_stay_below_schedule_and_budgets_track() {
        let g = gen::gnm(400, 1600, 9);
        let report = run(&g, 31, &FasterParams::default());
        check_labels(&g, &report.run.labels).unwrap();
        let max_level = report.run.max_level();
        assert!(max_level >= 1);
        // L_max for n=400: schedule 16,256,65536,... capped — small.
        assert!(max_level <= 8, "max level {max_level}");
    }

    #[test]
    fn table_space_stays_linear() {
        let g = gen::gnm(500, 2000, 4);
        let report = run(&g, 37, &FasterParams::default());
        check_labels(&g, &report.run.labels).unwrap();
        let ratio = report.table_peak_words as f64 / (2000.0);
        assert!(ratio < 32.0, "table peak / m = {ratio}");
    }

    #[test]
    fn ablation_no_sampling_still_correct() {
        let params = FasterParams {
            enable_sampling: false,
            ..Default::default()
        };
        let g = gen::gnm(200, 700, 6);
        let report = run(&g, 41, &params);
        check_labels(&g, &report.run.labels).unwrap();
    }

    #[test]
    fn ablation_single_maxlink_iteration_still_correct() {
        let params = FasterParams {
            maxlink_iters: 1,
            ..Default::default()
        };
        let g = gen::gnm(200, 700, 8);
        let report = run(&g, 43, &params);
        check_labels(&g, &report.run.labels).unwrap();
    }

    #[test]
    fn edgeless_and_tiny_graphs() {
        let params = FasterParams::default();
        let g0 = cc_graph::GraphBuilder::new(5).build();
        let report = run(&g0, 1, &params);
        check_labels(&g0, &report.run.labels).unwrap();
        let g1 = gen::path(2);
        let report = run(&g1, 1, &params);
        check_labels(&g1, &report.run.labels).unwrap();
    }

    #[test]
    fn deterministic_under_seeded_policy() {
        let g = gen::gnm(300, 1000, 2);
        let params = FasterParams::default();
        let a = run(&g, 55, &params);
        let b = run(&g, 55, &params);
        assert_eq!(a.run.labels, b.run.labels);
        assert_eq!(a.run.rounds, b.run.rounds);
    }

    #[test]
    fn budget_schedule_properties() {
        let params = FasterParams::default();
        let budgets = params.budget_schedule(10_000, 40_000, 5_000);
        assert_eq!(budgets[0], 0);
        for w in budgets[1..].windows(2) {
            assert!(w[1] > w[0], "schedule not strictly increasing: {budgets:?}");
            assert!(w[1] >= w[0] << 2, "growth below 4x: {budgets:?}");
        }
        for &b in &budgets[1..] {
            assert!(
                b.is_power_of_two() && b.trailing_zeros() % 2 == 0,
                "budget {b} is not a power of four"
            );
        }
        // The paper's L = O(log log n): the schedule is short.
        assert!(budgets.len() <= 12, "schedule too long: {budgets:?}");
    }

    #[test]
    fn budget_schedule_respects_overrides() {
        let params = FasterParams {
            b1: 64,
            max_budget: 4096,
            kappa: 2.0,
            ..Default::default()
        };
        let budgets = params.budget_schedule(1000, 4000, 500);
        assert_eq!(budgets[1], 64);
        assert_eq!(*budgets.last().unwrap(), 4096);
    }

    #[test]
    fn crew_checked_run_reports_conflicts() {
        // The algorithm leans on concurrent writes; under the CREW checker
        // it must still be correct *and* must report conflicts (i.e. it is
        // not secretly an EREW algorithm — §1's lower-bound discussion).
        let g = gen::gnm(200, 800, 3);
        let mut pram = Pram::new(WritePolicy::CrewChecked(7));
        let report = faster_cc(&mut pram, &g, 7, &FasterParams::default());
        check_labels(&g, &report.run.labels).unwrap();
        assert!(
            report.run.stats.write_conflicts > 0,
            "expected concurrent writes on a CRCW algorithm"
        );
    }
}
