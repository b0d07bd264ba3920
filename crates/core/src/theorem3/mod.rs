//! **Theorem 3** — Faster Connected Components in
//! `O(log d + log log_{m/n} n)` (§3 / §D of the paper):
//!
//! ```text
//! COMPACT;
//! repeat { EXPAND-MAXLINK } until diameter ≤ 1 and all trees flat;
//! run the Theorem-1 algorithm on the remaining graph.
//! ```
//!
//! * `COMPACT` (§D) is PREPARE plus a rename. PREPARE's Vanilla phases
//!   shrink the ongoing-vertex count; the ongoing roots are then renamed
//!   onto `[0, k)` (Lemma D.3; first-seen order here, where the paper
//!   hashes), and every later round runs on that renamed subproblem. Its
//!   `k` vertices are exactly the ongoing ones, so each starts at level 1
//!   owning a `b₁`-sized block (Assumption 3.1), and every per-vertex
//!   array of the rounds is `k` wide, not `n`.
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
//! Both renames — COMPACT's, and the postprocess's of the remaining root
//! graph — are one primitive, `rename_solve_link`: it renames a list of
//! root pairs onto `[0, k)`, deduplicates them, hands a `k`-vertex
//! [`CcState`] to a solver (the rounds and their postprocess, or
//! Theorem 1), and links every renamed root back onto its component's
//! representative in one charged step.
//!
//! **Sample, solve, then filter.** On dense inputs the contracted root
//! graph stays dense, so the rounds' live arcs plateau while the roots
//! collapse. When COMPACT's renamed subproblem holds more than
//! `4·SAMPLE_OUT` arcs per vertex (`SAMPLE_OUT = 2`), its solver runs the
//! k-out sample-and-filter of Behnezhad et al. (arXiv 1910.05385) and
//! Farhadi–Liu–Shi (arXiv 2312.02332) on the same primitive:
//!
//! 1. *Sample*: one charged step in which arc `i = (u, v)` writes `i` into
//!    cell `u·SAMPLE_OUT + h(i)` of a fresh `SAMPLE_OUT·k`-cell array (`h` a
//!    seeded splitmix hash of the arc index, never arc or CSR order);
//!    ARBITRARY resolution keeps one arc per cell, so every vertex keeps at
//!    most two of its out-arcs.
//! 2. *Solve*: the winners go through `rename_solve_link` with the rounds
//!    as the solver, each in the one orientation it was sampled in.
//! 3. *Filter*: one charged ALTER over all of the subproblem's arcs, then
//!    the live-arc compaction drops the arcs the sample already connects.
//! 4. *Solve the survivors*: the arcs left go through the primitive with
//!    the rounds again (skipped when none are left).
//!
//! Correctness never rests on the sample pass: every hook follows a real
//! arc, so its forest only merges connected vertices, and the filter
//! re-checks every arc, so whatever the sample left apart the survivor
//! pass joins. The sample runs after PREPARE, not on the whole input:
//! PREPARE's Vanilla phases already contract sparse inputs (the gate stays
//! off on paths, grids and clique chains), and a whole-input sample raises
//! the diameter the rounds face on exactly those inputs.
//!
//! The driver's output is verified against ground truth in every test; a
//! safety round cap (counted by E6, never silently ignored) falls through
//! to the always-correct postprocess.

mod maxlink;
mod round;
mod tables;

use crate::live::{arc_pairs, compact_live_arcs, extend_endpoints, LiveSet, NO_SLOT};
use crate::metrics::{RoundMetrics, RunReport, StopReason};
use crate::state::{rooted_labels, CcState};
use crate::theorem1::{self, Theorem1Params};
use crate::vanilla::vanilla_phase;
use crate::verify;
use cc_graph::Graph;
use pram_kit::ops::{alter, alter_over, shortcut_until_flat_over};
use pram_kit::PairSet;
use pram_sim::{splitmix64, Handle, Pram, Stats, NULL};
use round::{cell_edge, expand_maxlink_round, sqb_of, FasterState, LiveIndex, RoundScratch};
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
    /// Exponent in the Step-2 sampling probability `min(sample_cap,
    /// SAMPLE_COEFF / b^sample_exp)` [paper: 0.1].
    pub sample_exp: f64,
    /// Cap on the sampling probability.
    pub sample_cap: f64,
    /// Disable Step 2 entirely (E10 ablation).
    pub enable_sampling: bool,
    /// MAXLINK iterations per invocation [paper: 2] (E10 ablation).
    pub maxlink_iters: u32,
}

impl Default for FasterParams {
    fn default() -> Self {
        FasterParams {
            b1: 0,
            kappa: 1.5,
            sample_exp: 0.3,
            sample_cap: 0.15,
            enable_sampling: true,
            maxlink_iters: 2,
        }
    }
}

/// Density `m / ongoing` at which PREPARE, the Vanilla prefix of
/// COMPACT, stops [paper: `log^c n`].
const PREPARE_DENSITY: f64 = 4.0;

/// Coefficient of the Step-2 sampling probability `min(sample_cap,
/// SAMPLE_COEFF / b^sample_exp)` [paper: `10 log n`].
const SAMPLE_COEFF: f64 = 1.0;

/// Live-work scheduling: every `DEDUP_CADENCE`-th round the live-arc
/// index is also deduplicated by endpoint pair (ALTER maps many arcs onto
/// the same root pair as components merge), so simulated steps pay for
/// *distinct* live arcs. Labels are unaffected (duplicate arcs write
/// identical candidates); loop filtering runs every round.
const DEDUP_CADENCE: u64 = 4;

/// Out-arcs each vertex keeps in the sample of a dense renamed
/// subproblem. The sample runs only above `4·SAMPLE_OUT` arcs per vertex,
/// so it keeps at most half of them.
const SAMPLE_OUT: usize = 2;

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
        // Budget ceiling: the paper's design needs the top-level table
        // `√b_L` to hold a whole component's root set (Lemma 3.19 gives
        // `b_L ≥ n⁴`; here `b_L ≈ 4n²`, i.e. tables of ~2n cells),
        // otherwise the §3.3 break condition can never fire on stubborn
        // inputs. A hard memory lid of 4M words bounds the footprint on
        // big inputs; if it ever binds the run falls through to the
        // always-correct postprocess (counted by E6).
        let max_budget = pow4_at_least((4 * (n as u64) * (n as u64)).min(1 << 22).max(4 * b1));
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

/// One EXPAND-MAXLINK pass over a renamed subproblem: the rounds and
/// their postprocess (see [`FasterReport::passes`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct PassReport {
    /// EXPAND-MAXLINK rounds of the pass.
    pub rounds: u64,
    /// Charged work of the pass: its state set-up, rounds and postprocess.
    pub work: u64,
}

/// Full report of a Theorem-3 run.
#[derive(Clone, Debug)]
pub struct FasterReport {
    /// Main-loop report; `run.rounds` counts EXPAND-MAXLINK rounds over
    /// every pass (numbered on across passes in `run.per_round`) and
    /// `run.labels` is the final verified labeling.
    pub run: RunReport,
    /// The Theorem-1 postprocess report (labels empty), phases summed over
    /// the passes.
    pub post: RunReport,
    /// Vertices of COMPACT's renamed subproblem.
    pub sub_vertices: u64,
    /// Deduplicated arcs of COMPACT's renamed subproblem.
    pub sub_arcs: u64,
    /// Arcs the 2-out sample kept; 0 when the subproblem held at most
    /// `4·SAMPLE_OUT` arcs per vertex and was solved without sampling.
    pub sample_arcs: u64,
    /// Arcs the filter left between the sample's components; 0 when the
    /// sample was not taken or connected every arc.
    pub survivor_arcs: u64,
    /// One entry per pass: the subproblem's when it was not sampled, else
    /// the sample's and, if any arcs survived, the survivors'.
    pub passes: Vec<PassReport>,
    /// Always 0. COMPACT's rename is a first-seen renumbering charged at
    /// O(1) steps, not a hash-retry compaction, so it has no retry rounds;
    /// the field stays because the benchmark's per-layer metrics read it.
    pub compaction_rounds: u64,
    /// Peak table-heap words over the run — the E4 measurement.
    pub table_peak_words: u64,
    /// Charged work of the whole postprocess (frontier flatten, final
    /// ALTER, and the rename, Theorem-1 solve and link-back of the
    /// remaining root graph). With the postprocess folded onto the live
    /// lists this is o(n + m) once the frontier has shrunk — the
    /// regression guard in `tests/live_work.rs` pins it.
    pub post_work: u64,
}

/// Run Theorem 3's Faster Connected Components on `g`.
pub fn faster_cc(pram: &mut Pram, g: &Graph, seed: u64, params: &FasterParams) -> FasterReport {
    let st = CcState::init(pram, g);
    let (n, m) = (st.n, g.m());

    // ------------------------------------------------------------ COMPACT
    // PREPARE: Vanilla phases until the density target, run on a LiveSet
    // so its phases and ongoing counts are charged at live sizes. Every
    // phase ends with SHORTCUT + ALTER, so each live arc joins two roots.
    let leader = pram.alloc(n);
    let mut live = LiveSet::full(pram, &st);
    let mut prepare_rounds = 0;
    let prep_cap = 4 + 2 * ((n.max(4) as f64).log2().log2().ceil() as u64);
    while prepare_rounds < prep_cap {
        let ongoing = live.verts.len();
        if ongoing == 0 || (m as f64) / (ongoing as f64) >= PREPARE_DENSITY {
            break;
        }
        prepare_rounds += 1;
        vanilla_phase(pram, &st, &live, leader, seed ^ 0xC0_4AC7 ^ prepare_rounds);
        live.refresh(pram, &st);
    }
    pram.free(leader);

    // The rename: the live arcs' root pairs are all the rounds need, so
    // the input's arcs are freed and only `parent` stays on the machine.
    let pairs: Vec<(u64, u64)> = arc_pairs(pram, &st, &live.arcs).collect();
    drop(live);
    let CcState { parent, eu, ev, .. } = st;
    pram.free(eu);
    pram.free(ev);
    let empty = |prepare_rounds| RunReport {
        labels: Vec::new(),
        rounds: 0,
        prepare_rounds,
        stop: StopReason::Converged,
        stats: Stats::default(),
        per_round: Vec::new(),
    };
    let mut report = FasterReport {
        run: empty(prepare_rounds),
        post: empty(0),
        sub_vertices: 0,
        sub_arcs: 0,
        sample_arcs: 0,
        survivor_arcs: 0,
        passes: Vec::new(),
        compaction_rounds: 0,
        table_peak_words: 0,
        post_work: 0,
    };
    rename_solve_link(pram, parent, pairs, seed ^ 0x11FE_11FE, |pram, sub| {
        solve_compacted(pram, sub, g, seed, params, &mut report)
    });

    debug_assert!(
        verify::forest_heights(&pram.read_vec(parent)).is_ok(),
        "Theorem 3 produced a cyclic labeled digraph"
    );
    report.run.labels = rooted_labels(pram, parent);
    report.run.stats = pram.stats();
    pram.free(parent);
    report
}

/// COMPACT's solver on the renamed subproblem `sub`: the rounds, or on a
/// dense subproblem the sample-solve-filter passes of the module docs.
/// Every pass adds itself to `report`.
fn solve_compacted(
    pram: &mut Pram,
    sub: &CcState,
    g: &Graph,
    seed: u64,
    params: &FasterParams,
    report: &mut FasterReport,
) {
    (report.sub_vertices, report.sub_arcs) = (sub.n as u64, sub.arcs as u64);
    if sub.arcs <= 4 * SAMPLE_OUT * sub.n {
        return solve_rounds(pram, sub, g, seed, params, HeapStart::Input, report);
    }
    let sample = sample_out_arcs(pram, sub, seed ^ 0x5A3B_1E00);
    report.sample_arcs = sample.len() as u64;
    rename_solve_link(pram, sub.parent, sample, seed ^ 0x5A3B_11FE, |pram, s| {
        solve_rounds(pram, s, g, seed, params, HeapStart::RoundOne, report)
    });

    // The filter: the sample pass left `sub.parent` flat (every vertex a
    // root or hooked onto one), so one ALTER turns every arc into a root
    // pair, and the arcs the sample connected become loops.
    alter(pram, sub.eu, sub.ev, sub.parent);
    let all: Vec<u32> = (0..sub.arcs as u32).collect();
    let survivors = compact_live_arcs(pram, sub, &all);
    report.survivor_arcs = survivors.len() as u64;
    if !survivors.is_empty() {
        let pairs = arc_pairs(pram, sub, &survivors).collect();
        let rest_seed = seed ^ 0x5EC0_4D00;
        rename_solve_link(pram, sub.parent, pairs, rest_seed ^ 0x11FE, |pram, s| {
            solve_rounds(pram, s, g, rest_seed, params, HeapStart::RoundOne, report)
        });
    }
}

/// The 2-out sample of `sub`: one charged step in which arc `i = (u, v)`
/// writes `i` into cell `u·SAMPLE_OUT + h(i)` of a fresh
/// `SAMPLE_OUT·k`-cell array, `h(i) = splitmix64(salt ⊕ i) mod SAMPLE_OUT`.
/// The machine's write resolution keeps one arc per cell, so each vertex
/// keeps at most `SAMPLE_OUT` of its out-arcs. Returns the winners'
/// `(u, v)` pairs in cell order; reading the cells back is charged as one
/// more step, one processor per cell.
fn sample_out_arcs(pram: &mut Pram, sub: &CcState, seed: u64) -> Vec<(u64, u64)> {
    let cells = pram.alloc_filled(SAMPLE_OUT * sub.n, NULL);
    let (eu, ev) = (sub.eu, sub.ev);
    let salt = splitmix64(seed);
    pram.step(sub.arcs, move |i, ctx| {
        let u = ctx.read(eu, i as usize) as usize;
        let h = (splitmix64(salt ^ i) % SAMPLE_OUT as u64) as usize;
        ctx.write(cells, u * SAMPLE_OUT + h, i);
    });
    pram.charge(cells.len(), 1);
    let sample = {
        let (won, eu, ev) = (pram.view(cells), pram.view(eu), pram.view(ev));
        won.iter()
            .filter(|&i| i != NULL)
            .map(|i| (eu.get(i as usize), ev.get(i as usize)))
            .collect()
    };
    pram.free(cells);
    sample
}

/// Rename, solve, link: the driver's one rename primitive, used by
/// COMPACT (solver: the rounds and their postprocess) and by the
/// postprocess (solver: Theorem 1).
///
/// `pairs` are arcs between roots of the forest in `parent`. Their
/// endpoints are renamed onto `[0, k)` in first-seen order (the Lemma-D.3
/// rename, charged at `k`), and the renamed arcs are deduplicated by one
/// charged hashing pass: thousands of arcs can name the same root pair,
/// and without the dedup the solver would re-iterate every duplicate.
/// `solve` then runs on a fresh `k`-vertex [`CcState`] whose vertices are
/// all roots. One charged step over the `k` renamed roots hooks each onto
/// its component's representative, the renamed root whose sub-vertex
/// `solve` left as that component's root. Representatives stay roots and
/// no other vertex moves, so `parent` remains a forest. An empty list
/// reaches `solve` as one vertex with a dummy loop arc, the way
/// [`CcState::init`] builds an edgeless graph.
fn rename_solve_link<R>(
    pram: &mut Pram,
    parent: Handle,
    mut pairs: Vec<(u64, u64)>,
    seed: u64,
    solve: impl FnOnce(&mut Pram, &CcState) -> R,
) -> R {
    let emitted = pairs.len();
    let mut reps: Vec<u32> = Vec::new();
    {
        let mut slot = vec![NO_SLOT; parent.len()];
        extend_endpoints(&mut slot, &mut reps, pairs.iter().copied());
        for p in &mut pairs {
            *p = (slot[p.0 as usize] as u64, slot[p.1 as usize] as u64);
        }
        let mut set = PairSet::with_capacity(seed, emitted);
        pairs.retain(|&(a, b)| set.insert(a, b));
    }
    pram.charge(reps.len(), 4); // the rename
    pram.charge(emitted, 1); // the materialization copy
    pram.charge(emitted, 2); // the dedup hashing pass

    let k = reps.len().max(1);
    let arcs = pairs.len().max(1);
    // Zero-filled arcs: an empty list leaves the loop arc (0, 0).
    let sub = CcState {
        n: k,
        arcs,
        parent: pram.alloc(k),
        eu: pram.alloc(arcs),
        ev: pram.alloc(arcs),
    };
    for v in 0..k {
        pram.set(sub.parent, v, v as u64);
    }
    for (i, &(a, b)) in pairs.iter().enumerate() {
        pram.set(sub.eu, i, a);
        pram.set(sub.ev, i, b);
    }
    drop(pairs);
    let out = solve(pram, &sub);

    let labels = sub.labels_rooted(pram);
    {
        let (reps, labels) = (&reps, &labels);
        pram.step_over(reps, move |i, &v, ctx| {
            let r = labels[i as usize] as usize;
            if r != i as usize {
                ctx.write(parent, v as usize, reps[r] as u64);
            }
        });
    }
    sub.free(pram);
    out
}

/// Where a pass's table heap starts; [`TableHeap`]'s `grow` doubles it
/// from there.
#[derive(Clone, Copy)]
enum HeapStart {
    /// `4m` words of the input. An unsampled subproblem keeps this start:
    /// on sparse inputs the tables peak at that order (path 5·10⁵: 3.5 M
    /// words against 2 M reserved). Round 1's need (1 M words there) put
    /// the heap in an arena block that MAXLINK's stamped arrays would
    /// otherwise have split, so the arena grew further and the path's
    /// peak RSS spread wider from run to run.
    Input,
    /// Round 1's need, two √b₁-cell work tables per vertex. A sampled
    /// pass runs on at most `SAMPLE_OUT` arcs per vertex (or on the
    /// filter's survivors), so `4m` of the input would overshoot its
    /// tables several times (powerlaw 10⁵: 2 M words for a 0.4 M peak).
    RoundOne,
}

/// The EXPAND-MAXLINK rounds and their postprocess on a renamed
/// subproblem `st`, whose vertices are all ongoing roots, as one more pass
/// of `report`: its rounds are numbered on from the passes before it, its
/// postprocess phases and works add up, the table peak is the passes'
/// highest, and `RoundCap` stays set once any pass hits its cap. The
/// input `g`'s sizes set the budget schedule and the round cap.
fn solve_rounds(
    pram: &mut Pram,
    st: &CcState,
    g: &Graph,
    seed: u64,
    params: &FasterParams,
    heap_start: HeapStart,
    report: &mut FasterReport,
) {
    let work0 = pram.stats().work;
    let (k, n, m) = (st.n, g.n(), g.m());
    let budgets = params.budget_schedule(n, m, k);
    let lmax = budgets.len() - 1;
    // Assumption 3.1: every ongoing vertex starts at level 1 with a
    // b₁-sized block.
    let level = pram.alloc_filled(k, 1);
    let budget = pram.alloc_filled(k, budgets[1]);
    let heap_words = match heap_start {
        HeapStart::Input => (4 * m).max(1024),
        HeapStart::RoundOne => 2 * sqb_of(budgets[1]) as usize * k,
    };
    let heap = TableHeap::new(pram, heap_words);
    let mut fs = FasterState {
        st,
        level,
        budget,
        eoff: pram.alloc_filled(k, NULL),
        t3off: pram.alloc_filled(k, NULL),
        t5off: pram.alloc_filled(k, NULL),
        dormant: pram.alloc_filled(k, 0),
        raised2: pram.alloc_filled(k, 0),
        // The one pass over all of the subproblem's arcs; every per-round
        // refresh scans only the surviving lists.
        live: LiveIndex::seed(pram, st),
        heap,
        lmax,
        budgets,
        host_tbl: vec![None; k],
        scratch: RoundScratch::new(k),
    };

    // ------------------------------------------------- EXPAND-MAXLINK loop
    // Safety cap; hitting it is recorded (E6), never hidden.
    let round_cap = 48 + 4 * (n.max(2) as f64).log2().ceil() as u64;
    let first = report.run.rounds;
    let mut rounds = 0;
    loop {
        if rounds == round_cap {
            report.run.stop = StopReason::RoundCap;
            break;
        }
        rounds += 1;
        let work_before = pram.stats().work;
        let outcome = expand_maxlink_round(pram, &mut fs, params, seed, rounds);
        let round_work = pram.stats().work - work_before;
        report.run.per_round.push(RoundMetrics {
            round: first + rounds,
            roots: fs.live.set.roots.len(),
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
            break;
        }
    }
    report.run.rounds += rounds;

    // ------------------------------------------------------- postprocess
    // Folded into the final round's compacted state: flattening, the
    // final ALTER, and the remaining-graph materialization all run over
    // the live lists, so post-convergence work is charged at the
    // surviving frontier — o(n+m) once the main loop has shrunk it —
    // never as full sweeps. Finished vertices keep stale (possibly
    // non-flat) parents; the final labeling chases roots host-side
    // (`labels_rooted`), which is controller bookkeeping exactly like the
    // paper's output convention.
    let post_work0 = pram.stats().work;
    shortcut_until_flat_over(pram, st.parent, &fs.live.set.verts);
    alter_over(pram, st.eu, st.ev, st.parent, &fs.live.set.arcs);
    let post = postprocess_remaining(pram, &fs, seed);
    report.post_work += pram.stats().work - post_work0;
    report.table_peak_words = report.table_peak_words.max(fs.heap.peak_words() as u64);
    fs.free(pram);
    let total = &mut report.post;
    total.rounds += post.rounds;
    total.prepare_rounds += post.prepare_rounds;
    if post.stop == StopReason::RoundCap {
        total.stop = post.stop;
    }
    total.stats = post.stats;
    total.per_round.extend(post.per_round);
    report.passes.push(PassReport {
        rounds,
        work: pram.stats().work - work0,
    });
}

/// The Theorem-1 postprocess over the *remaining* graph, materialized from
/// the live lists instead of full-array sweeps.
///
/// The remaining connectivity lives entirely in the live arcs (dropped
/// arcs were loops or duplicates when dropped, and stay so — ALTER maps
/// loops to loops and duplicates to duplicates) and the live table cells
/// (dropped cells had NULL/self values or endpoints that already shared a
/// parent, i.e. were already connected). Both lists sit on roots after the
/// frontier flatten + ALTER above, so the root graph they induce goes
/// through [`rename_solve_link`] with Theorem 1 as the solver.
fn postprocess_remaining(pram: &mut Pram, fs: &FasterState, seed: u64) -> RunReport {
    // Host mirror of the compacted remaining graph (charged by the
    // primitive as the materialization copy).
    let pairs = {
        let (eoff, heap) = (fs.eoff, fs.heap.handle());
        let parents = pram.view(fs.st.parent);
        let arcs = arc_pairs(pram, fs.st, &fs.live.set.arcs).filter(|&(a, b)| a != b);
        let cells = fs.live.table_cells.iter().filter_map(|&(x, c)| {
            let (_, w) = cell_edge(x, c, eoff, heap, |h, i| pram.get(h, i))?;
            let (a, b) = (parents.get(x as usize), parents.get(w as usize));
            (a != b).then_some([(a, b), (b, a)])
        });
        arcs.chain(cells.flatten()).collect()
    };
    rename_solve_link(
        pram,
        fs.st.parent,
        pairs,
        seed ^ 0xDED0_9057,
        |pram, sub| {
            theorem1::connected_components_on_state(
                pram,
                sub,
                seed ^ 0x9057_9057,
                &Theorem1Params::default(),
                (sub.arcs / 2).max(1),
            )
        },
    )
}

/// Lemma 3.2 / D.4 and digraph sanity, asserted per round in tests and
/// under the `strict` feature.
#[cfg(any(test, feature = "strict"))]
fn assert_invariants(pram: &Pram, fs: &FasterState) {
    let parents = pram.read_vec(fs.st.parent);
    let levels = pram.read_vec(fs.level);
    verify::forest_heights(&parents).expect("labeled digraph contains a cycle");
    for (v, (&p, &l)) in parents.iter().zip(&levels).enumerate() {
        if p != v as u64 {
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
    fn machine_reuse_replays_bit_identically() {
        // One machine across reps must equal fresh-machine runs — the
        // bench-loop reuse contract of `Pram::reset_for_run`.
        let params = FasterParams::default();
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(21));
        let mut reused = Vec::new();
        for seed in 0..3u64 {
            // Different graphs per rep to exercise size-changing resets.
            let g = gen::gnm(200 + 40 * seed as usize, 800, seed);
            pram.reset_for_run();
            let rep = faster_cc(&mut pram, &g, seed, &params);
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
    fn budget_schedule_respects_b1_and_kappa() {
        let params = FasterParams {
            b1: 64,
            kappa: 2.0,
            ..Default::default()
        };
        // 64 → 64² → the ceiling, min(4n², 4M words) rounded to 4^11.
        let budgets = params.budget_schedule(1000, 4000, 500);
        assert_eq!(budgets, vec![0, 64, 4096, 1 << 22]);
    }

    #[test]
    fn rename_solve_link_renames_dedups_and_links_back() {
        // A hand-built forest: roots 0, 3, 5, 7, 9, 11; children 1, 2 → 0,
        // 4 → 3, 6 → 5, 8 → 7, 10 → 9.
        let before: Vec<u64> = vec![0, 0, 0, 3, 3, 5, 5, 7, 7, 9, 9, 11];
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let parent = pram.alloc(before.len());
        for (v, &p) in before.iter().enumerate() {
            pram.set(parent, v, p);
        }
        // Pairs over roots, duplicated in both orientations; 11 is in none.
        let pairs = vec![
            (3, 7),
            (7, 3),
            (5, 0),
            (3, 7),
            (9, 7),
            (0, 5),
            (7, 9),
            (7, 3),
        ];
        let mut seen = None;
        rename_solve_link(&mut pram, parent, pairs, 5, |pram, sub| {
            let arcs: Vec<(u64, u64)> = (0..sub.arcs)
                .map(|i| (pram.get(sub.eu, i), pram.get(sub.ev, i)))
                .collect();
            seen = Some((sub.n, arcs));
            // Solve by hand: the chain 4 → 1 → 0, and 3 → 2.
            pram.set(sub.parent, 1, 0);
            pram.set(sub.parent, 4, 1);
            pram.set(sub.parent, 3, 2);
        });
        // First-seen rename 3, 7, 5, 0, 9 → 0..5; each ordered pair once.
        let renamed = vec![(0, 1), (1, 0), (2, 3), (4, 1), (3, 2), (1, 4)];
        assert_eq!(seen, Some((5, renamed)));

        // Only renamed roots move, each onto its component's root.
        let after = pram.read_vec(parent);
        let moved: Vec<(usize, u64)> = (0..before.len())
            .filter(|&v| after[v] != before[v])
            .map(|v| (v, after[v]))
            .collect();
        assert_eq!(moved, vec![(0, 5), (7, 3), (9, 3)]);
        verify::forest_heights(&after).unwrap();
        let labels = rooted_labels(&pram, parent);
        assert_eq!(labels, vec![5, 5, 5, 3, 3, 5, 5, 3, 3, 3, 3, 11]);

        // An empty list: one vertex with a loop arc; no parent moves.
        let mut seen = None;
        rename_solve_link(&mut pram, parent, Vec::new(), 5, |pram, sub| {
            seen = Some((sub.n, sub.arcs, pram.get(sub.eu, 0), pram.get(sub.ev, 0)));
        });
        assert_eq!(seen, Some((1, 1, 0, 0)));
        assert_eq!(pram.read_vec(parent), after);
    }

    #[test]
    fn dense_subproblem_is_sampled_solved_and_filtered() {
        // Two K₂₄ joined by one bridge: 23 arcs per vertex, too dense for
        // PREPARE to run, so the renamed subproblem is the whole graph.
        let g = gen::barbell(24, 0);
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
        let st = CcState::init(&mut pram, &g);
        let sample = sample_out_arcs(&mut pram, &st, 3);
        let mut per_vertex = vec![0; g.n()];
        for &(u, v) in &sample {
            assert!(g.neighbors(u as u32).contains(&(v as u32)), "({u}, {v})");
            per_vertex[u as usize] += 1;
        }
        assert!(per_vertex.iter().all(|&c| (1..=SAMPLE_OUT).contains(&c)));

        // Seed 0 leaves the bridge out of the sample, so the filter keeps
        // its two arcs and the survivor pass joins the blobs.
        let report = run(&g, 0, &FasterParams::default());
        check_labels(&g, &report.run.labels).unwrap();
        assert_eq!((report.sub_vertices, report.sub_arcs), (48, 2 * 553));
        assert!(report.sample_arcs <= (SAMPLE_OUT * g.n()) as u64);
        assert_eq!(report.survivor_arcs, 2);
        assert_eq!(report.passes.len(), 2);
        let rounds: u64 = report.passes.iter().map(|p| p.rounds).sum();
        assert_eq!(report.run.rounds, rounds);
        assert_eq!(report.run.per_round.len() as u64, rounds);
        for (i, m) in report.run.per_round.iter().enumerate() {
            assert_eq!(m.round, i as u64 + 1);
        }

        // Sparse after PREPARE: one pass, no sample.
        for g in [gen::path(500), gen::clique_chain(64, 8)] {
            let report = run(&g, 0, &FasterParams::default());
            check_labels(&g, &report.run.labels).unwrap();
            assert!(report.sub_arcs <= 4 * SAMPLE_OUT as u64 * report.sub_vertices);
            assert_eq!((report.sample_arcs, report.survivor_arcs), (0, 0));
            assert_eq!(report.passes.len(), 1);
            assert_eq!(report.passes[0].rounds, report.run.rounds);
        }
    }

    #[test]
    fn crew_checked_run_reports_conflicts() {
        // The algorithm leans on concurrent writes; every machine counts
        // them, and this run must report some (i.e. it is not secretly a
        // CREW algorithm — §1's lower-bound discussion).
        let g = gen::gnm(200, 800, 3);
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(7));
        let report = faster_cc(&mut pram, &g, 7, &FasterParams::default());
        check_labels(&g, &report.run.labels).unwrap();
        assert!(
            report.run.stats.write_conflicts > 0,
            "expected concurrent writes on a CRCW algorithm"
        );
    }
}
