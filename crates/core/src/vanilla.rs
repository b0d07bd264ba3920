//! The **Vanilla algorithm** (§B.1) — Reif '84 random mating in the
//! paper's framework:
//!
//! ```text
//! repeat { RANDOM-VOTE; LINK; SHORTCUT; ALTER } until no non-loop edge
//! ```
//!
//! Each phase is O(1) simulated steps; `O(log n)` phases finish whp
//! (Lemma B.3 / Corollary B.4 give per-phase ongoing-vertex decay `≤ 7/8`).
//! Used standalone as the randomized `O(log n)` baseline and as the
//! `PREPARE` subroutine of Theorems 1–3.
//!
//! **Live-work scheduling.** Every charged step iterates the caller's
//! [`LiveSet`] (coin flips over the ongoing vertices, LINK over the live
//! arcs, SHORTCUT over the ongoing vertices, ALTER over the live arcs), so
//! a phase costs O(live), not O(n + m) — vertices whose arcs have all
//! become loops stop paying. The per-phase `LiveSet::refresh` is the
//! charged Lemma-D.2 compaction, reported under
//! [`RoundMetrics::compaction_work`]. Vertices that leave the live set may
//! keep stale (non-flat) parents; the final labeling chases roots host-side
//! (`labels_rooted`), which is controller bookkeeping, exactly as before.

use crate::live::LiveSet;
use crate::metrics::{RoundMetrics, RunReport, StopReason};
use crate::state::CcState;
use crate::verify;
use cc_graph::Graph;
use pram_kit::ops::{alter_over, shortcut_over};
use pram_sim::{Handle, Pram};

/// One Vanilla phase over existing state, scheduled over `live`. `leader`
/// is an `n`-cell scratch array owned by the caller (reused across
/// phases; only live vertices' cells are written and read).
pub fn vanilla_phase(pram: &mut Pram, st: &CcState, live: &LiveSet, leader: Handle, seed: u64) {
    let (parent, eu, ev) = (st.parent, st.eu, st.ev);

    // RANDOM-VOTE: coin per ongoing vertex.
    pram.step_over(&live.verts, move |_, &u, ctx| {
        let l = ctx.coin(seed ^ 0x52_56, 0.5);
        ctx.write(leader, u as usize, l as u64);
    });

    // LINK: for each live arc (v, w): if v.l = 0 and w.l = 1, update v.p
    // to w. (Endpoints are roots at phase start — Lemma B.2.)
    pram.step_over(&live.arcs, move |_, &ai, ctx| {
        let i = ai as usize;
        let v = ctx.read(eu, i);
        let w = ctx.read(ev, i);
        if v == w {
            return;
        }
        if ctx.read(leader, v as usize) == 0 && ctx.read(leader, w as usize) == 1 {
            ctx.write(parent, v as usize, w);
        }
    });

    shortcut_over(pram, parent, &live.verts);
    alter_over(pram, eu, ev, parent, &live.arcs);
}

/// Run Vanilla to completion on `g` and report.
pub fn vanilla(pram: &mut Pram, g: &Graph, seed: u64) -> RunReport {
    let st = CcState::init(pram, g);
    let leader = pram.alloc(st.n);
    // The one O(m) pass; every later refresh scans live lists only.
    let mut live = LiveSet::full(pram, &st);
    let cap = phase_cap(st.n);
    let mut per_round = Vec::new();
    let mut stop = StopReason::RoundCap;
    let mut phase = 0;
    while phase < cap {
        phase += 1;
        let step_work0 = pram.stats().work;
        vanilla_phase(pram, &st, &live, leader, seed.wrapping_add(phase));
        let step_work = pram.stats().work - step_work0;
        let compaction0 = pram.stats().work;
        live.refresh(pram, &st);
        per_round.push(RoundMetrics {
            round: phase,
            roots: live.roots.len(),
            ongoing: live.verts.len(),
            work: step_work,
            compaction_work: pram.stats().work - compaction0,
            live_arcs: live.arcs.len(),
            ..Default::default()
        });
        if live.is_solved() {
            stop = StopReason::Converged;
            break;
        }
    }
    debug_assert!(
        verify::forest_heights(&pram.read_vec(st.parent)).is_ok(),
        "Vanilla produced a cyclic labeled digraph"
    );
    let labels = st.labels_rooted(pram);
    let stats = pram.stats();
    pram.free(leader);
    st.free(pram);
    RunReport {
        labels,
        rounds: phase,
        prepare_rounds: 0,
        stop,
        stats,
        per_round,
    }
}

/// Safety cap: `O(log n)` phases finish whp; allow a generous multiple.
pub(crate) fn phase_cap(n: usize) -> u64 {
    32 + 6 * (n.max(2) as f64).log2().ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_labels;
    use cc_graph::gen;
    use pram_sim::WritePolicy;

    fn run(g: &Graph, policy: WritePolicy, seed: u64) -> RunReport {
        let mut pram = Pram::new(policy);
        vanilla(&mut pram, g, seed)
    }

    #[test]
    fn vanilla_correct_on_shapes() {
        for g in [
            gen::path(50),
            gen::cycle(33),
            gen::star(40),
            gen::complete(16),
            gen::union_all(&[gen::path(10), gen::cycle(7), gen::star(9)]),
        ] {
            let report = run(&g, WritePolicy::ArbitrarySeeded(7), 3);
            assert_eq!(report.stop, StopReason::Converged);
            check_labels(&g, &report.labels).unwrap();
        }
    }

    #[test]
    fn vanilla_correct_under_all_policies() {
        let g = gen::gnm(200, 400, 5);
        for policy in [
            WritePolicy::ArbitrarySeeded(1),
            WritePolicy::PriorityMin,
            WritePolicy::PriorityMax,
        ] {
            let report = run(&g, policy, 11);
            check_labels(&g, &report.labels).unwrap();
        }
    }

    #[test]
    fn vanilla_phases_logarithmic() {
        let g = gen::gnm(2000, 4000, 2);
        let report = run(&g, WritePolicy::ArbitrarySeeded(5), 9);
        assert_eq!(report.stop, StopReason::Converged);
        // log2(2000) ≈ 11; random mating needs ~2-4x that.
        assert!(report.rounds <= 60, "rounds = {}", report.rounds);
    }

    #[test]
    fn ongoing_count_decays() {
        let g = gen::gnm(1000, 3000, 8);
        let report = run(&g, WritePolicy::ArbitrarySeeded(2), 4);
        let first = report.per_round.first().unwrap().ongoing;
        let mid = report.per_round[report.per_round.len() / 2].ongoing;
        assert!(mid < first, "no decay: {first} -> {mid}");
        assert_eq!(report.per_round.last().unwrap().ongoing, 0);
    }

    #[test]
    fn per_phase_work_tracks_live_not_input() {
        // Live-work pin: once the live subproblem has collapsed, a phase
        // must cost far less than the first (O(n + m)-per-phase scheduling
        // costs the same every phase).
        let g = gen::gnm(4000, 8000, 3);
        let report = run(&g, WritePolicy::ArbitrarySeeded(11), 13);
        let pr = &report.per_round;
        assert!(pr.len() >= 3, "expected a multi-phase run");
        let first = pr[0].work;
        let last = pr.last().unwrap().work;
        assert!(
            last * 10 <= first,
            "late phase still pays near-O(n+m): first {first}, last {last}"
        );
        // The compaction bookkeeping is charged and visible.
        assert!(pr[0].compaction_work > 0);
    }

    #[test]
    fn vanilla_on_edgeless_graph_is_instant() {
        let g = cc_graph::GraphBuilder::new(5).build();
        let report = run(&g, WritePolicy::ArbitrarySeeded(1), 1);
        assert_eq!(report.rounds, 1);
        check_labels(&g, &report.labels).unwrap();
    }

    #[test]
    fn deterministic_under_seeded_policy() {
        let g = gen::gnm(300, 500, 1);
        let a = run(&g, WritePolicy::ArbitrarySeeded(42), 7);
        let b = run(&g, WritePolicy::ArbitrarySeeded(42), 7);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.rounds, b.rounds);
    }
}
