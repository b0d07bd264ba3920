//! Awerbuch–Shiloach '87: the deterministic `O(log n)` ARBITRARY CRCW
//! connectivity algorithm (the streamlined Shiloach–Vishkin '82).
//!
//! Per iteration:
//! 1. star test; **conditional hook**: a star hooks onto a neighbouring
//!    tree with a *smaller* root label (monotone — no cycles);
//! 2. star test again; **stagnant hook**: a tree that is still a star
//!    hooks onto *any* neighbouring tree. Two stagnant stars are never
//!    adjacent (the larger of an adjacent pair was hooked in step 1), so
//!    this cannot create a cycle either;
//! 3. SHORTCUT.
//!
//! Runs on the original (un-ALTERed) edges; terminates when an iteration
//! changes nothing. `O(log n)` iterations (heights shrink by a constant
//! factor per iteration).

use crate::metrics::{RoundMetrics, RunReport, StopReason};
use crate::state::CcState;
use cc_graph::Graph;
use pram_kit::ops::Flag;
use pram_sim::{Handle, Pram};

/// Star test (standard O(1) three-step subroutine): afterwards
/// `star[v] = 1` iff `v`'s tree is flat.
fn star_test(pram: &mut Pram, parent: Handle, star: Handle) {
    let n = parent.len();
    pram.fill_step(star, 1);
    pram.step(n, move |v, ctx| {
        let p = ctx.read(parent, v as usize);
        let gp = ctx.read(parent, p as usize);
        if p != gp {
            ctx.write(star, v as usize, 0);
            ctx.write(star, gp as usize, 0);
        }
    });
    pram.step(n, move |v, ctx| {
        let p = ctx.read(parent, v as usize);
        if ctx.read(star, p as usize) == 0 {
            ctx.write(star, v as usize, 0);
        }
    });
}

/// Run Awerbuch–Shiloach on `g`.
pub fn awerbuch_shiloach(pram: &mut Pram, g: &Graph) -> RunReport {
    let st = CcState::init(pram, g);
    let (parent, eu, ev) = (st.parent, st.eu, st.ev);
    let star = pram.alloc(st.n);
    let changed = Flag::new(pram);

    let cap = 32 + 6 * (st.n.max(2) as f64).log2().ceil() as u64;
    let mut per_round = Vec::new();
    let mut stop = StopReason::RoundCap;
    let mut iter = 0;
    while iter < cap {
        iter += 1;
        changed.clear(pram);

        // (1) Conditional hook: stars onto smaller neighbouring labels.
        star_test(pram, parent, star);
        pram.step(st.arcs, |i, ctx| {
            let i = i as usize;
            let u = ctx.read(eu, i);
            let v = ctx.read(ev, i);
            if u == v {
                return;
            }
            if ctx.read(star, u as usize) == 1 {
                let pu = ctx.read(parent, u as usize);
                let pv = ctx.read(parent, v as usize);
                if pv < pu {
                    ctx.write(parent, pu as usize, pv);
                    changed.raise(ctx);
                }
            }
        });

        // (2) Stagnant hook: still-star trees onto any different tree.
        star_test(pram, parent, star);
        pram.step(st.arcs, |i, ctx| {
            let i = i as usize;
            let u = ctx.read(eu, i);
            let v = ctx.read(ev, i);
            if u == v {
                return;
            }
            if ctx.read(star, u as usize) == 1 {
                let pu = ctx.read(parent, u as usize);
                let pv = ctx.read(parent, v as usize);
                if pv != pu {
                    ctx.write(parent, pu as usize, pv);
                    changed.raise(ctx);
                }
            }
        });

        // (3) SHORTCUT (flag changes so termination is detected).
        pram.step(st.n, |v, ctx| {
            let p = ctx.read(parent, v as usize);
            let gp = ctx.read(parent, p as usize);
            if gp != p {
                ctx.write(parent, v as usize, gp);
                changed.raise(ctx);
            }
        });

        per_round.push(RoundMetrics {
            round: iter,
            roots: st.host_count_roots(pram),
            ..Default::default()
        });
        if !changed.read(pram) {
            stop = StopReason::Converged;
            break;
        }
    }

    debug_assert!(
        crate::verify::forest_heights(&pram.read_vec(parent)).is_ok(),
        "Awerbuch-Shiloach produced a cycle"
    );
    let labels = st.labels_rooted(pram);
    let stats = pram.stats();
    pram.free(star);
    changed.free(pram);
    st.free(pram);
    RunReport {
        labels,
        rounds: iter,
        prepare_rounds: 0,
        stop,
        stats,
        per_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_labels;
    use cc_graph::gen;
    use pram_sim::WritePolicy;

    #[test]
    fn correct_on_shapes() {
        for g in [
            gen::path(64),
            gen::cycle(31),
            gen::star(50),
            gen::grid(8, 9),
            gen::union_all(&[gen::path(9), gen::complete(7), gen::star(12)]),
            gen::binary_tree(63),
        ] {
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
            let report = awerbuch_shiloach(&mut pram, &g);
            assert_eq!(report.stop, StopReason::Converged);
            check_labels(&g, &report.labels).unwrap();
        }
    }

    #[test]
    fn correct_under_all_policies() {
        let g = gen::gnm(300, 600, 4);
        for policy in [
            WritePolicy::ArbitrarySeeded(9),
            WritePolicy::PriorityMin,
            WritePolicy::PriorityMax,
        ] {
            let mut pram = Pram::new(policy);
            let report = awerbuch_shiloach(&mut pram, &g);
            check_labels(&g, &report.labels).unwrap();
        }
    }

    #[test]
    fn rounds_are_logarithmic_even_on_low_diameter() {
        // The point of E7: AS takes Θ(log n) rounds on a star-of-paths even
        // though the diameter is tiny.
        let small = gen::gnm(256, 1024, 1);
        let big = gen::gnm(8192, 32768, 1);
        let mut p1 = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let mut p2 = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let r_small = awerbuch_shiloach(&mut p1, &small);
        let r_big = awerbuch_shiloach(&mut p2, &big);
        check_labels(&small, &r_small.labels).unwrap();
        check_labels(&big, &r_big.labels).unwrap();
        assert!(r_big.rounds >= r_small.rounds);
    }

    #[test]
    fn path_takes_log_rounds() {
        let g = gen::path(1 << 10);
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(2));
        let report = awerbuch_shiloach(&mut pram, &g);
        check_labels(&g, &report.labels).unwrap();
        assert!(report.rounds <= 25, "rounds = {}", report.rounds);
    }
}
