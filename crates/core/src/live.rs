//! The shared live-work index for the phase-structured drivers
//! (Vanilla, Theorem 1, Theorem 2).
//!
//! The paper's phases cost O(live) work because approximate compaction
//! (Lemma D.2) re-indexes the surviving subproblem between phases; a naive
//! simulation that hands a processor to every original vertex and arc pays
//! O(n + m) per phase even when almost everything is finished. A
//! [`LiveSet`] is the controller-side equivalent of that compaction for
//! the simple `{VOTE; LINK; SHORTCUT; ALTER}`-shaped drivers: a compacted
//! list of non-loop arcs, of their endpoint vertices ("ongoing" vertices,
//! Definition B.1 via Lemma B.2), and of the ongoing roots. Every charged
//! step in those drivers iterates one of these lists through
//! [`pram_sim::Pram::step_over`].
//!
//! Refreshing the set is itself charged: the arc and root lists go through
//! [`pram_kit::compact_over`] (1 predicate step + the Lemma-D.2 placement
//! charge, at the live count), and the endpoint collection is charged as
//! one emission step over the surviving arcs plus a Lemma-D.2 dedup/rename
//! over the endpoints. The host vectors are the controller's mirror of the
//! compacted arrays those primitives produce; they are rebuilt in
//! deterministic first-seen order, so runs stay reproducible and
//! thread-count invariant.
//!
//! The Theorem-3 driver's `theorem3::LiveIndex` is a [`LiveSet`] plus the
//! live persistent-table cells: its refresh runs the three steps below
//! (arc endpoints, the cells' extra endpoints, then the charge and the
//! roots), so one charge model and one slot map serve every driver.

use crate::state::CcState;
use pram_kit::compact_over;
use pram_sim::Pram;

/// "Not live" marker for the vertex → slot map.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Charged compaction of a live-arc list: keep the non-loops. One shared
/// definition for every driver (the Theorem-3 `LiveIndex` layers its
/// dedup on top of this, and Theorem 3's sample filter runs it on all
/// arcs) so the Lemma-D.2 accounting cannot diverge between them.
pub(crate) fn compact_live_arcs(pram: &mut Pram, st: &CcState, arcs: &[u32]) -> Vec<u32> {
    let (eu, ev) = (st.eu, st.ev);
    compact_over(pram, arcs, move |_, &i, ctx| {
        ctx.read(eu, i as usize) != ctx.read(ev, i as usize)
    })
}

/// The `(eu[i], ev[i])` pairs of the arcs `arcs` lists, read host-side.
pub(crate) fn arc_pairs<'a>(
    pram: &'a Pram,
    st: &CcState,
    arcs: &'a [u32],
) -> impl Iterator<Item = (u64, u64)> + 'a {
    let (eu, ev) = (pram.view(st.eu), pram.view(st.ev));
    arcs.iter()
        .map(move |&i| (eu.get(i as usize), ev.get(i as usize)))
}

/// Append the endpoints `pairs` yields in first-seen order, maintaining
/// the invariant `slot[verts[i]] == i` — the one definition of the slot
/// map that every live index (and through Theorem 3's, the
/// generation-stamped MAXLINK's candidate-row addressing) and the
/// Theorem-3 rename depend on.
pub(crate) fn extend_endpoints(
    slot: &mut [u32],
    verts: &mut Vec<u32>,
    pairs: impl IntoIterator<Item = (u64, u64)>,
) {
    for (a, b) in pairs {
        for v in [a, b] {
            if slot[v as usize] == NO_SLOT {
                slot[v as usize] = verts.len() as u32;
                verts.push(v as u32);
            }
        }
    }
}

/// The compacted live subproblem: non-loop arcs, their endpoints, and the
/// ongoing roots. See the module docs for the charging discipline.
pub struct LiveSet {
    /// Indices of arcs that were non-loops at the last refresh.
    pub arcs: Vec<u32>,
    /// Endpoints of the live arcs, deduplicated (the ongoing vertices).
    pub verts: Vec<u32>,
    /// `verts` that are their own parent — the ongoing roots.
    pub roots: Vec<u32>,
    /// vertex → slot in `verts` (`NO_SLOT` = not live). Doubles as the
    /// membership map during endpoint dedup.
    slot: Vec<u32>,
}

impl LiveSet {
    /// An empty set over `n` vertices (no arcs live yet).
    pub fn new(n: usize) -> Self {
        LiveSet {
            arcs: Vec::new(),
            verts: Vec::new(),
            roots: Vec::new(),
            slot: vec![NO_SLOT; n],
        }
    }

    /// Seed from the full arc array and refresh — the one O(m) pass; every
    /// later [`LiveSet::refresh`] scans the surviving lists only.
    pub fn full(pram: &mut Pram, st: &CcState) -> Self {
        let mut s = Self::new(st.n);
        s.arcs = (0..st.arcs as u32).collect();
        s.refresh(pram, st);
        s
    }

    /// Refresh every list from machine state: drop arcs that became loops,
    /// recollect endpoints, and re-derive the ongoing roots — all charged
    /// at the previous live size (see module docs).
    pub fn refresh(&mut self, pram: &mut Pram, st: &CcState) {
        self.arcs = compact_live_arcs(pram, st, &self.arcs);
        self.collect_arc_endpoints(pram, st);
        self.charge_and_roots(pram, st, self.arcs.len());
    }

    /// The vertex → slot map, `slot[verts[i]] == i` (`NO_SLOT` = not live):
    /// the candidate-row index of Theorem 3's generation-stamped MAXLINK.
    pub(crate) fn slot(&self) -> &[u32] {
        &self.slot
    }

    /// Refresh step 1: clear the previous vertex list's slot marks
    /// (O(prev live)) and recollect the live arcs' endpoints.
    pub(crate) fn collect_arc_endpoints(&mut self, pram: &Pram, st: &CcState) {
        for &v in &self.verts {
            self.slot[v as usize] = NO_SLOT;
        }
        self.verts.clear();
        let pairs = arc_pairs(pram, st, &self.arcs);
        extend_endpoints(&mut self.slot, &mut self.verts, pairs);
    }

    /// Refresh step 2 (Theorem 3's table cells): append the endpoints of
    /// further edges after the arcs'.
    pub(crate) fn collect_extra_endpoints(&mut self, pairs: impl IntoIterator<Item = (u64, u64)>) {
        extend_endpoints(&mut self.slot, &mut self.verts, pairs);
    }

    /// Refresh step 3: charge the collection — one emission step over the
    /// `sources` edge-holders (each writes its two endpoints) plus the
    /// Lemma-D.2 dedup/rename over the endpoints collected — then compact
    /// the ongoing roots out of them.
    pub(crate) fn charge_and_roots(&mut self, pram: &mut Pram, st: &CcState, sources: usize) {
        pram.charge(2 * sources, 1);
        pram.charge(self.verts.len(), 4);
        let parent = st.parent;
        self.roots = compact_over(pram, &self.verts, move |_, &v, ctx| {
            ctx.read(parent, v as usize) == v as u64
        });
    }

    /// No live arc left — the driver's termination test, free to read
    /// (the refresh already paid for the underlying flag-OR).
    pub fn is_solved(&self) -> bool {
        self.arcs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::gen;
    use pram_sim::{Pram, WritePolicy};

    #[test]
    fn full_set_covers_all_nonloop_arcs_and_endpoints() {
        let g = gen::union_all(&[gen::path(5), gen::star(4)]);
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let st = CcState::init(&mut pram, &g);
        let live = LiveSet::full(&mut pram, &st);
        assert_eq!(live.arcs.len(), st.arcs);
        assert_eq!(live.verts.len(), g.n());
        assert_eq!(live.roots.len(), g.n()); // identity parents
    }

    #[test]
    fn refresh_drops_loops_and_tracks_roots() {
        let g = gen::path(4); // arcs (0,1),(1,0),(1,2),(2,1),(2,3),(3,2)
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let st = CcState::init(&mut pram, &g);
        let mut live = LiveSet::full(&mut pram, &st);
        // Contract 0-1: parent[1]=0, arcs of (0,1) become loops.
        pram.set(st.parent, 1, 0);
        pram.set(st.eu, 0, 0);
        pram.set(st.ev, 0, 0);
        pram.set(st.eu, 1, 0);
        pram.set(st.ev, 1, 0);
        live.refresh(&mut pram, &st);
        assert_eq!(live.arcs, vec![2, 3, 4, 5]);
        // Endpoints of the survivors; 0 is no longer an endpoint.
        assert_eq!(live.verts, vec![1, 2, 3]);
        assert_eq!(live.roots, vec![2, 3]); // 1 is not a root anymore
        assert!(!live.is_solved());
    }

    #[test]
    fn refresh_work_tracks_live_size() {
        let g = gen::path(100);
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let st = CcState::init(&mut pram, &g);
        let mut live = LiveSet::full(&mut pram, &st);
        // Kill all arcs but the first pair.
        for i in 2..st.arcs {
            pram.set(st.eu, i, 0);
            pram.set(st.ev, i, 0);
        }
        live.refresh(&mut pram, &st);
        assert_eq!(live.arcs.len(), 2);
        pram.reset_stats();
        live.refresh(&mut pram, &st);
        // Charged at the live size (2 arcs, 2 verts, 2 roots), far below
        // O(n + m).
        assert!(
            pram.stats().work < 100,
            "refresh work {} not live-sized",
            pram.stats().work
        );
    }

    #[test]
    fn edgeless_graph_solves_immediately() {
        let g = cc_graph::GraphBuilder::new(3).build();
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let st = CcState::init(&mut pram, &g);
        let live = LiveSet::full(&mut pram, &st);
        assert!(live.is_solved()); // the dummy loop arc is dropped
        assert!(live.verts.is_empty());
    }
}
