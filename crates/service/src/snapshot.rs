//! Published, immutable per-epoch state: labels plus component
//! statistics, and the writer-side bookkeeping that publishes them in
//! O(batch + δ) per epoch.
//!
//! # The snapshot model
//!
//! A [`Snapshot`] does not own a labeling. It holds an `Arc` to the
//! canonical labels materialized at the last fold — shared by every
//! snapshot until the next fold — plus a [`Remap`] of the base roots
//! merged away since then, each resolved to its component's current
//! minimum id. δ, the remap's size, is at most the number of unions
//! since the fold, so at most
//! [`SvcParams::rebuild_threshold`](crate::SvcParams::rebuild_threshold).
//! A query is one base load plus one remap probe; the full label vector
//! is materialized only if a reader asks for it.
//!
//! The writer ([`Labeling`]) keeps the remap and the [`Spectrum`] counts
//! current from each batch's pre-absorb roots: the overlay forest is
//! id-decreasing, so roots are exactly the component minima, a batch can
//! only merge components whose roots it touched, and a root that stops
//! being a root has merged into the root `find` now returns.

use crate::{Edge, Epoch};
use logdiam_par::UnionFind;
use std::sync::{Arc, OnceLock};

/// Component-structure statistics for one epoch — the service's
/// observability surface.
///
/// The writer keeps the counts current as each batch merges components
/// (O(batch) per epoch; an O(n) count only when a labeling is seeded at
/// start-up or recovery), so reading a spectrum never touches the writer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spectrum {
    /// The epoch this spectrum describes.
    pub epoch: Epoch,
    /// Vertex count.
    pub n: usize,
    /// Edges in the folded base edge list (deltas not included).
    pub base_m: usize,
    /// Distinct delta edges absorbed by the overlay since the last
    /// rebuild (0 right after a rebuild).
    pub delta_edges: usize,
    /// Number of connected components.
    pub components: usize,
    /// Size of the largest component (0 on an empty vertex set).
    pub largest_component: usize,
    /// Number of isolated vertices (components of size 1).
    pub isolated_vertices: usize,
    /// Rebuild folds triggered over the service's lifetime (a fold
    /// synchronously merges the deltas into the base edge list and makes
    /// the current labels the new snapshot base).
    pub rebuilds: u64,
}

/// Free-slot key: vertex ids are always `< u32::MAX`.
const VACANT: u32 = u32::MAX;

/// Base roots merged away since the last fold → their component's current
/// minimum id: the writer's open-addressing table (linear probing, load ≤
/// 1/2, Fibonacci hashing) of plain `u32` pairs. Readers probe the
/// published [`RemapView`].
#[derive(Clone, Debug, Default)]
pub(crate) struct Remap {
    /// Power-of-two length, or empty; `(VACANT, _)` marks a free slot.
    slots: Vec<(u32, u32)>,
    len: usize,
    /// `64 - log2(slots.len())`: the hash's top bits index the table.
    shift: u32,
}

#[inline]
fn hash(key: u32) -> u64 {
    (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Remap {
    /// Map `key` to `value` (inserting or overwriting).
    pub(crate) fn insert(&mut self, key: u32, value: u32) {
        debug_assert_ne!(key, VACANT);
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash(key) >> self.shift) as usize;
        loop {
            let slot = &mut self.slots[i];
            if slot.0 == key {
                slot.1 = value;
                return;
            }
            if slot.0 == VACANT {
                *slot = (key, value);
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(VACANT, 0); cap]);
        self.len = 0;
        self.shift = 64 - cap.trailing_zeros();
        for (k, v) in old {
            if k != VACANT {
                self.insert(k, v);
            }
        }
    }

    /// Rewrite every value through `f`.
    fn update_values(&mut self, mut f: impl FnMut(u32) -> u32) {
        for slot in &mut self.slots {
            if slot.0 != VACANT {
                slot.1 = f(slot.1);
            }
        }
    }

    /// A read-only copy for snapshots.
    fn view(&self) -> RemapView {
        RemapView {
            slots: self.slots.as_slice().into(),
            len: self.len,
            shift: self.shift,
        }
    }
}

/// The published form of a [`Remap`], shared by every snapshot whose
/// batch merged nothing: the table behind a shared slice, so a probe goes
/// from the snapshot straight to the data. The hash is fixed, so callers
/// could pick ids that collide; a probe then walks at most the whole
/// table, which the rebuild threshold bounds.
#[derive(Clone, Debug, Default)]
pub(crate) struct RemapView {
    slots: Arc<[(u32, u32)]>,
    len: usize,
    shift: u32,
}

impl RemapView {
    /// The remapped id of `key`, if it was merged away.
    #[inline]
    fn get(&self, key: u32) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash(key) >> self.shift) as usize;
        loop {
            let (k, v) = self.slots[i];
            if k == key {
                return Some(v);
            }
            if k == VACANT {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// `label` itself, or its remapped id.
    #[inline]
    pub(crate) fn resolve(&self, label: u32) -> u32 {
        self.get(label).unwrap_or(label)
    }

    /// Number of remapped ids.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was merged away since the fold.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One epoch's published state: canonical min-vertex component labels and
/// the [`Spectrum`] of the partition. Immutable once published; readers
/// hold it through an `Arc` and are therefore never invalidated by later
/// commits.
///
/// Internally a snapshot is the fold-time labels (shared with every other
/// snapshot since that fold) plus a small remap (see the module docs):
/// [`component_of`](Snapshot::component_of) costs one base load plus one
/// remap probe, [`connected`](Snapshot::connected) probes only for pairs
/// the fold saw apart, and [`labels`](Snapshot::labels) materializes the
/// full vector on first call.
#[derive(Clone, Debug)]
pub struct Snapshot {
    base: Arc<[u32]>,
    remap: RemapView,
    labels: OnceLock<Vec<u32>>,
    spectrum: Spectrum,
}

impl Snapshot {
    /// The epoch this snapshot was published at.
    pub fn epoch(&self) -> Epoch {
        self.spectrum.epoch
    }

    /// Canonical min-vertex component labels for all vertices
    /// (materialized on the first call unless nothing merged since the
    /// fold, in which case the shared fold-time labels are returned).
    pub fn labels(&self) -> &[u32] {
        if self.remap.is_empty() {
            return &self.base;
        }
        self.labels
            .get_or_init(|| self.base.iter().map(|&l| self.remap.resolve(l)).collect())
    }

    /// The component label of `u` at this epoch.
    pub fn component_of(&self, u: u32) -> u32 {
        self.remap.resolve(self.base[u as usize])
    }

    /// Whether `u` and `v` were connected at this epoch.
    pub fn connected(&self, u: u32, v: u32) -> bool {
        let (a, b) = (self.base[u as usize], self.base[v as usize]);
        // Components only merge: one component at the fold still is one,
        // so only pairs split at the fold need the remap.
        a == b || self.remap.resolve(a) == self.remap.resolve(b)
    }

    /// Component statistics at this epoch.
    pub fn spectrum(&self) -> Spectrum {
        self.spectrum
    }

    /// The fold-time labels this snapshot shares (test hook: snapshots
    /// published between two folds return the same `Arc`).
    #[doc(hidden)]
    pub fn base_labels(&self) -> &Arc<[u32]> {
        &self.base
    }

    /// Base roots merged away since the fold this snapshot shares (test
    /// hook: never more than the rebuild threshold).
    #[doc(hidden)]
    pub fn remap_len(&self) -> usize {
        self.remap.len()
    }
}

/// The writer's side of the snapshot model: the fold-time labels, the
/// remap being maintained, and per-root component sizes for the
/// [`Spectrum`] counts.
pub(crate) struct Labeling {
    base: Arc<[u32]>,
    remap: Remap,
    /// The remap as last published; shared by every snapshot until a
    /// batch merges something.
    published: RemapView,
    /// Component size, indexed by root (stale at non-roots).
    size: Vec<u32>,
    components: usize,
    largest: u32,
    isolated: usize,
    /// The current batch's distinct pre-absorb roots.
    roots: Vec<u32>,
}

impl Labeling {
    /// Seed from a canonical labeling: the one O(n) count.
    pub(crate) fn new(labels: Vec<u32>) -> Self {
        let mut size = vec![0u32; labels.len()];
        for &l in &labels {
            size[l as usize] += 1;
        }
        let (mut components, mut largest, mut isolated) = (0, 0, 0);
        for &s in &size {
            if s > 0 {
                components += 1;
                largest = largest.max(s);
                isolated += (s == 1) as usize;
            }
        }
        Labeling {
            base: labels.into(),
            remap: Remap::default(),
            published: RemapView::default(),
            size,
            components,
            largest,
            isolated,
            roots: Vec::new(),
        }
    }

    /// Note the roots of a batch's endpoints before the overlay absorbs
    /// it: the only components the batch can merge.
    pub(crate) fn note_roots(&mut self, overlay: &UnionFind, edges: &[Edge]) {
        self.roots.clear();
        for &(u, v) in edges {
            self.roots.push(overlay.representative(u));
            self.roots.push(overlay.representative(v));
        }
        self.roots.sort_unstable();
        self.roots.dedup();
    }

    /// After the absorb: every noted root that is no longer a root merged
    /// into the one `find` now returns — fold its size in, update the
    /// counts, and remap it. Entries that pointed at a root merged away
    /// this batch follow it to its new root.
    pub(crate) fn settle(&mut self, overlay: &UnionFind) {
        let mut merged = false;
        for &r in &self.roots {
            let t = overlay.representative(r);
            if t == r {
                continue;
            }
            merged = true;
            // `t` is a surviving root, so its size is the pre-batch one
            // until its first merge here, and never 1 after it.
            let (sr, st) = (self.size[r as usize], self.size[t as usize]);
            self.isolated -= (sr == 1) as usize + (st == 1) as usize;
            self.size[t as usize] = st + sr;
            self.largest = self.largest.max(st + sr);
            self.components -= 1;
            self.remap.insert(r, t);
        }
        if merged {
            self.remap.update_values(|v| overlay.representative(v));
            self.published = self.remap.view();
        }
    }

    /// A fold: `labels` (the current canonical labeling) becomes the new
    /// shared base, and the remap empties.
    pub(crate) fn rebase(&mut self, labels: Vec<u32>) {
        self.base = labels.into();
        self.remap = Remap::default();
        self.published = RemapView::default();
    }

    /// The fold-time labels.
    pub(crate) fn base(&self) -> &[u32] {
        &self.base
    }

    /// The current canonical label of `v`.
    pub(crate) fn label(&self, v: u32) -> u32 {
        self.published.resolve(self.base[v as usize])
    }

    /// Seal the current state into a snapshot; the writer supplies the
    /// spectrum fields it owns.
    pub(crate) fn snapshot(
        &self,
        epoch: Epoch,
        base_m: usize,
        delta_edges: usize,
        rebuilds: u64,
    ) -> Snapshot {
        Snapshot {
            base: Arc::clone(&self.base),
            remap: self.published.clone(),
            labels: OnceLock::new(),
            spectrum: Spectrum {
                epoch,
                n: self.base.len(),
                base_m,
                delta_edges,
                components: self.components,
                largest_component: self.largest as usize,
                isolated_vertices: self.isolated,
                rebuilds,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectrum_counts_components_sizes_and_isolates() {
        // {0,1,2}, {3}, {4,5} — labels are min-vertex canonical.
        let lab = Labeling::new(vec![0, 0, 0, 3, 4, 4]);
        let s = lab.snapshot(7, 3, 1, 2);
        let sp = s.spectrum();
        assert_eq!(sp.epoch, 7);
        assert_eq!(sp.n, 6);
        assert_eq!(sp.base_m, 3);
        assert_eq!(sp.delta_edges, 1);
        assert_eq!(sp.components, 3);
        assert_eq!(sp.largest_component, 3);
        assert_eq!(sp.isolated_vertices, 1);
        assert_eq!(sp.rebuilds, 2);
        assert!(s.connected(0, 2));
        assert!(!s.connected(2, 3));
        assert_eq!(s.component_of(5), 4);
    }

    #[test]
    fn empty_snapshot_is_well_defined() {
        let s = Labeling::new(vec![]).snapshot(0, 0, 0, 0);
        let sp = s.spectrum();
        assert_eq!(sp.components, 0);
        assert_eq!(sp.largest_component, 0);
        assert_eq!(sp.isolated_vertices, 0);
        assert!(s.labels().is_empty());
    }

    #[test]
    fn settle_tracks_merges_and_remaps_to_the_current_minimum() {
        // Six singletons; merge {4,5}, then {2,4}, then {0,2}: the remap
        // must follow each merged-away root to the newest minimum.
        let ov = UnionFind::new(6);
        let mut lab = Labeling::new((0..6).collect());
        let step = |lab: &mut Labeling, batch: &[Edge]| {
            lab.note_roots(&ov, batch);
            ov.absorb_seq(batch);
            lab.settle(&ov);
            lab.snapshot(0, 0, 0, 0)
        };
        let s1 = step(&mut lab, &[(4, 5)]);
        assert_eq!(s1.labels(), &[0, 1, 2, 3, 4, 4]);
        assert_eq!(s1.remap_len(), 1);
        let s2 = step(&mut lab, &[(5, 2)]);
        assert_eq!(s2.labels(), &[0, 1, 2, 3, 2, 2]);
        let s3 = step(&mut lab, &[(2, 0), (1, 1)]);
        assert_eq!(s3.labels(), &[0, 1, 0, 3, 0, 0]);
        assert_eq!(s3.remap_len(), 3);
        let sp = s3.spectrum();
        assert_eq!(
            (sp.components, sp.largest_component, sp.isolated_vertices),
            (3, 4, 2)
        );
        // Earlier snapshots are untouched, and all share one base.
        assert_eq!(s1.component_of(5), 4);
        assert!(Arc::ptr_eq(s1.base_labels(), s3.base_labels()));
        // A batch that merges nothing republishes the same remap.
        let s4 = step(&mut lab, &[(0, 5)]);
        assert!(Arc::ptr_eq(&s3.remap.slots, &s4.remap.slots));
        // A rebase folds the remap into fresh shared labels.
        lab.rebase(s4.labels().to_vec());
        let s5 = lab.snapshot(0, 0, 0, 0);
        assert_eq!(s5.remap_len(), 0);
        assert_eq!(s5.labels(), s4.labels());
        assert_eq!(s5.spectrum().components, 3);
    }

    #[test]
    fn remap_grows_and_overwrites() {
        let mut r = Remap::default();
        assert_eq!(r.view().get(3), None);
        for k in 0..1000u32 {
            r.insert(k * 7, k);
        }
        r.insert(7, 99);
        let v = r.view();
        assert_eq!(v.len(), 1000);
        assert_eq!(v.get(7), Some(99));
        assert_eq!(v.get(14), Some(2));
        assert!((0..7000u32)
            .all(|k| v.get(k) == (k % 7 == 0).then_some(if k == 7 { 99 } else { k / 7 })));
        assert_eq!(v.resolve(8), 8);
    }
}
