//! The correctness gate: every checked operation is counted as attempted,
//! and every wrong answer, `WriterDead` ticket or panic as failed.
//!
//! The checks are the benchmark's own code. Ground truth comes from the
//! sequential reference in `cc_graph::seq`, or from the small union–find
//! below when a service answer must be replayed through a batch prefix.

/// Attempted and failed operations of one run, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that answered wrongly, died or panicked.
    pub failed: u64,
    /// A note for each of the first [`MAX_NOTES`] failures (printed to
    /// stderr; every failure is counted in `failed` regardless).
    pub notes: Vec<String>,
}

/// Failure notes kept per run.
pub const MAX_NOTES: usize = 32;

impl Tally {
    /// Count one checked operation; `ok == false` counts it as failed.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(what());
            }
        }
    }

    /// Count one labelling: correct iff `labels` induces the same
    /// partition as `truth`.
    pub fn check_labels(&mut self, what: &str, labels: &[u32], truth: &[u32]) {
        let ok = same_partition(labels, truth);
        self.record(ok, || {
            format!("{what}: labelling differs from the reference")
        });
    }

    /// Fold another tally (e.g. a child process's) into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }
}

/// Whether two labellings of the same vertices induce the same partition.
/// Labels must be vertex ids (`< len`), as every entry point here returns.
/// O(n): the label-to-label map must be a bijection.
pub fn same_partition(a: &[u32], b: &[u32]) -> bool {
    let n = a.len();
    if b.len() != n {
        return false;
    }
    let mut fwd = vec![u32::MAX; n];
    let mut bwd = vec![u32::MAX; n];
    for (&x, &y) in a.iter().zip(b) {
        let (xi, yi) = (x as usize, y as usize);
        if xi >= n || yi >= n {
            return false;
        }
        if fwd[xi] == u32::MAX && bwd[yi] == u32::MAX {
            fwd[xi] = y;
            bwd[yi] = x;
        } else if fwd[xi] != y || bwd[yi] != x {
            return false;
        }
    }
    true
}

/// A plain sequential union–find for replaying batch prefixes.
pub struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
        }
    }

    /// Representative of `v`'s set (path halving).
    pub fn find(&mut self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            let gp = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = gp;
            v = gp;
        }
        v
    }

    /// Merge the sets of `u` and `v`.
    pub fn union(&mut self, u: u32, v: u32) {
        let (a, b) = (self.find(u), self.find(v));
        if a != b {
            self.parent[a.max(b) as usize] = a.min(b);
        }
    }

    /// Whether `u` and `v` are in one set.
    pub fn same(&mut self, u: u32, v: u32) -> bool {
        self.find(u) == self.find(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_equality_ignores_label_names() {
        assert!(same_partition(&[0, 0, 2, 2], &[1, 1, 3, 3]));
        assert!(!same_partition(&[0, 0, 2, 2], &[0, 0, 0, 0])); // merged
        assert!(!same_partition(&[0, 0, 0, 0], &[0, 0, 2, 2])); // split
        assert!(!same_partition(&[0, 1], &[0]));
        assert!(!same_partition(&[0, 7], &[0, 1])); // label out of range
    }

    #[test]
    fn tally_counts_failures_with_notes() {
        let mut t = Tally::default();
        t.check_labels("ok", &[0, 0, 2], &[0, 0, 2]);
        t.check_labels("bad", &[0, 1, 2], &[0, 0, 2]);
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert!(t.notes[0].starts_with("bad"));
    }

    #[test]
    fn dsu_unions_and_finds() {
        let mut d = Dsu::new(5);
        d.union(0, 3);
        d.union(3, 4);
        assert!(d.same(0, 4));
        assert!(!d.same(1, 2));
    }
}
