//! # `pram-kit` — building blocks for the paper's algorithms
//!
//! The four building blocks of §2.2 (link, shortcut, alter, expand-by-
//! hashing) plus the two tools the PRAM implementation needs that the MPC
//! algorithms got "for free" (§1.2.2):
//!
//! * [`hashing`] — the pairwise-independent hash family. The paper's whole
//!   point is that *limited-collision hashing* replaces the MPC sorting /
//!   prefix-sum primitives; every table insertion in the workspace goes
//!   through this family. Pairwise independence suffices (paper §2.2), so
//!   a hash function is two words `(a, b)` — exactly what a simulated
//!   processor is allowed to read in O(1) time.
//! * [`compaction`] — approximate compaction (Lemma D.2, Goodrich '91):
//!   map `k` distinguished cells of an array one-to-one into an array of
//!   size `O(k)`. Used by COMPACT and by the per-round block allocation of
//!   EXPAND-MAXLINK (Step 8). We provide a *measured* hash-with-retry
//!   implementation and a *charged-O(1)* mode reflecting the
//!   `n log n`-processor bound the paper invokes (see ARCHITECTURE.md,
//!   "The charge / live-work accounting model").
//! * [`ops`] — SHORTCUT, ALTER, flag-OR termination tests, and host-side
//!   helpers shared by every algorithm crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compaction;
pub mod hashing;
pub mod ops;
pub mod prefix;

pub use compaction::{compact, compact_over, CompactionMode, CompactionResult};
pub use hashing::{PairSet, PairwiseHash};
