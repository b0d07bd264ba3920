//! # `logdiam-cc` — the paper's algorithms on a simulated CRCW PRAM
//!
//! Implements, on the [`pram_sim`] machine:
//!
//! * [`vanilla`] — Reif '84 random-mate, the paper's **Vanilla algorithm**
//!   (§B.1): `{RANDOM-VOTE; LINK; SHORTCUT; ALTER}` per phase, `O(log n)`
//!   phases whp. Used standalone as a baseline and inside `PREPARE`.
//! * [`theorem1`] — **Connected Components** (§B, Theorem 1):
//!   `PREPARE; {EXPAND; VOTE; LINK; SHORTCUT; ALTER}` —
//!   `O(log d · log log_{m/n} n)` time. The hash-table expansion of §B.3
//!   and the vote of §B.4 are implemented step-for-step, including the
//!   live/dormant machinery and the §B.5 `ñ` update rule that removes the
//!   COMBINING-PRAM assumption.
//! * [`theorem2`] — **Spanning Forest** (§C, Theorem 2): Theorem 1's
//!   phase loop with Vanilla-SF as PREPARE and TREE-LINK + TREE-SHORTCUT
//!   in place of LINK + SHORTCUT — the extended expansion that snapshots
//!   per-round tables, TREE-LINK with `(α, β)` distance labels, and
//!   forest-edge marking on original arcs.
//! * [`theorem3`] — **Faster Connected Components** (§3/§D, Theorem 3):
//!   `COMPACT; {EXPAND-MAXLINK}; Theorem-1 postprocess` —
//!   `O(log d + log log_{m/n} n)` time, with levels, budgets, MAXLINK and
//!   the collision-triggered level increases; a dense renamed subproblem
//!   is solved on a 2-out sample first, then on the arcs it left.
//! * [`baselines`] — Awerbuch–Shiloach '87 (deterministic `O(log n)`),
//!   Liu–Tarjan '19-style label propagation, plus Vanilla above; the
//!   `O(log n)` yardsticks for experiment E7.
//! * [`verify`] — validators for component labelings (against sequential
//!   ground truth) and spanning forests.
//!
//! All algorithms run on *any* [`pram_sim::WritePolicy`] — tests exercise
//! seeded-arbitrary machines under several seeds and both priority orders,
//! since a correct ARBITRARY CRCW algorithm must tolerate every resolution.
//!
//! ## Parameter substitutions
//!
//! The paper fixes constants for its union bounds (`c = 200`,
//! `b_{ℓ+1} = b_ℓ^{1.01}`, `b = δ^{1/18}`, sampling `10 log n / b^{0.1}`)
//! that only bind at astronomically large `n`. Every such constant is a
//! field of [`theorem1::Theorem1Params`] / [`theorem3::FasterParams`], or
//! a documented constant beside either, with laptop-scale defaults;
//! the mechanisms (collision ⇒ dormant ⇒ level-up,
//! random level sampling, MAXLINK toward higher levels, budget
//! double-exponentiation) are untouched. Each field's and constant's docs
//! give the paper's value in brackets; experiment E10 ablates the fields.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod live;
pub mod metrics;
pub mod state;
pub mod theorem1;
pub mod theorem2;
pub mod theorem3;
pub mod vanilla;
pub mod verify;

pub use state::CcState;
