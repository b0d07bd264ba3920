//! # `pram-sim` — a synchronous CRCW PRAM simulator
//!
//! This crate implements the machine model of Liu–Tarjan–Zhong (SPAA 2020):
//! an **ARBITRARY CRCW PRAM** — a set of synchronous processors sharing a
//! common memory of words, where in one step a processor may read a cell,
//! write a cell, or do a constant amount of local computation; concurrent
//! reads are unrestricted and concurrent writes to one cell are resolved by
//! letting an *arbitrary* writer succeed.
//!
//! The simulator is built around three ideas:
//!
//! 1. **Synchronous steps.** [`Pram::step`] executes one parallel step over
//!    `nprocs` processors. All reads performed inside the step observe the
//!    memory contents from *before* the step; all writes are committed
//!    together at the end of the step. This matches the textbook PRAM
//!    semantics (read phase, compute phase, write phase) and makes the
//!    simulated algorithms independent of host-thread scheduling.
//! 2. **Pluggable write resolution.** [`WritePolicy`] selects how concurrent
//!    writes to one cell are resolved: a *seeded arbitrary* policy (a
//!    deterministic, order-independent pseudo-random winner), or PRIORITY
//!    (min or max processor id). Every policy is reproducible at any host
//!    thread count, and every machine counts its write conflicts.
//!    Algorithms that are correct on an ARBITRARY CRCW PRAM must produce
//!    correct output under *every* policy and seed; the test suites exploit
//!    this to get much stronger coverage than a single machine would give.
//!    [`Pram::step_combine`] additionally provides the COMBINING CRCW PRAM
//!    (sum / min / max / or), which §B of the paper uses to compute the
//!    number of ongoing vertices before showing how to remove it.
//! 3. **Honest accounting.** [`Stats`] tracks simulated time (steps), work
//!    (sum of active processors over steps), the maximum number of
//!    concurrently active processors, reads/writes, and the space high-water
//!    mark of the memory arena. It also audits the *O(1) local computation*
//!    discipline: the maximum number of memory operations any single
//!    processor performed in a step is recorded, so a step that smuggles a
//!    loop past the model is visible in the numbers. Where the paper charges
//!    O(1) time for a primitive that needs polylog processor slack (see
//!    ARCHITECTURE.md, "The charge / live-work accounting model") the
//!    caller records that charge with [`Pram::charge`].
//!
//! Memory is managed by a size-class arena (`mem::Arena`) so the
//! level/budget block machinery of the paper (allocate a block of size
//! `b_ℓ` per root, every round) reuses space exactly the way the paper's
//! zone argument intends, and the peak live footprint is measurable.
//! Words are 32 bits, the paper's `O(log n)`-bit words: the API passes
//! them as `u64`, a cell holds a value in `[0, 2^32 − 2]` or [`NULL`], and
//! storing any other value panics. Addresses are 32 bits too, so the
//! arena holds at most 2^32 words (see [`mem`]).
//!
//! ```
//! use pram_sim::{Pram, WritePolicy};
//!
//! let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(42));
//! let xs = pram.alloc_filled(8, 0);
//! // 8 processors each write their id+1 into cell 0: ARBITRARY keeps one.
//! pram.step(8, |p, ctx| {
//!     ctx.write(xs, 0, p as u64 + 1);
//! });
//! let winner = pram.get(xs, 0);
//! assert!((1..=8).contains(&winner));
//! assert_eq!(pram.stats().steps, 1);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod ctx;
pub mod error;
pub mod machine;
pub mod mem;
pub mod resolve;
pub mod stats;

pub use ctx::Ctx;
pub use error::PramError;
pub use machine::{Pram, Stamped};
pub use mem::{Handle, MemView, NULL};
pub use resolve::{CombineOp, WritePolicy};
pub use stats::Stats;

/// Mix function used throughout the simulator for seeded pseudo-random
/// decisions (write-resolution priorities, per-processor coins).
///
/// This is `splitmix64`, the finalizer recommended by Vigna; it is a
/// bijection on `u64` with excellent avalanche behaviour, which is all the
/// simulator needs (it is *not* used where the paper requires pairwise
/// independence — see `pram-kit::hashing` for that).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_bijective_on_small_sample() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(splitmix64(i)));
        }
    }

    #[test]
    fn splitmix_avalanche_rough() {
        // Flipping one input bit should flip ~32 output bits on average.
        let mut total = 0u32;
        let trials = 1000;
        for i in 0..trials {
            let a = splitmix64(i);
            let b = splitmix64(i ^ 1);
            total += (a ^ b).count_ones();
        }
        let avg = total as f64 / trials as f64;
        assert!(
            (24.0..40.0).contains(&avg),
            "avalanche average {avg} out of range"
        );
    }
}
