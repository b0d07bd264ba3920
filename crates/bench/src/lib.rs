//! # `logdiam-bench` — experiment harness
//!
//! One function per experiment of [`experiments`] (E1–E14). Each returns
//! [`table::Table`]s that the `experiments` binary prints as Markdown —
//! these are the "tables and figures" of the reproduction, listed in
//! `crates/bench/src/experiments/mod.rs`. Criterion benches under
//! `benches/` cover the wall-clock measurements (E8) and simulator
//! throughput.
//!
//! Sizes are chosen so `experiments all` finishes in minutes on a laptop;
//! `--full` enlarges the sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod svc;
pub mod svc_durable;
pub mod svc_mt;
pub mod table;

/// Global experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Enlarged sweeps.
    pub full: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            full: false,
            seed: 0xC0FFEE,
        }
    }
}
