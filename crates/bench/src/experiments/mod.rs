//! The experiment suite, E1–E14. Each `eNN` module regenerates one
//! "table/figure" of the reproduction.

pub mod common;
mod e01;
mod e02;
mod e03;
mod e04;
mod e05;
mod e06;
mod e07;
mod e08;
mod e09;
mod e10;
mod e11;
mod e12;
mod e13;
mod e14;

use crate::table::Table;
use crate::Config;

/// All experiment ids in order.
pub const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
];

/// Run one experiment by id.
pub fn run(id: &str, cfg: &Config) -> Vec<Table> {
    match id {
        "e1" => e01::run(cfg),
        "e2" => e02::run(cfg),
        "e3" => e03::run(cfg),
        "e4" => e04::run(cfg),
        "e5" => e05::run(cfg),
        "e6" => e06::run(cfg),
        "e7" => e07::run(cfg),
        "e8" => e08::run(cfg),
        "e9" => e09::run(cfg),
        "e10" => e10::run(cfg),
        "e11" => e11::run(cfg),
        "e12" => e12::run(cfg),
        "e13" => e13::run(cfg),
        "e14" => e14::run(cfg),
        other => panic!("unknown experiment id {other:?} (expected one of {ALL:?})"),
    }
}
