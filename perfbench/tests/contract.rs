//! The benchmark's own tests: the printed result line matches
//! `BENCHMARK.json`, wrong answers are counted, and the simulated counts
//! are exact per seed.

use cc_graph::{gen, seq};
use logdiam_cc::theorem3::{faster_cc, FasterParams};
use perfbench::check::Tally;
use perfbench::input::{Size, Workload};
use perfbench::metrics::{Metric, END_TO_END, PER_LAYER};
use perfbench::Args;
use pram_sim::{Pram, WritePolicy};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result line (no string
/// escapes, which neither uses).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => {
                &kv.iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no key {key}"))
                    .1
            }
            other => panic!("{other:?} is not an object"),
        }
    }
    fn obj(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(kv) => kv,
            other => panic!("{other:?} is not an object"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(xs) => xs,
            other => panic!("{other:?} is not an array"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            other => panic!("{other:?} is not a number"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.b.len(), "trailing input after JSON value");
    v
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn next(&mut self) -> u8 {
        self.ws();
        let c = self.b[self.i];
        self.i += 1;
        c
    }

    fn value(&mut self) -> Json {
        match self.next() {
            b'{' => {
                let mut kv = Vec::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                loop {
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    assert_eq!(self.next(), b':');
                    kv.push((k, self.value()));
                    match self.next() {
                        b'}' => return Json::Obj(kv),
                        c => assert_eq!(c, b','),
                    }
                }
            }
            b'[' => {
                let mut xs = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(xs);
                }
                loop {
                    xs.push(self.value());
                    match self.next() {
                        b']' => return Json::Arr(xs),
                        c => assert_eq!(c, b','),
                    }
                }
            }
            b'"' => {
                let start = self.i;
                while self.b[self.i] != b'"' {
                    assert_ne!(self.b[self.i], b'\\', "string escapes are not supported");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.b[start..self.i - 1].to_vec()).unwrap())
            }
            b't' => self.word("rue", Json::Bool(true)),
            b'f' => self.word("alse", Json::Bool(false)),
            b'n' => self.word("ull", Json::Null),
            _ => {
                let start = self.i - 1;
                while self
                    .b
                    .get(self.i)
                    .is_some_and(|c| b"+-.eE0123456789".contains(c))
                {
                    self.i += 1;
                }
                let s = std::str::from_utf8(&self.b[start..self.i]).unwrap();
                Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number {s}")))
            }
        }
    }

    fn word(&mut self, rest: &str, v: Json) -> Json {
        assert!(self.b[self.i..].starts_with(rest.as_bytes()));
        self.i += rest.len();
        v
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn named_units(entries: &[Json]) -> Vec<(String, String)> {
    entries
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn table(t: &[Metric]) -> Vec<(String, String)> {
    t.iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn benchmark_json_lists_the_printed_metrics_and_the_workloads() {
    let doc = benchmark_json();
    assert_eq!(named_units(doc.get("end_to_end").arr()), table(&END_TO_END));
    assert_eq!(named_units(doc.get("per_layer").arr()), table(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    let command: Vec<&str> = doc.get("command").arr().iter().map(Json::str).collect();
    assert!(command.contains(&"perfbench/Cargo.toml"));
    // Set-up time has the largest bound, and every bound is within 0.25.
    let bound = |name: &str| {
        doc.get("end_to_end")
            .arr()
            .iter()
            .find(|m| m.get("name").str() == name)
            .unwrap()
            .get("bound")
            .num()
    };
    for m in END_TO_END {
        assert!(bound(m.name) > 0.0 && bound(m.name) <= bound("setup_s"));
    }
    assert!(bound("setup_s") <= 0.25);
}

/// Run the benchmark binary on a tiny input and parse its last line.
fn run_tiny(w: Workload, trace: bool) -> Json {
    let dir = temp_dir(&format!("tiny-{}-{}", w.name(), u8::from(trace)));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&dir)
        .args(["--workload", w.name(), "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{} failed: {stderr}", w.name());
    let stdout = String::from_utf8(out.stdout).unwrap();
    parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn tiny_pass_of_each_workload_prints_exactly_the_listed_metrics() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = run_tiny(w, trace);
            let keys: Vec<&str> = r.obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                r.get("correct"),
                &Json::Bool(true),
                "{} trace {trace}",
                w.name()
            );
            assert_eq!(r.get("failed").num(), 0.0);
            assert!(r.get("attempted").num() >= 1.0);
            let metrics = r.get("metrics").obj();
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                .collect();
            let want = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            assert_eq!(printed, table(want), "{} trace {trace}", w.name());
            for (name, v) in metrics {
                let x = v.get("value").num();
                assert!(x.is_finite() && x >= 0.0 || name == "logdiam-obs.overhead");
                // End-to-end metrics are never 0.
                assert!(trace || x > 0.0, "{} {name} = {x}", w.name());
            }
        }
    }
}

#[test]
fn corrupted_labelling_counts_as_a_failed_operation() {
    let g = gen::union_all(&[gen::path(40), gen::cycle(30)]);
    let truth = seq::components(&g);
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
    let labels = faster_cc(&mut pram, &g, 3, &FasterParams::default())
        .run
        .labels;
    let mut tally = Tally::default();
    tally.check_labels("faster_cc", &labels, &truth);
    assert_eq!((tally.attempted, tally.failed), (1, 0));

    // Move vertex 0 into the cycle's component: a wrong partition.
    let mut corrupted = labels.clone();
    corrupted[0] = labels[45];
    tally.check_labels("corrupted faster_cc", &corrupted, &truth);
    // Split the cycle: also wrong.
    let mut split = logdiam_par::unionfind::unionfind_cc(&g);
    split[69] = 69;
    tally.check_labels("corrupted unionfind_cc", &split, &truth);
    assert_eq!((tally.attempted, tally.failed), (3, 2));
    assert!(tally.notes[0].starts_with("corrupted faster_cc"));
}

#[test]
fn pram_counts_repeat_for_a_seed_and_differ_across_seeds() {
    let dir = temp_dir("pram-counts");
    let counts = |seed: u64| {
        let args = Args {
            workload: Workload::SimPath,
            seed,
            seconds: 0.05,
            trace: false,
            size: Size::Tiny,
            one_thread: false,
        };
        let cx = perfbench::run(args, &dir).expect("tiny run");
        assert_eq!(cx.tally.failed, 0, "{:?}", cx.tally.notes);
        let get = |name| cx.values.get(name).expect("simulated counts recorded");
        (get("pram-sim.steps"), get("pram-sim.work"))
    };
    let first = counts(1);
    assert!(first.0 > 0.0 && first.1 > 0.0);
    assert_eq!(counts(1), first);
    assert!((2..8).any(|seed| counts(seed) != first));
}
