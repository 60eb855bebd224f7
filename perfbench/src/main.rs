//! One tiered benchmark for jetsim.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|serve_overload|serve_resilient|fleet \
//!     --seed N --seconds S --trace 0|1 [--print-digests]
//! ```
//!
//! With `--trace 0` the run sets the workload up several times (cold
//! engine cache each time), then repeats passes of its operations for
//! `--seconds` and reports the end-to-end metrics. With `--trace 1` it
//! spends half the time on untraced passes and half on traced ones,
//! which drive the same inputs through each layer's public calls inside
//! spans, and reports the per-layer metrics. Every operation's simulated
//! output is checked: it must repeat across passes, equal the traced
//! decomposition's, and for seed 0 equal the pinned digest. The last
//! line of standard output is the JSON result. See `README.md`.

mod anchors;
mod common;
mod fleet;
mod metrics;
mod pins;
mod serve;
mod sweep;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use jetsim_trt::EngineCache;

use crate::common::Counters;
use crate::metrics::{median, ratio, Metric, Source, END_TO_END, PER_LAYER};
use crate::trace::{durations, self_times, sum_by_root, Tracer};
use crate::workload::{OpResult, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// `peak_rss_mb` is read after this many passes, so it reflects a fixed
/// amount of work rather than how many passes the host fitted in.
const RSS_PASSES: usize = 1;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["sweep", "serve_overload", "serve_resilient", "fleet"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
}

const USAGE: &str = "usage: perfbench --workload sweep|serve_overload|serve_resilient|fleet \
                     [--seed N] [--seconds S] [--trace 0|1] [--print-digests]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        print_digests: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--print-digests" {
            args.print_digests = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad value `{value}` for {flag}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value `{value}` for {flag}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name: &'static str = WORKLOADS
        .iter()
        .find(|w| **w == args.workload)
        .expect("validated workload");
    // The verdict travels in the result line; the exit code is 0 once
    // it is printed.
    match name {
        "sweep" => drive::<sweep::Sweep>(name, &args, started),
        "serve_overload" => drive::<serve::ServeOverload>(name, &args, started),
        "serve_resilient" => drive::<serve::ServeResilient>(name, &args, started),
        _ => drive::<fleet::Fleet>(name, &args, started),
    }
    ExitCode::SUCCESS
}

/// Output checks over the whole run.
struct Checker {
    pins: Option<&'static [u64]>,
    first: Vec<Option<OpResult>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checker {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Checks an untraced operation; returns its units and requests.
    fn untraced(&mut self, kind: usize, outcome: std::thread::Result<OpResult>) -> (u64, u64) {
        self.attempted += 1;
        let result = match outcome {
            Ok(result) => result,
            Err(_) => {
                self.fail(format!("op {kind} panicked"));
                return (0, 0);
            }
        };
        let counts = (result.units, result.requests);
        if let Some(problem) = result.problems.first() {
            self.fail(format!("op {kind}: {problem}"));
        } else if let Some(first) = &self.first[kind] {
            if first.digest != result.digest {
                self.fail(format!("op {kind}: output differs between passes"));
            }
        } else {
            let pinned = self.pins.map(|pins| pins.get(kind).copied());
            if let Some(pin) = pinned {
                if pin != Some(result.digest) {
                    self.fail(format!(
                        "op {kind}: digest {:#018x} differs from the pin {pin:#x?}",
                        result.digest
                    ));
                }
            }
            self.first[kind] = Some(result);
        }
        counts
    }

    /// Checks a traced operation's parity digest against the untraced one.
    fn traced(&mut self, kind: usize, parity: std::thread::Result<u64>) {
        self.attempted += 1;
        match (parity, &self.first[kind]) {
            (Ok(parity), Some(first)) if parity == first.parity => {}
            (Ok(_), Some(_)) => {
                self.fail(format!("op {kind}: traced output differs from untraced"))
            }
            (Ok(_), None) => self.fail(format!("op {kind}: no untraced output to compare")),
            (Err(_), _) => self.fail(format!("op {kind} panicked when traced")),
        }
    }
}

/// One timed pass over every operation.
struct Pass {
    secs: f64,
    units: u64,
    requests: u64,
}

/// Repeats passes until `budget` seconds are used (at least one pass;
/// no pass starts that would likely end well past the budget).
fn repeat<P>(budget: f64, mut pass: impl FnMut(usize) -> P, secs: impl Fn(&P) -> f64) -> Vec<P> {
    let start = Instant::now();
    let mut passes: Vec<P> = Vec::new();
    loop {
        passes.push(pass(passes.len()));
        let typical = median(&passes.iter().map(&secs).collect::<Vec<_>>());
        if start.elapsed().as_secs_f64() + 0.5 * typical >= budget {
            return passes;
        }
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload and prints its result.
fn drive<W: Workload>(name: &'static str, args: &Args, started: Instant) {
    let tracer = args.trace.then(|| Tracer::new(name));
    let cache = EngineCache::global();

    // Set-up, several times from a cold engine cache.
    let mut setup_secs = Vec::new();
    let mut setup_counters = Vec::new();
    let mut workload = None;
    for i in 0..SETUPS {
        drop(workload.take());
        cache.clear();
        let start = if i == 0 { started } else { Instant::now() };
        let misses_before = cache.stats().misses;
        workload = Some(match &tracer {
            Some(t) => t.span("bench.setup", None, |id| W::setup(args.seed, Some((t, id)))),
            None => W::setup(args.seed, None),
        });
        setup_secs.push(start.elapsed().as_secs_f64());
        let mut counters = Counters::new();
        let misses = cache.stats().misses - misses_before;
        common::add(&mut counters, "trt.cache.misses", misses as f64);
        setup_counters.push(counters);
    }
    let workload = workload.expect("at least one set-up");
    let kinds = workload.kinds();

    if args.print_digests {
        for kind in 0..kinds {
            println!("{:#018x},", workload.run(kind).digest);
        }
        return;
    }

    let mut check = Checker {
        pins: (args.seed == 0).then(|| pins::pinned(name)),
        first: vec![None; kinds],
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut rss = None;
    let passes = repeat(
        untraced_budget,
        |done| {
            let start = Instant::now();
            let (mut units, mut requests) = (0, 0);
            for kind in 0..kinds {
                let outcome = catch_unwind(AssertUnwindSafe(|| workload.run(kind)));
                let (u, r) = check.untraced(kind, outcome);
                units += u;
                requests += r;
            }
            let secs = start.elapsed().as_secs_f64();
            if done + 1 == RSS_PASSES {
                rss = Some(peak_rss_mb());
            }
            Pass {
                secs,
                units,
                requests,
            }
        },
        |p| p.secs,
    );
    for (kind, first) in check.first.iter().enumerate() {
        if let Some(first) = first {
            println!("check {name} op {kind}: {}", first.headline);
        }
    }

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let pass_secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    match &tracer {
        None => {
            let rate = |f: fn(&Pass) -> u64| {
                median(
                    &passes
                        .iter()
                        .map(|p| f(p) as f64 / p.secs)
                        .collect::<Vec<_>>(),
                )
            };
            values.insert("setup_s", median(&setup_secs));
            values.insert("ops_per_s", rate(|p| p.units));
            values.insert("requests_per_s", rate(|p| p.requests));
            values.insert("peak_rss_mb", rss.unwrap_or_else(peak_rss_mb));
            match anchors::measure_err_pct() {
                Ok(err) => {
                    values.insert("anchor_err_pct", err);
                }
                Err(e) => check.fail(e),
            }
        }
        Some(tracer) => {
            let counters = repeat(
                args.seconds / 2.0,
                |_| {
                    let start = Instant::now();
                    let mut counters = Counters::new();
                    tracer.span("bench.pass", None, |pass| {
                        for kind in 0..kinds {
                            let parity = tracer.span("bench.op", Some(pass), |op| {
                                catch_unwind(AssertUnwindSafe(|| {
                                    workload.run_traced(kind, tracer, op, &mut counters)
                                }))
                            });
                            check.traced(kind, parity);
                        }
                    });
                    (start.elapsed().as_secs_f64(), counters)
                },
                |(secs, _)| *secs,
            );
            let traced_secs: Vec<f64> = counters.iter().map(|(secs, _)| *secs).collect();
            let counters: Vec<Counters> = counters.into_iter().map(|(_, c)| c).collect();
            let spans = tracer.snapshot();
            let path = std::path::PathBuf::from(format!(
                ".bench_out/spans-{name}-seed{}.jsonl",
                args.seed
            ));
            match trace::write_jsonl(&spans, &path) {
                Ok(()) => eprintln!("spans: {}", path.display()),
                Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
            }
            let selfs = self_times(&spans);
            let tables = LayerTables {
                pass_self: sum_by_root(&spans, "bench.pass", &selfs),
                pass_total: sum_by_root(&spans, "bench.pass", &durations(&spans)),
                setup_self: sum_by_root(&spans, "bench.setup", &selfs),
                counters,
                setup_counters,
            };
            for metric in PER_LAYER {
                values.insert(metric.name, tables.value(metric));
            }
            let stats = cache.stats();
            values.insert(
                "trt.cache.hit_rate",
                ratio(stats.hits as f64, (stats.hits + stats.misses) as f64),
            );
            let untraced = median(&pass_secs);
            values.insert(
                "bench.trace_overhead_pct",
                100.0 * ratio(median(&traced_secs) - untraced, untraced),
            );
        }
    }

    for problem in &check.problems {
        eprintln!("FAILED {name}: {problem}");
    }
    let correct = check.failed == 0;
    let catalogue: &[Metric] = if args.trace { PER_LAYER } else { END_TO_END };
    eprintln!(
        "{name} seed {}: {} passes, {} ops attempted, {} failed (failed_frac {})",
        args.seed,
        passes.len(),
        check.attempted,
        check.failed,
        ratio(check.failed as f64, check.attempted as f64)
    );
    let mut fields = Vec::new();
    for metric in catalogue {
        let value = values.get(metric.name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        eprintln!(
            "  {:<28} {value:>18.6} {:<6} ({} is better)",
            metric.name, metric.unit, metric.better
        );
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.attempted,
        check.failed,
        fields.join(", ")
    );
}

/// Per-pass and per-set-up layer readings from the traced run.
struct LayerTables {
    pass_self: Vec<BTreeMap<&'static str, u64>>,
    pass_total: Vec<BTreeMap<&'static str, u64>>,
    setup_self: Vec<BTreeMap<&'static str, u64>>,
    counters: Vec<Counters>,
    setup_counters: Vec<Counters>,
}

fn read(table: &BTreeMap<&'static str, u64>, name: &str) -> f64 {
    table.get(name).copied().unwrap_or(0) as f64
}

fn count(counters: &Counters, name: &str) -> f64 {
    counters.get(name).copied().unwrap_or(0.0)
}

impl LayerTables {
    fn value(&self, metric: &Metric) -> f64 {
        let secs = |tables: &[BTreeMap<&'static str, u64>], span: &str| {
            median(
                &tables
                    .iter()
                    .map(|t| read(t, span) / 1e9)
                    .collect::<Vec<_>>(),
            )
        };
        let per_pass =
            |f: &dyn Fn(usize) -> f64| median(&(0..self.counters.len()).map(f).collect::<Vec<_>>());
        match metric.source {
            Source::PassSelf(span) => secs(&self.pass_self, span),
            Source::PassTotal(span) => secs(&self.pass_total, span),
            Source::SetupSelf(span) => secs(&self.setup_self, span),
            Source::Counter(name) => per_pass(&|i| count(&self.counters[i], name)),
            Source::SetupCounter(name) => median(
                &self
                    .setup_counters
                    .iter()
                    .map(|c| count(c, name))
                    .collect::<Vec<_>>(),
            ),
            Source::NsPer(span, counter) => per_pass(&|i| {
                ratio(
                    read(&self.pass_self[i], span),
                    count(&self.counters[i], counter),
                )
            }),
            Source::Ratio(a, b) => {
                per_pass(&|i| ratio(count(&self.counters[i], a), count(&self.counters[i], b)))
            }
            Source::Run => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "fleet",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet", 7, 10.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "sweep", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sweep", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "sweep", "--seed"]).is_err());
    }

    #[test]
    fn workload_names_are_valid() {
        assert!(WORKLOADS.iter().all(|w| metrics::valid_name(w)));
    }

    #[test]
    fn benchmark_json_lists_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            let field = |v: &serde::Value, k: &str| {
                v.get_field(k)
                    .and_then(serde::Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            doc.get_field(key)
                .and_then(serde::Value::as_seq)
                .expect("a list")
                .iter()
                .map(|v| (field(v, "name"), field(v, "unit"), field(v, "better")))
                .collect()
        };
        let expect = |metrics: &[Metric]| -> Vec<(String, String, String)> {
            metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), expect(END_TO_END));
        assert_eq!(names("per_layer"), expect(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_workload_has_a_pin_list() {
        for w in WORKLOADS {
            assert!(!pins::pinned(w).is_empty(), "{w}");
        }
    }
}
