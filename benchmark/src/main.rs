//! SEPAR end-to-end benchmark.
//!
//! ```text
//! separ-e2e-bench --workload <batch-cold|serve-churn|device-icc>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds each workload's inputs from `--seed`, measures for
//! `--seconds`, checks the program's outputs apart from the program,
//! and prints one JSON result line last on stdout. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` is a separate run that reports
//! the per-layer metrics, timed around calls into each layer's public
//! functions, plus the tracing overhead. See `README.md`.

mod batch;
mod checks;
mod device;
mod layers;
mod serve_churn;
mod stats;

use std::time::Duration;

use separ_obs::json::Value;
use stats::{median, timed, Sheet};

/// The metrics `BENCHMARK.json` lists under `key` (`end_to_end` or
/// `per_layer`), as `(name, unit)` in its order.
fn declared(key: &str) -> Vec<(String, String)> {
    let spec = Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let field = |m: &Value, f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
    spec.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Layers only `serve-churn` exercises; the other workloads report 0.
const SERVE_LAYER: &[&str] = &[
    "session.apply_batch_ms_p50",
    "session.syntheses_per_op",
    "pdp.swap_us",
    "wire.parse_ns",
    "serve.handle_decide_us",
    "store.persist_ms",
    "store.restore_ms",
    "serve.batches",
    "serve.ops_coalesced",
    "serve.churn_ms_p90",
    "serve.decide_us_p50",
    "serve.decide_us_p99",
    "serve.decide_mismatches",
    "serve.policy_id_mismatches",
];

/// Layers only `device-icc` exercises; the other workloads report 0.
const DEVICE_LAYER: &[&str] = &[
    "dex.vm_launch_us_p50",
    "pep.overhead_us_p50",
    "pep.icc_hooks",
    "pep.delivery_hooks",
    "device.deliveries",
    "device.budget_exhausted",
    "audit.events",
    "audit.events_per_capped_launch",
    "audit.blocked",
];

/// Set-ups per run: at least `MIN_SETUPS`, and more while they have
/// taken less than `SETUP_BUDGET` (up to `MAX_SETUPS`), so a set-up of
/// tens of milliseconds is sampled as steadily as one of a second.
/// `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
    /// Worker threads for analysis: every hardware thread.
    threads: usize,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => trace = Some(value.parse::<u8>().map_err(|e| e.to_string())?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !["batch-cold", "serve-churn", "device-icc"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        let trace = match trace.ok_or("missing --trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("--trace {t}: expected 0 or 1")),
        };
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: Duration::from_secs(seconds),
            trace,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        })
    }
}

/// A run's operation accounting and verdict.
#[derive(Debug)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Outcome {
    fn new(attempted: u64, failed: u64, correct: bool) -> Outcome {
        Outcome {
            attempted,
            failed,
            correct,
        }
    }
}

/// Sets up repeatedly (dropping each earlier result first), records
/// the median as `setup_s` and returns the last set-up.
fn setup_repeated<T>(sheet: &mut Sheet, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    let mut times = Vec::new();
    let mut spent = Duration::ZERO;
    while times.len() < MIN_SETUPS || (spent < SETUP_BUDGET && times.len() < MAX_SETUPS) {
        drop(last.take());
        let (value, t) = timed(&mut setup);
        spent += t;
        times.push(t.as_secs_f64());
        last = Some(value);
    }
    sheet.put("setup_s", median(&times), "s");
    last.expect("at least one set-up")
}

/// `obs.trace_overhead_pct`: the traced figure against the untraced one
/// (both "lower is better" times).
fn put_overhead(sheet: &mut Sheet, plain: f64, traced: f64) {
    sheet.put(
        "obs.trace_overhead_pct",
        (traced / plain - 1.0) * 100.0,
        "%",
    );
}

/// `e2e.residual_*`: the part of an end-to-end time the timed layers do
/// not cover.
fn put_residual(sheet: &mut Sheet, total_ms: f64, covered_ms: f64) {
    let residual = total_ms - covered_ms;
    sheet.put("e2e.residual_ms", residual, "ms");
    sheet.put("e2e.residual_pct", residual / total_ms * 100.0, "%");
}

/// Records 0 for layers the workload does not exercise.
fn put_unexercised(sheet: &mut Sheet, names: &[&'static str]) {
    let per_layer = declared("per_layer");
    for name in names {
        let (_, unit) = per_layer
            .iter()
            .find(|(n, _)| n == name)
            .expect("listed per-layer metric");
        sheet.put(name, 0.0, unit);
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("separ-e2e-bench: {e}");
            std::process::exit(2);
        }
    };
    let mut sheet = Sheet::default();
    let outcome = match args.workload.as_str() {
        "batch-cold" => batch::run(&args, &mut sheet),
        "serve-churn" => serve_churn::run(&args, &mut sheet),
        "device-icc" => device::run(&args, &mut sheet),
        other => unreachable!("workload {other} was validated"),
    };
    sheet.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    let names = declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        sheet.to_json(&names)
    );
}
