//! `batch-cold`: the paper's RQ3 market, analyzed from package bytes to
//! a compiled PDP by a fresh engine with no model cache, once per round.

use std::time::{Duration, Instant};

use separ_core::pipeline::Report;
use separ_core::Separ;
use separ_corpus::market::{generate, MarketSpec};
use separ_enforce::{probe_contexts, CompiledPolicySet};

use crate::checks;
use crate::layers::{analysis_sweep, packages};
use crate::stats::{median, ms, timed, Sheet};
use crate::{Args, Outcome};

/// Apps in the market (the paper's 4,000-app RQ3 scale).
const MARKET_APPS: usize = 4000;

/// Set-up: generate the market and encode every app to package bytes.
fn setup(seed: u64) -> Vec<Vec<u8>> {
    generate(&MarketSpec::scaled(MARKET_APPS, seed))
        .iter()
        .map(|m| separ_dex::codec::encode(&m.apk).to_vec())
        .collect()
}

/// One round: bytes in, compiled PDP out. Returns the report and the
/// time the PDP compile took.
fn round(bytes: &[Vec<u8>], threads: usize) -> (Report, Duration) {
    let report = Separ::new()
        .with_threads(threads)
        .analyze_packages(bytes)
        .expect("the generated market analyzes");
    let (pdp, compile) =
        timed(|| CompiledPolicySet::compile(report.policies.clone(), packages(&report.apps)));
    std::hint::black_box(pdp);
    (report, compile)
}

/// Re-checks a round's output apart from the program.
fn check(report: &Report) -> Result<(), String> {
    checks::exploits_hold(&report.apps, &report.exploits)?;
    checks::policies_trace_to_exploits(&report.policies, &report.exploits)?;
    checks::pdp_matches_reference(
        &report.policies,
        &packages(&report.apps),
        &probe_contexts(&report.policies),
    )
}

/// Rounds until `seconds` have passed; returns each round's wall time,
/// the last round's output, and whether every round agreed.
fn rounds(bytes: &[Vec<u8>], threads: usize, seconds: Duration) -> (Vec<Duration>, Report, bool) {
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut last: Option<Report> = None;
    let mut stable = true;
    while walls.is_empty() || started.elapsed() < seconds {
        let ((report, _), wall) = timed(|| round(bytes, threads));
        walls.push(wall);
        if let Some(prev) = &last {
            stable &= prev.policies == report.policies && prev.exploits == report.exploits;
        }
        last = Some(report);
    }
    (walls, last.expect("at least one round"), stable)
}

pub fn run(args: &Args, sheet: &mut Sheet) -> Outcome {
    let bytes = crate::setup_repeated(sheet, || setup(args.seed));
    let threads = args.threads;
    if !args.trace {
        let (walls, report, stable) = rounds(&bytes, threads, args.seconds);
        let wall_ms: Vec<f64> = walls.iter().map(|w| ms(*w)).collect();
        let p50 = median(&wall_ms);
        sheet.put("throughput_per_s", MARKET_APPS as f64 / (p50 / 1e3), "1/s");
        sheet.put("latency_ms_p50", p50, "ms");
        return Outcome::new(
            (walls.len() * MARKET_APPS) as u64,
            0,
            stable_and_checked(stable, &report),
        );
    }

    // Traced run: half the time untraced, half with the collector on,
    // for the overhead; then one traced round for the stage breakdown
    // and the layer sweep.
    let half = args.seconds / 2;
    let (plain, _, stable_a) = rounds(&bytes, threads, half);
    let obs = separ_obs::global();
    obs.reset();
    obs.enable();
    let (traced, _, stable_b) = rounds(&bytes, threads, half);
    obs.reset();
    let root = obs.span("bench.round");
    let root_id = root.id();
    let ((report, compile), wall) = timed(|| round(&bytes, threads));
    drop(root);
    let stage = |name: &str| ms(obs.subtree_sum(root_id, name));
    let covered = stage("pipeline.extraction")
        + stage("pipeline.resolution")
        + stage("pipeline.synthesis")
        + stage("pipeline.derive_policies");
    obs.disable();
    obs.reset();
    let round_ms = |walls: &[Duration]| median(&walls.iter().map(|w| ms(*w)).collect::<Vec<_>>());
    crate::put_overhead(sheet, round_ms(&plain), round_ms(&traced));
    crate::put_residual(sheet, ms(wall), covered + ms(compile));

    analysis_sweep(&bytes, threads, sheet);
    crate::put_unexercised(sheet, crate::SERVE_LAYER);
    crate::put_unexercised(sheet, crate::DEVICE_LAYER);
    let attempted = ((plain.len() + traced.len() + 1) * MARKET_APPS) as u64;
    Outcome::new(
        attempted,
        0,
        stable_and_checked(stable_a && stable_b, &report),
    )
}

fn stable_and_checked(stable: bool, report: &Report) -> bool {
    if !stable {
        eprintln!("batch-cold: two rounds produced different exploits or policies");
        return false;
    }
    match check(report) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("batch-cold: {e}");
            false
        }
    }
}
