//! The traced layer sweep over a bundle: times the public entry point of
//! each analysis layer (dex, analysis, logic+core, enforce) on the
//! workload's own packages, and reads the spans the program records
//! while the obs collector is on.
//!
//! `BundleStats` stage timings read zero while the collector is off, so
//! every time here is taken by this file around the call it names.

use std::collections::BTreeMap;
use std::time::Duration;

use separ_analysis::cache::ModelCache;
use separ_analysis::extractor::extract_apk;
use separ_analysis::model::AppModel;
use separ_analysis::slicing;
use separ_core::signature::SignatureRegistry;
use separ_core::{IncrementalSession, Separ, SeparConfig};
use separ_dex::program::Apk;
use separ_enforce::{probe_contexts, CompiledPolicySet, PromptHandler, SharedPdp};

use crate::stats::{median, ms, ns_per_call, timed, us, Sheet};

/// Self time of the spans named `name`: their duration minus that of
/// their direct children (for `ase.signature`, what is left after
/// translate and solve: encoding, enumeration and decoding).
fn self_time(spans: &[separ_obs::SpanRecord], name: &str) -> Duration {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        *child_ns.entry(s.parent.0).or_default() += s.dur_ns;
    }
    let total: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            s.dur_ns
                .saturating_sub(child_ns.get(&s.id.0).copied().unwrap_or(0))
        })
        .sum();
    Duration::from_nanos(total)
}

/// Package names of a bundle, in order.
pub fn packages(models: &[AppModel]) -> Vec<String> {
    models.iter().map(|m| m.package.clone()).collect()
}

/// Times every analysis layer over `bytes` and records the `dex.*`,
/// `ame.*`, `slice.*`, `ase.*`, `logic.*`, `sat.*`, `pipeline.*`,
/// `session.new_ms` and `pdp.{compile_ms,decide_ns}` metrics.
pub fn analysis_sweep(bytes: &[Vec<u8>], threads: usize, sheet: &mut Sheet) {
    let n = bytes.len() as f64;

    let (apks, decode): (Vec<Apk>, Duration) = timed(|| {
        bytes
            .iter()
            .map(|b| separ_dex::codec::decode(b).expect("generated packages decode"))
            .collect()
    });
    sheet.put("dex.decode_us_per_app", us(decode) / n, "us");

    let (defects, verify) = timed(|| {
        apks.iter()
            .map(|a| separ_dex::verify::verify_dex(&a.dex).len())
            .sum::<usize>()
    });
    std::hint::black_box(defects);
    sheet.put("dex.verify_us_per_app", us(verify) / n, "us");

    let (models, extract): (Vec<AppModel>, Duration) =
        timed(|| apks.iter().map(extract_apk).collect());
    sheet.put("ame.extract_ms_per_app", ms(extract) / n, "ms");
    drop(apks);

    let cache = ModelCache::new();
    for b in bytes {
        cache.get_or_extract(b).expect("generated packages extract");
    }
    let (hits, hit_time) = timed(|| {
        bytes
            .iter()
            .filter(|b| cache.get_or_extract(b).expect("cached").1.is_hit())
            .count()
    });
    assert_eq!(hits, bytes.len(), "second pass over the same bytes hits");
    sheet.put("ame.cache_hit_us", us(hit_time) / n, "us");
    drop(cache);

    let summarize: Vec<f64> = (0..5)
        .map(|_| ms(timed(|| slicing::summarize_bundle(&models)).1))
        .collect();
    sheet.put("slice.summarize_ms", median(&summarize), "ms");

    // Timed with the collector off; a second, traced call gives the
    // span breakdown.
    let synthesize = || {
        Separ::new()
            .with_threads(threads)
            .analyze_models(models.clone())
            .expect("synthesis succeeds")
    };
    let (report, synthesis) = timed(synthesize);
    sheet.put("ase.synthesis_ms", ms(synthesis), "ms");
    let obs = separ_obs::global();
    obs.reset();
    obs.enable();
    std::hint::black_box(synthesize());
    obs.disable();
    let trace = obs.snapshot();
    obs.reset();
    sheet.put("ase.slice_ms", ms(trace.sum_named("ase.slice")), "ms");
    sheet.put(
        "logic.translate_ms",
        ms(trace.sum_named("logic.translate")),
        "ms",
    );
    sheet.put("logic.solve_ms", ms(trace.sum_named("logic.solve")), "ms");
    sheet.put(
        "ase.signature_self_ms",
        ms(self_time(trace.spans(), "ase.signature")),
        "ms",
    );
    sheet.put(
        "pipeline.derive_ms",
        ms(trace.sum_named("pipeline.derive_policies")),
        "ms",
    );
    let stats = &report.stats;
    sheet.count("ame.components", stats.components as u64);
    sheet.count("ame.intents", stats.intents as u64);
    sheet.count("slice.kept", stats.slice_kept as u64);
    sheet.count("slice.dropped", stats.slice_dropped as u64);
    sheet.count("ase.cnf_clauses", stats.cnf_clauses as u64);
    sheet.count("ase.primary_vars", stats.primary_vars as u64);
    sheet.count("sat.conflicts", stats.conflicts);
    sheet.count("sat.propagations", stats.propagations);
    sheet.count("logic.solve_calls", trace.count_named("logic.solve") as u64);
    sheet.count("ase.exploits", report.exploits.len() as u64);
    sheet.count("ase.policies", report.policies.len() as u64);

    let config = SeparConfig {
        threads,
        ..SeparConfig::default()
    };
    let (session, new_time) = timed(|| {
        IncrementalSession::new(SignatureRegistry::standard(), config, models.clone())
            .expect("session starts")
    });
    assert_eq!(
        session.policies().len(),
        report.policies.len(),
        "a new session finds the batch policy set"
    );
    sheet.put("session.new_ms", ms(new_time), "ms");
    drop(session);

    let names = packages(&models);
    let compile: Vec<f64> = (0..5)
        .map(|_| ms(timed(|| CompiledPolicySet::compile(report.policies.clone(), names.clone())).1))
        .collect();
    sheet.put("pdp.compile_ms", median(&compile), "ms");

    let probes = probe_contexts(&report.policies);
    let shared = SharedPdp::new(CompiledPolicySet::compile(report.policies.clone(), names));
    let mut reader = shared.reader();
    let mut prompt = PromptHandler::AlwaysDeny;
    let decide_ns = ns_per_call(probes.len(), Duration::from_millis(200), || {
        for (event, ctx) in &probes {
            std::hint::black_box(reader.evaluate(*event, ctx, &mut prompt));
        }
    });
    sheet.put("pdp.decide_ns", decide_ns, "ns");
}
