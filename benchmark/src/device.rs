//! `device-icc`: every component of every app of the enforcement stress
//! bundle launched on a fresh enforced device and run to idle.
//!
//! The bundle is fixed (`scaled(40, 0xFEED)`, the bundle of
//! `tests/enforcement_stress.rs`) because on it some components form
//! self-sustaining ICC cycles that run into the device's delivery
//! budget; `--seed` only orders the launches. A fresh device per launch
//! keeps memory bounded: the leftover queue of a capped launch does not
//! carry over.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use separ_analysis::extractor::extract_apk;
use separ_android::types::Resource;
use separ_core::exploit::{Exploit, VulnKind};
use separ_core::pipeline::Report;
use separ_core::policy::Condition;
use separ_core::Separ;
use separ_corpus::market::{generate, MarketSpec};
use separ_dex::program::Apk;
use separ_enforce::{AuditEvent, Device, PromptHandler};

use crate::layers::{analysis_sweep, packages};
use crate::stats::{median, ms, us, Rng, Sheet};
use crate::{Args, Outcome};

/// The stress bundle: size and seed.
const BUNDLE_APPS: usize = 40;
const BUNDLE_SEED: u64 = 0xFEED;
/// `Device`'s per-call delivery budget for `run_until_idle`.
const DELIVERY_LIMIT: usize = 10_000;

struct Inputs {
    apks: Vec<Apk>,
    report: Report,
    packages: Vec<String>,
    /// `(package, component class)`, in the seeded launch order.
    launches: Vec<(String, String)>,
}

fn setup(seed: u64, threads: usize) -> Inputs {
    let apks: Vec<Apk> = generate(&MarketSpec::scaled(BUNDLE_APPS, BUNDLE_SEED))
        .into_iter()
        .map(|m| m.apk)
        .collect();
    let report = Separ::new()
        .with_threads(threads)
        .analyze_models(apks.iter().map(extract_apk).collect())
        .expect("the stress bundle analyzes");
    let mut launches: Vec<(String, String)> = apks
        .iter()
        .flat_map(|apk| {
            apk.manifest
                .components
                .iter()
                .map(|c| (apk.package().to_string(), c.class.clone()))
        })
        .collect();
    Rng::new(seed).shuffle(&mut launches);
    Inputs {
        packages: packages(&report.apps),
        apks,
        report,
        launches,
    }
}

/// What one launch did.
#[derive(Debug)]
struct Launch {
    ok: bool,
    time: Duration,
    /// `run_until_idle`'s count of envelopes taken off the queue.
    processed: usize,
    /// Envelopes put on the queue, counted from the audit: every enqueue
    /// records one `IccSent`, and a blocked send records none.
    sent: usize,
    icc_hooks: u64,
    delivery_hooks: u64,
    audit_events: usize,
    blocked: usize,
    evaluations: u64,
}

impl Launch {
    /// Whether the launch had more envelopes to deliver than the budget
    /// allows. Judged from the sends, apart from `run_until_idle`'s count.
    fn capped(&self) -> bool {
        self.sent > DELIVERY_LIMIT
    }

    /// Whether `run_until_idle` processed what it should have: every sent
    /// envelope, or exactly the budget when capped.
    fn processed_expected(&self) -> bool {
        self.processed == self.sent.min(DELIVERY_LIMIT)
    }

    /// A failed operation: `launch` returned `false`, or a capped launch
    /// did not process exactly the budget. An uncapped launch that
    /// miscounts is a check failure instead (see [`check_launches`]).
    fn failed(&self) -> bool {
        !self.ok || (self.capped() && !self.processed_expected())
    }

    /// The counts that must repeat exactly for the same launch.
    fn counts(&self) -> (bool, usize, usize, u64, u64, usize, usize) {
        (
            self.ok,
            self.processed,
            self.sent,
            self.icc_hooks,
            self.delivery_hooks,
            self.audit_events,
            self.blocked,
        )
    }
}

/// Launches `(package, class)` on a fresh device, enforced or not, and
/// times launch-to-idle. Device construction and teardown are untimed.
fn launch(
    inputs: &Inputs,
    (package, class): &(String, String),
    enforced: bool,
) -> (Launch, Device) {
    let mut device = Device::new(inputs.apks.clone());
    if enforced {
        device.install_policies(
            inputs.report.policies.clone(),
            inputs.packages.clone(),
            PromptHandler::AlwaysDeny,
        );
    }
    let started = Instant::now();
    let ok = device.launch(package, class);
    let processed = device.run_until_idle();
    let time = started.elapsed();
    let hooks = device.hook_stats();
    let events = device.audit.events();
    let result = Launch {
        ok,
        time,
        processed,
        sent: events
            .iter()
            .filter(|e| matches!(e, AuditEvent::IccSent { .. }))
            .count(),
        icc_hooks: hooks.icc_hooks,
        delivery_hooks: hooks.delivery_hooks,
        audit_events: events.len(),
        blocked: device.audit.blocked_count(),
        evaluations: device.pdp().evaluations(),
    };
    (result, device)
}

/// `(tag, sink, receiver app)` triples an information-leakage policy
/// guards: the policy's tagged resources reaching a real sink in the app
/// hosting the policy's receiver.
fn guarded_leaks(report: &Report) -> BTreeSet<(Resource, Resource, String)> {
    let mut out = BTreeSet::new();
    for p in &report.policies {
        if p.vulnerability != VulnKind::InformationLeakage.name() {
            continue;
        }
        let receiver = p.conditions.iter().find_map(|c| match c {
            Condition::ReceiverIs(class) => Some(class.as_str()),
            _ => None,
        });
        let Some(app) = report.exploits.iter().find_map(|e| match e {
            Exploit::InformationLeakage {
                sink_app,
                sink_component,
                ..
            } if Some(sink_component.as_str()) == receiver => Some(sink_app.clone()),
            _ => None,
        }) else {
            continue;
        };
        for tag in p.conditions.iter().filter_map(|c| match c {
            Condition::ExtraTagged(name) => Resource::from_name(name),
            _ => None,
        }) {
            for sink in [Resource::Sms, Resource::NetworkWrite, Resource::Log] {
                out.insert((tag, sink, app.clone()));
            }
        }
    }
    out
}

/// A guarded leak that fired on `device`, if any.
fn fired_leak(
    device: &Device,
    guarded: &BTreeSet<(Resource, Resource, String)>,
) -> Option<(Resource, Resource, String)> {
    device.audit.events().iter().find_map(|ev| match ev {
        AuditEvent::SinkFired {
            sink, app, tags, ..
        } => tags
            .iter()
            .map(|t| (*t, *sink, app.clone()))
            .find(|triple| guarded.contains(triple)),
        _ => None,
    })
}

/// One pass over every launch. With `check`, also scans each enforced
/// device's audit for guarded leaks (outside the timed interval).
fn round(inputs: &Inputs, check: bool, errors: &mut Vec<String>) -> Vec<Launch> {
    let guarded = if check {
        guarded_leaks(&inputs.report)
    } else {
        BTreeSet::new()
    };
    inputs
        .launches
        .iter()
        .map(|target| {
            let (result, device) = launch(inputs, target, true);
            if check {
                if let Some((tag, sink, app)) = fired_leak(&device, &guarded) {
                    errors.push(format!(
                        "launch {target:?}: guarded leak {tag:?} -> {sink:?} fired in {app}"
                    ));
                }
            }
            drop(device);
            result
        })
        .collect()
}

/// Intercepted ICC events per second of launch time.
fn icc_per_s(launches: &[Launch]) -> f64 {
    let events: u64 = launches
        .iter()
        .map(|l| l.icc_hooks + l.delivery_hooks)
        .sum();
    let time: Duration = launches.iter().map(|l| l.time).sum();
    events as f64 / time.as_secs_f64()
}

/// Rounds until `seconds` have passed. The first round also checks for
/// guarded leaks; every later round must repeat its counts exactly.
fn rounds(inputs: &Inputs, seconds: Duration, errors: &mut Vec<String>) -> Vec<Vec<Launch>> {
    let started = Instant::now();
    let mut out: Vec<Vec<Launch>> = Vec::new();
    while out.is_empty() || started.elapsed() < seconds {
        let first = out.is_empty();
        let launches = round(inputs, first, errors);
        if let Some(reference) = out.first() {
            if reference
                .iter()
                .map(Launch::counts)
                .ne(launches.iter().map(Launch::counts))
            {
                errors.push("two rounds of the same launches counted differently".into());
            }
        }
        out.push(launches);
    }
    out
}

/// Checks each launch of the first round against its unenforced twin
/// (equal send-hook counts) and checks that every uncapped launch
/// processed each envelope it sent. A capped launch that misses the
/// budget is a failed operation, not a check failure: see
/// [`Launch::failed`].
fn check_launches(enforced: &[Launch], plain: &[Launch], errors: &mut Vec<String>) {
    for (i, (e, p)) in enforced.iter().zip(plain).enumerate() {
        if e.icc_hooks != p.icc_hooks {
            errors.push(format!(
                "launch {i}: {} send hooks enforced, {} unenforced",
                e.icc_hooks, p.icc_hooks
            ));
        }
    }
    for l in enforced.iter().chain(plain) {
        if !l.capped() && !l.processed_expected() {
            errors.push(format!(
                "an uncapped launch sent {} envelopes and processed {}",
                l.sent, l.processed
            ));
        }
    }
}

fn failed(launches: &[Launch]) -> u64 {
    launches.iter().filter(|l| l.failed()).count() as u64
}

pub fn run(args: &Args, sheet: &mut Sheet) -> Outcome {
    let inputs = crate::setup_repeated(sheet, || setup(args.seed, args.threads));
    let mut errors = Vec::new();
    let unenforced = |inputs: &Inputs| -> Vec<Launch> {
        inputs
            .launches
            .iter()
            .map(|t| launch(inputs, t, false).0)
            .collect()
    };
    let round_ms = |rs: &[Vec<Launch>]| -> f64 {
        median(
            &rs.iter()
                .map(|r| ms(r.iter().map(|l| l.time).sum()))
                .collect::<Vec<_>>(),
        )
    };

    let all: Vec<Vec<Launch>> = if !args.trace {
        let rs = rounds(&inputs, args.seconds, &mut errors);
        let rates: Vec<f64> = rs.iter().map(|r| icc_per_s(r)).collect();
        let times: Vec<f64> = rs.iter().flatten().map(|l| ms(l.time)).collect();
        sheet.put("throughput_per_s", median(&rates), "1/s");
        sheet.put("latency_ms_p50", median(&times), "ms");
        let plain = unenforced(&inputs);
        check_launches(&rs[0], &plain, &mut errors);
        let mut all = rs;
        all.push(plain);
        all
    } else {
        let half = args.seconds / 2;
        let plain_rounds = rounds(&inputs, half, &mut errors);
        let obs = separ_obs::global();
        obs.reset();
        obs.enable();
        let traced_rounds = rounds(&inputs, half, &mut errors);
        obs.disable();
        obs.reset();
        crate::put_overhead(sheet, round_ms(&plain_rounds), round_ms(&traced_rounds));

        // Each launch of the first round, paired with the same launch on
        // a device without policies.
        let plain = unenforced(&inputs);
        let enforced = &plain_rounds[0];
        check_launches(enforced, &plain, &mut errors);
        let vm_us: Vec<f64> = plain.iter().map(|l| us(l.time)).collect();
        let pep_us: Vec<f64> = enforced
            .iter()
            .zip(&plain)
            .map(|(e, p)| us(e.time) - us(p.time))
            .collect();
        sheet.put("dex.vm_launch_us_p50", median(&vm_us), "us");
        sheet.put("pep.overhead_us_p50", median(&pep_us), "us");
        let sum = |f: fn(&Launch) -> u64| enforced.iter().map(f).sum::<u64>();
        sheet.count("pep.icc_hooks", sum(|l| l.icc_hooks));
        sheet.count("pep.delivery_hooks", sum(|l| l.delivery_hooks));
        sheet.count(
            "device.deliveries",
            sum(|l| l.processed.min(DELIVERY_LIMIT) as u64),
        );
        let capped: Vec<&Launch> = enforced.iter().filter(|l| l.capped()).collect();
        sheet.count("device.budget_exhausted", capped.len() as u64);
        sheet.count("audit.events", sum(|l| l.audit_events as u64));
        let per_capped = if capped.is_empty() {
            0.0
        } else {
            capped.iter().map(|l| l.audit_events as f64).sum::<f64>() / capped.len() as f64
        };
        sheet.put("audit.events_per_capped_launch", per_capped, "count");
        sheet.count("audit.blocked", sum(|l| l.blocked as u64));

        let bytes: Vec<Vec<u8>> = inputs
            .apks
            .iter()
            .map(|a| separ_dex::codec::encode(a).to_vec())
            .collect();
        analysis_sweep(&bytes, args.threads, sheet);
        // Residual: enforced launch time not covered by the VM (the
        // unenforced twin) and the PDP evaluations the hooks made.
        let decide_ms = sheet.get("pdp.decide_ns").expect("swept") / 1e6;
        let total = ms(enforced.iter().map(|l| l.time).sum());
        let covered =
            ms(plain.iter().map(|l| l.time).sum()) + sum(|l| l.evaluations) as f64 * decide_ms;
        crate::put_residual(sheet, total, covered);
        crate::put_unexercised(sheet, crate::SERVE_LAYER);
        let mut all = plain_rounds;
        all.extend(traced_rounds);
        all.push(plain);
        all
    };
    let attempted = all.iter().map(|r| r.len() as u64).sum::<u64>();
    let failed = all.iter().map(|r| failed(r)).sum();
    if let Some(l) = all.iter().flatten().find(|l| l.failed() && l.ok) {
        eprintln!(
            "device-icc: {failed} capped launches failed: each processed {} envelopes, \
             not the budget of {DELIVERY_LIMIT}",
            l.processed
        );
    }
    for e in &errors {
        eprintln!("device-icc: {e}");
    }
    Outcome::new(attempted, failed, errors.is_empty())
}
