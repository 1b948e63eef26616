//! `serve-churn`: a `separ serve` daemon, restarted from a store that
//! holds a resident market bundle, driven over a unix socket by two
//! closed-loop connections: one sends churn in a seeded order, the other
//! sends `decide` requests built from the resident policy set.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use separ_analysis::extractor::extract_apk;
use separ_analysis::model::AppModel;
use separ_android::types::perm;
use separ_core::policy::{Policy, PolicyEvent};
use separ_core::signature::SignatureRegistry;
use separ_core::{policy_io, IncrementalSession, SeparConfig, SessionOp};
use separ_corpus::market::{generate, MarketSpec};
use separ_enforce::{
    probe_contexts, CompiledPolicySet, IccContext, LinearPdp, PromptHandler, SharedPdp,
};
use separ_obs::json::{quote, Value};
use separ_serve::protocol::{encode_hex, Request};
use separ_serve::{serve, Daemon, Endpoint, ServeConfig, ServeError, SessionStore};

use crate::layers::{analysis_sweep, packages};
use crate::stats::{median, ms, ns_per_call, quantile, timed, us, Rng, Sheet};
use crate::{Args, Outcome};

/// The market the resident and held-out apps come from. It is fixed:
/// churn cost depends strongly on which apps a 300-app bundle holds,
/// so `--seed` orders the churn instead of choosing the market.
const MARKET_SEED: u64 = 7;
/// Apps resident in the restored store.
const RESIDENT: usize = 300;
/// Apps held out of the store, installed (and later uninstalled) by the
/// churn; one per cycle, so a run of fewer cycles never reinstalls one.
const HELD_OUT: usize = 200;
/// The permission the churn toggles.
const PERMISSION: &str = perm::SEND_SMS;
/// Churn ops replayed in-process by the traced run.
const REPLAY_OPS: usize = 40;
/// Decides compared against the linear reference after the run.
const FINAL_DECIDES: usize = 256;

/// One churn operation, by index into the inputs.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Install held-out app `i`.
    Install(usize),
    /// Reinstall resident app `i` with unchanged bytes (a model-cache hit).
    Reinstall(usize),
    /// Grant or revoke [`PERMISSION`] on resident app `i`.
    Toggle(usize, bool),
    /// Uninstall held-out app `i`.
    Uninstall(usize),
}

/// The seeded churn order: each cycle installs the next held-out app,
/// toggles the permission on one resident app, reinstalls another, and
/// uninstalls the held-out app again, so the bundle stays within one app
/// of its resident size.
#[derive(Debug, Clone)]
struct Script {
    rng: Rng,
    /// Whether each resident app's manifest requests [`PERMISSION`].
    declared: Vec<bool>,
    /// Whether each resident app holds [`PERMISSION`] now.
    granted: Vec<bool>,
    cycle: usize,
}

impl Script {
    fn new(seed: u64, resident: &[AppModel]) -> Script {
        let declared: Vec<bool> = resident
            .iter()
            .map(|m| m.uses_permissions.contains(PERMISSION))
            .collect();
        Script {
            rng: Rng::new(seed ^ 0xC0FFEE),
            granted: declared.clone(),
            declared,
            cycle: 0,
        }
    }

    fn next_cycle(&mut self) -> [Op; 4] {
        let held = self.cycle % HELD_OUT;
        self.cycle += 1;
        let toggled = self.rng.below(self.granted.len());
        self.granted[toggled] = !self.granted[toggled];
        let reinstalled = self.rng.below(self.granted.len());
        // A reinstall replaces the app's model with the one extracted
        // from its package, whose permissions are the manifest's.
        let toggle = Op::Toggle(toggled, self.granted[toggled]);
        self.granted[reinstalled] = self.declared[reinstalled];
        [
            Op::Install(held),
            toggle,
            Op::Reinstall(reinstalled),
            Op::Uninstall(held),
        ]
    }
}

/// A line-per-request client connection.
struct Rpc {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Rpc {
    fn connect(sock: &Path) -> Rpc {
        // The server thread races the first connect to bind.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(sock) {
                Ok(stream) => {
                    return Rpc {
                        reader: BufReader::new(stream.try_clone().expect("clone socket")),
                        writer: stream,
                    }
                }
                Err(e) if Instant::now() >= deadline => panic!("connect {}: {e}", sock.display()),
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Sends one request line and returns the response line.
    fn call(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.write_all(b"\n").expect("send");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("receive");
        response
    }

    /// Sends a request that must succeed and parses its response.
    fn query(&mut self, line: &str) -> Value {
        let response = self.call(line);
        let v = Value::parse(response.trim()).expect("response is JSON");
        assert_eq!(
            v.get("ok").and_then(Value::as_bool),
            Some(true),
            "{line} -> {response}"
        );
        v
    }
}

fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

/// A daemon serving on a socket under a scratch directory of the
/// checkout; dropping it shuts the daemon down and removes the directory.
struct Harness {
    dir: PathBuf,
    sock: PathBuf,
    server: Option<JoinHandle<Result<(), ServeError>>>,
}

impl Harness {
    fn start(dir: PathBuf, threads: usize) -> Harness {
        let sock = dir.join("sock");
        let daemon = Daemon::start(ServeConfig {
            config: SeparConfig {
                threads,
                ..SeparConfig::default()
            },
            store_dir: Some(dir.join("store")),
            ..ServeConfig::default()
        })
        .expect("daemon restores the store");
        assert_eq!(daemon.restored(), (RESIDENT, 0), "the whole store restores");
        let endpoint = Endpoint::Unix(sock.clone());
        let server = std::thread::spawn(move || serve(daemon, &endpoint));
        Harness {
            dir,
            sock,
            server: Some(server),
        }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            Rpc::connect(&self.sock).query(r#"{"cmd":"shutdown"}"#);
            server
                .join()
                .expect("server thread")
                .expect("server stops cleanly");
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct Inputs {
    /// Resident models, in store order.
    resident: Vec<AppModel>,
    resident_bytes: Vec<Vec<u8>>,
    held_bytes: Vec<Vec<u8>>,
    held_packages: Vec<String>,
    decide_lines: Vec<String>,
    harness: Harness,
}

/// A scratch directory inside the checkout, unique to this process and
/// set-up.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_build").join(format!("serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Set-up: generate the market, write the resident bundle to a store,
/// restart the daemon from it, and prepare the request lines.
fn setup(seed: u64, threads: usize, tag: &str) -> Inputs {
    let mut market: Vec<_> = generate(&MarketSpec::scaled(RESIDENT + HELD_OUT, MARKET_SEED))
        .into_iter()
        .map(|m| m.apk)
        .collect();
    Rng::new(MARKET_SEED).shuffle(&mut market);
    Rng::new(seed).shuffle(&mut market[RESIDENT..]);
    let bytes: Vec<Vec<u8>> = market
        .iter()
        .map(|a| separ_dex::codec::encode(a).to_vec())
        .collect();
    let resident: Vec<AppModel> = market[..RESIDENT].iter().map(extract_apk).collect();
    let dir = scratch_dir(tag);
    SessionStore::open(dir.join("store"))
        .and_then(|store| store.persist(&resident))
        .expect("write the resident store");
    let harness = Harness::start(dir, threads);
    let policies = served_policies(&mut Rpc::connect(&harness.sock));
    let decide_lines = probe_contexts(&policies)
        .iter()
        .map(|(event, ctx)| decide_line(*event, ctx))
        .collect();
    Inputs {
        resident,
        resident_bytes: bytes[..RESIDENT].to_vec(),
        held_bytes: bytes[RESIDENT..].to_vec(),
        held_packages: market[RESIDENT..]
            .iter()
            .map(|a| a.package().to_string())
            .collect(),
        decide_lines,
        harness,
    }
}

/// The daemon's current policy set, read back through `query`.
fn served_policies(rpc: &mut Rpc) -> Vec<Policy> {
    let mut json = String::new();
    rpc.query(r#"{"cmd":"query","what":"policies"}"#)
        .get("policies")
        .expect("policies field")
        .write_into(&mut json);
    policy_io::from_json(&json).expect("policy JSON parses")
}

/// The wire form of one `decide` request (prompts answered "deny").
fn decide_line(event: PolicyEvent, ctx: &IccContext) -> String {
    let mut line = format!(
        "{{\"cmd\":\"decide\",\"event\":{},\"sender_app\":{},\"sender_component\":{}",
        quote(event.name()),
        quote(&ctx.sender_app),
        quote(&ctx.sender_component)
    );
    for (key, value) in [
        ("receiver_app", &ctx.receiver_app),
        ("receiver_component", &ctx.receiver_component),
        ("action", &ctx.action),
    ] {
        if let Some(v) = value {
            line.push_str(&format!(",\"{key}\":{}", quote(v)));
        }
    }
    let tags: Vec<String> = ctx.tags.iter().map(|t| quote(t.name())).collect();
    line.push_str(&format!(
        ",\"tags\":[{}],\"prompt\":\"deny\"}}",
        tags.join(",")
    ));
    line
}

/// The wire form of one churn op (built before the request is timed).
fn op_line(inputs: &Inputs, op: Op) -> String {
    let install =
        |bytes: &[u8]| format!(r#"{{"cmd":"install","bytes_hex":"{}"}}"#, encode_hex(bytes));
    match op {
        Op::Install(i) => install(&inputs.held_bytes[i]),
        Op::Reinstall(i) => install(&inputs.resident_bytes[i]),
        Op::Toggle(i, granted) => format!(
            r#"{{"cmd":"set_permission","package":{},"permission":"{PERMISSION}","granted":{granted}}}"#,
            quote(&inputs.resident[i].package)
        ),
        Op::Uninstall(i) => format!(
            r#"{{"cmd":"uninstall","package":{}}}"#,
            quote(&inputs.held_packages[i])
        ),
    }
}

/// What one measured stretch of traffic saw.
#[derive(Debug, Default)]
struct Traffic {
    churn_ms: Vec<f64>,
    decides: u64,
    decide_time: Duration,
    /// Per-decide round trips, kept only when asked for: a run answers
    /// about 50k decides a second, and the samples would otherwise
    /// dominate `peak_rss_mb`.
    decide_us: Vec<f64>,
    failed: u64,
}

impl Traffic {
    fn requests(&self) -> u64 {
        self.churn_ms.len() as u64 + self.decides
    }
}

/// Drives both connections until `seconds` have passed and the churn
/// connection has finished its cycle.
fn traffic(inputs: &Inputs, script: &mut Script, seconds: Duration, keep_decides: bool) -> Traffic {
    let stop = AtomicBool::new(false);
    let mut churn = Rpc::connect(&inputs.harness.sock);
    let mut reads = Rpc::connect(&inputs.harness.sock);
    std::thread::scope(|s| {
        let decider = s.spawn(|| {
            let mut out = Traffic::default();
            for line in inputs.decide_lines.iter().cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let (response, t) = timed(|| reads.call(line));
                out.decides += 1;
                out.decide_time += t;
                if keep_decides {
                    out.decide_us.push(us(t));
                }
                out.failed += u64::from(!is_ok(&response));
            }
            out
        });
        let mut out = Traffic::default();
        let started = Instant::now();
        while out.churn_ms.is_empty() || started.elapsed() < seconds {
            for op in script.next_cycle() {
                let line = op_line(inputs, op);
                let (response, t) = timed(|| churn.call(&line));
                out.churn_ms.push(ms(t));
                out.failed += u64::from(!is_ok(&response));
            }
        }
        stop.store(true, Ordering::Relaxed);
        let reads = decider.join().expect("decide thread");
        Traffic {
            failed: out.failed + reads.failed,
            churn_ms: out.churn_ms,
            ..reads
        }
    })
}

/// The daemon's current bundle, read back through `query`.
fn served_apps(rpc: &mut Rpc) -> Vec<String> {
    rpc.query(r#"{"cmd":"query","what":"apps"}"#)
        .get("apps")
        .and_then(Value::as_arr)
        .expect("apps field")
        .iter()
        .map(|v| v.as_str().expect("package").to_string())
        .collect()
}

/// Sampled decides answered by the daemon, compared with `LinearPdp`.
#[derive(Debug, Default)]
struct Decides {
    sent: u64,
    /// Responses other than `ok`.
    failed: u64,
    /// Decides whose decision differs from the reference's.
    label_mismatches: u64,
    /// Decides whose deciding policy id differs from the reference's.
    id_mismatches: u64,
    first_mismatch: Option<String>,
}

/// Sends up to [`FINAL_DECIDES`] of `probes` and compares each answer
/// with `LinearPdp` over `policies` and `apps`, in decision and in the
/// deciding policy's id.
fn compare_decides(
    rpc: &mut Rpc,
    probes: &[(PolicyEvent, IccContext)],
    policies: &[Policy],
    apps: Vec<String>,
) -> Decides {
    let step = probes.len().div_ceil(FINAL_DECIDES).max(1);
    let mut linear = LinearPdp::new(policies.to_vec(), apps).with_prompt(PromptHandler::AlwaysDeny);
    let mut out = Decides::default();
    for (event, ctx) in probes.iter().step_by(step) {
        let response = rpc.call(&decide_line(*event, ctx));
        out.sent += 1;
        let v = match Value::parse(response.trim()) {
            Ok(v) if v.get("ok").and_then(Value::as_bool) == Some(true) => v,
            _ => {
                out.failed += 1;
                continue;
            }
        };
        let expected = linear.evaluate(*event, ctx);
        let label = v.get("decision").and_then(Value::as_str);
        let id = v.get("policy_id").and_then(Value::as_u64);
        let label_differs = label != Some(expected.label());
        let id_differs = id != expected.policy_id().map(u64::from);
        out.label_mismatches += u64::from(label_differs);
        out.id_mismatches += u64::from(id_differs);
        if (label_differs || id_differs) && out.first_mismatch.is_none() {
            out.first_mismatch = Some(format!(
                "decide {event:?} {ctx:?}: served {label:?}/{id:?}, reference {expected:?}"
            ));
        }
    }
    out
}

/// What the checks after the run sent and found.
#[derive(Debug, Default)]
struct Checked {
    requests: u64,
    failed: u64,
    label_mismatches: u64,
    id_mismatches: u64,
}

impl Checked {
    fn add(&mut self, d: &Decides) {
        self.requests += d.sent;
        self.failed += d.failed;
        self.label_mismatches += d.label_mismatches;
        self.id_mismatches += d.id_mismatches;
    }
}

/// Checks the daemon after the run: every acknowledged churn op was
/// applied, the final state equals a from-scratch analysis of the
/// surviving bundle, and sampled decides match `LinearPdp` over the
/// daemon's current bundle, at the end and again while a held-out app is
/// installed and sends them.
///
/// Two known faults of the daemon show in these comparisons on every
/// seed, in numbers that depend on the seed and the run's length (see
/// `README.md`): decides name policies by ids that `query` does not use,
/// and a held-out sender is treated as outside the bundle. They are
/// counted, not failed; a decision that differs from the reference on
/// the final bundle, where neither fault applies, fails the check.
fn check_final(
    inputs: &Inputs,
    script: &Script,
    threads: usize,
    errors: &mut Vec<String>,
) -> Checked {
    let mut rpc = Rpc::connect(&inputs.harness.sock);
    let applied = rpc
        .query(r#"{"cmd":"stats"}"#)
        .get("ops_coalesced")
        .and_then(Value::as_u64)
        .expect("stats field");
    let acknowledged = 4 * script.cycle as u64;
    if applied != acknowledged {
        errors.push(format!(
            "daemon applied {applied} churn ops, {acknowledged} were acknowledged"
        ));
    }
    let served = served_policies(&mut rpc);
    let apps = served_apps(&mut rpc);

    // Every cycle ends by uninstalling its held-out app, so the
    // survivors are the resident apps with the scripted permissions.
    let survivors: Vec<AppModel> = inputs
        .resident
        .iter()
        .zip(&script.granted)
        .map(|(m, granted)| {
            let mut m = m.clone();
            if *granted {
                m.uses_permissions.insert(PERMISSION.to_string());
            } else {
                m.uses_permissions.remove(PERMISSION);
            }
            m
        })
        .collect();
    let mut expected_apps = packages(&survivors);
    let mut served_apps_sorted = apps.clone();
    expected_apps.sort();
    served_apps_sorted.sort();
    if expected_apps != served_apps_sorted {
        errors.push("the daemon's bundle is not the resident bundle".into());
    }
    let scratch = separ_core::Separ::new()
        .with_threads(threads)
        .analyze_models(survivors)
        .expect("from-scratch analysis");
    let keys = |ps: &[Policy]| -> BTreeSet<String> {
        ps.iter()
            .map(|p| format!("{:?}", p.content_key()))
            .collect()
    };
    if keys(&served) != keys(&scratch.policies) {
        errors.push(format!(
            "served policy set ({} policies) differs from a from-scratch analysis ({})",
            served.len(),
            scratch.policies.len()
        ));
    }

    let mut checked = Checked::default();
    let last = compare_decides(&mut rpc, &probe_contexts(&served), &served, apps);
    if last.label_mismatches > 0 {
        errors.push(format!(
            "{} final decides differ from the reference; first: {}",
            last.label_mismatches,
            last.first_mismatch.as_deref().unwrap_or("-")
        ));
    }
    checked.add(&last);

    // The next held-out app, installed again and sending every probe.
    let held = script.cycle % HELD_OUT;
    let mut churn = |rpc: &mut Rpc, op: Op| {
        checked.requests += 1;
        checked.failed += u64::from(!is_ok(&rpc.call(&op_line(inputs, op))));
    };
    churn(&mut rpc, Op::Install(held));
    let policies = served_policies(&mut rpc);
    let probes: Vec<(PolicyEvent, IccContext)> = probe_contexts(&policies)
        .into_iter()
        .map(|(event, mut ctx)| {
            ctx.sender_app = inputs.held_packages[held].clone();
            (event, ctx)
        })
        .collect();
    let apps = served_apps(&mut rpc);
    let mid = compare_decides(&mut rpc, &probes, &policies, apps);
    churn(&mut rpc, Op::Uninstall(held));
    checked.add(&mid);
    for (when, d) in [("final", &last), ("held-out sender", &mid)] {
        if let Some(first) = &d.first_mismatch {
            eprintln!(
                "serve-churn: known fault, {when} decides: {} decisions and {} policy ids \
                 of {} differ from the reference; first: {first}",
                d.label_mismatches, d.id_mismatches, d.sent
            );
        }
    }
    checked
}

pub fn run(args: &Args, sheet: &mut Sheet) -> Outcome {
    let mut setups = 0;
    let inputs = crate::setup_repeated(sheet, || {
        setups += 1;
        setup(args.seed, args.threads, &setups.to_string())
    });
    let mut script = Script::new(args.seed, &inputs.resident);
    let mut errors = Vec::new();

    let (attempted, failed) = if !args.trace {
        let t = traffic(&inputs, &mut script, args.seconds, false);
        sheet.put("latency_ms_p50", median(&t.churn_ms), "ms");
        sheet.put(
            "throughput_per_s",
            t.decides as f64 / t.decide_time.as_secs_f64(),
            "1/s",
        );
        (t.requests(), t.failed)
    } else {
        let half = args.seconds / 2;
        let plain = traffic(&inputs, &mut script, half, true);
        let obs = separ_obs::global();
        obs.reset();
        obs.enable();
        let traced = traffic(&inputs, &mut script, half, false);
        obs.disable();
        obs.reset();
        let churn_p50 = median(&plain.churn_ms);
        crate::put_overhead(sheet, churn_p50, median(&traced.churn_ms));
        sheet.put("serve.churn_ms_p90", quantile(&plain.churn_ms, 0.9), "ms");
        sheet.put("serve.decide_us_p50", median(&plain.decide_us), "us");
        sheet.put(
            "serve.decide_us_p99",
            quantile(&plain.decide_us, 0.99),
            "us",
        );
        let stats = Rpc::connect(&inputs.harness.sock).query(r#"{"cmd":"stats"}"#);
        let stat = |k: &str| stats.get(k).and_then(Value::as_u64).expect("stats field");
        sheet.count("serve.batches", stat("batches"));
        sheet.count("serve.ops_coalesced", stat("ops_coalesced"));

        analysis_sweep(&inputs.resident_bytes, args.threads, sheet);
        serve_sweep(&inputs, args, sheet);
        let covered = sheet.get("session.apply_batch_ms_p50").expect("swept")
            + sheet.get("pdp.swap_us").expect("swept") / 1e3
            + sheet.get("store.persist_ms").expect("swept");
        crate::put_residual(sheet, churn_p50, covered);
        crate::put_unexercised(sheet, crate::DEVICE_LAYER);
        (
            plain.requests() + traced.requests(),
            plain.failed + traced.failed,
        )
    };
    let checked = check_final(&inputs, &script, args.threads, &mut errors);
    if args.trace {
        sheet.count("serve.decide_mismatches", checked.label_mismatches);
        sheet.count("serve.policy_id_mismatches", checked.id_mismatches);
    }
    for e in &errors {
        eprintln!("serve-churn: {e}");
    }
    Outcome::new(
        attempted + checked.requests,
        failed + checked.failed,
        errors.is_empty(),
    )
}

/// Times the serve layer's public functions in-process: wire parsing,
/// `Daemon::handle` for decides, store persist/restore, and a replay of
/// the churn script through `IncrementalSession::apply_batch` with each
/// delta swapped into a `SharedPdp`.
fn serve_sweep(inputs: &Inputs, args: &Args, sheet: &mut Sheet) {
    let lines = &inputs.decide_lines;
    let parse_ns = ns_per_call(lines.len(), Duration::from_millis(200), || {
        for line in lines {
            std::hint::black_box(Request::parse(line).expect("decide line parses"));
        }
    });
    sheet.put("wire.parse_ns", parse_ns, "ns");

    let dir = scratch_dir("sweep");
    let store = SessionStore::open(dir.join("store")).expect("open store");
    store.persist(&inputs.resident).expect("persist");
    let persist: Vec<f64> = (0..5)
        .map(|_| ms(timed(|| store.persist(&inputs.resident).expect("persist")).1))
        .collect();
    sheet.put("store.persist_ms", median(&persist), "ms");
    let restore: Vec<f64> = (0..5)
        .map(|_| {
            let (restored, t) = timed(|| store.restore().expect("restore"));
            assert_eq!(restored.apps.len(), RESIDENT);
            ms(t)
        })
        .collect();
    sheet.put("store.restore_ms", median(&restore), "ms");

    let daemon = Daemon::start(ServeConfig {
        config: SeparConfig {
            threads: args.threads,
            ..SeparConfig::default()
        },
        store_dir: Some(dir.join("store")),
        ..ServeConfig::default()
    })
    .expect("in-process daemon starts");
    let handle_ns = ns_per_call(lines.len(), Duration::from_millis(200), || {
        for line in lines {
            std::hint::black_box(daemon.handle(line));
        }
    });
    sheet.put("serve.handle_decide_us", handle_ns / 1e3, "us");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);

    let config = SeparConfig {
        threads: args.threads,
        ..SeparConfig::default()
    };
    let mut session = IncrementalSession::new(
        SignatureRegistry::standard(),
        config,
        inputs.resident.clone(),
    )
    .expect("session starts");
    let pdp = SharedPdp::new(CompiledPolicySet::compile(
        session.policies().to_vec(),
        packages(session.apps()),
    ));
    let held: Vec<AppModel> = inputs
        .held_bytes
        .iter()
        .take(REPLAY_OPS.div_ceil(4))
        .map(|b| separ_analysis::extractor::extract(b).expect("held-out app extracts"))
        .collect();
    let mut script = Script::new(args.seed, &inputs.resident);
    let (mut apply_ms, mut swap_us, mut syntheses) = (Vec::new(), Vec::new(), 0usize);
    while apply_ms.len() < REPLAY_OPS {
        for op in script.next_cycle() {
            let op = match op {
                Op::Install(i) => SessionOp::Install(held[i].clone()),
                Op::Reinstall(i) => SessionOp::Install(inputs.resident[i].clone()),
                Op::Toggle(i, granted) => SessionOp::SetPermission {
                    package: inputs.resident[i].package.clone(),
                    permission: PERMISSION.to_string(),
                    granted,
                },
                Op::Uninstall(i) => SessionOp::Uninstall(inputs.held_packages[i].clone()),
            };
            let before = session.total_syntheses();
            let (delta, t) = timed(|| session.apply_batch(vec![op]).expect("op applies"));
            apply_ms.push(ms(t));
            syntheses += session.total_syntheses() - before;
            swap_us.push(us(timed(|| pdp.apply_delta(delta.added, &delta.removed)).1));
        }
    }
    sheet.put("session.apply_batch_ms_p50", median(&apply_ms), "ms");
    sheet.put(
        "session.syntheses_per_op",
        syntheses as f64 / apply_ms.len() as f64,
        "1/op",
    );
    sheet.put("pdp.swap_us", median(&swap_us), "us");
}
