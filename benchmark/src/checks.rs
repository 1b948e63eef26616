//! Output checks made apart from the program: every synthesized exploit
//! is re-checked against the extracted models, every policy must trace
//! to an exploit, and the compiled PDP must decide like the retained
//! linear reference.

use std::collections::BTreeMap;

use separ_analysis::model::{AppModel, ComponentModel};
use separ_android::resolution::IntentData;
use separ_core::exploit::Exploit;
use separ_core::policy::{Condition, Policy, PolicyEvent};
use separ_dex::manifest::{ComponentKind, IntentFilterDecl};
use separ_enforce::{CompiledPolicySet, IccContext, LinearPdp, PromptHandler, SharedPdp};

/// Looks up components of a bundle by package and class.
struct Bundle<'a> {
    apps: BTreeMap<&'a str, &'a AppModel>,
}

impl<'a> Bundle<'a> {
    fn new(models: &'a [AppModel]) -> Bundle<'a> {
        Bundle {
            apps: models.iter().map(|m| (m.package.as_str(), m)).collect(),
        }
    }

    fn component(&self, app: &str, class: &str) -> Result<&'a ComponentModel, String> {
        let model = self
            .apps
            .get(app)
            .ok_or_else(|| format!("exploit names app {app}, which is not in the bundle"))?;
        model
            .components
            .iter()
            .find(|c| c.class == class)
            .ok_or_else(|| format!("exploit names {app}/{class}, which the app does not declare"))
    }
}

/// Whether some filter declares `action` (the action half of intent
/// resolution: a filter matches an action only by listing it).
fn declares_action(filters: &[IntentFilterDecl], action: &str) -> bool {
    filters
        .iter()
        .any(|f| f.actions.iter().any(|a| a == action))
}

/// A forged intent reaches `target` if it names it explicitly or carries
/// an action one of its filters declares.
fn intent_reaches(intent: &IntentData, target: &ComponentModel) -> bool {
    match (&intent.explicit_target, &intent.action) {
        (Some(class), _) => *class == target.class,
        (None, Some(action)) => declares_action(&target.filters, action),
        (None, None) => false,
    }
}

/// Re-checks one exploit against the extracted models.
fn check_exploit(bundle: &Bundle<'_>, exploit: &Exploit) -> Result<(), String> {
    match exploit {
        Exploit::IntentHijack {
            victim_app,
            victim_component,
            hijacked_action,
            leaked,
        } => {
            let c = bundle.component(victim_app, victim_component)?;
            let sent: Vec<_> = c
                .sent_intents
                .iter()
                .filter(|i| i.explicit_target.is_none() && i.action == *hijacked_action)
                .collect();
            if sent.is_empty() {
                return Err(format!(
                    "hijack of {victim_app}/{victim_component}: no implicit intent with action {hijacked_action:?}"
                ));
            }
            if let Some(r) = leaked
                .iter()
                .find(|r| !sent.iter().any(|i| i.extra_taints.contains(r)))
            {
                return Err(format!(
                    "hijack of {victim_app}/{victim_component}: no hijackable intent carries {r:?}"
                ));
            }
        }
        Exploit::ComponentLaunch {
            target_app,
            target_component,
            fake_intent,
            ..
        } => {
            let c = bundle.component(target_app, target_component)?;
            if !c.exported {
                return Err(format!(
                    "launch of unexported {target_app}/{target_component}"
                ));
            }
            if !intent_reaches(fake_intent, c) {
                return Err(format!(
                    "launch of {target_app}/{target_component}: forged intent matches no filter"
                ));
            }
        }
        Exploit::PrivilegeEscalation {
            target_app,
            target_component,
            permission,
            fake_intent,
        } => {
            let c = bundle.component(target_app, target_component)?;
            if !c.exported || !intent_reaches(fake_intent, c) {
                return Err(format!(
                    "escalation via {target_app}/{target_component}: forged intent cannot reach it"
                ));
            }
            if !c.used_permissions.contains(permission) {
                return Err(format!(
                    "escalation via {target_app}/{target_component}: it never uses {permission}"
                ));
            }
        }
        Exploit::BroadcastInjection {
            target_app,
            target_component,
            spoofed_action,
            ..
        } => {
            let c = bundle.component(target_app, target_component)?;
            if c.kind != ComponentKind::Receiver || !declares_action(&c.filters, spoofed_action) {
                return Err(format!(
                    "injection into {target_app}/{target_component}: no receiver filter for {spoofed_action}"
                ));
            }
        }
        Exploit::InformationLeakage {
            source_app,
            source_component,
            sink_app,
            sink_component,
            resources,
            sinks,
            via_action,
        } => {
            bundle.component(source_app, source_component)?;
            let sink = bundle.component(sink_app, sink_component)?;
            if resources.is_empty() || sinks.is_empty() {
                return Err(format!(
                    "leak into {sink_app}/{sink_component} names no resource or no sink"
                ));
            }
            if let Some(action) = via_action {
                if !declares_action(&sink.filters, action) {
                    return Err(format!(
                        "leak into {sink_app}/{sink_component}: no filter declares {action}"
                    ));
                }
            }
            if let Some(s) = sinks
                .iter()
                .find(|s| !sink.paths.iter().any(|p| p.sink == **s))
            {
                return Err(format!(
                    "leak into {sink_app}/{sink_component}: the component has no path into {s:?}"
                ));
            }
        }
        Exploit::Custom { name, .. } => {
            return Err(format!("unexpected user-signature exploit {name}"));
        }
    }
    Ok(())
}

/// Every exploit names components, actions and resources that exist in
/// `models`, with filters that match the forged or hijacked action.
pub fn exploits_hold(models: &[AppModel], exploits: &[Exploit]) -> Result<(), String> {
    let bundle = Bundle::new(models);
    exploits.iter().try_for_each(|e| check_exploit(&bundle, e))
}

/// Every policy guards the component of an exploit of its own
/// vulnerability class.
pub fn policies_trace_to_exploits(policies: &[Policy], exploits: &[Exploit]) -> Result<(), String> {
    for p in policies {
        let guarded: Vec<&str> = p
            .conditions
            .iter()
            .filter_map(|c| match c {
                Condition::ReceiverIs(class) | Condition::SenderIs(class) => Some(class.as_str()),
                _ => None,
            })
            .collect();
        let traced = exploits.iter().any(|e| {
            e.kind().name() == p.vulnerability && guarded.contains(&e.guarded_component())
        });
        if !traced {
            return Err(format!(
                "policy {} ({}) guards {guarded:?}, which no {} exploit names",
                p.id, p.vulnerability, p.vulnerability
            ));
        }
    }
    Ok(())
}

/// The compiled PDP decides every context exactly like [`LinearPdp`]
/// (prompts answered "deny" on both sides).
pub fn pdp_matches_reference(
    policies: &[Policy],
    packages: &[String],
    contexts: &[(PolicyEvent, IccContext)],
) -> Result<(), String> {
    let shared = SharedPdp::new(CompiledPolicySet::compile(
        policies.to_vec(),
        packages.to_vec(),
    ));
    let mut reader = shared.reader();
    let mut linear =
        LinearPdp::new(policies.to_vec(), packages.to_vec()).with_prompt(PromptHandler::AlwaysDeny);
    let mut prompt = PromptHandler::AlwaysDeny;
    for (event, ctx) in contexts {
        let compiled = reader.evaluate(*event, ctx, &mut prompt);
        let reference = linear.evaluate(*event, ctx);
        if compiled != reference {
            return Err(format!(
                "PDP disagrees with the linear reference on {event:?} {ctx:?}: {compiled:?} vs {reference:?}"
            ));
        }
    }
    Ok(())
}
