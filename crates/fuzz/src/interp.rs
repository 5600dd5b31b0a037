//! The live interpreter: compiles an act sequence onto a simulated
//! [`rb_scenario::World`] and checks the cloud against the model after
//! every act.
//!
//! This reuses the model checker's replay machinery
//! ([`rb_mc::replay::LiveSession`]) act for act: honest and adversarial
//! product steps are realized as real packet exchanges (the owner
//! configures the device with the app's AP-mode provisioning request and
//! presses its button where the design asks for local proof, as setup
//! does), [`Act::Control`]
//! lets simulated time pass, and [`Act::Chaos`] injects the benign chaos
//! envelope (duplication + reordering) that must never change an
//! outcome. The interpreter is the expensive end of the pipeline, so the
//! campaign applies it only to *minimal* findings: a shrunk witness that
//! fails to replay live is a model⇔simulator divergence, which is
//! exactly what the cross-check wants surfaced.

use crate::campaign::Finding;
use crate::dsl::{compile_seq, Act};
use rb_core::design::VendorDesign;
use rb_mc::explore::Property;
use rb_mc::model::PState;
use rb_mc::replay::LiveSession;

fn drive(
    design: &VendorDesign,
    session: &mut LiveSession,
    acts: &[Act],
) -> Result<Vec<PState>, String> {
    let compiled = compile_seq(design, acts)
        .ok_or_else(|| format!("{}: not a legal interleaving: {acts:?}", design.vendor))?;
    let mut states = vec![PState::initial()];
    for c in &compiled {
        match c.act {
            Act::Control => session.idle(2_000),
            Act::Chaos(_) => {
                session.inject_benign_chaos();
                session.idle(1_000);
            }
            _ => {}
        }
        for &(mcact, pre, post) in &c.steps {
            session
                .apply(mcact, pre, post)
                .map_err(|e| format!("{}: {} ({mcact}): {e}", design.vendor, c.act))?;
            session
                .assert_cloud(post)
                .map_err(|e| format!("{}: after {} ({mcact}): {e}", design.vendor, c.act))?;
            states.push(post);
        }
    }
    Ok(states)
}

/// Validates one shrunk finding end to end: interprets the minimal
/// witness live and then asserts the violated property against the real
/// simulated world (stale-session acceptance is a model-only predicate
/// with no live observable, so its live validation stops at the
/// per-step cloud checks).
///
/// # Errors
///
/// Returns the first divergence between the model-level finding and the
/// live world.
pub fn validate_finding(design: &VendorDesign, finding: &Finding) -> Result<(), String> {
    let mut session = LiveSession::new(design)?;
    let states = drive(design, &mut session, &finding.minimal)?;
    if finding.property == Property::StaleSession {
        return Ok(());
    }
    session
        .assert_property(finding.property, &states)
        .map_err(|e| format!("{}: {}: {e}", design.vendor, finding.property))
}
