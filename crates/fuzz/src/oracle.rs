//! The oracle set: every fuzz run is judged by the *same* predicates the
//! model checker decides, and the two tools' outputs are cross-checked.
//!
//! Per step the oracle evaluates the five properties of
//! [`rb_mc::explore::Property`] — attacker-bound (RB014),
//! attacker-control and stale-session acceptance (RB015), adversarial
//! user-disconnect (RB016), and rebind-livelock entry (RB017) — using
//! the shared definitions: [`rb_core::spec::user_disconnect_step`],
//! [`rb_mc::model::attacker_controls`],
//! [`rb_mc::model::stale_session_accepted`], and the exhaustive trap-set
//! from [`rb_mc::explore::trap_states`]. A fuzzer that invented its own
//! predicates could silently drift from the checker; sharing them makes
//! divergence a *finding* instead: [`cross_check`] emits `RB013` when
//! the fuzzer observes a violation or a shadow edge the exhaustive
//! checker says is unreachable.

use crate::campaign::FuzzReport;
use crate::dsl::Act;
use rb_core::design::VendorDesign;
use rb_core::diagnostic::{Diagnostic, RuleId, Severity};
use rb_core::spec;
use rb_mc::explore::{McReport, Property};
use rb_mc::model::{self, McAct, PState};

/// The properties the transition `pre --act--> post` violates, in
/// [`Property::ALL`] order. `traps` is [`rb_mc::explore::trap_states`]
/// for the same design.
pub(crate) fn check_step(
    design: &VendorDesign,
    traps: &[bool],
    pre: PState,
    act: McAct,
    post: PState,
) -> Vec<Property> {
    let mut hit = Vec::new();
    if post.bound == Some(spec::Party::Attacker) {
        hit.push(Property::AttackerBound);
    }
    if model::attacker_controls(design, post) {
        hit.push(Property::AttackerControl);
    }
    if spec::user_disconnect_step(pre.abs(), act.spec_act(), post.abs()) {
        hit.push(Property::UserDisconnect);
    }
    if model::stale_session_accepted(design, post) {
        hit.push(Property::StaleSession);
    }
    if traps.get(post.key() as usize).copied().unwrap_or(false) {
        hit.push(Property::RebindLivelock);
    }
    hit
}

/// Whether the act sequence is a legal interleaving that violates
/// `property` at some step. This is the shrinker's acceptance test: a
/// reduction candidate survives only if it still compiles *and* still
/// exhibits the same property.
pub fn violates(design: &VendorDesign, traps: &[bool], acts: &[Act], property: Property) -> bool {
    let Some(compiled) = crate::dsl::compile_seq(design, acts) else {
        return false;
    };
    compiled.iter().any(|c| {
        c.steps
            .iter()
            .any(|&(act, pre, post)| check_step(design, traps, pre, act, post).contains(&property))
    })
}

fn disagreement(span: &str, message: String) -> Diagnostic {
    Diagnostic {
        rule: RuleId::RB013,
        severity: Severity::Error,
        span: span.to_owned(),
        message,
        related_attacks: Vec::new(),
        fix: None,
    }
}

/// The fuzzer⇔checker agreement gate. The exhaustive checker is complete
/// over the product machine, so anything the fuzzer observed must be in
/// its reach set: a fuzz-found property violation the checker calls
/// unreachable, or a fuzz-exercised shadow edge outside the checker's
/// edge set, is an `RB013` cross-tool disagreement. (The converse —
/// checker-found but fuzz-missed — is a *coverage* shortfall, reported
/// through [`FuzzReport::coverage_vs_mc`], not a soundness bug.)
pub fn cross_check(fuzz: &FuzzReport, mc: &McReport) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for finding in &fuzz.findings {
        if mc.witness(finding.property).is_none() {
            diags.push(disagreement(
                "fuzz.vs_mc",
                format!(
                    "{}: fuzzer violated {} (run {}, witness: {}) but rb-mc proves it \
                     unreachable",
                    fuzz.vendor,
                    finding.property,
                    finding.run,
                    crate::campaign::render_acts(&finding.minimal)
                ),
            ));
        }
    }
    for &edge in &fuzz.shadow_edges {
        if !mc.shadow_edges.contains(&edge) {
            diags.push(disagreement(
                "fuzz.vs_mc",
                format!(
                    "{}: fuzzer exercised shadow edge {:?} outside rb-mc's reachable edge set",
                    fuzz.vendor, edge
                ),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::vendors::*;
    use rb_mc::explore::{explore, trap_states};

    #[test]
    fn every_mc_witness_is_flagged_by_the_step_oracle() {
        // The checker's own minimal witnesses, pushed through the fuzz
        // oracle step by step, must report the same property.
        for design in vendor_designs() {
            let traps = trap_states(&design);
            let mc = explore(&design, 1);
            for (property, witness) in mc.violations() {
                let mut s = PState::initial();
                let mut seen = false;
                for &act in witness {
                    let next = model::step(&design, s, act).expect("witness steps");
                    seen |= check_step(&design, &traps, s, act, next).contains(&property);
                    s = next;
                }
                assert!(seen, "{}: {property} witness not flagged", design.vendor);
            }
        }
    }

    #[test]
    fn secure_references_never_trip_the_oracle() {
        for design in [capability_reference(), public_key_reference()] {
            let traps = trap_states(&design);
            // Exhaustively walk every reachable transition.
            let mut frontier = vec![PState::initial()];
            let mut visited = vec![false; rb_mc::model::KEY_SPACE];
            visited[PState::initial().key() as usize] = true;
            while let Some(s) = frontier.pop() {
                for act in McAct::ALL {
                    if let Some(n) = model::step(&design, s, act) {
                        assert!(
                            check_step(&design, &traps, s, act, n).is_empty(),
                            "{}: {act} from {s:?} trips the oracle",
                            design.vendor
                        );
                        if !visited[n.key() as usize] {
                            visited[n.key() as usize] = true;
                            frontier.push(n);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn violates_rejects_illegal_interleavings() {
        let d = weakest_design();
        let traps = trap_states(&d);
        // Unbind before any setup is illegal, so the sequence cannot
        // violate anything even though a later act would.
        let seq = [Act::Unbind, Act::Setup];
        assert!(!violates(&d, &traps, &seq, Property::UserDisconnect));
    }
}
