//! Unified diagnostics and the four-way agreement gate.
//!
//! rb-mc emits its verdicts through the same
//! [`Diagnostic`]/[`LintReport`] model the linter and the checker⇔analyzer
//! cross-check use, so one SARIF log (via [`rb_lint::emit`]) carries all
//! three tool families.
//!
//! [`verify_design`] runs the repo's strongest internal-consistency gate. For
//! every design it requires four independently implemented semantics to
//! agree:
//!
//! 1. **MC ⇔ closed-form expectation** — each property verdict must match
//!    the design-predicate formula derived from the paper's reasoning
//!    (`expected`).
//! 2. **MC ⇔ bounded checker** — the product machine refines
//!    [`rb_core::spec`]: the three shared safety properties must get the
//!    same verdict from both explorers.
//! 3. **MC ⇔ static analyzer** — USER-DISCONNECT iff some unbinding or
//!    replacing attack (A3-1..A3-4, A4-1) is feasible.
//! 4. **MC ⇔ linter** — each violation maps to an exact combination of
//!    fired lint rules (e.g. REBIND-LIVELOCK iff the forgeable-bind rule
//!    fired while every escape-hatch rule — replacement, unchecked token
//!    unbind, bare unbind, register-reset — stayed silent).
//!
//! Any disagreement is reported as an `RB013` diagnostic, the same rule
//! the spec-level cross-check uses; `exp_mc` fails its run when one
//! appears anywhere in the 17,920-design space.

use crate::explore::{explore, McReport, Property};
use rb_core::analyzer::{analyze, AnalysisReport};
use rb_core::attacks::AttackId;
use rb_core::design::VendorDesign;
use rb_core::diagnostic::{Diagnostic, LintReport, RuleId, Severity};
use rb_core::spec;
use rb_lint::rules::lint_rules;
use serde::{Deserialize, Serialize};

/// The closed-form expectation for each property, derived from the
/// design predicates the paper's reasoning justifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Expected {
    /// ATTACKER-BOUND ⇔ the binding message is forgeable.
    pub(crate) attacker_bound: bool,
    /// ATTACKER-CONTROL ⇔ forgeable bind ∧ the control verdict is
    /// `Relayed`.
    pub(crate) attacker_control: bool,
    /// USER-DISCONNECT ⇔ some A3 variant or A4-1 is feasible.
    pub(crate) user_disconnect: bool,
    /// REBIND-LIVELOCK ⇔ forgeable bind ∧ sticky cloud ∧ every honest
    /// escape hatch closed.
    pub(crate) rebind_livelock: bool,
}

impl Expected {
    /// The expected verdict for `property` (STALE-SESSION is expected
    /// unreachable everywhere).
    pub(crate) fn of(self, property: Property) -> bool {
        match property {
            Property::AttackerBound => self.attacker_bound,
            Property::AttackerControl => self.attacker_control,
            Property::UserDisconnect => self.user_disconnect,
            Property::StaleSession => false,
            Property::RebindLivelock => self.rebind_livelock,
        }
    }
}

/// The attacks whose feasibility the analyzer must report for
/// USER-DISCONNECT to be expected.
pub const DISCONNECT_ATTACKS: [AttackId; 5] = [
    AttackId::A3_1,
    AttackId::A3_2,
    AttackId::A3_3,
    AttackId::A3_4,
    AttackId::A4_1,
];

/// Computes the closed-form expectation for one design, given its
/// analyzer report.
pub(crate) fn expected(design: &VendorDesign, analysis: &AnalysisReport) -> Expected {
    let relayed = design.hijack_yields_control();
    // Honest escape hatches out of an attacker-held binding: an
    // ownership-unchecked token unbind, the bare reset-channel unbind, a
    // register-reset, or plain rebinding over a non-sticky cloud.
    let token_escape =
        design.unbind.dev_id_user_token && !design.checks.verify_unbind_is_bound_user;
    let trapped = design.checks.reject_bind_when_bound
        && !token_escape
        && !design.unbind.dev_id_only
        && !design.checks.register_resets_binding;
    Expected {
        attacker_bound: design.bind_forgeable(),
        attacker_control: design.bind_forgeable() && relayed,
        user_disconnect: DISCONNECT_ATTACKS.iter().any(|&a| analysis.feasible(a)),
        rebind_livelock: design.bind_forgeable() && trapped,
    }
}

/// Converts a model-checking report into the shared diagnostic model: one
/// `Error` finding per violated property, carrying the minimal witness in
/// the message and the feasible attacks the property corresponds to
/// (`analysis` is the design's analyzer report).
pub(crate) fn to_lint_report(analysis: &AnalysisReport, mc: &McReport) -> LintReport {
    let diagnostics = mc
        .violations()
        .into_iter()
        .map(|(property, witness)| {
            let (span, covers): (&str, &[AttackId]) = match property {
                Property::AttackerBound => (
                    "mc.attacker_bound",
                    &[
                        AttackId::A2,
                        AttackId::A3_3,
                        AttackId::A4_1,
                        AttackId::A4_2,
                        AttackId::A4_3,
                    ],
                ),
                Property::AttackerControl => (
                    "mc.attacker_control",
                    &[AttackId::A4_1, AttackId::A4_2, AttackId::A4_3],
                ),
                Property::UserDisconnect => ("mc.user_disconnect", &DISCONNECT_ATTACKS),
                Property::StaleSession => ("mc.stale_session", &[]),
                Property::RebindLivelock => ("mc.rebind_livelock", &[AttackId::A2]),
            };
            let steps = witness
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" -> ");
            Diagnostic {
                rule: property.rule_id(),
                severity: Severity::Error,
                span: span.to_owned(),
                message: format!(
                    "{property} violated; minimal witness ({} steps): {steps}",
                    witness.len()
                ),
                related_attacks: covers
                    .iter()
                    .copied()
                    .filter(|&a| analysis.feasible(a))
                    .collect(),
                fix: None,
            }
        })
        .collect();
    LintReport::new(mc.vendor.clone(), diagnostics)
}

/// A full verification of one design: the exploration report, its
/// findings in the shared diagnostic model, and any cross-tool
/// disagreements (`RB013`).
#[derive(Debug, Clone)]
pub struct Verification {
    /// The exploration report.
    pub mc: McReport,
    /// The violations as a lint-compatible report.
    pub findings: LintReport,
    /// Disagreements between the checker, the analyzer, the bounded spec
    /// checker, and the linter. Empty on a consistent build.
    pub disagreements: Vec<Diagnostic>,
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

/// Verifies one design with `threads` explorer workers and cross-checks
/// the verdicts against the analyzer, the bounded checker, and the
/// linter. Each semantics runs once: the one analyzer report feeds the
/// expectation, the findings' related attacks and the lint rules pass.
pub fn verify_design(design: &VendorDesign, threads: usize) -> Verification {
    let analysis = analyze(design);
    let mc = explore(design, threads);
    let findings = to_lint_report(&analysis, &mc);
    let mut disagreements = Vec::new();

    // 1. MC ⇔ closed-form expectation.
    let want = expected(design, &analysis);
    for property in Property::ALL {
        let got = mc.witness(property).is_some();
        if got != want.of(property) {
            disagreements.push(disagreement(
                "mc.expected",
                format!(
                    "{}: {property} reachable={got} but the design predicates expect {}",
                    design.vendor,
                    want.of(property)
                ),
            ));
        }
    }

    // 2. MC ⇔ bounded checker (the product machine refines the spec).
    let bounded = spec::check(design);
    for (property, bounded_witness) in [
        (Property::AttackerBound, &bounded.attacker_bound),
        (Property::AttackerControl, &bounded.attacker_control),
        (Property::UserDisconnect, &bounded.user_disconnect),
    ] {
        let got = mc.witness(property).is_some();
        if got != bounded_witness.is_some() {
            disagreements.push(disagreement(
                "mc.vs_spec",
                format!(
                    "{}: {property} reachable={got} in the product machine but {} in the \
                     bounded checker",
                    design.vendor,
                    bounded_witness.is_some()
                ),
            ));
        }
    }

    // 3/4. MC ⇔ linter: each verdict maps to an exact fired-rule pattern.
    // Only the rules pass: the gate reads which rules fired, never their
    // fix-its.
    let lint = lint_rules(design, &analysis);
    let fired = |rule: RuleId| !lint.by_rule(rule).is_empty();
    let lint_gates = [
        (
            Property::AttackerBound,
            fired(RuleId::RB008),
            "forgeable-bind rule RB008",
        ),
        (
            Property::AttackerControl,
            fired(RuleId::RB008) && fired(RuleId::RB005),
            "RB008 ∧ weak-session rule RB005",
        ),
        (
            Property::UserDisconnect,
            DISCONNECT_ATTACKS.iter().any(|&a| lint.flags_attack(a)),
            "a fired finding related to A3-1..A3-4/A4-1",
        ),
        (
            Property::RebindLivelock,
            fired(RuleId::RB008)
                && !fired(RuleId::RB003)
                && !fired(RuleId::RB001)
                && !fired(RuleId::RB006)
                && !fired(RuleId::RB009),
            "RB008 with every escape-hatch rule silent",
        ),
    ];
    for (property, lint_says, meaning) in lint_gates {
        let got = mc.witness(property).is_some();
        if got != lint_says {
            disagreements.push(disagreement(
                "mc.vs_lint",
                format!(
                    "{}: {property} reachable={got} but the linter ({meaning}) says \
                     {lint_says}",
                    design.vendor
                ),
            ));
        }
    }

    Verification {
        mc,
        findings,
        disagreements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::vendors::*;

    // Cross-checks every design in `designs`; returns all disagreements.
    // Empty means the model checker, the bounded checker, the static
    // analyzer, and the linter agree everywhere.
    fn cross_check(designs: &[VendorDesign], threads: usize) -> Vec<Diagnostic> {
        designs
            .iter()
            .flat_map(|d| verify_design(d, threads).disagreements)
            .collect()
    }

    #[test]
    fn the_ten_vendors_verify_consistently() {
        let disagreements = cross_check(&vendor_designs(), 2);
        assert!(disagreements.is_empty(), "{disagreements:#?}");
    }

    #[test]
    fn references_verify_secure_and_consistent() {
        for design in [capability_reference(), public_key_reference()] {
            let v = verify_design(&design, 2);
            assert!(v.mc.is_secure(), "{}", design.vendor);
            assert!(v.findings.is_clean());
            assert!(v.disagreements.is_empty(), "{:#?}", v.disagreements);
        }
    }

    #[test]
    fn findings_carry_witnesses_and_related_attacks() {
        let v = verify_design(&e_link(), 2);
        let control = v.findings.by_rule(RuleId::RB015);
        assert_eq!(control.len(), 1);
        assert!(control[0].message.contains("minimal witness"));
        assert!(control[0].message.contains("atk-bind"));
        assert!(!control[0].related_attacks.is_empty());
    }

    #[test]
    fn a_sampled_slice_of_the_space_has_no_disagreements() {
        // The full 17,920-design sweep runs in exp_mc; a strided sample
        // keeps the unit suite fast while still crossing every scheme.
        let sample: Vec<_> = rb_core::explore::all_designs()
            .into_iter()
            .step_by(7)
            .collect();
        let disagreements = cross_check(&sample, 1);
        assert!(
            disagreements.is_empty(),
            "{} disagreements, first: {:?}",
            disagreements.len(),
            disagreements.first()
        );
    }
}
