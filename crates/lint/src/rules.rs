//! The lint-rule registry.
//!
//! Each rule detects one dangerous design pattern distilled from the
//! paper's lessons (Section VII) and per-vendor case studies (Section VI).
//! Rules are *syntactic* — they look only at the design's fields — while
//! the [severity](crate::diagnostic::Severity) and
//! [`related_attacks`](crate::diagnostic::Diagnostic::related_attacks) of
//! each finding are *semantic*: the linter cross-references the static
//! analyzer, so a pattern that a feasible attack actually exploits on this
//! design reports as an error, and the same pattern on a design where
//! other defenses hold it down reports as a defense-in-depth warning.
//!
//! The registry is engineered for a global soundness property, proved
//! exhaustively by [`crate::harness`]: on **every** coherent design, every
//! attack the analyzer finds feasible appears in the `related_attacks` of
//! at least one fired finding, and the minimal secure recipe fires
//! nothing.

use rb_core::analyzer::{analyze, AnalysisReport};
use rb_core::attacks::AttackId;
use rb_core::design::{
    BindScheme, ControlVerdict, DeviceAuthScheme, DeviceAuthScheme as Auth, FirmwareKnowledge,
    SetupOrder, VendorDesign,
};
use rb_core::recommend::{recommendations, RecommendationId};

use crate::diagnostic::{Diagnostic, FixIt, LintReport, RuleId, Severity};

/// What a rule's check reports when it fires.
struct Finding {
    /// Dotted path of the triggering design field.
    span: &'static str,
    /// Finding text.
    message: String,
}

/// One registered lint rule.
pub(crate) struct Rule {
    /// Stable identifier. The rule's one-line summary lives on the ID
    /// ([`RuleId::summary`]) so non-lint emitters share it.
    pub(crate) id: RuleId,
    /// Severity when no feasible attack exploits the pattern on the
    /// design at hand.
    pub(crate) base_severity: Severity,
    /// The taxonomy attacks this pattern can contribute to. A finding's
    /// `related_attacks` is this set intersected with the attacks actually
    /// feasible on the linted design.
    pub(crate) covers: &'static [AttackId],
    /// The lessons-learned catalogue entry that fixes the pattern, if any.
    pub(crate) fix: Option<RecommendationId>,
    check: fn(&VendorDesign) -> Option<Finding>,
}

fn rb001(d: &VendorDesign) -> Option<Finding> {
    (d.unbind.dev_id_user_token && !d.checks.verify_unbind_is_bound_user).then(|| Finding {
        span: "checks.verify_unbind_is_bound_user",
        message: "Unbind:(DevId,UserToken) is accepted without verifying that the requesting \
                  user is the bound user; any account holder who knows the device ID can \
                  revoke the victim's binding"
            .to_owned(),
    })
}

fn rb002(d: &VendorDesign) -> Option<Finding> {
    (d.auth == Auth::DevId).then(|| Finding {
        span: "auth",
        message: "the device authenticates to the cloud with its static device ID; anyone \
                  holding the ID can impersonate the device once the message format is known"
            .to_owned(),
    })
}

fn rb003(d: &VendorDesign) -> Option<Finding> {
    d.bind_replaces().then(|| Finding {
        span: "checks.reject_bind_when_bound",
        message: "a binding request for an already-bound device replaces the existing \
                  binding instead of being rejected"
            .to_owned(),
    })
}

fn rb004(d: &VendorDesign) -> Option<Finding> {
    (d.id_scheme.search_space() <= 1 << 32).then(|| Finding {
        span: "id_scheme",
        message: format!(
            "the device-ID space has only {} values and can be enumerated remotely; \
             attacks against the whole product line scale with the ID space",
            d.id_scheme.search_space()
        ),
    })
}

fn rb005(d: &VendorDesign) -> Option<Finding> {
    // Gated on the semantic verdict, not the bare flag: a design whose
    // device sessions are keyed to the user (DevToken) needs no extra
    // session token, and flagging it would dirty the minimal secure
    // recipe.
    matches!(d.hijack_control_verdict(), ControlVerdict::Relayed).then(|| Finding {
        span: "checks.post_binding_session",
        message: "no post-binding session token is issued, and the device session is keyed \
                  to nothing stronger than the static ID: a stolen binding relays the \
                  attacker's commands to the real device"
            .to_owned(),
    })
}

fn rb006(d: &VendorDesign) -> Option<Finding> {
    d.unbind.dev_id_only.then(|| Finding {
        span: "unbind.dev_id_only",
        message: "bare Unbind:DevId is an accepted message; the device ID alone is \
                  sufficient to revoke any user's binding"
            .to_owned(),
    })
}

fn rb007(d: &VendorDesign) -> Option<Finding> {
    (d.bind == BindScheme::AclDevice).then(|| Finding {
        span: "bind",
        message: "the binding message is sent by the device, which therefore received the \
                  user's account credentials during local configuration; a compromised \
                  device exposes the whole account"
            .to_owned(),
    })
}

fn rb008(d: &VendorDesign) -> Option<Finding> {
    d.bind_forgeable().then(|| Finding {
        span: "bind",
        message: match d.bind {
            BindScheme::AclApp => "Bind:(DevId,UserToken) carries no proof of device \
                                   ownership: any logged-in attacker can bind a victim's \
                                   device ID from the WAN"
                .to_owned(),
            BindScheme::AclDevice => "the device-sent binding message can be forged once \
                                      the firmware's message format is known; binding \
                                      carries no proof of local presence"
                .to_owned(),
            // bind_forgeable() is false for capabilities.
            BindScheme::Capability => unreachable!("capability binds are not forgeable"),
        },
    })
}

fn rb009(d: &VendorDesign) -> Option<Finding> {
    d.checks.register_resets_binding.then(|| Finding {
        span: "checks.register_resets_binding",
        message: "a fresh registration for a bound device is treated as a factory reset \
                  and revokes the binding; a forged registration then unbinds the victim"
            .to_owned(),
    })
}

fn rb010(d: &VendorDesign) -> Option<Finding> {
    (d.setup_order == SetupOrder::OnlineFirst && d.bind_forgeable()).then(|| Finding {
        span: "setup_order",
        message: "the setup flow brings the device online before the user binds it, and \
                  the binding message is forgeable: an attacker who wins the race binds \
                  first"
            .to_owned(),
    })
}

fn rb011(d: &VendorDesign) -> Option<Finding> {
    d.checks.concurrent_device_sessions.then(|| Finding {
        span: "checks.concurrent_device_sessions",
        message: "multiple concurrent status sources are accepted for one device ID; a \
                  forged device session coexists quietly with the real one instead of \
                  displacing it"
            .to_owned(),
    })
}

fn rb012(d: &VendorDesign) -> Option<Finding> {
    let opaque_auth = d.auth == DeviceAuthScheme::Opaque;
    let opaque_firmware = d.firmware == FirmwareKnowledge::Opaque;
    (opaque_auth || opaque_firmware).then(|| Finding {
        span: if opaque_auth { "auth" } else { "firmware" },
        message: if opaque_auth {
            "the device-authentication scheme could not be determined; the analysis \
             treats device-message forgery as unconfirmable, not as blocked"
                .to_owned()
        } else {
            "the firmware is unavailable, so device-originated message formats are \
             unknown; verdicts that depend on forging them are unconfirmable"
                .to_owned()
        },
    })
}

/// The full rule registry, in rule-ID order.
pub(crate) fn registry() -> Vec<Rule> {
    use AttackId::*;
    vec![
        Rule {
            id: RuleId::RB001,
            base_severity: Severity::Warning,
            covers: &[A3_2, A4_3],
            fix: Some(RecommendationId::CheckUnbindOwnership),
            check: rb001,
        },
        Rule {
            id: RuleId::RB002,
            base_severity: Severity::Warning,
            covers: &[A1, A3_4, A4_1, A4_2, A4_3],
            fix: Some(RecommendationId::UseDynamicDeviceToken),
            check: rb002,
        },
        Rule {
            id: RuleId::RB003,
            base_severity: Severity::Warning,
            covers: &[A3_3, A4_1],
            fix: Some(RecommendationId::RejectBindWhenBound),
            check: rb003,
        },
        Rule {
            id: RuleId::RB004,
            base_severity: Severity::Warning,
            covers: &[],
            fix: Some(RecommendationId::WidenIdSpace),
            check: rb004,
        },
        Rule {
            id: RuleId::RB005,
            base_severity: Severity::Warning,
            covers: &[A4_1, A4_2, A4_3],
            fix: Some(RecommendationId::AddPostBindingSession),
            check: rb005,
        },
        Rule {
            id: RuleId::RB006,
            base_severity: Severity::Warning,
            covers: &[A3_1, A4_3],
            fix: Some(RecommendationId::DropDevIdOnlyUnbind),
            check: rb006,
        },
        Rule {
            id: RuleId::RB007,
            base_severity: Severity::Warning,
            covers: &[],
            fix: Some(RecommendationId::KeepUserCredentialsOffDevice),
            check: rb007,
        },
        Rule {
            id: RuleId::RB008,
            base_severity: Severity::Warning,
            covers: &[A2, A3_3, A4_1, A4_2, A4_3],
            fix: Some(RecommendationId::UseCapabilityBinding),
            check: rb008,
        },
        Rule {
            id: RuleId::RB009,
            base_severity: Severity::Warning,
            covers: &[A3_4],
            fix: Some(RecommendationId::DoNotResetBindingOnRegister),
            check: rb009,
        },
        Rule {
            id: RuleId::RB010,
            base_severity: Severity::Warning,
            covers: &[A4_2],
            fix: Some(RecommendationId::UseCapabilityBinding),
            check: rb010,
        },
        Rule {
            id: RuleId::RB011,
            base_severity: Severity::Warning,
            covers: &[A1],
            fix: None,
            check: rb011,
        },
        Rule {
            id: RuleId::RB012,
            base_severity: Severity::Note,
            covers: &[],
            fix: None,
            check: rb012,
        },
    ]
}

fn feasible_subset(report: &AnalysisReport, covers: &[AttackId]) -> Vec<AttackId> {
    covers
        .iter()
        .copied()
        .filter(|&a| report.feasible(a))
        .collect()
}

/// Lints one design: runs every registered rule, grades each finding
/// against the analyzer's verdicts, and attaches fix-its from the
/// lessons-learned catalogue.
pub fn lint_design(design: &VendorDesign) -> LintReport {
    let analysis = analyze(design);
    let recs = recommendations(design);
    let diagnostics = registry()
        .into_iter()
        .filter_map(|rule| {
            let finding = (rule.check)(design)?;
            let related_attacks = feasible_subset(&analysis, rule.covers);
            let severity = if related_attacks.is_empty() {
                rule.base_severity
            } else {
                Severity::Error
            };
            let fix = rule.fix.and_then(|id| {
                recs.iter().find(|r| r.id == id).map(|r| FixIt {
                    recommendation: r.id,
                    advice: r.advice.clone(),
                    eliminates: r.eliminates.clone(),
                })
            });
            Some(Diagnostic {
                rule: rule.id,
                severity,
                span: finding.span.to_owned(),
                message: finding.message,
                related_attacks,
                fix,
            })
        })
        .collect();
    LintReport::new(design.vendor.clone(), diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::explore::minimal_secure_design;
    use rb_core::vendors::{belkin, d_link, konke, tp_link, weakest_design};

    #[test]
    fn registry_is_in_rule_id_order_and_complete() {
        // The linter owns RB001–RB012, the head of the full rule list.
        let ids: Vec<RuleId> = registry().iter().map(|rule| rule.id).collect();
        assert_eq!(ids, RuleId::ALL[..12]);
    }

    #[test]
    fn minimal_secure_design_is_lint_clean() {
        let report = lint_design(&minimal_secure_design());
        assert!(
            report.is_clean(),
            "unexpected findings: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn belkin_fires_the_unbind_ownership_error() {
        let report = lint_design(&belkin());
        let hits = report.by_rule(RuleId::RB001);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Error);
        assert_eq!(hits[0].span, "checks.verify_unbind_is_bound_user");
        assert!(hits[0].related_attacks.contains(&AttackId::A3_2));
        let fix = hits[0].fix.as_ref().expect("catalogue has the fix");
        assert_eq!(fix.recommendation, RecommendationId::CheckUnbindOwnership);
        assert!(fix.eliminates.contains(&AttackId::A3_2));
    }

    #[test]
    fn tp_link_fires_reset_and_devid_unbind() {
        let report = lint_design(&tp_link());
        assert!(
            !report.by_rule(RuleId::RB006).is_empty(),
            "Unbind:DevId accepted"
        );
        assert!(
            !report.by_rule(RuleId::RB009).is_empty(),
            "register resets binding"
        );
        assert!(report.flags_attack(AttackId::A3_1));
        assert!(report.flags_attack(AttackId::A4_3));
    }

    #[test]
    fn konke_reports_replacement_not_dos() {
        let report = lint_design(&konke());
        let replace = report.by_rule(RuleId::RB003);
        assert_eq!(replace.len(), 1);
        assert!(replace[0].related_attacks.contains(&AttackId::A3_3));
        // KONKE's replacement semantics defeat A2, so the forgeable-bind
        // finding must not claim the DoS.
        let forgeable = report.by_rule(RuleId::RB008);
        assert_eq!(forgeable.len(), 1);
        assert!(!forgeable[0].related_attacks.contains(&AttackId::A2));
    }

    #[test]
    fn d_link_concurrent_sessions_relate_to_a1() {
        let report = lint_design(&d_link());
        let hits = report.by_rule(RuleId::RB011);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Error);
        assert_eq!(hits[0].related_attacks, vec![AttackId::A1]);
    }

    #[test]
    fn severity_downgrades_when_other_defenses_hold() {
        // Static-ID auth with opaque firmware and a post-binding session:
        // the ID-as-credential pattern is present, but every attack RB002
        // covers is unconfirmable or blocked, so it reports as a warning,
        // and RB012 notes the opacity.
        let mut design = belkin();
        design.auth = DeviceAuthScheme::DevId;
        design.firmware = FirmwareKnowledge::Opaque;
        design.checks.verify_unbind_is_bound_user = true;
        design.checks.post_binding_session = true;
        let report = lint_design(&design);
        let rb002 = report.by_rule(RuleId::RB002);
        assert_eq!(rb002.len(), 1);
        assert_eq!(rb002[0].severity, Severity::Warning);
        let rb012 = report.by_rule(RuleId::RB012);
        assert_eq!(rb012.len(), 1);
        assert_eq!(rb012[0].severity, Severity::Note);
        assert_eq!(rb012[0].span, "firmware");
    }

    #[test]
    fn weakest_design_is_a_wall_of_errors() {
        let report = lint_design(&weakest_design());
        assert!(
            report.count(Severity::Error) >= 4,
            "{:?}",
            report.diagnostics
        );
        for attack in [AttackId::A1, AttackId::A3_1, AttackId::A3_2, AttackId::A4_1] {
            assert!(report.flags_attack(attack), "{attack} unflagged");
        }
    }
}
