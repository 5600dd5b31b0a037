//! The lessons-learned engine (paper Section VII).
//!
//! Given a [`VendorDesign`] and its analyzer report, [`recommendations`]
//! emits the subset of the paper's remediation advice that applies — each
//! item tied to the design element that triggers it and to the attacks it
//! would eliminate.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::analyzer::{analyze, AnalysisReport};
use crate::attacks::AttackId;
use crate::design::{BindScheme, DeviceAuthScheme, VendorDesign};

/// One actionable recommendation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Short identifier (mirrors Section VII's four lessons plus the
    /// per-check fixes of Sections IV/V).
    pub id: RecommendationId,
    /// What to change.
    pub advice: String,
    /// Attacks this change eliminates on the analyzed design (computed by
    /// re-running the analyzer on the patched design).
    pub eliminates: Vec<AttackId>,
}

/// Identifiers for the recommendation catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RecommendationId {
    /// Lesson 1: replace static-ID authentication with dynamic tokens.
    UseDynamicDeviceToken,
    /// Lesson 2: authorize binding by capability (local ownership proof).
    UseCapabilityBinding,
    /// Lesson 3: enforce the bound-user check on revocation.
    CheckUnbindOwnership,
    /// Lesson 3 (variant): stop accepting bare `Unbind:DevId`.
    DropDevIdOnlyUnbind,
    /// Lesson 3 (variant): reject binds while bound instead of replacing.
    RejectBindWhenBound,
    /// Lesson 4: never deliver user account credentials to the device.
    KeepUserCredentialsOffDevice,
    /// Section IV-B: issue a post-binding session token to both parties.
    AddPostBindingSession,
    /// Section VII preamble: stop using enumerable ID spaces.
    WidenIdSpace,
    /// Section VI-B (TP-LINK): registration must not revoke bindings.
    DoNotResetBindingOnRegister,
}

impl fmt::Display for RecommendationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RecommendationId::UseDynamicDeviceToken => "use-dynamic-device-token",
            RecommendationId::UseCapabilityBinding => "use-capability-binding",
            RecommendationId::CheckUnbindOwnership => "check-unbind-ownership",
            RecommendationId::DropDevIdOnlyUnbind => "drop-devid-only-unbind",
            RecommendationId::RejectBindWhenBound => "reject-bind-when-bound",
            RecommendationId::KeepUserCredentialsOffDevice => "keep-user-credentials-off-device",
            RecommendationId::AddPostBindingSession => "add-post-binding-session",
            RecommendationId::WidenIdSpace => "widen-id-space",
            RecommendationId::DoNotResetBindingOnRegister => "no-reset-on-register",
        };
        f.write_str(s)
    }
}

/// The attacks `before` (the unpatched design's report) finds feasible
/// and the patched design no longer allows.
fn eliminated_by(before: &AnalysisReport, patched: &VendorDesign) -> Vec<AttackId> {
    let after = analyze(patched);
    AttackId::ALL
        .iter()
        .copied()
        .filter(|&a| before.feasible(a) && !after.feasible(a))
        .collect()
}

/// Emits the applicable recommendations for a design, each annotated with
/// the attacks it eliminates (possibly empty when the fix is
/// defense-in-depth on this particular design). `before` is
/// [`analyze`]`(design)`, which the caller has already computed.
pub fn recommendations(design: &VendorDesign, before: &AnalysisReport) -> Vec<Recommendation> {
    let mut out = Vec::new();

    if design.auth == DeviceAuthScheme::DevId {
        let mut patched = design.clone();
        patched.auth = DeviceAuthScheme::DevToken;
        out.push(Recommendation {
            id: RecommendationId::UseDynamicDeviceToken,
            advice: format!(
                "{}: authenticate the device with a dynamic DevToken requested by the user \
                 during local configuration instead of the static device ID",
                design.vendor
            ),
            eliminates: eliminated_by(before, &patched),
        });
    }

    if design.bind != BindScheme::Capability {
        let mut patched = design.clone();
        patched.bind = BindScheme::Capability;
        patched.checks.bind_requires_local_proof = false;
        out.push(Recommendation {
            id: RecommendationId::UseCapabilityBinding,
            advice: format!(
                "{}: authorize binding with a BindToken that must travel through the \
                 victim's local network (capability-based binding)",
                design.vendor
            ),
            eliminates: eliminated_by(before, &patched),
        });
    }

    if design.unbind.dev_id_user_token && !design.checks.verify_unbind_is_bound_user {
        let mut patched = design.clone();
        patched.checks.verify_unbind_is_bound_user = true;
        out.push(Recommendation {
            id: RecommendationId::CheckUnbindOwnership,
            advice: format!(
                "{}: on Unbind:(DevId,UserToken), verify the requesting user is the bound user",
                design.vendor
            ),
            eliminates: eliminated_by(before, &patched),
        });
    }

    if design.unbind.dev_id_only {
        let mut patched = design.clone();
        patched.unbind.dev_id_only = false;
        out.push(Recommendation {
            id: RecommendationId::DropDevIdOnlyUnbind,
            advice: format!(
                "{}: stop accepting Unbind:DevId — anyone holding the ID can revoke the binding",
                design.vendor
            ),
            eliminates: eliminated_by(before, &patched),
        });
    }

    if design.bind_replaces() {
        let mut patched = design.clone();
        patched.checks.reject_bind_when_bound = true;
        if !patched.unbind.any() {
            // Keep the patched design coherent: with sticky bindings the
            // design must offer real revocation.
            patched.unbind.dev_id_user_token = true;
            patched.checks.verify_unbind_is_bound_user = true;
        }
        out.push(Recommendation {
            id: RecommendationId::RejectBindWhenBound,
            advice: format!(
                "{}: reject binding requests while the device is bound instead of \
                 replacing the existing binding (and provide a checked unbind operation)",
                design.vendor
            ),
            eliminates: eliminated_by(before, &patched),
        });
    }

    if design.bind == BindScheme::AclDevice {
        out.push(Recommendation {
            id: RecommendationId::KeepUserCredentialsOffDevice,
            advice: format!(
                "{}: never deliver the user's account credentials to the device; a \
                 compromised device exposes the whole account",
                design.vendor
            ),
            // Credential exposure is a confidentiality risk beyond the
            // taxonomy; it does not map to an A1–A4 elimination.
            eliminates: Vec::new(),
        });
    }

    if !design.checks.post_binding_session {
        let mut patched = design.clone();
        patched.checks.post_binding_session = true;
        out.push(Recommendation {
            id: RecommendationId::AddPostBindingSession,
            advice: format!(
                "{}: issue a random session token to both user and device at binding time \
                 and require it on all subsequent traffic",
                design.vendor
            ),
            eliminates: eliminated_by(before, &patched),
        });
    }

    if design.id_scheme.search_space() <= 1 << 32 {
        out.push(Recommendation {
            id: RecommendationId::WidenIdSpace,
            advice: format!(
                "{}: the device-ID space has only {} values — enumerable remotely; use \
                 long random identifiers (and still never treat them as secrets)",
                design.vendor,
                design.id_scheme.search_space()
            ),
            // Widening the space raises attack cost but the taxonomy
            // assumes the ID is already known (ownership-transfer leak).
            eliminates: Vec::new(),
        });
    }

    if design.checks.register_resets_binding {
        let mut patched = design.clone();
        patched.checks.register_resets_binding = false;
        out.push(Recommendation {
            id: RecommendationId::DoNotResetBindingOnRegister,
            advice: format!(
                "{}: a registration message must not revoke the binding; handle factory \
                 reset through an authorized revocation instead",
                design.vendor
            ),
            eliminates: eliminated_by(before, &patched),
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendors::*;

    fn recs_of(design: &VendorDesign) -> Vec<Recommendation> {
        recommendations(design, &analyze(design))
    }

    fn ids(recs: &[Recommendation]) -> Vec<RecommendationId> {
        recs.iter().map(|r| r.id).collect()
    }

    #[test]
    fn belkin_gets_the_unbind_ownership_fix() {
        let recs = recs_of(&belkin());
        let rec = recs
            .iter()
            .find(|r| r.id == RecommendationId::CheckUnbindOwnership)
            .expect("belkin lacks the bound-user check");
        assert!(rec.eliminates.contains(&AttackId::A3_2));
    }

    #[test]
    fn tp_link_gets_the_full_battery() {
        let recs = recs_of(&tp_link());
        let got = ids(&recs);
        assert!(got.contains(&RecommendationId::UseDynamicDeviceToken));
        assert!(got.contains(&RecommendationId::DropDevIdOnlyUnbind));
        assert!(got.contains(&RecommendationId::KeepUserCredentialsOffDevice));
        assert!(got.contains(&RecommendationId::DoNotResetBindingOnRegister));
        // Dropping DevId-only unbind kills A3-1 and (with it) A4-3's step 1.
        let drop = recs
            .iter()
            .find(|r| r.id == RecommendationId::DropDevIdOnlyUnbind)
            .unwrap();
        assert!(drop.eliminates.contains(&AttackId::A3_1));
        assert!(drop.eliminates.contains(&AttackId::A4_3));
        // Switching to DevToken kills A3-4 and A4-3.
        let token = recs
            .iter()
            .find(|r| r.id == RecommendationId::UseDynamicDeviceToken)
            .unwrap();
        assert!(token.eliminates.contains(&AttackId::A3_4));
        assert!(token.eliminates.contains(&AttackId::A4_3));
    }

    #[test]
    fn konke_gets_reject_when_bound() {
        let recs = recs_of(&konke());
        let rec = recs
            .iter()
            .find(|r| r.id == RecommendationId::RejectBindWhenBound)
            .expect("konke replaces bindings");
        assert!(rec.eliminates.contains(&AttackId::A3_3));
    }

    #[test]
    fn e_link_hijack_eliminated_by_reject_or_session() {
        let recs = recs_of(&e_link());
        let reject = recs
            .iter()
            .find(|r| r.id == RecommendationId::RejectBindWhenBound)
            .unwrap();
        assert!(reject.eliminates.contains(&AttackId::A4_1));
        let session = recs
            .iter()
            .find(|r| r.id == RecommendationId::AddPostBindingSession)
            .unwrap();
        assert!(session.eliminates.contains(&AttackId::A4_1));
    }

    #[test]
    fn capability_binding_kills_dos_everywhere_it_applies() {
        for design in vendor_designs() {
            let recs = recs_of(&design);
            if let Some(cap) = recs
                .iter()
                .find(|r| r.id == RecommendationId::UseCapabilityBinding)
            {
                let before = analyze(&design);
                if before.feasible(AttackId::A2) {
                    assert!(
                        cap.eliminates.contains(&AttackId::A2),
                        "{}: capability should kill A2",
                        design.vendor
                    );
                }
            }
        }
    }

    #[test]
    fn reference_design_needs_nothing_structural() {
        let recs = recs_of(&capability_reference());
        // Nothing it gets recommended may eliminate any attack — there are
        // none left.
        for rec in &recs {
            assert!(
                rec.eliminates.is_empty(),
                "{:?} still eliminates attacks",
                rec.id
            );
        }
    }

    #[test]
    fn short_digit_ids_trigger_the_idspace_warning() {
        let recs = recs_of(&ozwi());
        assert!(ids(&recs).contains(&RecommendationId::WidenIdSpace));
        let recs = recs_of(&capability_reference());
        assert!(!ids(&recs).contains(&RecommendationId::WidenIdSpace));
    }

    #[test]
    fn every_vendor_gets_at_least_one_recommendation() {
        for design in vendor_designs() {
            assert!(
                !recs_of(&design).is_empty(),
                "{} should have findings",
                design.vendor
            );
        }
    }
}
