//! The static attack-surface analyzer.
//!
//! The paper explores the attack surface by considering "that all three
//! types of messages could be forged and sent to the cloud in all states of
//! a device shadow" (Section V-A). [`analyze`] mechanizes that exploration:
//! given a [`VendorDesign`] it decides, for each attack of the taxonomy,
//! whether a WAN attacker holding the device ID can carry it out — and if
//! not, *which* design element blocks it. This is the "automatic approach
//! without the presence of physical devices" that Section VIII sketches as
//! future work.
//!
//! The verdicts are *predictions*; `rb-attack` executes the same attacks
//! against the live simulated cloud and the Table III experiment
//! cross-checks that prediction and execution agree.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::attacks::{AttackFamily, AttackId, Feasibility};
use crate::design::{BindScheme, ControlVerdict, DeviceAuthScheme, SetupOrder, VendorDesign};
use crate::shadow::{Primitive, ShadowState};

/// The analyzer's output for one design.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// The analyzed vendor's name.
    pub(crate) vendor: String,
    /// Verdict per attack.
    pub verdicts: BTreeMap<AttackId, Feasibility>,
}

impl AnalysisReport {
    /// The verdict for one attack.
    ///
    /// # Panics
    ///
    /// Panics if `id` is missing, which cannot happen for reports produced
    /// by [`analyze`] (it covers every [`AttackId`]).
    pub fn verdict(&self, id: AttackId) -> &Feasibility {
        &self.verdicts[&id]
    }

    /// Whether the attack is predicted feasible.
    pub fn feasible(&self, id: AttackId) -> bool {
        self.verdict(id).is_feasible()
    }

    /// The feasible variants within a family.
    pub(crate) fn feasible_variants(&self, family: AttackFamily) -> Vec<AttackId> {
        family
            .variants()
            .into_iter()
            .filter(|a| self.feasible(*a))
            .collect()
    }

    /// Renders the Table III cell for a family: `✓`/`✗`/`O` for A1 and A2,
    /// the feasible variant list (e.g. `A3-1 & A3-4`) for A3 and A4.
    pub fn family_cell(&self, family: AttackFamily) -> String {
        match family {
            AttackFamily::A1 => self.verdict(AttackId::A1).symbol().to_owned(),
            AttackFamily::A2 => self.verdict(AttackId::A2).symbol().to_owned(),
            AttackFamily::A3 | AttackFamily::A4 => {
                let feasible = self.feasible_variants(family);
                if feasible.is_empty() {
                    "✗".to_owned()
                } else {
                    feasible
                        .iter()
                        .map(|a| a.to_string())
                        .collect::<Vec<_>>()
                        .join(" & ")
                }
            }
        }
    }
}

/// Analyzes a design, producing a verdict for every attack in the taxonomy.
pub fn analyze(design: &VendorDesign) -> AnalysisReport {
    let mut verdicts = BTreeMap::new();
    verdicts.insert(AttackId::A1, analyze_a1(design));
    verdicts.insert(AttackId::A2, analyze_a2(design));
    verdicts.insert(AttackId::A3_1, analyze_a3_1(design));
    verdicts.insert(AttackId::A3_2, analyze_a3_2(design));
    verdicts.insert(AttackId::A3_3, analyze_a3_3(design));
    verdicts.insert(AttackId::A3_4, analyze_a3_4(design));
    verdicts.insert(AttackId::A4_1, analyze_a4_1(design));
    verdicts.insert(AttackId::A4_2, analyze_a4_2(design));
    verdicts.insert(AttackId::A4_3, analyze_a4_3(design));
    AnalysisReport {
        vendor: design.vendor.clone(),
        verdicts,
    }
}

fn status_block_reason(design: &VendorDesign) -> Feasibility {
    match design.auth {
        DeviceAuthScheme::DevToken => Feasibility::blocked("DevToken device authentication"),
        DeviceAuthScheme::PublicKey => Feasibility::blocked("public-key device authentication"),
        DeviceAuthScheme::DevId => {
            Feasibility::unconfirmable("firmware unavailable: device message format unknown")
        }
        DeviceAuthScheme::Opaque => {
            Feasibility::unconfirmable("device authentication scheme could not be determined")
        }
    }
}

fn analyze_a1(design: &VendorDesign) -> Feasibility {
    if design.status_forgeable() {
        if design.checks.register_resets_binding {
            // The forged registration tears the binding down, so there is
            // no bound user left to deceive — the forgery lands as A3-4.
            Feasibility::blocked("registration resets the binding (forgery becomes A3-4)")
        } else {
            Feasibility::Feasible
        }
    } else {
        // Both the unconfirmable (O) and definitive (✗) cases are decided
        // by the auth scheme inside status_block_reason.
        status_block_reason(design)
    }
}

/// Why (or whether) a forged bind for the victim's device ID is accepted.
/// `device_online` reflects the shadow state the attack targets.
fn bind_forgery(design: &VendorDesign, device_online: bool) -> Result<(), Feasibility> {
    if design.bind == BindScheme::Capability {
        return Err(Feasibility::blocked(
            "capability-based binding: the BindToken never leaves the victim's LAN",
        ));
    }
    if design.checks.bind_requires_local_proof {
        return Err(Feasibility::blocked(
            "binding requires local-presence proof (button press + source-IP match)",
        ));
    }
    if design.bind == BindScheme::AclDevice
        && design.firmware == crate::design::FirmwareKnowledge::Opaque
    {
        return Err(Feasibility::unconfirmable(
            "device-sent bind format unknown without firmware",
        ));
    }
    if design.checks.bind_requires_online_device && !device_online {
        return Err(Feasibility::blocked(
            "bind requires a live authenticated device session",
        ));
    }
    Ok(())
}

fn analyze_a2(design: &VendorDesign) -> Feasibility {
    // Occupy the binding while the shadow is in the initial state (device
    // offline, unbound).
    if let Err(block) = bind_forgery(design, false) {
        return block;
    }
    if design.bind_replaces() {
        return Feasibility::blocked(
            "bindings replace rather than stick: the victim can always re-bind",
        );
    }
    Feasibility::Feasible
}

fn analyze_a3_1(design: &VendorDesign) -> Feasibility {
    if design.unbind.dev_id_only {
        Feasibility::Feasible
    } else {
        Feasibility::blocked("Unbind:DevId is not an accepted message")
    }
}

fn analyze_a3_2(design: &VendorDesign) -> Feasibility {
    if !design.unbind.dev_id_user_token {
        return Feasibility::blocked("Unbind:(DevId,UserToken) is not an accepted message");
    }
    if design.checks.verify_unbind_is_bound_user {
        return Feasibility::blocked("cloud verifies the requester is the bound user");
    }
    Feasibility::Feasible
}

fn analyze_a3_3(design: &VendorDesign) -> Feasibility {
    if let Err(block) = bind_forgery(design, true) {
        return block;
    }
    if !design.bind_replaces() {
        return Feasibility::blocked("cloud rejects binds while the device is bound");
    }
    if design.hijack_yields_control() {
        // The replacement does disconnect the user, but the stronger
        // classification applies.
        return Feasibility::blocked("subsumed by A4-1: the replacement yields control");
    }
    Feasibility::Feasible
}

fn analyze_a3_4(design: &VendorDesign) -> Feasibility {
    // Knowledge gate first: without the device message format the attack
    // cannot even be attempted (mirrors the live executor).
    if !design.status_forgeable() {
        return status_block_reason(design);
    }
    if !design.checks.register_resets_binding {
        return Feasibility::blocked("a fresh registration does not reset the binding");
    }
    Feasibility::Feasible
}

fn analyze_a4_1(design: &VendorDesign) -> Feasibility {
    if let Err(block) = bind_forgery(design, true) {
        return block;
    }
    if !design.bind_replaces() {
        return Feasibility::blocked("cloud rejects binds while the device is bound");
    }
    match design.hijack_control_verdict() {
        ControlVerdict::Relayed => Feasibility::Feasible,
        ControlVerdict::Blocked(reason) => Feasibility::blocked(reason),
        ControlVerdict::Unconfirmable(reason) => Feasibility::unconfirmable(reason),
    }
}

fn analyze_a4_2(design: &VendorDesign) -> Feasibility {
    if design.setup_order == SetupOrder::BindFirst {
        return Feasibility::blocked(
            "binding precedes device registration: no online-unbound window",
        );
    }
    if design.bind == BindScheme::AclDevice {
        return Feasibility::blocked(
            "device-initiated bind follows registration immediately: no exploitable window",
        );
    }
    if let Err(block) = bind_forgery(design, true) {
        return block;
    }
    if design.bind_replaces() {
        return Feasibility::blocked(
            "bindings replace: the victim's own bind displaces the attacker",
        );
    }
    match design.hijack_control_verdict() {
        ControlVerdict::Relayed => Feasibility::Feasible,
        ControlVerdict::Blocked(reason) => Feasibility::blocked(reason),
        ControlVerdict::Unconfirmable(reason) => Feasibility::unconfirmable(reason),
    }
}

fn analyze_a4_3(design: &VendorDesign) -> Feasibility {
    let unbind_possible = analyze_a3_1(design).is_feasible() || analyze_a3_2(design).is_feasible();
    if !unbind_possible {
        return Feasibility::blocked("no forgeable unbinding message (step 1 fails)");
    }
    if let Err(block) = bind_forgery(design, true) {
        return block;
    }
    match design.hijack_control_verdict() {
        ControlVerdict::Relayed => Feasibility::Feasible,
        ControlVerdict::Blocked(reason) => Feasibility::blocked(reason),
        ControlVerdict::Unconfirmable(reason) => Feasibility::unconfirmable(reason),
    }
}

// ---------------------------------------------------------------------------
// Table II derivation.
// ---------------------------------------------------------------------------

/// One row of the generic attack taxonomy (Table II).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaxonomyRow {
    /// The attack.
    pub attack: AttackId,
    /// The forged message shape.
    pub forged: &'static str,
    /// Shadow states the attack targets.
    pub targeted: Vec<ShadowState>,
    /// Victim-perspective end state.
    pub end_state: ShadowState,
    /// The consequence text.
    pub consequence: &'static str,
}

/// Derives the full taxonomy: one row per attack, with targeted and end
/// states consistent with the shadow state machine.
pub fn taxonomy() -> Vec<TaxonomyRow> {
    AttackId::ALL
        .iter()
        .map(|&attack| TaxonomyRow {
            attack,
            forged: attack.forged_message_str(),
            targeted: attack.targeted_states().to_vec(),
            end_state: attack.end_state(),
            consequence: attack.consequence(),
        })
        .collect()
}

/// For each attack, a real vendor design on which the analyzer finds it
/// feasible — a constructive proof that every taxonomy row is realizable
/// in the studied population.
pub fn taxonomy_witnesses() -> BTreeMap<AttackId, String> {
    let designs = crate::vendors::vendor_designs();
    let mut out = BTreeMap::new();
    for design in &designs {
        let report = analyze(design);
        for attack in AttackId::ALL {
            if report.feasible(attack) {
                out.entry(attack).or_insert_with(|| design.vendor.clone());
            }
        }
    }
    out
}

/// Exhaustively checks that every single-message attack's end state agrees
/// with the state machine when applied from each targeted state. Returns
/// the list of violations (empty = consistent). Used by the Figure 2 /
/// Table II experiments as a model-consistency proof.
pub fn check_taxonomy_against_machine() -> Vec<String> {
    let mut violations = Vec::new();
    for row in taxonomy() {
        // Multi-step A4-3: check the composition Unbind;Bind instead.
        if row.attack == AttackId::A4_3 {
            for &s in &row.targeted {
                let end = s.apply(Primitive::Unbind).apply(Primitive::Bind);
                if end != row.end_state {
                    violations.push(format!(
                        "{}: {} -> {} != {}",
                        row.attack, s, end, row.end_state
                    ));
                }
            }
            continue;
        }
        let prim = row.attack.forged_primitives()[0];
        for &s in &row.targeted {
            let end = s.apply(prim);
            // A3-3/A3-4 end states are victim-perspective: the *victim's*
            // binding is gone even though the machine (which tracks "some
            // binding exists") may disagree; model that by dropping the
            // bound bit when the attack's effect is displacement.
            let victim_end = match row.attack {
                AttackId::A3_3 => ShadowState::from_flags(end.is_online(), false),
                AttackId::A3_4 => ShadowState::from_flags(true, false),
                _ => end,
            };
            if victim_end != row.end_state {
                violations.push(format!(
                    "{}: {} --{}--> {} != table {}",
                    row.attack, s, prim, victim_end, row.end_state
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendors::*;

    /// The expected Table III attack cells, in vendor order #1..#10.
    fn expected_cells() -> Vec<[&'static str; 4]> {
        vec![
            ["✗", "✓", "A3-2", "✗"],           // #1 Belkin
            ["O", "✓", "✗", "✗"],              // #2 BroadLink
            ["✗", "✗", "A3-3", "✗"],           // #3 KONKE
            ["✗", "✓", "✗", "✗"],              // #4 Lightstory
            ["O", "✓", "A3-2", "✗"],           // #5 Orvibo
            ["O", "✓", "✗", "A4-2"],           // #6 OZWI
            ["O", "✗", "✗", "✗"],              // #7 Philips Hue
            ["✗", "✗", "A3-1 & A3-4", "A4-3"], // #8 TP-LINK
            ["O", "✗", "✗", "A4-1"],           // #9 E-Link Smart
            ["✓", "✓", "✗", "✗"],              // #10 D-LINK
        ]
    }

    #[test]
    fn analyzer_reproduces_table_iii_for_all_ten_vendors() {
        let designs = vendor_designs();
        let expected = expected_cells();
        for (design, want) in designs.iter().zip(&expected) {
            let report = analyze(design);
            let got = [
                report.family_cell(AttackFamily::A1),
                report.family_cell(AttackFamily::A2),
                report.family_cell(AttackFamily::A3),
                report.family_cell(AttackFamily::A4),
            ];
            assert_eq!(
                got, *want,
                "vendor {} predicted {:?}, paper says {:?}",
                design.vendor, got, want
            );
        }
    }

    #[test]
    fn every_report_covers_all_nine_attacks() {
        for design in vendor_designs() {
            let report = analyze(&design);
            assert_eq!(
                report.verdicts.len(),
                AttackId::ALL.len(),
                "{}",
                design.vendor
            );
        }
    }

    #[test]
    fn reference_designs_defeat_everything() {
        for design in [capability_reference(), public_key_reference()] {
            let report = analyze(&design);
            for attack in AttackId::ALL {
                assert!(
                    !report.feasible(attack),
                    "{} should block {attack}",
                    design.vendor
                );
                assert!(
                    !matches!(report.verdict(attack), Feasibility::Unconfirmable { .. }),
                    "{} verdicts must be definitive, {attack} is not",
                    design.vendor
                );
            }
        }
    }

    #[test]
    fn every_taxonomy_row_has_a_real_vendor_witness() {
        let witnesses = taxonomy_witnesses();
        for attack in AttackId::ALL {
            assert!(
                witnesses.contains_key(&attack),
                "{attack} has no witness among the 10 vendors"
            );
        }
        // Spot-check the obvious ones.
        assert_eq!(witnesses[&AttackId::A1], "D-LINK");
        assert_eq!(witnesses[&AttackId::A3_1], "TP-LINK");
        assert_eq!(witnesses[&AttackId::A3_2], "Belkin");
        assert_eq!(witnesses[&AttackId::A3_3], "KONKE");
        assert_eq!(witnesses[&AttackId::A4_1], "E-Link Smart");
        assert_eq!(witnesses[&AttackId::A4_2], "OZWI");
        assert_eq!(witnesses[&AttackId::A4_3], "TP-LINK");
    }

    #[test]
    fn taxonomy_is_consistent_with_the_state_machine() {
        let violations = check_taxonomy_against_machine();
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn taxonomy_has_nine_rows_in_order() {
        let rows = taxonomy();
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[0].attack, AttackId::A1);
        assert_eq!(rows[8].attack, AttackId::A4_3);
        assert_eq!(rows[1].forged, "Bind:(DevId,UserToken)");
    }

    #[test]
    fn blocked_reasons_name_the_defense() {
        let report = analyze(&philips_hue());
        match report.verdict(AttackId::A2) {
            Feasibility::Infeasible { blocked_by } => {
                assert!(blocked_by.contains("local-presence"), "{blocked_by}");
            }
            other => panic!("expected blocked, got {other:?}"),
        }
        let report = analyze(&belkin());
        match report.verdict(AttackId::A4_3) {
            Feasibility::Infeasible { blocked_by } => {
                assert!(blocked_by.contains("DevToken"), "{blocked_by}");
            }
            other => panic!("expected blocked, got {other:?}"),
        }
    }

    #[test]
    fn weakest_design_is_maximally_vulnerable_modulo_semantics() {
        let report = analyze(&weakest_design());
        assert!(report.feasible(AttackId::A1));
        assert!(report.feasible(AttackId::A3_1));
        assert!(report.feasible(AttackId::A3_2));
        assert!(report.feasible(AttackId::A4_1));
        assert!(report.feasible(AttackId::A4_3));
        // Replace semantics trades A2 stickiness for A4-1.
        assert!(!report.feasible(AttackId::A2));
    }

    #[test]
    fn mitigation_ablation_removes_attacks_one_by_one() {
        // Start from OZWI (A2 + A4-2 feasible) and toggle single checks.
        let base = ozwi();

        let mut with_session = base.clone();
        with_session.checks.post_binding_session = true;
        let report = analyze(&with_session);
        assert!(
            !report.feasible(AttackId::A4_2),
            "session token kills the hijack"
        );
        assert!(report.feasible(AttackId::A2), "but DoS remains");

        let mut with_token = base.clone();
        with_token.auth = DeviceAuthScheme::DevToken;
        with_token.firmware = crate::design::FirmwareKnowledge::Known;
        let report = analyze(&with_token);
        assert!(!report.feasible(AttackId::A4_2));
        assert_eq!(report.family_cell(AttackFamily::A1), "✗");

        let mut with_capability = base;
        with_capability.bind = BindScheme::Capability;
        let report = analyze(&with_capability);
        assert!(!report.feasible(AttackId::A2), "capability kills the DoS");
        assert!(!report.feasible(AttackId::A4_2));
    }
}
