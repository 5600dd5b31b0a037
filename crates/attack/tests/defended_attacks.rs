//! Attacks against a cloud that fights back: the same Table II executors
//! run under `DefensePolicy::hardened()`, and the runs record how many
//! defensive interventions they drew. The undefended baseline must stay
//! byte-for-byte what Table III reports — the policy knob, not the
//! monitor, is what changes outcomes.

use rb_attack::campaign::run_campaign_opts;
use rb_attack::exec::{run_attack, run_attack_opts, AttackOpts};
use rb_cloud::DefensePolicy;
use rb_core::attacks::AttackId;
use rb_core::vendors;
use rb_telemetry::Telemetry;

fn hardened() -> AttackOpts {
    AttackOpts {
        defense: DefensePolicy::hardened(),
        ..AttackOpts::default()
    }
}

#[test]
fn a_hardened_cloud_mitigates_the_e_link_replacing_bind_hijack() {
    let design = vendors::e_link();
    // Undefended baseline: A4-1 is feasible (Table III row #9) and no
    // mitigation fires.
    let base = run_attack(&design, AttackId::A4_1, 42);
    assert!(base.outcome.is_feasible(), "baseline: {:?}", base.outcome);
    assert!(!base.mitigated(), "no defense policy, no interventions");
    // Hardened: the binding-replaced alert triggers rotation + quarantine,
    // the stolen binding is revoked, and the hijack control fails.
    let defended = run_attack_opts(&design, AttackId::A4_1, 42, &hardened());
    assert!(defended.mitigated(), "evidence: {:?}", defended.evidence);
    assert!(
        !defended.outcome.is_feasible(),
        "the revoked binding cannot relay control: {:?}\nevidence: {:?}",
        defended.outcome,
        defended.evidence
    );
}

#[test]
fn a_hardened_cloud_mitigates_the_tp_link_register_reset() {
    let design = vendors::tp_link();
    let base = run_attack(&design, AttackId::A3_4, 17);
    assert!(base.outcome.is_feasible(), "baseline: {:?}", base.outcome);
    let defended = run_attack_opts(&design, AttackId::A3_4, 17, &hardened());
    assert!(
        defended.mitigated(),
        "the impossible shadow transition draws a quarantine: {:?}",
        defended.evidence
    );
}

#[test]
fn a_defended_campaign_reports_its_mitigated_cells() {
    let campaign = run_campaign_opts(&vendors::e_link(), 0xD5_2019, &hardened());
    let mitigated = campaign.mitigated_cells();
    assert!(
        mitigated.contains(&AttackId::A4_1),
        "the feasible hijack draws a response: {mitigated:?}"
    );
    // The undefended campaign never mitigates anything.
    let baseline = run_campaign_opts(&vendors::e_link(), 0xD5_2019, &AttackOpts::default());
    assert!(baseline.mitigated_cells().is_empty());
}

/// The running sum of `cloud_mitigations_total{action=…}` in a registry.
fn registry_mitigations(telemetry: &Telemetry) -> u64 {
    telemetry
        .snapshot()
        .counters()
        .filter(|(name, _)| name.starts_with("cloud_mitigations_total{"))
        .map(|(_, n)| n)
        .sum()
}

#[test]
fn each_run_reports_the_mitigations_its_cloud_recorded() {
    // The hardened campaign over all ten vendors, every run recording
    // into one registry: a run's count is its share of the registry's.
    let opts = hardened();
    let mut total = 0;
    for (v, design) in vendors::vendor_designs().iter().enumerate() {
        for id in AttackId::ALL {
            let before = registry_mitigations(&opts.telemetry);
            let run = run_attack_opts(design, id, 0xD5_2019 + v as u64, &opts);
            let delta = registry_mitigations(&opts.telemetry) - before;
            assert_eq!(run.mitigations, delta, "{} {id}", design.vendor);
            total += delta;
        }
    }
    assert!(total > 0, "the hardened clouds intervened somewhere");
    // No defense policy, no interventions, even where the attack succeeds.
    for id in AttackId::ALL {
        assert_eq!(
            run_attack(&vendors::e_link(), id, 42).mitigations,
            0,
            "{id}"
        );
    }
}
