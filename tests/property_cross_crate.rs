//! Cross-crate property tests: the analyzer is total over the whole design
//! space, the cloud never panics on arbitrary wire input, and the shadow
//! machine's invariants hold under arbitrary primitive sequences.

// Test code: panicking on unexpected state is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use iot_remote_binding::cloud::{CloudConfig, CloudService};
use iot_remote_binding::core_model::analyzer::analyze;
use iot_remote_binding::core_model::attacks::AttackId;
use iot_remote_binding::core_model::design::{
    BindScheme, CloudChecks, DeviceAuthScheme, DeviceKind, FirmwareKnowledge, SetupOrder,
    UnbindSupport, VendorDesign,
};
use iot_remote_binding::core_model::shadow::{Primitive, Shadow, ShadowState};
use iot_remote_binding::netsim::{NodeId, SimRng, Tick};
use iot_remote_binding::wire::codec::decode_message;
use iot_remote_binding::wire::ids::IdScheme;

fn arb_design() -> impl Strategy<Value = VendorDesign> {
    let auth = prop_oneof![
        Just(DeviceAuthScheme::DevToken),
        Just(DeviceAuthScheme::DevId),
        Just(DeviceAuthScheme::PublicKey),
        Just(DeviceAuthScheme::Opaque),
    ];
    let bind = prop_oneof![
        Just(BindScheme::AclApp),
        Just(BindScheme::AclDevice),
        Just(BindScheme::Capability),
    ];
    let id_scheme = prop_oneof![
        Just(IdScheme::MacWithOui { oui: [1, 2, 3] }),
        (1u8..=9).prop_map(|width| IdScheme::ShortDigits { width }),
        Just(IdScheme::SequentialSerial {
            vendor: 1,
            start: 0
        }),
        Just(IdScheme::RandomUuid),
    ];
    (
        auth,
        bind,
        id_scheme,
        any::<[bool; 2]>(),
        any::<[bool; 7]>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(auth, bind, id_scheme, unbind, checks, bind_first, fw)| {
            let mut design = VendorDesign {
                vendor: "Fuzz".into(),
                device: DeviceKind::SmartPlug,
                id_scheme,
                auth,
                bind,
                unbind: UnbindSupport {
                    dev_id_user_token: unbind[0],
                    dev_id_only: unbind[1],
                },
                checks: CloudChecks {
                    verify_unbind_is_bound_user: checks[0],
                    reject_bind_when_bound: checks[1],
                    bind_requires_local_proof: checks[2],
                    bind_requires_online_device: checks[3],
                    post_binding_session: checks[4],
                    register_resets_binding: checks[5],
                    concurrent_device_sessions: checks[6],
                },
                setup_order: if bind_first {
                    SetupOrder::BindFirst
                } else {
                    SetupOrder::OnlineFirst
                },
                firmware: if fw {
                    FirmwareKnowledge::Known
                } else {
                    FirmwareKnowledge::Opaque
                },
            };
            // Repair the two coherence rules `validate()` enforces.
            if !design.unbind.any() {
                design.checks.reject_bind_when_bound = false;
            }
            if design.bind == BindScheme::Capability {
                design.checks.bind_requires_local_proof = false;
            }
            design
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The analyzer is total: every coherent design gets all nine verdicts,
    /// and feasibility of composite attacks is consistent with their parts.
    #[test]
    fn analyzer_is_total_and_consistent(design in arb_design()) {
        prop_assert!(design.validate().is_ok());
        let report = analyze(&design);
        prop_assert_eq!(report.verdicts.len(), AttackId::ALL.len());
        // A4-3 needs a working unbind step.
        if report.feasible(AttackId::A4_3) {
            prop_assert!(
                report.feasible(AttackId::A3_1) || report.feasible(AttackId::A3_2),
                "A4-3 without a forgeable unbind"
            );
        }
        // A4-1 and A3-3 are mutually exclusive (subsumption).
        prop_assert!(!(report.feasible(AttackId::A4_1) && report.feasible(AttackId::A3_3)));
        // Capability binding kills every bind-forgery attack.
        if design.bind == BindScheme::Capability {
            for id in [AttackId::A2, AttackId::A3_3, AttackId::A4_1, AttackId::A4_2] {
                prop_assert!(!report.feasible(id), "{} feasible under capability binding", id);
            }
        }
        // Post-binding sessions kill all hijacks.
        if design.checks.post_binding_session {
            for id in [AttackId::A4_1, AttackId::A4_2, AttackId::A4_3] {
                prop_assert!(!report.feasible(id), "{} despite session tokens", id);
            }
        }
    }

    /// The cloud never panics on arbitrary bytes-turned-messages, whatever
    /// the design.
    #[test]
    fn cloud_never_panics_on_garbage(
        design in arb_design(),
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..16),
        seed in any::<u64>(),
    ) {
        let mut cloud = CloudService::new(CloudConfig::new(design));
        let mut rng = SimRng::new(seed);
        let mut tick = 0u64;
        for frame in frames {
            if let Ok(msg) = decode_message(&frame.into()) {
                tick += 1;
                let _ = cloud.handle_message(NodeId(9), Tick(tick), &msg, &mut rng);
            }
        }
    }

    /// Shadow-machine invariants under arbitrary primitive sequences: the
    /// state bits always mirror the last effective primitives, and the
    /// bound user is `Some` exactly when the state says bound.
    #[test]
    fn shadow_invariants_under_random_sequences(
        ops in proptest::collection::vec(0u8..4, 0..64)
    ) {
        let mut shadow: Shadow<u32> = Shadow::new();
        let mut user = 0u32;
        for op in ops {
            match op {
                0 => shadow.on_status(1),
                1 => {
                    user += 1;
                    shadow.on_bind(user);
                }
                2 => {
                    shadow.on_unbind();
                }
                _ => shadow.force_offline(),
            }
            let state = shadow.state();
            prop_assert_eq!(state.is_bound(), shadow.bound_user().is_some());
            prop_assert_eq!(
                ShadowState::from_flags(state.is_online(), state.is_bound()),
                state
            );
        }
    }

    /// Every primitive is idempotent on the state (applying it twice equals
    /// applying it once) — the machine is a lattice of two independent bits.
    #[test]
    fn primitives_are_idempotent(state_idx in 0usize..4, prim_idx in 0usize..4) {
        let s = ShadowState::ALL[state_idx];
        let p = Primitive::ALL[prim_idx];
        prop_assert_eq!(s.apply(p), s.apply(p).apply(p));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Remediation monotonicity: applying any recommended fix never
    /// *introduces* a feasible attack. (The fix may leave other attacks
    /// standing, but the feasible set only shrinks.)
    #[test]
    fn recommendations_are_monotone(design in arb_design()) {
        use iot_remote_binding::core_model::recommend::recommendations;
        let before = analyze(&design);
        for rec in recommendations(&design) {
            // Reconstruct the patched design the recommendation evaluated
            // by checking its `eliminates` list against `before`: every
            // eliminated attack must have been feasible before.
            for id in &rec.eliminates {
                prop_assert!(
                    before.feasible(*id),
                    "{:?} claims to eliminate {} which was not feasible",
                    rec.id,
                    id
                );
            }
        }
    }

    /// Model checker totality: `check` terminates with a small state space
    /// for every coherent design, and its three verdicts are internally
    /// consistent (control implies bound).
    #[test]
    fn model_checker_is_total_and_consistent(design in arb_design()) {
        use iot_remote_binding::core_model::spec::check;
        let spec = check(&design);
        prop_assert!(spec.reachable <= 72, "state explosion: {}", spec.reachable);
        if spec.attacker_control.is_some() {
            prop_assert!(
                spec.attacker_bound.is_some(),
                "control without ever being bound"
            );
        }
        // Witness traces, when present, replay to the claimed violation.
        if let Some(trace) = &spec.attacker_control {
            use iot_remote_binding::core_model::spec::{attacker_controls, step, AbsState};
            let mut s = AbsState::initial();
            for act in trace {
                s = step(&design, s, *act).expect("witness step must be enabled");
            }
            prop_assert!(attacker_controls(&design, s), "witness does not replay");
        }
    }
}
