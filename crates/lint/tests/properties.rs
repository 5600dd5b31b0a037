//! Property tests: on *random* coherent designs, the linter agrees with
//! the analyzer (no feasible attack goes unflagged) and the report is a
//! deterministic, sorted pure function of the design.

use proptest::prelude::*;

use rb_core::analyzer::analyze;
use rb_core::design::{
    BindScheme, CloudChecks, DeviceAuthScheme, DeviceKind, FirmwareKnowledge, SetupOrder,
    UnbindSupport, VendorDesign,
};
use rb_lint::harness::unflagged_attacks;
use rb_lint::rules::lint_design;
use rb_wire::ids::IdScheme;

fn arb_design() -> impl Strategy<Value = VendorDesign> {
    (
        prop_oneof![
            Just(DeviceAuthScheme::DevToken),
            Just(DeviceAuthScheme::DevId),
            Just(DeviceAuthScheme::PublicKey),
            Just(DeviceAuthScheme::Opaque),
        ],
        prop_oneof![
            Just(BindScheme::AclApp),
            Just(BindScheme::AclDevice),
            Just(BindScheme::Capability),
        ],
        prop_oneof![
            Just(UnbindSupport::none()),
            Just(UnbindSupport::token_only()),
            Just(UnbindSupport {
                dev_id_user_token: false,
                dev_id_only: true
            }),
            Just(UnbindSupport::both()),
        ],
        0u8..128,
        prop_oneof![Just(SetupOrder::OnlineFirst), Just(SetupOrder::BindFirst)],
        prop_oneof![
            Just(FirmwareKnowledge::Known),
            Just(FirmwareKnowledge::Opaque)
        ],
    )
        .prop_map(|(auth, bind, unbind, check_bits, setup_order, firmware)| {
            let mut checks = CloudChecks {
                verify_unbind_is_bound_user: check_bits & 1 != 0,
                reject_bind_when_bound: check_bits & 2 != 0,
                bind_requires_local_proof: check_bits & 4 != 0,
                bind_requires_online_device: check_bits & 8 != 0,
                post_binding_session: check_bits & 16 != 0,
                register_resets_binding: check_bits & 32 != 0,
                concurrent_device_sessions: check_bits & 64 != 0,
            };
            // Repair the two incoherent corners `VendorDesign::validate`
            // rejects, so every generated design is a legal input.
            if !unbind.any() {
                checks.reject_bind_when_bound = false;
            }
            if bind == BindScheme::Capability {
                checks.bind_requires_local_proof = false;
            }
            VendorDesign {
                vendor: "prop".into(),
                device: DeviceKind::SmartPlug,
                id_scheme: IdScheme::RandomUuid,
                auth,
                bind,
                unbind,
                checks,
                setup_order,
                firmware,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn linter_agrees_with_analyzer(design in arb_design()) {
        prop_assert!(design.validate().is_ok());
        let missed = unflagged_attacks(&analyze(&design), &lint_design(&design));
        prop_assert!(missed.is_empty(), "{:?} unflagged on {:?}", missed, design);
    }

    #[test]
    fn report_is_deterministic_and_sorted(design in arb_design()) {
        let a = lint_design(&design);
        let b = lint_design(&design);
        prop_assert_eq!(&a, &b);
        for pair in a.diagnostics.windows(2) {
            let key0 = (pair[0].rule, pair[0].span.clone());
            let key1 = (pair[1].rule, pair[1].span.clone());
            prop_assert!(key0 <= key1, "unsorted: {:?} > {:?}", key0, key1);
        }
    }

    #[test]
    fn error_findings_always_carry_attacks_and_vice_versa(design in arb_design()) {
        use rb_lint::diagnostic::Severity;
        let report = lint_design(&design);
        for d in &report.diagnostics {
            prop_assert_eq!(
                d.severity == Severity::Error,
                !d.related_attacks.is_empty(),
                "{}: severity {} with attacks {:?}",
                &d.rule, &d.severity, &d.related_attacks
            );
        }
    }
}
