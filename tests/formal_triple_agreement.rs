//! Tier-1 pin of the triple agreement: on every studied vendor the model
//! checker's verdicts agree with the static analyzer, the bounded
//! checker, and the linter, and every minimal counterexample replays in
//! the packet-level simulator reproducing its violation — the
//! `examples/formal_verification.rs` demonstration as a checked invariant.
//! (`crates/mc/tests/replay_space.rs` replays every witness of the whole
//! design space; this test keeps the vendor slice at the facade.)

use iot_remote_binding::core_model::explore::minimal_secure_design;
use iot_remote_binding::core_model::vendors::{
    capability_reference, public_key_reference, vendor_designs,
};
use iot_remote_binding::mc::diag::verify_design;
use iot_remote_binding::mc::explore::explore;
use iot_remote_binding::mc::replay::replay;

#[test]
fn every_vendor_agrees_and_every_witness_replays() {
    for design in vendor_designs() {
        let v = verify_design(&design, 2);
        assert!(
            v.disagreements.is_empty(),
            "{}: {:#?}",
            design.vendor,
            v.disagreements
        );
        for (property, witness) in v.mc.violations() {
            replay(&design, property, witness).unwrap_or_else(|e| {
                panic!(
                    "{}: {property} witness did not reproduce live: {e}",
                    design.vendor
                )
            });
        }
    }
}

#[test]
fn reference_and_minimal_secure_designs_verify_clean() {
    for design in [
        capability_reference(),
        public_key_reference(),
        minimal_secure_design(),
    ] {
        let v = verify_design(&design, 2);
        assert!(v.mc.is_secure(), "{}", design.vendor);
        assert!(v.findings.is_clean(), "{}", design.vendor);
        assert!(v.disagreements.is_empty(), "{:#?}", v.disagreements);
    }
}

#[test]
fn exploration_is_deterministic_across_thread_counts() {
    for design in vendor_designs() {
        let one = explore(&design, 1);
        assert_eq!(explore(&design, 4), one, "{}", design.vendor);
        assert_eq!(explore(&design, 8), one, "{}", design.vendor);
    }
}
