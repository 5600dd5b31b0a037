//! Tier-1 pin of the triple agreement: on every studied vendor the model
//! checker's verdicts agree with the static analyzer, the bounded
//! checker, and the linter, and every minimal counterexample replays in
//! the packet-level simulator reproducing its violation — the
//! `examples/formal_verification.rs` demonstration as a checked invariant.
//! Both checks read `rb_mc::conformance` rows, the same sweep
//! `crates/mc/tests/conformance.rs` runs over the whole design space; this
//! test keeps the vendor slice at the facade.

use iot_remote_binding::core_model::explore::minimal_secure_design;
use iot_remote_binding::core_model::vendors::{
    capability_reference, public_key_reference, vendor_designs,
};
use iot_remote_binding::mc::conformance::sweep;
use iot_remote_binding::mc::explore::explore;

#[test]
fn every_vendor_agrees_and_every_witness_replays() {
    for row in sweep(&vendor_designs(), 2) {
        let vendor = &row.design.vendor;
        let v = &row.verified;
        assert!(
            v.disagreements.is_empty(),
            "{vendor}: {:#?}",
            v.disagreements
        );
        for (property, replayed) in &row.replays {
            if let Err(e) = replayed {
                panic!("{vendor}: {property} witness did not reproduce live: {e}");
            }
        }
    }
}

#[test]
fn reference_and_minimal_secure_designs_verify_clean() {
    let designs = [
        capability_reference(),
        public_key_reference(),
        minimal_secure_design(),
    ];
    for row in sweep(&designs, 2) {
        let v = &row.verified;
        assert!(v.mc.is_secure(), "{}", row.design.vendor);
        assert!(v.findings.is_clean(), "{}", row.design.vendor);
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
