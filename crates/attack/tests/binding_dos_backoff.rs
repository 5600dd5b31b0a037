//! A2 (binding DoS, §V-C) against an ACL-app vendor. The attacker's
//! pre-emptive binding keeps the victim's bind answered "already bound".
//! The victim re-sends it on a doubling backoff, not on every poll. So one
//! run costs the cloud about a hundred requests, not thousands, and
//! the attack's outcome is unchanged.

use rb_attack::adversary::ATTACKER_ID;
use rb_attack::exec::{run_attack_opts, AttackOpts};
use rb_core::attacks::AttackId;
use rb_core::vendors;

const SEED: u64 = 0xD51_2019;

/// Every cloud request of the run, over all request kinds. Re-sending the
/// denied bind on every 20-tick poll made the same run send 7,326.
const CLOUD_REQUESTS: u64 = 126;

#[test]
fn a_locked_out_victim_backs_off_but_never_gives_up() {
    let opts = AttackOpts::default();
    let run = run_attack_opts(&vendors::ozwi(), AttackId::A2, SEED, &opts);
    let metrics = opts.telemetry.snapshot();
    let requests: u64 = metrics
        .counters()
        .filter(|(name, _)| name.starts_with("cloud_requests_total{"))
        .map(|(_, n)| n)
        .sum();
    // Feasible means: the victim's setup never converged and the attacker
    // holds the binding at the end of the setup deadline.
    assert!(
        run.outcome.is_feasible(),
        "{:?}: {:?}",
        run.outcome,
        run.evidence
    );
    assert!(
        run.evidence
            .iter()
            .any(|e| e.contains("converged: false") && e.contains(ATTACKER_ID)),
        "{:?}",
        run.evidence
    );
    assert_eq!(
        metrics.counter("app_binds_total"),
        0,
        "the victim never bound"
    );
    assert_eq!(
        metrics.counter("app_giveups_total"),
        0,
        "a denial is no give-up"
    );
    assert!(metrics.counter("app_denials_total") >= 1);
    assert_eq!(requests, CLOUD_REQUESTS);
}
