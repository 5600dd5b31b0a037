//! A4-2 (racing the setup window) against Philips Hue. The victim stands
//! next to the device and presses its button, as setup does, so the
//! victim's bind carries the local ownership proof, the victim reaches
//! `Control`, and the attacker's race ends early. Without the press every
//! victim bind was denied "ownership proof failed" and the race burned
//! all 600 probe rounds to the same verdict.

use rb_attack::exec::{run_attack_opts, AttackOpts};
use rb_core::attacks::AttackId;
use rb_core::vendors;

const ROUNDS: u64 = 600;

#[test]
fn the_hue_race_ends_once_the_victim_binds() {
    let opts = AttackOpts::default();
    let run = run_attack_opts(&vendors::philips_hue(), AttackId::A4_2, 7, &opts);
    assert!(
        !run.outcome.is_feasible(),
        "the bind needs a button press the attacker cannot make: {:?}",
        run.outcome
    );
    assert!(
        run.evidence
            .iter()
            .any(|e| e == "never landed inside the online-unbound window"),
        "{:?}",
        run.evidence
    );
    let probes = opts.telemetry.counter("attack_window_probes_total");
    assert!(
        (1..ROUNDS).contains(&probes),
        "{probes} probes: the victim never bound, so the race ran every round"
    );
}
