//! What one Table III attack run allocates. A4-2 races the setup window
//! for up to 600 probe rounds; each round must cost what its own replies
//! cost, not a copy of every reply the attacker has stashed so far.
//!
//! The allocation counter is process-wide, so this file holds one test:
//! a second test running on another thread would add its allocations to
//! the scope.

use iot_remote_binding::attack::exec::{run_attack, run_attack_opts, AttackOpts};
use iot_remote_binding::core_model::attacks::AttackId;
use iot_remote_binding::core_model::design::VendorDesign;
use iot_remote_binding::core_model::vendors;
use iot_remote_binding::prof::{AllocScope, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Philips Hue whose cloud lets a fresh bind replace a held binding: the
/// victim's binding never ends the race, and the attacker, who cannot
/// press the button, is denied every round, so the race runs all 600
/// rounds. Copying the stash every round allocated 15.3 MB on such a
/// race; scanning it in place allocates ~0.8 MB.
const A4_2_BYTES_MAX: u64 = 2 << 20;

fn full_race_design() -> VendorDesign {
    let mut design = vendors::philips_hue();
    design.checks.reject_bind_when_bound = false;
    design
}

#[test]
fn the_a4_2_window_race_allocates_linearly_in_its_rounds() {
    let design = full_race_design();
    let scope = AllocScope::start();
    let run = run_attack(&design, AttackId::A4_2, 7);
    let alloc = scope.finish();
    assert!(
        !run.outcome.is_feasible(),
        "the bind needs a button press the attacker cannot make: {:?}",
        run.outcome
    );
    assert!(
        alloc.bytes_total < A4_2_BYTES_MAX,
        "A4-2 on {} allocated {} bytes in {} allocations (limit {A4_2_BYTES_MAX})",
        design.vendor,
        alloc.bytes_total,
        alloc.allocs_total
    );
    // The bound above is for a full race; prove this one was.
    let opts = AttackOpts::default();
    run_attack_opts(&design, AttackId::A4_2, 7, &opts);
    assert_eq!(opts.telemetry.counter("attack_window_probes_total"), 600);
}
