//! What one Table III attack run allocates. A4-2 races the setup window
//! for up to 600 probe rounds; each round must cost what its own replies
//! cost, not a copy of every reply the attacker has stashed so far.
//!
//! The allocation counter is process-wide, so this file holds one test:
//! a second test running on another thread would add its allocations to
//! the scope.

use iot_remote_binding::attack::exec::run_attack;
use iot_remote_binding::core_model::attacks::AttackId;
use iot_remote_binding::core_model::vendors;
use iot_remote_binding::prof::{AllocScope, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Philips Hue runs all 600 rounds of the race. Copying the stash every
/// round allocated 15.3 MB here; scanning it in place allocates ~0.8 MB.
const A4_2_BYTES_MAX: u64 = 2 << 20;

#[test]
fn the_a4_2_window_race_allocates_linearly_in_its_rounds() {
    let scope = AllocScope::start();
    let run = run_attack(&vendors::philips_hue(), AttackId::A4_2, 7);
    let alloc = scope.finish();
    assert!(
        !run.outcome.is_feasible(),
        "the bind needs a button press the attacker cannot make: {:?}",
        run.outcome
    );
    assert!(
        alloc.bytes_total < A4_2_BYTES_MAX,
        "A4-2 on Philips Hue allocated {} bytes in {} allocations (limit {A4_2_BYTES_MAX})",
        alloc.bytes_total,
        alloc.allocs_total
    );
}
