//! Event budget: actors run on packets, their own deadlines, and wakes
//! after external mutation — never on a polling loop. A polling actor
//! costs events every tick or every few ticks whether or not anything is
//! due, so these counts are what would regress first if one came back.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rb_cloud::HEARTBEAT_TIMEOUT;
use rb_core::vendors::vendor_designs;
use rb_netsim::Profiler;
use rb_scenario::WorldBuilder;
use rb_telemetry::Telemetry;

/// Dispatched events per home for a five-home perfect-link setup, for
/// every design at seed 1. Measured 18–46 (mean 29), so the bound leaves
/// 14 events of headroom over the costliest design and fails if a setup
/// sends 46 datagrams more; with a 20-tick app poll and a 1-tick attacker
/// drain it was about 1,600.
const MAX_EVENTS_PER_HOME: u64 = 60;

#[test]
fn setup_dispatches_few_events_per_home_for_every_design() {
    const HOMES: u64 = 5;
    for design in vendor_designs() {
        let telemetry = Telemetry::new();
        let mut world = WorldBuilder::new(design.clone(), 1)
            .homes(HOMES as usize)
            .with_telemetry(telemetry.clone())
            .build();
        assert!(world.try_run_setup(300_000), "{} setup", design.vendor);
        let per_home = telemetry.counter("sim_events_total") / HOMES;
        assert!(
            per_home <= MAX_EVENTS_PER_HOME,
            "{}: {per_home} events per home (bound {MAX_EVENTS_PER_HOME})",
            design.vendor
        );
    }
}

#[test]
fn idle_paused_world_runs_only_the_cloud_expiry_sweep() {
    let design = vendor_designs().remove(0);
    let sweep_every = HEARTBEAT_TIMEOUT / 2;
    let profiler = Profiler::new();
    let mut world = WorldBuilder::new(design, 3)
        .homes(4)
        .victim_paused()
        .with_profiler(profiler.clone())
        .build();
    world.run_for(100_000);
    let timers: u64 = profiler
        .snapshot()
        .entries()
        .iter()
        .filter(|e| e.path == "sim.timer")
        .map(|e| e.count)
        .sum();
    assert_eq!(timers, 100_000 / sweep_every, "only expiry sweeps fire");
}
