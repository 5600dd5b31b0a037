//! The three records of the canonical life cycle describe one run.
//!
//! `metrics_run`, `prof_run` and `trace_run` each build a world with one
//! record switched on and drive the same life-cycle script. If the script
//! ever forks again, the records stop counting the same events; these
//! equalities catch that.

use rb_core::design::VendorDesign;
use rb_core::vendors;
use rb_netsim::TraceEvent;
use rb_scenario::{metrics_run, metrics_run_with, prof_run, trace_run, ChaosProfile};

fn designs() -> Vec<VendorDesign> {
    let mut designs = vendors::vendor_designs();
    designs.push(vendors::capability_reference());
    designs.push(vendors::public_key_reference());
    designs
}

/// Dispatched sim events in a profile: the `sim.*` phases directly under
/// a `scenario.*` root (deeper `sim.fault_check` tallies are not events).
fn profiled_events(design: &VendorDesign, seed: u64) -> u64 {
    prof_run(design, seed)
        .profile
        .entries()
        .iter()
        .filter(|e| match e.path.split_once(';') {
            Some((root, leaf)) => {
                root.starts_with("scenario.") && leaf.starts_with("sim.") && !leaf.contains(';')
            }
            None => false,
        })
        .map(|e| e.count)
        .sum()
}

fn traced_deliveries(design: &VendorDesign, seed: u64, profile: Option<ChaosProfile>) -> u64 {
    trace_run(design, seed, profile)
        .trace
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::Delivered { .. }))
        .count() as u64
}

#[test]
fn metrics_profile_and_trace_count_the_same_run() {
    for design in designs() {
        for seed in [3, 7] {
            let metrics = metrics_run(&design, seed);
            assert_eq!(
                metrics.counter("sim_events_total"),
                profiled_events(&design, seed),
                "{} seed {seed}: sim_events_total vs profiled sim.* phases",
                design.vendor
            );
            assert_eq!(
                metrics.counter("sim_packets_delivered_total"),
                traced_deliveries(&design, seed, None),
                "{} seed {seed}: delivered packets vs traced deliveries",
                design.vendor
            );
        }
    }
}

#[test]
fn chaos_metrics_and_trace_count_the_same_deliveries() {
    for design in designs() {
        for profile in ChaosProfile::ALL {
            for seed in [1, 6] {
                assert_eq!(
                    metrics_run_with(&design, seed, Some(profile))
                        .counter("sim_packets_delivered_total"),
                    traced_deliveries(&design, seed, Some(profile)),
                    "{} {} seed {seed}: delivered packets vs traced deliveries",
                    design.vendor,
                    profile.name()
                );
            }
        }
    }
}
