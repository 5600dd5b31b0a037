//! Session expiry marks come out in device-ID order.
//!
//! When several devices time out in one expiry sweep, the cloud emits one
//! `shadow … from=control to=bound` mark per device. The sweep walks hash
//! maps, whose order changes from one world to the next, so the marks must
//! be sorted before they are emitted: the trace is a function of
//! `(design, seed)` alone.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rb_core::vendors;
use rb_netsim::TraceEvent;
use rb_scenario::WorldBuilder;

/// The devices named by the `control → bound` expiry marks of one run, in
/// trace order, with the tick they were emitted at.
fn expiry_marks() -> (Vec<(u64, String)>, Vec<String>) {
    let mut world = WorldBuilder::new(vendors::tp_link(), 7)
        .homes(6)
        .trace()
        .build();
    world.run_setup();
    for i in 0..world.homes.len() {
        let device = world.homes[i].device;
        world.sim.set_power(device, false);
    }
    world.run_for(200_000);
    let marks = world
        .sim
        .trace()
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::Mark { text, .. } if text.ends_with("from=control to=bound") => {
                let dev = text.strip_prefix("shadow dev=")?.split(' ').next()?;
                Some((e.at.as_u64(), dev.to_owned()))
            }
            _ => None,
        })
        .collect();
    let mut ids: Vec<_> = world.homes.iter().map(|h| h.dev_id.clone()).collect();
    ids.sort();
    (marks, ids.iter().map(ToString::to_string).collect())
}

#[test]
fn one_sweep_expires_devices_in_id_order() {
    let (marks, sorted_ids) = expiry_marks();
    assert_eq!(marks.len(), 6, "{marks:?}");
    assert!(
        marks.iter().all(|(at, _)| *at == marks[0].0),
        "one sweep expires all six: {marks:?}"
    );
    let devs: Vec<&String> = marks.iter().map(|(_, d)| d).collect();
    let want: Vec<&String> = sorted_ids.iter().collect();
    assert_eq!(devs, want);
}

#[test]
fn rebuilt_worlds_emit_identical_expiry_marks() {
    let first = expiry_marks();
    for _ in 0..5 {
        assert_eq!(expiry_marks(), first);
    }
}
