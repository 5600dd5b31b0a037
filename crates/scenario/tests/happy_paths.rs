//! Full-stack happy paths: every vendor design must set up, bind, control,
//! and unbind correctly for its legitimate user. (The paper's attacks are
//! meaningful only because the protocols *work* — this suite pins that
//! down before `rb-attack` breaks them.)

use rb_core::design::BindScheme;
use rb_core::shadow::ShadowState;
use rb_core::vendors;
use rb_scenario::WorldBuilder;
use rb_wire::messages::ControlAction;
use rb_wire::telemetry::ScheduleEntry;

#[test]
fn every_vendor_design_completes_setup() {
    for (i, design) in vendors::vendor_designs().into_iter().enumerate() {
        let vendor = design.vendor.clone();
        let mut world = WorldBuilder::new(design, 100 + i as u64).build();
        world.run_setup();
        assert!(world.app(0).is_bound(), "{vendor}: app bound");
        assert_eq!(
            world.shadow_state(0),
            ShadowState::Control,
            "{vendor}: control state"
        );
        assert!(
            world.device(0).is_registered(),
            "{vendor}: device registered"
        );
        assert_eq!(
            world.cloud().bound_user(&world.homes[0].dev_id).as_ref(),
            Some(&world.homes[0].user_id),
            "{vendor}: bound to the right user"
        );
    }
}

#[test]
fn reference_designs_complete_setup() {
    for (i, design) in [
        vendors::capability_reference(),
        vendors::public_key_reference(),
    ]
    .into_iter()
    .enumerate()
    {
        let vendor = design.vendor.clone();
        let mut world = WorldBuilder::new(design, 500 + i as u64).build();
        world.run_setup();
        assert!(world.app(0).is_bound(), "{vendor}");
        assert_eq!(world.shadow_state(0), ShadowState::Control, "{vendor}");
    }
}

#[test]
fn control_round_trip_for_every_design() {
    let mut designs = vendors::vendor_designs();
    designs.push(vendors::capability_reference());
    designs.push(vendors::public_key_reference());
    for (i, design) in designs.into_iter().enumerate() {
        let vendor = design.vendor.clone();
        let mut world = WorldBuilder::new(design, 900 + i as u64).build();
        world.run_setup();
        assert!(!world.device(0).is_on(), "{vendor}: starts off");
        world.app_mut(0).queue_control(ControlAction::TurnOn);
        world.run_for(10_000);
        assert!(
            world.device(0).is_on(),
            "{vendor}: TurnOn reached the device"
        );
        world.app_mut(0).queue_control(ControlAction::TurnOff);
        world.run_for(10_000);
        assert!(
            !world.device(0).is_on(),
            "{vendor}: TurnOff reached the device"
        );
    }
}

#[test]
fn schedule_round_trip() {
    let mut world = WorldBuilder::new(vendors::d_link(), 7).build();
    world.run_setup();
    let entry = ScheduleEntry {
        at_tick: 123_456,
        turn_on: true,
    };
    world
        .app_mut(0)
        .queue_control(ControlAction::SetSchedule(entry.clone()));
    world.run_for(10_000);
    assert_eq!(
        world.device(0).schedule(),
        std::slice::from_ref(&entry),
        "device stored the schedule"
    );
    world.app_mut(0).queue_control(ControlAction::QuerySchedule);
    world.run_for(10_000);
    assert_eq!(
        world.app(0).last_schedule,
        vec![entry],
        "app read the schedule back"
    );
}

#[test]
fn telemetry_reaches_the_bound_user() {
    let mut world = WorldBuilder::new(vendors::belkin(), 8).build();
    world.run_setup();
    world.run_for(30_000);
    assert!(
        world.app(0).stats.telemetry_pushes >= 5,
        "heartbeat telemetry relayed: {}",
        world.app(0).stats.telemetry_pushes
    );
}

#[test]
fn owner_unbind_revokes_the_binding() {
    let mut world = WorldBuilder::new(vendors::lightstory(), 9).build();
    world.run_setup();
    world.app_mut(0).queue_unbind();
    world.run_for(10_000);
    assert!(!world.app(0).is_bound());
    assert_eq!(
        world.shadow_state(0),
        ShadowState::Online,
        "device online but unbound"
    );
}

#[test]
fn multiple_homes_bind_independently() {
    let mut world = WorldBuilder::new(vendors::d_link(), 11).homes(3).build();
    world.run_setup();
    for i in 0..3 {
        assert!(world.app(i).is_bound(), "home {i}");
        assert_eq!(
            world.cloud().bound_user(&world.homes[i].dev_id).as_ref(),
            Some(&world.homes[i].user_id),
            "home {i} bound to its own user"
        );
    }
}

#[test]
fn power_loss_moves_shadow_to_bound_and_back() {
    let mut world = WorldBuilder::new(vendors::d_link(), 12).build();
    world.run_setup();
    assert_eq!(world.shadow_state(0), ShadowState::Control);
    let device_node = world.homes[0].device;
    world.sim.set_power(device_node, false);
    // Wait past the heartbeat timeout plus an expiry sweep.
    world.run_for(80_000);
    assert_eq!(
        world.shadow_state(0),
        ShadowState::Bound,
        "offline but still bound"
    );
    world.sim.set_power(device_node, true);
    world.run_for(80_000);
    assert_eq!(
        world.shadow_state(0),
        ShadowState::Control,
        "back online, binding intact"
    );
}

#[test]
fn setup_works_over_lossy_links() {
    // Realistic latency and loss must not break the protocol, only slow it.
    let mut world = WorldBuilder::new(vendors::belkin(), 13)
        .realistic_links()
        .build();
    world.run_setup();
    assert!(world.app(0).is_bound());
}

#[test]
fn device_initiated_design_binds_without_app_bind_message() {
    let mut world = WorldBuilder::new(vendors::tp_link(), 14).build();
    world.run_setup();
    assert!(world.app(0).is_bound());
    assert_eq!(
        world.app(0).stats.bind_attempts,
        0,
        "the app never sent a Bind"
    );
    assert_eq!(world.design.bind, BindScheme::AclDevice);
}

#[test]
fn factory_reset_returns_shadow_to_unbound() {
    let mut world = WorldBuilder::new(vendors::tp_link(), 15).build();
    world.run_setup();
    world.device_mut(0).queue_reset();
    world.run_for(20_000);
    // TP-LINK's reset sends Unbind:DevId; the binding is revoked.
    assert_eq!(world.cloud().bound_user(&world.homes[0].dev_id), None);
}
