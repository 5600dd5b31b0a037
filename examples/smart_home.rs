//! A day in a simulated smart home: three households on one vendor cloud,
//! schedules, telemetry, a power cut, and a factory reset — the workloads
//! the paper's introduction motivates.
//!
//! ```text
//! cargo run --example smart_home
//! ```

use iot_remote_binding::core_model::shadow::ShadowState;
use iot_remote_binding::core_model::vendors;
use iot_remote_binding::scenario::WorldBuilder;
use iot_remote_binding::wire::messages::ControlAction;
use iot_remote_binding::wire::telemetry::ScheduleEntry;

fn main() {
    let mut world = WorldBuilder::new(vendors::d_link(), 2024)
        .homes(3)
        .realistic_links()
        .build();

    println!(
        "setting up 3 households on the {} cloud...",
        world.design.vendor
    );
    world.run_setup();
    for i in 0..3 {
        println!(
            "  home {i}: {} bound to {} (shadow: {})",
            world.homes[i].dev_id,
            world.homes[i].user_id,
            world.shadow_state(i)
        );
    }

    // Morning: everyone turns their plug on and sets an evening-off timer.
    println!("\nmorning: plugs on, evening timers set");
    for i in 0..3 {
        world.app_mut(i).queue_control(ControlAction::TurnOn);
        world
            .app_mut(i)
            .queue_control(ControlAction::SetSchedule(ScheduleEntry {
                at_tick: 600_000,
                turn_on: false,
            }));
    }
    world.run_for(20_000);
    for i in 0..3 {
        println!(
            "  home {i}: on={} schedule={:?}",
            world.device(i).is_on(),
            world.device(i).schedule()
        );
    }

    // Midday: telemetry accumulates at the apps.
    world.run_for(60_000);
    println!("\nmidday telemetry pushes per app:");
    for i in 0..3 {
        println!("  home {i}: {} pushes", world.app(i).stats.telemetry_pushes);
    }

    // Afternoon: a power cut hits home 1.
    println!("\npower cut at home 1...");
    let node = world.homes[1].device;
    world.sim.set_power(node, false);
    world.run_for(80_000);
    println!("  home 1 shadow while dark: {}", world.shadow_state(1));
    assert_eq!(
        world.shadow_state(1),
        ShadowState::Bound,
        "binding survives outages"
    );
    world.sim.set_power(node, true);
    world.run_for(80_000);
    println!(
        "  home 1 shadow after power returns: {}",
        world.shadow_state(1)
    );

    // Evening: home 2 resells their plug — factory reset first.
    println!("\nhome 2 factory-resets their plug before reselling");
    world.device_mut(2).queue_reset();
    world.app_mut(2).queue_unbind();
    world.run_for(20_000);
    println!(
        "  home 2 shadow: {} (bound user: {:?})",
        world.shadow_state(2),
        world.cloud().bound_user(&world.homes[2].dev_id)
    );

    let (requests, denials) = world.telemetry().with(|r| {
        let total = |prefix: &str| {
            r.counters()
                .filter(|(name, _)| name.starts_with(prefix))
                .map(|(_, n)| n)
                .sum::<u64>()
        };
        (
            total("cloud_requests_total{"),
            total("cloud_denials_total{"),
        )
    });
    println!("\ncloud: {requests} requests, {denials} denials");
}
