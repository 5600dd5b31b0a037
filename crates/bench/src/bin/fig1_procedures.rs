//! FIG1 — regenerates the paper's Figure 1: the procedures of remote
//! binding, as an executed, annotated message sequence (user
//! authentication → local configuration → binding creation → binding
//! revocation).
//!
//! ```text
//! cargo run -p rb-bench --bin fig1_procedures
//! ```

use rb_core::vendors;
use rb_netsim::TraceEvent;
use rb_scenario::WorldBuilder;

fn main() {
    println!("Figure 1: procedures of remote binding (executed on the Belkin-style design)\n");

    let mut world = WorldBuilder::new(vendors::belkin(), 1).trace().build();

    println!("phase 1-3: user authentication, local configuration, binding creation");
    world.run_setup();

    // The app's event log is the user-side view of Figure 1.
    println!("\nuser-agent event sequence:");
    for event in &world.app(0).events {
        match event {
            rb_app::AppEvent::Telemetry(_) => {}
            other => println!("  app: {other:?}"),
        }
    }

    // The cloud's `rpc` marks are the cloud-side view. Each mark shares its
    // span with the delivered request that caused it, which names the
    // requester.
    println!("\ncloud-side message sequence (first 12 non-heartbeat entries):");
    let app_node = world.homes[0].app;
    let device_node = world.homes[0].device;
    let trace = world.sim.trace();
    let requester = |span: u64| {
        trace.iter().find_map(|e| match e.event {
            TraceEvent::Delivered { from, to, ctx, .. }
                if to == world.cloud && ctx.span_id == span =>
            {
                Some(from)
            }
            _ => None,
        })
    };
    let mut shown = 0;
    for entry in trace {
        let TraceEvent::Mark { node, text, ctx } = &entry.event else {
            continue;
        };
        let Some(rpc) = text.strip_prefix("rpc ") else {
            continue;
        };
        if *node != world.cloud || (rpc.starts_with("status:") && shown > 3) {
            continue; // compress the heartbeat stream
        }
        let who = match requester(ctx.span_id) {
            Some(n) if n == app_node => "app   ",
            Some(n) if n == device_node => "device",
            _ => "other ",
        };
        println!("  {} {who} -> cloud: {rpc}", entry.at);
        shown += 1;
        if shown >= 12 {
            break;
        }
    }

    println!("\nphase 4: binding revocation (user removes the device)");
    world.app_mut(0).queue_unbind();
    world.run_for(10_000);
    println!("  app bound: {}", world.app(0).is_bound());
    println!("  shadow   : {}", world.shadow_state(0));

    assert!(!world.app(0).is_bound());
    println!(
        "\nfull life cycle executed: authenticate → configure → bind → control state → revoke."
    );
}
