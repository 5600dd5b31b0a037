//! The four-party architecture of the paper's future work (Section VIII):
//! Zigbee children behind an IP hub. One forged `Unbind:DevId` against the
//! *hub's* binding silently disconnects every sensor behind it — the
//! amplification that makes hub bindings a high-value target.
//!
//! ```text
//! cargo run --example hub_architecture
//! ```

// Example code: panicking on a malformed demo world is the right behaviour.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use iot_remote_binding::app::{AppAgent, AppConfig};
use iot_remote_binding::cloud::{CloudConfig, CloudService};
use iot_remote_binding::core_model::design::{DeviceKind, UnbindSupport};
use iot_remote_binding::core_model::vendors;
use iot_remote_binding::device::hub::{HubAgent, ZigbeeChild};
use iot_remote_binding::device::{DeviceAgent, DeviceConfig, ProvisioningMode};
use iot_remote_binding::netsim::{Dest, LanId, LinkQuality, NodeConfig, Simulation, Tick};
use iot_remote_binding::wire::envelope::{CorrId, Envelope};
use iot_remote_binding::wire::ids::DevId;
use iot_remote_binding::wire::messages::{Message, UnbindPayload};
use iot_remote_binding::wire::tokens::{UserId, UserPw};

fn main() {
    // A hub vendor with the TP-LINK-style weakness: bare Unbind:DevId.
    let mut design = vendors::tp_link();
    design.vendor = "HubCo".into();
    design.device = DeviceKind::Sensor;
    design.unbind = UnbindSupport::both();

    let lan = LanId(0);
    let hub_dev_id = DevId::Uuid(0x4B5);
    let mut sim = Simulation::with_quality(7, LinkQuality::perfect(), LinkQuality::perfect());

    // Cloud.
    let mut service = CloudService::new(CloudConfig::new(design.clone()));
    service.provision_account(UserId::new("resident"), UserPw::new("pw"));
    service.manufacture(hub_dev_id.clone(), 0xFAC7, None);
    let cloud = sim.add_node(NodeConfig::wan_only("cloud"), Box::new(service));

    // The hub (an IP device whose firmware embeds a DeviceAgent).
    let hub_firmware = DeviceAgent::new(DeviceConfig {
        design: design.clone(),
        dev_id: hub_dev_id.clone(),
        factory_secret: 0xFAC7,
        key: None,
        cloud,
        lan,
        mode: ProvisioningMode::ApMode,
        heartbeat_every: 2_000,
        bind_delay: 2,
    });
    let hub = sim.add_node(
        NodeConfig::dual("hub", lan),
        Box::new(HubAgent::new(hub_firmware)),
    );

    // Four battery sensors that can only reach the hub.
    let mut children = Vec::new();
    for i in 0..4u8 {
        let child = sim.add_node(
            NodeConfig::lan_only(format!("zigbee{i}"), lan),
            Box::new(ZigbeeChild::new(hub, i, 1_500 + u64::from(i) * 137)),
        );
        children.push(child);
    }

    // The resident's phone.
    let app_config = AppConfig::new(
        design.clone(),
        cloud,
        lan,
        UserId::new("resident"),
        UserPw::new("pw"),
    );
    let app = sim.add_node(
        NodeConfig::dual("phone", lan),
        Box::new(AppAgent::new(app_config)),
    );

    let cloud_actor = sim.actor_mut::<CloudService>(cloud).unwrap();
    cloud_actor.set_public_ip(app, 1000);
    cloud_actor.set_public_ip(hub, 1000);

    // Let the household settle: hub binds (device-initiated), children report.
    sim.run_until(Tick(60_000));
    {
        let app_actor = sim.actor::<AppAgent>(app).unwrap();
        let hub_actor = sim.actor::<HubAgent>(hub).unwrap();
        println!("after setup:");
        println!("  resident bound       : {}", app_actor.is_bound());
        println!("  hub child frames     : {}", hub_actor.child_frames);
        println!("  child readings at hub:");
        for (id, frame) in hub_actor.child_readings() {
            println!("    child {id}: {frame}");
        }
        println!(
            "  telemetry pushes to phone: {}",
            app_actor.stats.telemetry_pushes
        );
        assert!(app_actor.is_bound());
    }

    // The attacker (who learned the hub's ID from its box) forges a single
    // Unbind:DevId from the WAN.
    let attacker = sim.add_node(
        NodeConfig::wan_only("attacker"),
        Box::new(iot_remote_binding::scenario::RawEndpoint::new()),
    );
    let forged = Envelope::Request {
        corr: CorrId(1),
        msg: Message::Unbind(UnbindPayload::DevIdOnly {
            dev_id: hub_dev_id.clone(),
        }),
    };
    sim.actor_mut::<iot_remote_binding::scenario::RawEndpoint>(attacker)
        .unwrap()
        .queue(Dest::Unicast(cloud), forged.encode());

    let pushes_before = sim.actor::<AppAgent>(app).unwrap().stats.telemetry_pushes;
    sim.run_until(Tick(120_000));

    let app_actor = sim.actor::<AppAgent>(app).unwrap();
    let cloud_actor = sim.actor::<CloudService>(cloud).unwrap();
    println!("\nafter one forged Unbind:DevId against the hub:");
    println!("  resident bound        : {}", app_actor.is_bound());
    println!(
        "  hub binding at cloud  : {:?}",
        cloud_actor.bound_user(&hub_dev_id)
    );
    let pushes_after = app_actor.stats.telemetry_pushes;
    println!(
        "  telemetry pushes since: {} (all {} children silenced by one message)",
        pushes_after - pushes_before,
        children.len()
    );
    assert!(!app_actor.is_bound(), "the hub binding is gone");
    // At most one heartbeat already in flight may still land; after that,
    // silence.
    assert!(
        pushes_after - pushes_before <= 1,
        "child data must stop reaching the resident (got {} extra pushes)",
        pushes_after - pushes_before
    );
}
