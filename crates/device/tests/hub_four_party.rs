//! Four-party architecture integration: Zigbee children → hub → cloud.

// Test code: panicking on unexpected state is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;
use rb_core::design::DeviceKind;
use rb_core::vendors;
use rb_device::hub::{HubAgent, ZigbeeChild};
use rb_device::{DeviceAgent, DeviceConfig, ProvisioningMode};
use rb_netsim::{Actor, Ctx, Dest, LanId, LinkQuality, NodeConfig, NodeId, Simulation, Tick};
use rb_provision::apmode::{PairingMaterial, ProvisionRequest};
use rb_provision::WifiCredentials;
use rb_wire::envelope::Envelope;
use rb_wire::ids::DevId;
use rb_wire::messages::{Message, Response, StatusKind};
use rb_wire::telemetry::TelemetryFrame;

const LAN: LanId = LanId(0);

/// Records telemetry arriving at the cloud from the hub.
struct RecordingCloud {
    heartbeat_telemetry: Vec<Vec<TelemetryFrame>>,
}

impl Actor for RecordingCloud {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
        let Ok(Envelope::Request { corr, msg }) = Envelope::decode(payload) else {
            return;
        };
        if let Message::Status(s) = &msg {
            if s.kind == StatusKind::Heartbeat {
                self.heartbeat_telemetry.push(s.telemetry.clone());
            }
        }
        let rsp = Response::StatusAccepted { session: None };
        ctx.send(
            Dest::Unicast(from),
            Envelope::Response { corr, rsp }.encode(),
        );
    }
}

#[test]
fn children_report_through_the_hub_to_the_cloud() {
    let mut design = vendors::d_link();
    design.device = DeviceKind::Sensor;
    let mut sim = Simulation::with_quality(11, LinkQuality::perfect(), LinkQuality::perfect());
    let cloud = sim.add_node(
        NodeConfig::wan_only("cloud"),
        Box::new(RecordingCloud {
            heartbeat_telemetry: Vec::new(),
        }),
    );
    let hub_fw = DeviceAgent::new(DeviceConfig {
        design,
        dev_id: DevId::Uuid(0x448),
        factory_secret: 1,
        key: None,
        cloud,
        lan: LAN,
        mode: ProvisioningMode::ApMode,
        heartbeat_every: 1_000,
        bind_delay: 1,
    });
    let hub = sim.add_node(
        NodeConfig::dual("hub", LAN),
        Box::new(HubAgent::new(hub_fw)),
    );
    for i in 0..3u8 {
        sim.add_node(
            NodeConfig::lan_only(format!("z{i}"), LAN),
            Box::new(ZigbeeChild::new(hub, i, 700 + u64::from(i) * 53)),
        );
    }
    // Provision the hub.
    struct Provisioner {
        hub: NodeId,
    }
    impl Actor for Provisioner {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(5, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _key: u64) {
            let req = ProvisionRequest {
                wifi: WifiCredentials::new("net", "psk"),
                pairing: PairingMaterial::default(),
            };
            ctx.send(Dest::Unicast(self.hub), req.encode());
        }
    }
    sim.add_node(
        NodeConfig::dual("phone", LAN),
        Box::new(Provisioner { hub }),
    );

    sim.run_until(Tick(30_000));

    let hub_actor = sim.actor::<HubAgent>(hub).unwrap();
    assert!(
        hub_actor.child_frames >= 30,
        "children kept reporting: {}",
        hub_actor.child_frames
    );
    assert_eq!(
        hub_actor.child_readings().count(),
        3,
        "one latest reading per child"
    );

    let cloud_actor = sim.actor::<RecordingCloud>(cloud).unwrap();
    assert!(!cloud_actor.heartbeat_telemetry.is_empty());
    // Once all three children have reported, hub heartbeats must carry the
    // hub's own sensor frame plus the three child temperatures.
    let last = cloud_actor.heartbeat_telemetry.last().unwrap();
    let temps = last
        .iter()
        .filter(|f| matches!(f, TelemetryFrame::TemperatureMilliC(_)))
        .count();
    assert!(
        temps >= 4,
        "hub + 3 children temperatures in one heartbeat: {last:?}"
    );
}

#[test]
fn hub_requires_sensor_kind_firmware() {
    let design = vendors::d_link(); // SmartPlug kind
    let fw = DeviceAgent::new(DeviceConfig {
        design,
        dev_id: DevId::Uuid(1),
        factory_secret: 1,
        key: None,
        cloud: NodeId(0),
        lan: LAN,
        mode: ProvisioningMode::ApMode,
        heartbeat_every: 1_000,
        bind_delay: 1,
    });
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| HubAgent::new(fw)));
    assert!(result.is_err(), "non-sensor firmware must be rejected");
}
