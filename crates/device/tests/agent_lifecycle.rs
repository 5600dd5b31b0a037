//! Device-agent life-cycle tests against a scripted mock cloud.
//!
//! (Full-stack tests against the real cloud live in `rb-scenario` and the
//! workspace-level integration suite.)

// Test code: panicking on unexpected state is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;
use rb_core::vendors;
use rb_device::{DeviceAgent, DeviceConfig, ProvisioningMode};
use rb_netsim::{Actor, Ctx, Dest, LanId, LinkQuality, NodeConfig, NodeId, Simulation, Tick};
use rb_provision::apmode::{PairingMaterial, ProvisionRequest};
use rb_provision::discovery::{SearchRequest, SearchResponse, SearchTarget};
use rb_provision::localctl::LocalCtl;
use rb_provision::{smartconfig, WifiCredentials};
use rb_wire::envelope::Envelope;
use rb_wire::ids::{DevId, MacAddr};
use rb_wire::messages::{ControlAction, Message, Response, StatusKind};
use rb_wire::telemetry::ScheduleEntry;
use rb_wire::tokens::SessionToken;

const LAN: LanId = LanId(0);

fn dev_id() -> DevId {
    DevId::Mac(MacAddr::from_oui([0x50, 0xc7, 0xbf], 7))
}

/// A scripted cloud: acks every status, records every request.
struct MockCloud {
    requests: Vec<Message>,
    session_to_echo: Option<SessionToken>,
}

impl MockCloud {
    fn new() -> Self {
        MockCloud {
            requests: Vec::new(),
            session_to_echo: None,
        }
    }
}

impl Actor for MockCloud {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
        let Ok(Envelope::Request { corr, msg }) = Envelope::decode(payload) else {
            return;
        };
        let rsp = match &msg {
            Message::Status(_) => Response::StatusAccepted {
                session: self.session_to_echo,
            },
            Message::Bind(_) => Response::Bound { session: None },
            Message::Unbind(_) => Response::Unbound,
            _ => Response::Denied {
                reason: rb_wire::messages::DenyReason::UnsupportedOperation,
            },
        };
        self.requests.push(msg);
        ctx.send(
            Dest::Unicast(from),
            Envelope::Response { corr, rsp }.encode(),
        );
    }
}

/// A helper actor that emits scripted LAN packets at given times.
struct Script {
    steps: Vec<(u64, Dest, Vec<u8>)>,
}

impl Actor for Script {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, (delay, _, _)) in self.steps.iter().enumerate() {
            ctx.set_timer(*delay, i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: u64) {
        let (_, dest, payload) = self.steps[key as usize].clone();
        ctx.send(dest, payload);
    }
}

fn sim() -> Simulation {
    Simulation::with_quality(1, LinkQuality::perfect(), LinkQuality::perfect())
}

fn device_config(design: rb_core::design::VendorDesign, cloud: NodeId) -> DeviceConfig {
    DeviceConfig {
        design,
        dev_id: dev_id(),
        factory_secret: 0x5151,
        key: None,
        cloud,
        lan: LAN,
        mode: ProvisioningMode::ApMode,
        heartbeat_every: 100,
        bind_delay: 1,
    }
}

fn provision_packet(pairing: PairingMaterial) -> Vec<u8> {
    ProvisionRequest {
        wifi: WifiCredentials::new("HomeNet", "psk"),
        pairing,
    }
    .encode()
}

#[test]
fn ap_mode_provision_register_and_heartbeat() {
    let mut sim = sim();
    let cloud = sim.add_node(NodeConfig::wan_only("cloud"), Box::new(MockCloud::new()));
    let dev = sim.add_node(
        NodeConfig::dual("device", LAN),
        Box::new(DeviceAgent::new(device_config(vendors::d_link(), cloud))),
    );
    let _app = sim.add_node(
        NodeConfig::dual("app", LAN),
        Box::new(Script {
            steps: vec![(
                10,
                Dest::Unicast(dev),
                provision_packet(PairingMaterial::default()),
            )],
        }),
    );
    sim.run_until(Tick(1000));

    let device = sim.actor::<DeviceAgent>(dev).unwrap();
    assert!(device.is_wifi_provisioned());
    assert!(device.is_registered());
    assert!(
        device.stats.heartbeats >= 5,
        "heartbeats: {}",
        device.stats.heartbeats
    );

    let cloud = sim.actor::<MockCloud>(cloud).unwrap();
    let registers = cloud
        .requests
        .iter()
        .filter(|m| matches!(m, Message::Status(s) if s.kind == StatusKind::Register))
        .count();
    assert!(registers >= 1);
}

#[test]
fn smartconfig_provisioning_via_broadcast_lengths() {
    let mut sim = sim();
    let cloud = sim.add_node(NodeConfig::wan_only("cloud"), Box::new(MockCloud::new()));
    let mut config = device_config(vendors::d_link(), cloud);
    config.mode = ProvisioningMode::SmartConfig;
    let dev = sim.add_node(
        NodeConfig::dual("device", LAN),
        Box::new(DeviceAgent::new(config)),
    );
    let _ = dev;

    // The app broadcasts junk payloads whose *lengths* encode the creds.
    let creds = WifiCredentials::new("HomeNet", "psk12345");
    let steps: Vec<(u64, Dest, Vec<u8>)> = smartconfig::encode(&creds)
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            (
                10 + i as u64 * 2,
                Dest::Broadcast(LAN),
                vec![0xAA; usize::from(len)],
            )
        })
        .collect();
    sim.add_node(NodeConfig::dual("app", LAN), Box::new(Script { steps }));
    sim.run_until(Tick(2000));

    let device = sim.actor::<DeviceAgent>(dev).unwrap();
    assert!(
        device.is_wifi_provisioned(),
        "device decoded the length channel"
    );
    assert!(
        device.is_registered(),
        "DevId designs need no pairing material"
    );
}

#[test]
fn dev_token_design_waits_for_pairing_material() {
    let mut sim = sim();
    let cloud = sim.add_node(NodeConfig::wan_only("cloud"), Box::new(MockCloud::new()));
    let mut config = device_config(vendors::belkin(), cloud);
    config.mode = ProvisioningMode::SmartConfig;
    let dev = sim.add_node(
        NodeConfig::dual("device", LAN),
        Box::new(DeviceAgent::new(config)),
    );

    let creds = WifiCredentials::new("HomeNet", "psk");
    let mut steps: Vec<(u64, Dest, Vec<u8>)> = smartconfig::encode(&creds)
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            (
                10 + i as u64 * 2,
                Dest::Broadcast(LAN),
                vec![0; usize::from(len)],
            )
        })
        .collect();
    // Pairing material arrives later over unicast.
    steps.push((
        800,
        Dest::Unicast(dev),
        provision_packet(PairingMaterial {
            dev_token: Some([9; 16]),
            ..Default::default()
        }),
    ));
    sim.add_node(NodeConfig::dual("app", LAN), Box::new(Script { steps }));

    sim.run_until(Tick(700));
    let device = sim.actor::<DeviceAgent>(dev).unwrap();
    assert!(device.is_wifi_provisioned());
    assert!(
        !device.is_registered(),
        "must not register without its DevToken"
    );

    sim.run_until(Tick(2000));
    assert!(sim.actor::<DeviceAgent>(dev).unwrap().is_registered());
}

#[test]
fn discovery_answers_matching_searches_only() {
    let mut sim = sim();
    let cloud = sim.add_node(NodeConfig::wan_only("cloud"), Box::new(MockCloud::new()));
    let dev = sim.add_node(
        NodeConfig::dual("device", LAN),
        Box::new(DeviceAgent::new(device_config(vendors::d_link(), cloud))),
    );

    struct Searcher {
        dev: NodeId,
        responses: Vec<SearchResponse>,
    }
    impl Actor for Searcher {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(5, 0);
            ctx.set_timer(10, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: u64) {
            let target = if key == 0 {
                SearchTarget::Vendor("D-LINK".into())
            } else {
                SearchTarget::Vendor("NotARealVendor".into())
            };
            let _ = self.dev;
            ctx.send(Dest::Broadcast(LAN), SearchRequest { target }.encode());
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, payload: &Bytes) {
            if let Ok(rsp) = SearchResponse::decode(payload) {
                self.responses.push(rsp);
            }
        }
    }
    let searcher = sim.add_node(
        NodeConfig::dual("app", LAN),
        Box::new(Searcher {
            dev,
            responses: vec![],
        }),
    );
    sim.run_until(Tick(100));
    let s = sim.actor::<Searcher>(searcher).unwrap();
    assert_eq!(
        s.responses.len(),
        1,
        "only the matching vendor search is answered"
    );
    assert_eq!(s.responses[0].dev_id, dev_id());
}

#[test]
fn control_pushes_change_appliance_state() {
    // The device only trusts pushes from the cloud's node, so here the
    // scripted pusher *is* the cloud.
    struct Pusher {
        dev: NodeId,
    }
    impl Actor for Pusher {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(50, 0);
            ctx.set_timer(60, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: u64) {
            let action = if key == 0 {
                ControlAction::TurnOn
            } else {
                ControlAction::SetSchedule(ScheduleEntry {
                    at_tick: 1_000_000,
                    turn_on: false,
                })
            };
            let env = Envelope::push(Response::ControlPush {
                action,
                session: None,
            });
            ctx.send(Dest::Unicast(self.dev), env.encode());
        }
    }
    let mut sim = Simulation::with_quality(2, LinkQuality::perfect(), LinkQuality::perfect());
    let cloud = sim.add_node(
        NodeConfig::wan_only("cloud"),
        Box::new(Pusher { dev: NodeId(1) }),
    );
    let dev = sim.add_node(
        NodeConfig::dual("device", LAN),
        Box::new(DeviceAgent::new(device_config(vendors::d_link(), cloud))),
    );
    sim.add_node(
        NodeConfig::dual("app", LAN),
        Box::new(Script {
            steps: vec![(
                5,
                Dest::Unicast(dev),
                provision_packet(PairingMaterial::default()),
            )],
        }),
    );
    sim.run_until(Tick(200));
    let device = sim.actor::<DeviceAgent>(dev).unwrap();
    assert!(device.is_on(), "TurnOn applied");
    assert_eq!(device.schedule().len(), 1, "schedule stored locally");
    assert_eq!(device.stats.commands, 2);
}

#[test]
fn session_assignment_and_reset_over_lan() {
    let mut sim = sim();
    let cloud = sim.add_node(NodeConfig::wan_only("cloud"), Box::new(MockCloud::new()));
    let dev = sim.add_node(
        NodeConfig::dual("device", LAN),
        Box::new(DeviceAgent::new(device_config(vendors::konke(), cloud))),
    );
    sim.add_node(
        NodeConfig::dual("app", LAN),
        Box::new(Script {
            steps: vec![
                (
                    5,
                    Dest::Unicast(dev),
                    provision_packet(PairingMaterial {
                        dev_token: Some([3; 16]),
                        ..Default::default()
                    }),
                ),
                (
                    50,
                    Dest::Unicast(dev),
                    LocalCtl::SessionAssign { token: [7; 16] }.encode(),
                ),
                (900, Dest::Unicast(dev), LocalCtl::FactoryReset.encode()),
            ],
        }),
    );
    sim.run_until(Tick(500));
    {
        let device = sim.actor::<DeviceAgent>(dev).unwrap();
        assert_eq!(device.session(), Some(SessionToken::from_bytes([7; 16])));
        assert!(device.is_registered());
    }
    sim.run_until(Tick(1500));
    let device = sim.actor::<DeviceAgent>(dev).unwrap();
    assert!(!device.is_wifi_provisioned(), "reset cleared provisioning");
    assert!(device.session().is_none());
    assert_eq!(device.stats.resets, 1);
}

#[test]
fn tp_link_style_device_sends_bind_and_reset_unbind() {
    let mut sim = sim();
    let cloud = sim.add_node(NodeConfig::wan_only("cloud"), Box::new(MockCloud::new()));
    let dev = sim.add_node(
        NodeConfig::dual("device", LAN),
        Box::new(DeviceAgent::new(device_config(vendors::tp_link(), cloud))),
    );
    sim.add_node(
        NodeConfig::dual("app", LAN),
        Box::new(Script {
            steps: vec![
                (
                    5,
                    Dest::Unicast(dev),
                    provision_packet(PairingMaterial {
                        user_credentials: Some(("victim".into(), "pw".into())),
                        ..Default::default()
                    }),
                ),
                (800, Dest::Unicast(dev), LocalCtl::FactoryReset.encode()),
            ],
        }),
    );
    sim.run_until(Tick(2000));
    let cloud_actor = sim.actor::<MockCloud>(cloud).unwrap();
    assert!(
        cloud_actor
            .requests
            .iter()
            .any(|m| matches!(m, Message::Bind(_))),
        "device-initiated bind was sent"
    );
    assert!(
        cloud_actor
            .requests
            .iter()
            .any(|m| matches!(m, Message::Unbind(_))),
        "reset sent Unbind:DevId"
    );
}

#[test]
fn reboot_reregisters() {
    let mut sim = sim();
    let cloud = sim.add_node(NodeConfig::wan_only("cloud"), Box::new(MockCloud::new()));
    let dev = sim.add_node(
        NodeConfig::dual("device", LAN),
        Box::new(DeviceAgent::new(device_config(vendors::d_link(), cloud))),
    );
    sim.add_node(
        NodeConfig::dual("app", LAN),
        Box::new(Script {
            steps: vec![(
                5,
                Dest::Unicast(dev),
                provision_packet(PairingMaterial::default()),
            )],
        }),
    );
    sim.run_until(Tick(500));
    assert!(sim.actor::<DeviceAgent>(dev).unwrap().is_registered());
    sim.set_power(dev, false);
    sim.run_until(Tick(600));
    sim.set_power(dev, true);
    sim.run_until(Tick(1500));
    let device = sim.actor::<DeviceAgent>(dev).unwrap();
    assert!(device.is_registered(), "re-registered after reboot");
    assert!(device.stats.registers >= 2);
}
