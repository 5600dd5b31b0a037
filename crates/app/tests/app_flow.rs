//! App-agent flow tests against scripted mock clouds: step ordering per
//! design, retry behaviour, and denial handling.

// Test code: panicking on unexpected state is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;
use rb_app::{AppAgent, AppConfig};
use rb_core::vendors;
use rb_netsim::{Actor, Ctx, Dest, LanId, LinkQuality, NodeConfig, NodeId, Simulation, Tick};
use rb_provision::apmode::{ProvisionReply, ProvisionRequest};
use rb_provision::discovery::{SearchRequest, SearchResponse};
use rb_wire::envelope::Envelope;
use rb_wire::ids::DevId;
use rb_wire::messages::{DenyReason, Message, Response};
use rb_wire::tokens::{DevToken, UserId, UserPw, UserToken};

const LAN: LanId = LanId(0);

fn dev_id() -> DevId {
    DevId::Uuid(0xA11CE)
}

/// A mock cloud that answers every request positively and records the
/// request order; optionally swallows the first `drop_first` requests.
struct MockCloud {
    order: Vec<&'static str>,
    drop_first: usize,
    deny_bind: bool,
}

impl Actor for MockCloud {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
        let Ok(Envelope::Request { corr, msg }) = Envelope::decode(payload) else {
            return;
        };
        self.order.push(msg.kind_str());
        if self.drop_first > 0 {
            self.drop_first -= 1;
            return; // simulate a lost response
        }
        let rsp = match &msg {
            Message::Login { .. } => Response::LoginOk {
                user_token: UserToken::from_entropy(1),
            },
            Message::RequestDevToken { .. } => Response::DevTokenIssued {
                dev_token: DevToken::from_entropy(2),
            },
            Message::Bind(_) if self.deny_bind => Response::Denied {
                reason: DenyReason::AlreadyBound,
            },
            Message::Bind(_) => Response::Bound { session: None },
            Message::QueryShadow { .. } => Response::ShadowState {
                online: true,
                bound: true,
            },
            _ => Response::Denied {
                reason: DenyReason::UnsupportedOperation,
            },
        };
        ctx.send(
            Dest::Unicast(from),
            Envelope::Response { corr, rsp }.encode(),
        );
    }
}

/// A fake device on the LAN: answers discovery and accepts provisioning.
struct FakeDevice;

impl Actor for FakeDevice {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
        // Answer every search: the mock stands in for any vendor.
        if SearchRequest::decode(payload).is_ok() {
            let rsp = SearchResponse {
                vendor: "MockVendor".into(),
                model: "unit".into(),
                dev_id: dev_id(),
            };
            ctx.send(Dest::Unicast(from), rsp.encode());
            return;
        }
        if ProvisionRequest::decode(payload).is_ok() {
            let reply = ProvisionReply::Accepted {
                device_info: "ok".into(),
            };
            ctx.send(Dest::Unicast(from), reply.encode());
        }
    }
}

fn run_flow(
    mut design: rb_core::design::VendorDesign,
    drop_first: usize,
    deny_bind: bool,
    until: u64,
) -> (Vec<&'static str>, bool) {
    design.vendor = "MockVendor".into();
    let mut sim = Simulation::with_quality(3, LinkQuality::perfect(), LinkQuality::perfect());
    let cloud = sim.add_node(
        NodeConfig::wan_only("cloud"),
        Box::new(MockCloud {
            order: Vec::new(),
            drop_first,
            deny_bind,
        }),
    );
    let _device = sim.add_node(NodeConfig::dual("device", LAN), Box::new(FakeDevice));
    let mut config = AppConfig::new(design, cloud, LAN, UserId::new("u"), UserPw::new("p"));
    config.user_bind_delay = 200;
    config.known_label = Some(dev_id());
    let app = sim.add_node(
        NodeConfig::dual("app", LAN),
        Box::new(AppAgent::new(config)),
    );
    sim.run_until(Tick(until));
    let bound = sim.actor::<AppAgent>(app).unwrap().is_bound();
    let order = sim.actor_mut::<MockCloud>(cloud).unwrap().order.clone();
    (order, bound)
}

#[test]
fn online_first_design_binds_after_provisioning() {
    let (order, bound) = run_flow(vendors::ozwi(), 0, false, 20_000);
    assert!(bound);
    let bind_pos = order.iter().position(|k| *k == "Bind").expect("bind sent");
    let login_pos = order.iter().position(|k| *k == "Login").unwrap();
    assert!(login_pos < bind_pos, "login before bind: {order:?}");
    // The bind comes after the user delay, i.e. after provisioning — there
    // is no cloud-visible provisioning message, but the bind must not be
    // the message right after login.
    assert!(bind_pos > login_pos, "{order:?}");
}

#[test]
fn bind_first_design_binds_before_provisioning() {
    let (order, bound) = run_flow(vendors::d_link(), 0, false, 20_000);
    assert!(bound);
    assert_eq!(order.first(), Some(&"Login"), "{order:?}");
    assert_eq!(
        order.get(1),
        Some(&"Bind"),
        "BindFirst: bind directly after login: {order:?}"
    );
}

#[test]
fn dev_token_design_requests_token_before_binding() {
    let (order, bound) = run_flow(vendors::belkin(), 0, false, 30_000);
    assert!(bound);
    let token_pos = order
        .iter()
        .position(|k| *k == "RequestDevToken")
        .expect("token requested");
    let bind_pos = order.iter().position(|k| *k == "Bind").unwrap();
    assert!(token_pos < bind_pos, "{order:?}");
}

#[test]
fn lost_responses_are_retried() {
    // Swallow the first two responses (login, retry of login): the app must
    // keep retrying and still converge.
    let (order, bound) = run_flow(vendors::ozwi(), 2, false, 60_000);
    assert!(bound, "{order:?}");
    let logins = order.iter().filter(|k| **k == "Login").count();
    assert!(logins >= 2, "login was retried: {order:?}");
}

#[test]
fn denied_bind_is_recorded_and_retried() {
    let (order, bound) = run_flow(vendors::ozwi(), 0, true, 30_000);
    assert!(!bound, "AlreadyBound forever: never bound");
    let binds = order.iter().filter(|k| **k == "Bind").count();
    assert!(binds >= 2, "bind retried despite denials: {order:?}");
}

#[test]
fn device_initiated_design_polls_the_shadow() {
    let (order, bound) = run_flow(vendors::tp_link(), 0, false, 30_000);
    assert!(bound, "bound once the shadow reports so: {order:?}");
    assert!(order.contains(&"QueryShadow"), "{order:?}");
    assert!(
        !order.contains(&"Bind"),
        "the app never binds on AclDevice designs: {order:?}"
    );
}
