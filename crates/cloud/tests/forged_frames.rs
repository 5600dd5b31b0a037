//! Forged frames cannot break the cloud.
//!
//! The adversary controls every byte it sends. Whatever arrives — random
//! bytes, or a valid request with one byte flipped or its tail cut off —
//! the cloud must not panic, every frame it sends must decode as a
//! response, a frame that is not a request must get no answer at all, and
//! a request must get exactly one reply. A request the decoder rejects
//! must change nothing: the cloud reads the header first and decodes the
//! whole body of the kind it names before any handler touches state.

// Test code: panicking on unexpected state is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;
use proptest::prelude::*;

use rb_cloud::{CloudConfig, CloudService, DefensePolicy};
use rb_core::design::VendorDesign;
use rb_core::vendors;
use rb_netsim::{
    Actor, Ctx, Dest, LinkQuality, NodeConfig, NodeId, Simulation, Telemetry, TimerKey,
};
use rb_wire::codec::Frame;
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::ids::{DevId, MacAddr};
use rb_wire::messages::{
    BindPayload, ControlAction, DeviceAttributes, Message, MessageKind, Response, StatusAuth,
    StatusPayload, UnbindPayload,
};
use rb_wire::telemetry::TelemetryFrame;
use rb_wire::tokens::{BindToken, DevToken, UserId, UserPw};

/// Ticks from queueing a frame until every reply has landed: one to the
/// forger's drain timer, one per hop on a perfect link, with slack.
const ROUND_TRIP: u64 = 8;

/// Forger indices: the victim's phone and the victim's device.
const USER: usize = 0;
const DEVICE: usize = 1;

fn dev_id() -> DevId {
    DevId::Mac(MacAddr::from_oui([0x50, 0xc7, 0xbf], 0x000042))
}

fn designs() -> Vec<VendorDesign> {
    let mut designs = vendors::vendor_designs();
    designs.push(vendors::weakest_design());
    designs
}

/// A raw endpoint that sends whatever is queued on its next tick and keeps
/// everything the cloud sends back.
struct Forger {
    cloud: NodeId,
    outbox: Vec<Bytes>,
    inbox: Vec<Bytes>,
}

impl Actor for Forger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(1, 0);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, payload: Bytes) {
        self.inbox.push(payload);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _key: TimerKey) {
        for frame in self.outbox.drain(..) {
            ctx.send(Dest::Unicast(self.cloud), frame);
        }
        ctx.set_timer(1, 0);
    }
}

/// A cloud for `design` with one account and one manufactured device, and
/// two forgers behind the same home NAT.
struct Harness {
    sim: Simulation,
    cloud: NodeId,
    telemetry: Telemetry,
    forgers: [NodeId; 2],
}

impl Harness {
    fn new(design: VendorDesign, seed: u64) -> Self {
        Harness::with_policy(design, seed, DefensePolicy::disabled())
    }

    fn with_policy(design: VendorDesign, seed: u64, policy: DefensePolicy) -> Self {
        let mut cloud = CloudService::new(CloudConfig::new(design));
        cloud.set_defense(policy);
        let telemetry = Telemetry::new();
        cloud.set_telemetry(telemetry.clone());
        cloud.provision_account(UserId::new("victim"), UserPw::new("victim-pw"));
        cloud.manufacture(dev_id(), 0xfeed, None);
        let mut sim =
            Simulation::with_quality(seed, LinkQuality::perfect(), LinkQuality::perfect());
        let cloud = sim.add_node(NodeConfig::wan_only("cloud"), Box::new(cloud));
        let mut forger = |name: &str| {
            let actor = Forger {
                cloud,
                outbox: Vec::new(),
                inbox: Vec::new(),
            };
            sim.add_node(NodeConfig::wan_only(name), Box::new(actor))
        };
        let forgers = [forger("user"), forger("device")];
        let service = sim.actor_mut::<CloudService>(cloud).unwrap();
        for node in forgers {
            service.set_public_ip(node, 100);
        }
        Harness {
            sim,
            cloud,
            telemetry,
            forgers,
        }
    }

    /// Everything a request can change, rendered: the monitor's state and
    /// alert stream, the Prometheus export, and the device's shadow,
    /// binding, session nodes and guests.
    fn cloud_state(&self) -> String {
        let cloud = self.sim.actor::<CloudService>(self.cloud).unwrap();
        let monitor = cloud.monitor();
        format!(
            "{}{}{}shadow={:?} bound={:?} nodes={:?} guests={:?}",
            monitor.render_state(),
            monitor.render_alert_stream(),
            self.telemetry.to_prometheus(),
            cloud.shadow_state(&dev_id()),
            cloud.bound_user(&dev_id()),
            cloud.device_nodes(&dev_id()),
            cloud.guests(&dev_id()),
        )
    }

    fn inbox(&self, forger: usize) -> &[Bytes] {
        &self
            .sim
            .actor::<Forger>(self.forgers[forger])
            .unwrap()
            .inbox
    }

    /// Sends `frame` from `sender`, checks everything the cloud sends in
    /// answer, and returns the responses that reached `sender`.
    fn exchange(&mut self, sender: usize, frame: Bytes) -> Vec<Response> {
        let request = match Envelope::decode(&frame) {
            Ok(Envelope::Request { corr, .. }) => Some(corr),
            _ => None,
        };
        let seen = [self.inbox(USER).len(), self.inbox(DEVICE).len()];
        let node = self.forgers[sender];
        self.sim
            .actor_mut::<Forger>(node)
            .unwrap()
            .outbox
            .push(frame.clone());
        self.sim.run_for(ROUND_TRIP);

        let mut sent = 0;
        let mut replies = 0;
        let mut received = Vec::new();
        for (forger, seen) in seen.into_iter().enumerate() {
            for out in &self.inbox(forger)[seen..] {
                sent += 1;
                let Ok(Envelope::Response { corr, rsp }) = Envelope::decode(out) else {
                    panic!("the cloud sent a frame that is not a response: {out:?}");
                };
                if forger == sender {
                    replies += usize::from(Some(corr) == request);
                    received.push(rsp);
                }
            }
        }
        match request {
            // Pushes carry correlation id 0, so only a non-zero id
            // separates the reply from them.
            Some(CorrId(0)) => assert!(replies >= 1, "no reply to {frame:?}"),
            Some(_) => assert_eq!(replies, 1, "replies to {frame:?}"),
            None => assert_eq!(sent, 0, "the cloud answered a non-request {frame:?}"),
        }
        received
    }
}

/// The frames of one honest session, kept so that mutations start from
/// frames that reach deep into the handlers.
#[derive(Default)]
struct Session {
    frames: Vec<(usize, Bytes)>,
}

impl Session {
    /// Sends `msg` from `sender`, records the frame, and returns the
    /// responses `sender` got.
    fn send(&mut self, h: &mut Harness, sender: usize, msg: Message) -> Vec<Response> {
        let frame = Envelope::Request {
            corr: CorrId(self.frames.len() as u64 + 1),
            msg,
        }
        .encode();
        self.frames.push((sender, frame.clone()));
        h.exchange(sender, frame)
    }
}

/// Plays the honest set-up and control flow with the real credentials the
/// cloud hands out, and returns its frames.
fn honest_session(h: &mut Harness) -> Vec<(usize, Bytes)> {
    let mut s = Session::default();
    let login = Message::Login {
        user_id: UserId::new("victim"),
        user_pw: UserPw::new("victim-pw"),
    };
    let user_token = s
        .send(h, USER, login)
        .into_iter()
        .find_map(|rsp| match rsp {
            Response::LoginOk { user_token } => Some(user_token),
            _ => None,
        })
        .expect("the provisioned account logs in");
    let dev_token = s
        .send(h, USER, Message::RequestDevToken { user_token })
        .into_iter()
        .find_map(|rsp| match rsp {
            Response::DevTokenIssued { dev_token } => Some(dev_token),
            _ => None,
        })
        .unwrap_or(DevToken::from_entropy(2));
    let bind_token = s
        .send(h, USER, Message::RequestBindToken { user_token })
        .into_iter()
        .find_map(|rsp| match rsp {
            Response::BindTokenIssued { bind_token } => Some(bind_token),
            _ => None,
        })
        .unwrap_or(BindToken::from_entropy(3));

    let auths = [StatusAuth::DevToken(dev_token), StatusAuth::DevId(dev_id())];
    for auth in auths.clone() {
        let attributes = DeviceAttributes::new("model", "1.0");
        let register = StatusPayload::register(auth, dev_id(), attributes);
        s.send(h, DEVICE, Message::Status(register));
    }
    let binds = [
        (
            USER,
            BindPayload::AclApp {
                dev_id: dev_id(),
                user_token,
            },
        ),
        (
            DEVICE,
            BindPayload::AclDevice {
                dev_id: dev_id(),
                user_id: UserId::new("victim"),
                user_pw: UserPw::new("victim-pw"),
            },
        ),
        (DEVICE, BindPayload::Capability { bind_token }),
    ];
    for (sender, bind) in binds {
        s.send(h, sender, Message::Bind(bind));
    }
    for auth in auths {
        let mut heartbeat = StatusPayload::heartbeat(auth, dev_id());
        heartbeat.telemetry = vec![TelemetryFrame::Alarm { triggered: true }];
        s.send(h, DEVICE, Message::Status(heartbeat));
    }
    let control = Message::Control {
        dev_id: dev_id(),
        user_token,
        session: None,
        action: ControlAction::TurnOn,
    };
    s.send(h, USER, control);
    s.send(h, USER, Message::QueryShadow { dev_id: dev_id() });
    let share = Message::Share {
        dev_id: dev_id(),
        user_token,
        grantee: UserId::new("victim"),
    };
    s.send(h, USER, share);
    let unbinds = [
        (
            USER,
            UnbindPayload::DevIdUserToken {
                dev_id: dev_id(),
                user_token,
            },
        ),
        (DEVICE, UnbindPayload::DevIdOnly { dev_id: dev_id() }),
    ];
    for (sender, unbind) in unbinds {
        s.send(h, sender, Message::Unbind(unbind));
    }
    s.frames
}

/// One forged frame: random bytes, or a frame of the honest session sent
/// as is, with one byte flipped, or cut short.
#[derive(Debug, Clone)]
enum Input {
    Garbage(Vec<u8>),
    Valid(usize),
    Mutated { base: usize, pos: f64, flip: u8 },
    Truncated { base: usize, cut: f64 },
}

impl Input {
    fn frame(&self, valid: &[(usize, Bytes)]) -> Bytes {
        let pick = |base: &usize| valid[base % valid.len()].1.clone();
        match self {
            Input::Garbage(raw) => Bytes::from(raw.clone()),
            Input::Valid(base) => pick(base),
            Input::Mutated { base, pos, flip } => {
                let mut raw = pick(base).to_vec();
                let at = ((raw.len() as f64 * pos) as usize).min(raw.len() - 1);
                raw[at] ^= flip;
                Bytes::from(raw)
            }
            Input::Truncated { base, cut } => {
                let frame = pick(base);
                frame.slice(..(frame.len() as f64 * cut) as usize)
            }
        }
    }
}

fn arb_input() -> impl Strategy<Value = Input> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Input::Garbage),
        any::<usize>().prop_map(Input::Valid),
        (any::<usize>(), 0.0f64..1.0, 1u8..=255).prop_map(|(base, pos, flip)| Input::Mutated {
            base,
            pos,
            flip
        }),
        (any::<usize>(), 0.0f64..1.0).prop_map(|(base, cut)| Input::Truncated { base, cut }),
    ]
}

proptest! {
    #[test]
    fn forged_frames_never_panic_and_get_one_reply_per_request(
        design in any::<usize>(),
        seed in any::<u64>(),
        inputs in proptest::collection::vec((0usize..2, arb_input()), 1..24),
    ) {
        let mut designs = designs();
        let design = designs.swap_remove(design % designs.len());
        let mut h = Harness::new(design, seed);
        let valid = honest_session(&mut h);
        for (sender, input) in inputs {
            h.exchange(sender, input.frame(&valid));
        }
    }
}

/// Every cut and every byte flip (three masks per position) of `frame`
/// that the decoder rejects.
fn rejected_variants(frame: &Bytes) -> Vec<Bytes> {
    let cuts = (0..frame.len()).map(|cut| frame.slice(..cut));
    let flips = (0..frame.len()).flat_map(|at| {
        [0x01u8, 0x40, 0xff].map(|mask| {
            let mut raw = frame.to_vec();
            raw[at] ^= mask;
            Bytes::from(raw)
        })
    });
    cuts.chain(flips)
        .filter(|bytes| Envelope::decode(bytes).is_err())
        .collect()
}

/// Login, Status, Bind, Unbind and Control frames of the honest session,
/// cut or flipped until the decoder rejects them, leave the cloud exactly
/// as they found it, and get no answer. Every design, both defense
/// policies; each kind must also reach its body decoder with a header
/// the cloud dispatches on.
#[test]
fn a_rejected_request_changes_nothing() {
    const KINDS: [MessageKind; 5] = [
        MessageKind::Login,
        MessageKind::Status,
        MessageKind::Bind,
        MessageKind::Unbind,
        MessageKind::Control,
    ];
    for (seed, design) in designs().into_iter().enumerate() {
        for policy in [DefensePolicy::disabled(), DefensePolicy::hardened()] {
            let mut h = Harness::with_policy(design.clone(), seed as u64, policy);
            let valid = honest_session(&mut h);
            let mut body_rejections = [0usize; KINDS.len()];
            for (sender, frame) in valid {
                let kind = Frame::read(&frame).unwrap().request.unwrap();
                let Some(k) = KINDS.iter().position(|&x| x == kind) else {
                    continue;
                };
                for forged in rejected_variants(&frame) {
                    if matches!(Frame::read(&forged), Ok(f) if f.request == Some(kind)) {
                        body_rejections[k] += 1;
                    }
                    let before = h.cloud_state();
                    // `exchange` asserts that a rejected frame is not
                    // answered: nothing is sent, to anyone.
                    h.exchange(sender, forged.clone());
                    assert_eq!(
                        h.cloud_state(),
                        before,
                        "{}: rejected {kind:?} frame {forged:?} changed the cloud",
                        design.vendor
                    );
                }
            }
            for (kind, n) in KINDS.iter().zip(body_rejections) {
                assert!(
                    n > 0,
                    "{}: no {kind:?} frame reached its body decoder",
                    design.vendor
                );
            }
        }
    }
}
