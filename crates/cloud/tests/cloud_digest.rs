//! Pins the cloud's observable behaviour over a seeded request stream.
//!
//! The cloud's storage is rewritten for speed from time to time; what it
//! answers must not move when it is. For each of the ten vendors and both
//! reference designs, under the disabled and the hardened defense policy,
//! this test drives a seeded stream of requests through
//! `CloudService::handle_message` and folds into one FNV-1a digest:
//!
//! * the `Debug` rendering of every `Outcome` (reply and pushes) and the
//!   forensic marks each request left;
//! * the monitor's `render_alert_stream()` and `render_state()`, the
//!   Prometheus export of the cloud's telemetry and the diagnostic
//!   accessors of every device, at the end of the stream.
//!
//! The stream covers logins, register and heartbeat statuses under every
//! authentication scheme (right, wrong and forged credentials), binds of
//! all three schemes, both unbind shapes, every control action, shares,
//! rules and `QueryShadow`; unknown and enumerated IDs, foreign and
//! unmapped source IPs, replays of retired binding tokens, heartbeat
//! expiry, and control on a device that was manufactured but never
//! touched. The pinned values are the digests the cloud produced before
//! the last such rewrite; any changed reply, push, mark, alert, counter or
//! table size changes them.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rb_cloud::registry::sign;
use rb_cloud::{CloudConfig, CloudService, DefensePolicy, Outcome, HEARTBEAT_TIMEOUT};
use rb_core::design::{DeviceAuthScheme, VendorDesign};
use rb_core::vendors;
use rb_netsim::{NodeId, SimRng, Telemetry, Tick};
use rb_wire::ids::DevId;
use rb_wire::messages::{
    AutomationRule, BindPayload, ControlAction, DeviceAttributes, Message, Response, StatusAuth,
    StatusPayload, UnbindPayload,
};
use rb_wire::telemetry::{RuleTrigger, ScheduleEntry, TelemetryFrame};
use rb_wire::tokens::{BindToken, DevToken, SessionToken, UserId, UserPw, UserToken};

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The owner's phone, a guest's phone, the attacker, and an unmapped
/// enumerator whose address the cloud synthesizes.
const OWNER: NodeId = NodeId(1);
const GUEST: NodeId = NodeId(2);
const ATTACKER: NodeId = NodeId(3);
const ENUMERATOR: NodeId = NodeId(50);
/// Device `i` speaks from `NodeId(DEVICE_BASE + i)`, behind the home NAT.
const DEVICE_BASE: u32 = 10;
const HOME_IP: u32 = 100;
const ATTACKER_IP: u32 = 200;

/// Devices the stream addresses; one more is manufactured and left alone.
const DEVICES: u64 = 4;
const UNKNOWN: u64 = 12;
const STEPS: usize = 700;

const USERS: [(&str, &str); 3] = [
    ("owner", "owner-pw"),
    ("guest", "guest-pw"),
    ("attacker", "attacker-pw"),
];

struct Driver {
    cloud: CloudService,
    telemetry: Telemetry,
    /// The cloud's own randomness (token minting).
    rng: SimRng,
    /// The stream's choices.
    pick: SimRng,
    now: Tick,
    digest: u64,
    auth: DeviceAuthScheme,
    /// Manufactured devices: the addressed ones, then the untouched one.
    devices: Vec<DevId>,
    secrets: Vec<u128>,
    keys: Vec<Option<(u64, u128)>>,
    unknown: Vec<DevId>,
    user_tokens: Vec<UserToken>,
    dev_tokens: Vec<DevToken>,
    bind_tokens: Vec<BindToken>,
    /// Every binding-session token seen in a reply or push, live or retired.
    sessions: Vec<SessionToken>,
}

impl Driver {
    fn new(design: VendorDesign, policy: DefensePolicy, seed: u64) -> Self {
        let auth = design.auth;
        let scheme = design.id_scheme.clone();
        let mut cloud = CloudService::new(CloudConfig::new(design));
        cloud.set_defense(policy);
        cloud.set_forensics(true);
        let telemetry = Telemetry::new();
        cloud.set_telemetry(telemetry.clone());
        for (user, pw) in USERS {
            cloud.provision_account(UserId::new(user), UserPw::new(pw));
        }
        let mut devices = Vec::new();
        let mut secrets = Vec::new();
        let mut keys = Vec::new();
        for i in 0..=DEVICES {
            let dev = scheme.id_at(i);
            let secret = 0xfeed_0000_0000_0000_0000_0000_0000_0000 | u128::from(i);
            // The last addressed device has no signing key.
            let key = (i != DEVICES - 1).then(|| (1_000 + i, 0xabcd_u128 << 64 | u128::from(i)));
            cloud.manufacture(dev.clone(), secret, key);
            devices.push(dev);
            secrets.push(secret);
            keys.push(key);
        }
        let unknown = (0..UNKNOWN).map(|i| scheme.id_at(1_000 + i)).collect();
        for node in [OWNER, GUEST] {
            cloud.set_public_ip(node, HOME_IP);
        }
        cloud.set_public_ip(ATTACKER, ATTACKER_IP);
        for i in 0..DEVICES as u32 {
            cloud.set_public_ip(NodeId(DEVICE_BASE + i), HOME_IP);
        }
        Driver {
            cloud,
            telemetry,
            rng: SimRng::new(seed ^ 0x5eed),
            pick: SimRng::new(seed),
            now: Tick(0),
            digest: 0xcbf2_9ce4_8422_2325,
            auth,
            devices,
            secrets,
            keys,
            unknown,
            user_tokens: Vec::new(),
            dev_tokens: Vec::new(),
            bind_tokens: Vec::new(),
            sessions: Vec::new(),
        }
    }

    fn fold(&mut self, text: &str) {
        fnv1a(&mut self.digest, text.as_bytes());
        fnv1a(&mut self.digest, b"\n");
    }

    fn learn(&mut self, rsp: &Response) {
        match rsp {
            Response::LoginOk { user_token } => self.user_tokens.push(*user_token),
            Response::DevTokenIssued { dev_token } => self.dev_tokens.push(*dev_token),
            Response::BindTokenIssued { bind_token } => self.bind_tokens.push(*bind_token),
            Response::Bound { session: Some(s) }
            | Response::StatusAccepted { session: Some(s) }
            | Response::ShareOk {
                session: Some(s), ..
            }
            | Response::ControlPush {
                session: Some(s), ..
            } if !self.sessions.contains(s) => self.sessions.push(*s),
            _ => {}
        }
    }

    fn send(&mut self, from: NodeId, msg: Message) -> Outcome {
        self.now += self.pick.range_u64(1, 400);
        let outcome = self
            .cloud
            .handle_message(from, self.now, &msg, &mut self.rng);
        self.fold(&format!("{from} {} {outcome:?}", self.now.as_u64()));
        for mark in self.cloud.take_forensic_marks() {
            self.fold(&mark);
        }
        self.learn(&outcome.reply);
        for (_, push) in &outcome.pushes {
            self.learn(push);
        }
        outcome
    }

    fn choose<T: Clone>(&mut self, items: &[T]) -> Option<T> {
        if items.is_empty() {
            return None;
        }
        let i = self.pick.range_u64(0, items.len() as u64 - 1) as usize;
        Some(items[i].clone())
    }

    /// Mostly a manufactured device, sometimes an unknown ID.
    fn target(&mut self) -> (usize, DevId) {
        if self.pick.chance(1, 6) {
            let dev = self.choose(&self.unknown.clone()).unwrap();
            (usize::MAX, dev)
        } else {
            let i = self.pick.range_u64(0, DEVICES - 1) as usize;
            (i, self.devices[i].clone())
        }
    }

    fn user_token(&mut self) -> UserToken {
        match self.choose(&self.user_tokens.clone()) {
            Some(tok) if !self.pick.chance(1, 8) => tok,
            _ => UserToken::from_entropy(self.pick.entropy128()),
        }
    }

    fn session(&mut self) -> Option<SessionToken> {
        if self.pick.chance(1, 3) {
            return None;
        }
        self.choose(&self.sessions.clone())
    }

    fn requester(&mut self) -> NodeId {
        [OWNER, OWNER, GUEST, ATTACKER, ENUMERATOR][self.pick.range_u64(0, 4) as usize]
    }

    /// The credential a status for device `i` carries: right for the
    /// design most of the time, otherwise another scheme's or a forgery.
    fn status_auth(&mut self, i: usize, dev: &DevId) -> StatusAuth {
        let right = i != usize::MAX && !self.pick.chance(1, 5);
        let scheme = if right {
            self.auth
        } else {
            [
                DeviceAuthScheme::DevToken,
                DeviceAuthScheme::DevId,
                DeviceAuthScheme::PublicKey,
                DeviceAuthScheme::Opaque,
            ][self.pick.range_u64(0, 3) as usize]
        };
        match scheme {
            DeviceAuthScheme::DevToken => match self.choose(&self.dev_tokens.clone()) {
                Some(tok) if right => StatusAuth::DevToken(tok),
                _ => StatusAuth::DevToken(DevToken::from_entropy(self.pick.entropy128())),
            },
            DeviceAuthScheme::DevId => StatusAuth::DevId(dev.clone()),
            DeviceAuthScheme::PublicKey => match self.keys.get(i).copied().flatten() {
                Some((key_id, secret)) if right => StatusAuth::PublicKey {
                    key_id,
                    signature: sign(secret, dev),
                },
                _ => StatusAuth::PublicKey {
                    key_id: 1_000 + self.pick.range_u64(0, DEVICES),
                    signature: self.pick.entropy128(),
                },
            },
            DeviceAuthScheme::Opaque => {
                let secret = match self.secrets.get(i) {
                    Some(s) if right => *s,
                    _ => self.pick.entropy128(),
                };
                StatusAuth::DevToken(DevToken::from_entropy(secret))
            }
        }
    }

    fn status(&mut self, register: bool) {
        let (i, dev) = self.target();
        let auth = self.status_auth(i, &dev);
        let mut payload = if register {
            StatusPayload::register(auth, dev, DeviceAttributes::new("unit", "1.0"))
        } else {
            StatusPayload::heartbeat(auth, dev)
        };
        payload.session = self.session();
        payload.button_pressed = self.pick.chance(1, 3);
        if self.pick.chance(1, 3) {
            payload.telemetry = vec![
                TelemetryFrame::TemperatureMilliC(self.pick.range_u64(15_000, 35_000) as i32),
                TelemetryFrame::PowerMilliwatts(self.pick.range_u64(0, 9_000)),
            ];
        }
        // Usually the device's own node; sometimes a forger elsewhere.
        let from = if i != usize::MAX && !self.pick.chance(1, 4) {
            NodeId(DEVICE_BASE + i as u32)
        } else {
            [ATTACKER, ENUMERATOR, NodeId(DEVICE_BASE)][self.pick.range_u64(0, 2) as usize]
        };
        self.send(from, Message::Status(payload));
    }

    fn bind(&mut self) {
        let (i, dev_id) = self.target();
        let payload = match self.pick.range_u64(0, 2) {
            0 => BindPayload::AclApp {
                dev_id,
                user_token: self.user_token(),
            },
            1 => {
                let (user, pw) = USERS[self.pick.range_u64(0, 2) as usize];
                let pw = if self.pick.chance(1, 5) { "wrong" } else { pw };
                BindPayload::AclDevice {
                    dev_id,
                    user_id: UserId::new(user),
                    user_pw: UserPw::new(pw),
                }
            }
            _ => BindPayload::Capability {
                bind_token: match self.choose(&self.bind_tokens.clone()) {
                    Some(tok) if !self.pick.chance(1, 6) => tok,
                    _ => BindToken::from_entropy(self.pick.entropy128()),
                },
            },
        };
        // Capability and device-sent binds come from a device node.
        let from = match (&payload, i) {
            (BindPayload::AclApp { .. }, _) | (_, usize::MAX) => self.requester(),
            _ if self.pick.chance(1, 4) => ATTACKER,
            _ => NodeId(DEVICE_BASE + i as u32),
        };
        self.send(from, Message::Bind(payload));
    }

    fn unbind(&mut self) {
        let (_, dev_id) = self.target();
        let payload = if self.pick.chance(1, 2) {
            UnbindPayload::DevIdUserToken {
                dev_id,
                user_token: self.user_token(),
            }
        } else {
            UnbindPayload::DevIdOnly { dev_id }
        };
        let from = self.requester();
        self.send(from, Message::Unbind(payload));
    }

    fn action(&mut self) -> ControlAction {
        match self.pick.range_u64(0, 5) {
            0 => ControlAction::TurnOn,
            1 => ControlAction::TurnOff,
            2 => ControlAction::SetBrightness(self.pick.range_u64(0, 255) as u8),
            3 => ControlAction::SetSchedule(ScheduleEntry {
                at_tick: self.pick.range_u64(0, 1 << 20),
                turn_on: self.pick.chance(1, 2),
            }),
            4 => ControlAction::QuerySchedule,
            _ => ControlAction::QueryTelemetry,
        }
    }

    fn control(&mut self, dev_id: DevId) {
        let msg = Message::Control {
            dev_id,
            user_token: self.user_token(),
            session: self.session(),
            action: self.action(),
        };
        let from = self.requester();
        self.send(from, msg);
    }

    fn share(&mut self) {
        let (_, dev_id) = self.target();
        let grantee = UserId::new(
            ["guest", "owner", "attacker", "nobody"][self.pick.range_u64(0, 3) as usize],
        );
        let user_token = self.user_token();
        let msg = if self.pick.chance(2, 3) {
            Message::Share {
                dev_id,
                user_token,
                grantee,
            }
        } else {
            Message::Unshare {
                dev_id,
                user_token,
                grantee,
            }
        };
        let from = self.requester();
        self.send(from, msg);
    }

    fn set_rule(&mut self) {
        let (_, trigger_dev) = self.target();
        let (_, action_dev) = self.target();
        let rule = AutomationRule {
            trigger_dev,
            trigger: RuleTrigger::TemperatureAbove(25_000),
            action_dev,
            action: self.action(),
        };
        let msg = Message::SetRule {
            user_token: self.user_token(),
            rule,
        };
        let from = self.requester();
        self.send(from, msg);
    }

    /// One random request (or a pause long enough to expire sessions).
    fn step(&mut self) {
        match self.pick.range_u64(0, 19) {
            0 => {
                let (user, pw) = USERS[self.pick.range_u64(0, 2) as usize];
                let pw = if self.pick.chance(1, 6) { "wrong" } else { pw };
                let from = [OWNER, GUEST, ATTACKER][self.pick.range_u64(0, 2) as usize];
                self.send(
                    from,
                    Message::Login {
                        user_id: UserId::new(user),
                        user_pw: UserPw::new(pw),
                    },
                );
            }
            1 => {
                let user_token = self.user_token();
                self.send(OWNER, Message::RequestDevToken { user_token });
            }
            2 => {
                let user_token = self.user_token();
                self.send(OWNER, Message::RequestBindToken { user_token });
            }
            3..=5 => self.status(true),
            6..=8 => self.status(false),
            9..=11 => self.bind(),
            12 => self.unbind(),
            13 | 14 => {
                let (_, dev_id) = self.target();
                self.control(dev_id);
            }
            15 => self.share(),
            16 => self.set_rule(),
            18 if self.pick.chance(1, 5) => {
                // Now and then a lone enumerator sweeps the unknown IDs.
                for dev_id in self.unknown.clone() {
                    self.send(
                        ENUMERATOR,
                        Message::QueryShadow {
                            dev_id: dev_id.clone(),
                        },
                    );
                    let user_token = self.user_token();
                    self.send(
                        ENUMERATOR,
                        Message::Bind(BindPayload::AclApp { dev_id, user_token }),
                    );
                }
            }
            17 | 18 => {
                let (_, dev_id) = self.target();
                let from = self.requester();
                self.send(from, Message::QueryShadow { dev_id });
            }
            _ => {
                self.now += self.pick.range_u64(1, 2 * HEARTBEAT_TIMEOUT);
                let expired = self.cloud.expire(self.now);
                self.fold(&format!("expire {} {expired:?}", self.now.as_u64()));
                for mark in self.cloud.take_forensic_marks() {
                    self.fold(&mark);
                }
            }
        }
    }

    fn run(mut self) -> u64 {
        // Everyone logs in once so the stream starts with live tokens.
        for (user, pw) in USERS {
            let from = if user == "attacker" { ATTACKER } else { OWNER };
            self.send(
                from,
                Message::Login {
                    user_id: UserId::new(user),
                    user_pw: UserPw::new(pw),
                },
            );
        }
        for _ in 0..STEPS {
            self.step();
        }
        // Control, share and a shadow query on the manufactured device
        // nobody has addressed yet, with the owner's live token.
        let untouched = self.devices[DEVICES as usize].clone();
        let owner_token = self.user_tokens[0];
        for action in [ControlAction::TurnOn, ControlAction::QuerySchedule] {
            self.send(
                OWNER,
                Message::Control {
                    dev_id: untouched.clone(),
                    user_token: owner_token,
                    session: None,
                    action,
                },
            );
        }
        self.send(
            OWNER,
            Message::Share {
                dev_id: untouched.clone(),
                user_token: owner_token,
                grantee: UserId::new("guest"),
            },
        );
        self.send(OWNER, Message::QueryShadow { dev_id: untouched });

        let monitor = self.cloud.monitor();
        let (stream, state) = (monitor.render_alert_stream(), monitor.render_state());
        self.fold(&stream);
        self.fold(&state);
        let prom = self.telemetry.to_prometheus();
        self.fold(&prom);
        for dev in self.devices.clone().iter().chain(&self.unknown.clone()) {
            let line = format!(
                "{dev} {:?} {:?} {:?} {:?}",
                self.cloud.shadow_state(dev),
                self.cloud.bound_user(dev),
                self.cloud.device_nodes(dev),
                self.cloud.guests(dev),
            );
            self.fold(&line);
        }
        self.fold(&format!("mitigations={}", self.cloud.mitigations()));
        self.digest
    }
}

fn designs() -> Vec<VendorDesign> {
    let mut all = vendors::vendor_designs();
    all.push(vendors::capability_reference());
    all.push(vendors::public_key_reference());
    all
}

/// `(vendor, disabled-policy digest, hardened-policy digest)`.
const PINNED: [(&str, u64, u64); 12] = [
    ("Belkin", 0xd979_e1d2_ed1a_c994, 0xe2a1_80e3_3d85_cdd2),
    ("BroadLink", 0x74fd_01c8_cf83_289c, 0x3573_f5c5_5920_666a),
    ("KONKE", 0x5871_c961_02f4_ff06, 0xb40e_76b4_1fdb_8711),
    ("Lightstory", 0x1372_e314_3b2b_2f91, 0xde7e_cfa4_8d15_db58),
    ("Orvibo", 0xd321_be12_3bf1_f87d, 0x7b19_84f4_f63d_3b04),
    ("OZWI", 0xfbef_948d_4758_d8c8, 0x4fd6_4c20_a485_1920),
    ("Philips Hue", 0x191b_3f69_8364_a2c9, 0xc704_9697_6e72_0429),
    ("TP-LINK", 0x7261_74c6_dbbf_4cca, 0x2ebb_3a53_7be2_2963),
    ("E-Link Smart", 0xc96d_a51b_d6f5_acc5, 0xf882_a26c_fb6b_d6b8),
    ("D-LINK", 0x96fa_d2f0_9e79_ac7c, 0x681a_00e5_1458_cfd1),
    (
        "Capability (reference)",
        0x2a4d_92ae_9ca9_b277,
        0xb3aa_74f2_52c7_07da,
    ),
    (
        "PublicKey (reference)",
        0x115f_858f_82d9_b546,
        0xa3e9_7d13_7f09_3664,
    ),
];

#[test]
fn cloud_outcomes_are_pinned_for_every_design_and_policy() {
    let designs = designs();
    assert_eq!(designs.len(), PINNED.len());
    let mut drift = Vec::new();
    for (seed, (design, (vendor, disabled, hardened))) in designs.iter().zip(PINNED).enumerate() {
        assert_eq!(design.vendor, vendor);
        let seed = 0x00c1_0d00 + seed as u64;
        let got = (
            Driver::new(design.clone(), DefensePolicy::disabled(), seed).run(),
            Driver::new(design.clone(), DefensePolicy::hardened(), seed).run(),
        );
        if got != (disabled, hardened) {
            drift.push(format!("(\"{vendor}\", {:#018x}, {:#018x}),", got.0, got.1));
        }
    }
    assert!(drift.is_empty(), "digests moved:\n{}", drift.join("\n"));
}
