//! Protocol-level tests of the cloud handlers, driven directly (no network
//! simulator). Each test exercises one policy branch the paper's attacks
//! probe.

// Test code: panicking on unexpected state is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rb_cloud::{CloudConfig, CloudService};
use rb_core::design::{DeviceAuthScheme, VendorDesign};
use rb_core::shadow::ShadowState;
use rb_core::vendors;
use rb_netsim::{NodeId, SimRng, Telemetry, Tick};
use rb_wire::ids::{DevId, MacAddr};
use rb_wire::messages::{
    BindPayload, ControlAction, DenyReason, DeviceAttributes, Message, Response, StatusAuth,
    StatusPayload, UnbindPayload,
};
use rb_wire::telemetry::{ScheduleEntry, TelemetryFrame};
use rb_wire::tokens::{BindToken, DevToken, SessionToken, UserId, UserPw, UserToken};

const USER_NODE: NodeId = NodeId(1);
const DEVICE_NODE: NodeId = NodeId(2);
const ATTACKER_NODE: NodeId = NodeId(3);

const FACTORY_SECRET: u128 = 0xfeed_f00d_dead_beef_0123_4567_89ab_cdef;

fn dev_id() -> DevId {
    DevId::Mac(MacAddr::from_oui([0x50, 0xc7, 0xbf], 0x000042))
}

struct Harness {
    cloud: CloudService,
    telemetry: Telemetry,
    rng: SimRng,
    now: Tick,
}

impl Harness {
    fn new(design: VendorDesign) -> Self {
        let mut cloud = CloudService::new(CloudConfig::new(design));
        let telemetry = Telemetry::new();
        cloud.set_telemetry(telemetry.clone());
        cloud.provision_account(UserId::new("victim"), UserPw::new("victim-pw"));
        cloud.provision_account(UserId::new("attacker"), UserPw::new("attacker-pw"));
        cloud.manufacture(dev_id(), FACTORY_SECRET, None);
        // User and device share the home NAT; the attacker does not.
        cloud.set_public_ip(USER_NODE, 100);
        cloud.set_public_ip(DEVICE_NODE, 100);
        cloud.set_public_ip(ATTACKER_NODE, 200);
        Harness {
            cloud,
            telemetry,
            rng: SimRng::new(0xbead),
            now: Tick(0),
        }
    }

    fn send(&mut self, from: NodeId, msg: Message) -> rb_cloud::Outcome {
        self.now += 10;
        let now = self.now;
        self.cloud.handle_message(from, now, &msg, &mut self.rng)
    }

    fn login(&mut self, from: NodeId, user: &str, pw: &str) -> UserToken {
        match self
            .send(
                from,
                Message::Login {
                    user_id: UserId::new(user),
                    user_pw: UserPw::new(pw),
                },
            )
            .reply
        {
            Response::LoginOk { user_token } => user_token,
            other => panic!("login failed: {other}"),
        }
    }

    fn status_auth(&mut self, user_token: Option<UserToken>) -> StatusAuth {
        match self.cloud.design().auth {
            DeviceAuthScheme::DevToken => {
                let token = user_token.expect("DevToken design needs a user token");
                match self
                    .send(USER_NODE, Message::RequestDevToken { user_token: token })
                    .reply
                {
                    Response::DevTokenIssued { dev_token } => StatusAuth::DevToken(dev_token),
                    other => panic!("token request failed: {other}"),
                }
            }
            DeviceAuthScheme::DevId => StatusAuth::DevId(dev_id()),
            DeviceAuthScheme::Opaque => {
                StatusAuth::DevToken(DevToken::from_entropy(FACTORY_SECRET))
            }
            DeviceAuthScheme::PublicKey => unreachable!("not used in these tests"),
        }
    }

    fn device_register(&mut self, auth: StatusAuth) -> rb_cloud::Outcome {
        self.send(
            DEVICE_NODE,
            Message::Status(StatusPayload::register(
                auth,
                dev_id(),
                DeviceAttributes::new("unit", "1.0"),
            )),
        )
    }

    fn bind_as(&mut self, from: NodeId, user_token: UserToken) -> rb_cloud::Outcome {
        self.send(
            from,
            Message::Bind(BindPayload::AclApp {
                dev_id: dev_id(),
                user_token,
            }),
        )
    }
}

/// Drives the standard happy path: victim logs in, device registers, victim
/// binds. Returns (victim token, device auth, binding session if any).
fn setup_bound(h: &mut Harness) -> (UserToken, StatusAuth, Option<SessionToken>) {
    let victim = h.login(USER_NODE, "victim", "victim-pw");
    let auth = h.status_auth(Some(victim));
    let r = h.device_register(auth.clone());
    assert!(r.reply.is_ok(), "register: {}", r.reply);
    let r = h.bind_as(USER_NODE, victim);
    let session = match r.reply {
        Response::Bound { session } => session,
        other => panic!("bind failed: {other}"),
    };
    // If the design uses post-binding sessions, the app delivers the token
    // to the device locally; the device then presents it in a heartbeat.
    if let Some(s) = session {
        let mut hb = StatusPayload::heartbeat(auth.clone(), dev_id());
        hb.session = Some(s);
        let r = h.send(DEVICE_NODE, Message::Status(hb));
        assert!(r.reply.is_ok());
    }
    (victim, auth, session)
}

// ---------------------------------------------------------------------------
// Happy paths.
// ---------------------------------------------------------------------------

#[test]
fn full_lifecycle_on_a_dev_token_design() {
    let mut h = Harness::new(vendors::lightstory());
    let (victim, _auth, session) = setup_bound(&mut h);
    assert_eq!(h.cloud.shadow_state(&dev_id()), ShadowState::Control);
    assert_eq!(h.cloud.bound_user(&dev_id()), Some(UserId::new("victim")));

    // Control works for the bound user.
    let r = h.send(
        USER_NODE,
        Message::Control {
            dev_id: dev_id(),
            user_token: victim,
            session,
            action: ControlAction::TurnOn,
        },
    );
    assert!(r.reply.is_ok(), "{}", r.reply);
    assert_eq!(r.pushes.len(), 1, "one push to the device");
    assert_eq!(r.pushes[0].0, DEVICE_NODE);

    // Unbind by the owner works.
    let r = h.send(
        USER_NODE,
        Message::Unbind(UnbindPayload::DevIdUserToken {
            dev_id: dev_id(),
            user_token: victim,
        }),
    );
    assert_eq!(r.reply, Response::Unbound);
    assert_eq!(h.cloud.shadow_state(&dev_id()), ShadowState::Online);
}

#[test]
fn telemetry_flows_to_the_bound_user() {
    let mut h = Harness::new(vendors::d_link());
    let (_victim, auth, _) = setup_bound(&mut h);
    let mut hb = StatusPayload::heartbeat(auth, dev_id());
    hb.telemetry = vec![TelemetryFrame::PowerMilliwatts(1500)];
    let r = h.send(DEVICE_NODE, Message::Status(hb));
    assert!(r.reply.is_ok());
    let (node, push) = &r.pushes[0];
    assert_eq!(*node, USER_NODE);
    match push {
        Response::TelemetryPush { telemetry, .. } => {
            assert_eq!(telemetry, &vec![TelemetryFrame::PowerMilliwatts(1500)]);
        }
        other => panic!("expected telemetry push, got {other}"),
    }
}

#[test]
fn schedule_set_query_and_device_push() {
    let mut h = Harness::new(vendors::d_link());
    let (victim, _auth, _) = setup_bound(&mut h);
    let entry = ScheduleEntry {
        at_tick: 9999,
        turn_on: true,
    };
    let r = h.send(
        USER_NODE,
        Message::Control {
            dev_id: dev_id(),
            user_token: victim,
            session: None,
            action: ControlAction::SetSchedule(entry.clone()),
        },
    );
    assert!(r.reply.is_ok());
    // The schedule is pushed to the device so it can run offline.
    assert!(r
        .pushes
        .iter()
        .any(|(n, p)| *n == DEVICE_NODE && matches!(p, Response::ControlPush { .. })));
    // And can be queried back.
    let r = h.send(
        USER_NODE,
        Message::Control {
            dev_id: dev_id(),
            user_token: victim,
            session: None,
            action: ControlAction::QuerySchedule,
        },
    );
    match r.reply {
        Response::ControlOk { schedule, .. } => assert_eq!(schedule, vec![entry]),
        other => panic!("{other}"),
    }
}

#[test]
fn query_shadow_reports_state_bits() {
    let mut h = Harness::new(vendors::d_link());
    let r = h.send(USER_NODE, Message::QueryShadow { dev_id: dev_id() });
    assert_eq!(
        r.reply,
        Response::ShadowState {
            online: false,
            bound: false
        }
    );
    setup_bound(&mut h);
    let r = h.send(USER_NODE, Message::QueryShadow { dev_id: dev_id() });
    assert_eq!(
        r.reply,
        Response::ShadowState {
            online: true,
            bound: true
        }
    );
}

// ---------------------------------------------------------------------------
// Authentication branches.
// ---------------------------------------------------------------------------

#[test]
fn unknown_device_is_rejected() {
    let mut h = Harness::new(vendors::d_link());
    let ghost = DevId::Uuid(0x6060);
    let r = h.send(
        DEVICE_NODE,
        Message::Status(StatusPayload::heartbeat(
            StatusAuth::DevId(ghost.clone()),
            ghost,
        )),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::UnknownDevice
        }
    );
}

#[test]
fn dev_token_design_rejects_dev_id_auth() {
    let mut h = Harness::new(vendors::belkin());
    let r = h.send(
        DEVICE_NODE,
        Message::Status(StatusPayload::heartbeat(
            StatusAuth::DevId(dev_id()),
            dev_id(),
        )),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::DeviceAuthFailed
        }
    );
    // And rejects made-up tokens.
    let r = h.send(
        DEVICE_NODE,
        Message::Status(StatusPayload::heartbeat(
            StatusAuth::DevToken(DevToken::from_entropy(123)),
            dev_id(),
        )),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::DeviceAuthFailed
        }
    );
}

#[test]
fn opaque_design_rejects_everything_but_the_factory_secret() {
    let mut h = Harness::new(vendors::broadlink());
    // The attacker knows the DevId but not the factory secret.
    let r = h.send(
        ATTACKER_NODE,
        Message::Status(StatusPayload::heartbeat(
            StatusAuth::DevId(dev_id()),
            dev_id(),
        )),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::DeviceAuthFailed
        }
    );
    // The real firmware authenticates fine.
    let r = h.device_register(StatusAuth::DevToken(DevToken::from_entropy(FACTORY_SECRET)));
    assert!(r.reply.is_ok());
}

#[test]
fn public_key_design_verifies_signatures() {
    let mut h = Harness::new(vendors::public_key_reference());
    let secret = 0x1234_5678_9abc_def0_1111_2222_3333_4444u128;
    h.cloud.manufacture(dev_id(), 0, Some((77, secret)));
    let good = rb_cloud::registry::sign(secret, &dev_id());
    let r = h.device_register(StatusAuth::PublicKey {
        key_id: 77,
        signature: good,
    });
    assert!(r.reply.is_ok());
    let r = h.send(
        ATTACKER_NODE,
        Message::Status(StatusPayload::register(
            StatusAuth::PublicKey {
                key_id: 77,
                signature: good ^ 1,
            },
            dev_id(),
            DeviceAttributes::default(),
        )),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::DeviceAuthFailed
        }
    );
}

#[test]
fn dev_id_design_accepts_forged_status() {
    // The core weakness: on a DevId design anyone holding the ID *is* the
    // device. (A fresh source must open its own session via Register — the
    // paper's authors did the same with a raw OpenSSL connection.)
    let mut h = Harness::new(vendors::d_link());
    let r = h.send(
        ATTACKER_NODE,
        Message::Status(StatusPayload::register(
            StatusAuth::DevId(dev_id()),
            dev_id(),
            DeviceAttributes::default(),
        )),
    );
    assert!(r.reply.is_ok(), "{}", r.reply);
    // Follow-up heartbeats within the forged session are accepted too.
    let r = h.send(
        ATTACKER_NODE,
        Message::Status(StatusPayload::heartbeat(
            StatusAuth::DevId(dev_id()),
            dev_id(),
        )),
    );
    assert!(r.reply.is_ok(), "{}", r.reply);
}

#[test]
fn heartbeat_without_a_session_is_rejected() {
    // A heartbeat is only valid inside an established device session.
    let mut h = Harness::new(vendors::d_link());
    let r = h.send(
        ATTACKER_NODE,
        Message::Status(StatusPayload::heartbeat(
            StatusAuth::DevId(dev_id()),
            dev_id(),
        )),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::DeviceAuthFailed
        }
    );
}

// ---------------------------------------------------------------------------
// Binding branches.
// ---------------------------------------------------------------------------

#[test]
fn bind_with_invalid_token_rejected() {
    let mut h = Harness::new(vendors::d_link());
    let r = h.bind_as(ATTACKER_NODE, UserToken::from_entropy(999));
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::InvalidUserToken
        }
    );
}

#[test]
fn sticky_design_rejects_second_binder() {
    let mut h = Harness::new(vendors::d_link());
    setup_bound(&mut h);
    let attacker = h.login(ATTACKER_NODE, "attacker", "attacker-pw");
    let r = h.bind_as(ATTACKER_NODE, attacker);
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::AlreadyBound
        }
    );
    assert_eq!(h.cloud.bound_user(&dev_id()), Some(UserId::new("victim")));
}

#[test]
fn sticky_design_rebind_by_same_user_is_idempotent() {
    let mut h = Harness::new(vendors::d_link());
    let (victim, _, _) = setup_bound(&mut h);
    let r = h.bind_as(USER_NODE, victim);
    assert!(r.reply.is_ok());
    assert_eq!(h.cloud.bound_user(&dev_id()), Some(UserId::new("victim")));
}

#[test]
fn replacing_design_displaces_and_notifies_previous_user() {
    let mut h = Harness::new(vendors::e_link());
    setup_bound(&mut h);
    let attacker = h.login(ATTACKER_NODE, "attacker", "attacker-pw");
    let r = h.bind_as(ATTACKER_NODE, attacker);
    assert!(r.reply.is_ok(), "replacement accepted: {}", r.reply);
    assert_eq!(h.cloud.bound_user(&dev_id()), Some(UserId::new("attacker")));
    assert!(
        r.pushes
            .iter()
            .any(|(n, p)| *n == USER_NODE && *p == Response::BindingRevoked),
        "victim is notified of the revocation"
    );
}

#[test]
fn online_required_design_rejects_bind_for_offline_device() {
    let mut h = Harness::new(vendors::tp_link());
    let victim = h.login(USER_NODE, "victim", "victim-pw");
    // TP-LINK binds by device message; forge one with valid credentials
    // while the device is offline.
    let _ = victim;
    let r = h.send(
        ATTACKER_NODE,
        Message::Bind(BindPayload::AclDevice {
            dev_id: dev_id(),
            user_id: UserId::new("attacker"),
            user_pw: UserPw::new("attacker-pw"),
        }),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::DeviceOffline
        }
    );
}

#[test]
fn device_initiated_bind_works_when_online() {
    let mut h = Harness::new(vendors::tp_link());
    let r = h.device_register(StatusAuth::DevId(dev_id()));
    assert!(r.reply.is_ok());
    let r = h.send(
        DEVICE_NODE,
        Message::Bind(BindPayload::AclDevice {
            dev_id: dev_id(),
            user_id: UserId::new("victim"),
            user_pw: UserPw::new("victim-pw"),
        }),
    );
    assert!(r.reply.is_ok(), "{}", r.reply);
    assert_eq!(h.cloud.bound_user(&dev_id()), Some(UserId::new("victim")));
}

#[test]
fn device_initiated_bind_rejects_wrong_password() {
    let mut h = Harness::new(vendors::tp_link());
    h.device_register(StatusAuth::DevId(dev_id()));
    let r = h.send(
        DEVICE_NODE,
        Message::Bind(BindPayload::AclDevice {
            dev_id: dev_id(),
            user_id: UserId::new("victim"),
            user_pw: UserPw::new("wrong"),
        }),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::BadCredentials
        }
    );
}

#[test]
fn wrong_bind_shape_is_unsupported() {
    let mut h = Harness::new(vendors::d_link());
    let r = h.send(
        DEVICE_NODE,
        Message::Bind(BindPayload::Capability {
            bind_token: BindToken::from_entropy(1),
        }),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::UnsupportedOperation
        }
    );
}

#[test]
fn hue_style_bind_requires_fresh_button_and_matching_ip() {
    let mut h = Harness::new(vendors::philips_hue());
    let victim = h.login(USER_NODE, "victim", "victim-pw");
    let r = h.device_register(StatusAuth::DevToken(DevToken::from_entropy(FACTORY_SECRET)));
    assert!(r.reply.is_ok());

    // Bind without any button press: denied.
    let r = h.bind_as(USER_NODE, victim);
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::OwnershipProofFailed
        }
    );

    // Button pressed; bind from the same public IP: accepted.
    let mut status = StatusPayload::heartbeat(
        StatusAuth::DevToken(DevToken::from_entropy(FACTORY_SECRET)),
        dev_id(),
    );
    status.button_pressed = true;
    h.send(DEVICE_NODE, Message::Status(status.clone()));
    let r = h.bind_as(USER_NODE, victim);
    assert!(r.reply.is_ok(), "{}", r.reply);

    // Attacker binds right after another button press, but from a
    // different IP: denied (the cloud compares source addresses).
    let mut h = Harness::new(vendors::philips_hue());
    let _victim = h.login(USER_NODE, "victim", "victim-pw");
    let attacker = h.login(ATTACKER_NODE, "attacker", "attacker-pw");
    h.device_register(StatusAuth::DevToken(DevToken::from_entropy(FACTORY_SECRET)));
    h.send(DEVICE_NODE, Message::Status(status));
    let r = h.bind_as(ATTACKER_NODE, attacker);
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::OwnershipProofFailed
        }
    );
}

#[test]
fn hue_button_window_expires() {
    let mut h = Harness::new(vendors::philips_hue());
    let victim = h.login(USER_NODE, "victim", "victim-pw");
    let mut status = StatusPayload::heartbeat(
        StatusAuth::DevToken(DevToken::from_entropy(FACTORY_SECRET)),
        dev_id(),
    );
    status.button_pressed = true;
    h.send(DEVICE_NODE, Message::Status(status));
    // Let more than the 30 s window pass.
    h.now += 31_000;
    let r = h.bind_as(USER_NODE, victim);
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::OwnershipProofFailed
        }
    );
}

#[test]
fn capability_bind_roundtrip() {
    let mut h = Harness::new(vendors::capability_reference());
    let victim = h.login(USER_NODE, "victim", "victim-pw");
    // App requests a capability.
    let bind_token = match h
        .send(USER_NODE, Message::RequestBindToken { user_token: victim })
        .reply
    {
        Response::BindTokenIssued { bind_token } => bind_token,
        other => panic!("{other}"),
    };
    // Device registers (DevToken design).
    let auth = h.status_auth(Some(victim));
    let r = h.device_register(auth);
    assert!(r.reply.is_ok());
    // Device submits the capability (received over the LAN).
    let r = h.send(
        DEVICE_NODE,
        Message::Bind(BindPayload::Capability { bind_token }),
    );
    assert!(r.reply.is_ok(), "{}", r.reply);
    assert_eq!(h.cloud.bound_user(&dev_id()), Some(UserId::new("victim")));
    // The user is informed via push.
    assert!(r
        .pushes
        .iter()
        .any(|(n, p)| *n == USER_NODE && matches!(p, Response::Bound { .. })));
}

#[test]
fn capability_cannot_be_replayed_or_submitted_by_non_device() {
    let mut h = Harness::new(vendors::capability_reference());
    let victim = h.login(USER_NODE, "victim", "victim-pw");
    let bind_token = match h
        .send(USER_NODE, Message::RequestBindToken { user_token: victim })
        .reply
    {
        Response::BindTokenIssued { bind_token } => bind_token,
        other => panic!("{other}"),
    };
    // Submitted from a node with no device session: rejected.
    let r = h.send(
        ATTACKER_NODE,
        Message::Bind(BindPayload::Capability { bind_token }),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::DeviceAuthFailed
        }
    );
    // Legit flow consumes the token; replay fails.
    let auth = h.status_auth(Some(victim));
    h.device_register(auth);
    let r = h.send(
        DEVICE_NODE,
        Message::Bind(BindPayload::Capability { bind_token }),
    );
    assert!(r.reply.is_ok());
    let r = h.send(
        DEVICE_NODE,
        Message::Bind(BindPayload::Capability { bind_token }),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::InvalidBindToken
        }
    );
}

// ---------------------------------------------------------------------------
// Unbinding branches.
// ---------------------------------------------------------------------------

#[test]
fn unbind_ownership_check_blocks_foreign_tokens_when_present() {
    let mut h = Harness::new(vendors::lightstory()); // has the check
    setup_bound(&mut h);
    let attacker = h.login(ATTACKER_NODE, "attacker", "attacker-pw");
    let r = h.send(
        ATTACKER_NODE,
        Message::Unbind(UnbindPayload::DevIdUserToken {
            dev_id: dev_id(),
            user_token: attacker,
        }),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::NotBoundUser
        }
    );
    assert_eq!(h.cloud.bound_user(&dev_id()), Some(UserId::new("victim")));
}

#[test]
fn missing_ownership_check_allows_foreign_unbind() {
    let mut h = Harness::new(vendors::belkin()); // lacks the check (A3-2)
    setup_bound(&mut h);
    let attacker = h.login(ATTACKER_NODE, "attacker", "attacker-pw");
    let r = h.send(
        ATTACKER_NODE,
        Message::Unbind(UnbindPayload::DevIdUserToken {
            dev_id: dev_id(),
            user_token: attacker,
        }),
    );
    assert_eq!(r.reply, Response::Unbound);
    assert_eq!(h.cloud.bound_user(&dev_id()), None);
    // The victim hears about it.
    assert!(r
        .pushes
        .iter()
        .any(|(n, p)| *n == USER_NODE && *p == Response::BindingRevoked));
}

#[test]
fn dev_id_only_unbind_accepted_only_where_supported() {
    // TP-LINK accepts it (A3-1)...
    let mut h = Harness::new(vendors::tp_link());
    h.device_register(StatusAuth::DevId(dev_id()));
    let r = h.send(
        DEVICE_NODE,
        Message::Bind(BindPayload::AclDevice {
            dev_id: dev_id(),
            user_id: UserId::new("victim"),
            user_pw: UserPw::new("victim-pw"),
        }),
    );
    assert!(r.reply.is_ok());
    let r = h.send(
        ATTACKER_NODE,
        Message::Unbind(UnbindPayload::DevIdOnly { dev_id: dev_id() }),
    );
    assert_eq!(r.reply, Response::Unbound);

    // ...Belkin does not.
    let mut h = Harness::new(vendors::belkin());
    setup_bound(&mut h);
    let r = h.send(
        ATTACKER_NODE,
        Message::Unbind(UnbindPayload::DevIdOnly { dev_id: dev_id() }),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::UnsupportedOperation
        }
    );
}

#[test]
fn konke_has_no_unbind_at_all() {
    let mut h = Harness::new(vendors::konke());
    let (victim, _, _) = setup_bound(&mut h);
    let r = h.send(
        USER_NODE,
        Message::Unbind(UnbindPayload::DevIdUserToken {
            dev_id: dev_id(),
            user_token: victim,
        }),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::UnsupportedOperation
        }
    );
}

#[test]
fn unbind_unbound_device_is_not_bound() {
    let mut h = Harness::new(vendors::belkin());
    let victim = h.login(USER_NODE, "victim", "victim-pw");
    let r = h.send(
        USER_NODE,
        Message::Unbind(UnbindPayload::DevIdUserToken {
            dev_id: dev_id(),
            user_token: victim,
        }),
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::NotBound
        }
    );
}

// ---------------------------------------------------------------------------
// Control-path defenses.
// ---------------------------------------------------------------------------

#[test]
fn control_requires_being_the_bound_user() {
    let mut h = Harness::new(vendors::d_link());
    setup_bound(&mut h);
    let attacker = h.login(ATTACKER_NODE, "attacker", "attacker-pw");
    let r = h.send(
        ATTACKER_NODE,
        Message::Control {
            dev_id: dev_id(),
            user_token: attacker,
            session: None,
            action: ControlAction::TurnOn,
        },
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::NotBoundUser
        }
    );
}

#[test]
fn control_requires_online_device() {
    let mut h = Harness::new(vendors::d_link());
    let (victim, _, _) = setup_bound(&mut h);
    // Heartbeats stop; the session expires.
    h.now += 120_000;
    let now = h.now;
    h.cloud.expire(now);
    assert_eq!(h.cloud.shadow_state(&dev_id()), ShadowState::Bound);
    let r = h.send(
        USER_NODE,
        Message::Control {
            dev_id: dev_id(),
            user_token: victim,
            session: None,
            action: ControlAction::TurnOn,
        },
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::DeviceOffline
        }
    );
}

#[test]
fn post_binding_session_blocks_control_after_hijack() {
    // KONKE: attacker replaces the binding, but cannot deliver the fresh
    // session token to the device, so control is refused.
    let mut h = Harness::new(vendors::konke());
    let (_victim, _auth, _session) = setup_bound(&mut h);
    let attacker = h.login(ATTACKER_NODE, "attacker", "attacker-pw");
    let r = h.bind_as(ATTACKER_NODE, attacker);
    let hijack_session = match r.reply {
        Response::Bound { session } => session,
        other => panic!("replacement bind failed: {other}"),
    };
    assert_eq!(h.cloud.bound_user(&dev_id()), Some(UserId::new("attacker")));
    // The device still presents the *old* session in its heartbeats — the
    // attacker cannot reach it over the LAN to update it.
    let r = h.send(
        ATTACKER_NODE,
        Message::Control {
            dev_id: dev_id(),
            user_token: attacker,
            session: hijack_session,
            action: ControlAction::TurnOn,
        },
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::BadSession
        }
    );
}

#[test]
fn dev_token_linkage_blocks_control_after_rebind() {
    // Belkin: attacker unbinds (A3-2) and re-binds, but the device session
    // is keyed to the victim's DevToken — no relay for the attacker.
    let mut h = Harness::new(vendors::belkin());
    setup_bound(&mut h);
    let attacker = h.login(ATTACKER_NODE, "attacker", "attacker-pw");
    let r = h.send(
        ATTACKER_NODE,
        Message::Unbind(UnbindPayload::DevIdUserToken {
            dev_id: dev_id(),
            user_token: attacker,
        }),
    );
    assert_eq!(r.reply, Response::Unbound);
    let r = h.bind_as(ATTACKER_NODE, attacker);
    assert!(r.reply.is_ok(), "rebind by attacker: {}", r.reply);
    let r = h.send(
        ATTACKER_NODE,
        Message::Control {
            dev_id: dev_id(),
            user_token: attacker,
            session: None,
            action: ControlAction::TurnOn,
        },
    );
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::BadSession
        }
    );
}

#[test]
fn dev_id_design_relays_control_to_hijacker() {
    // E-Link: replacement binding yields real control (A4-1).
    let mut h = Harness::new(vendors::e_link());
    setup_bound(&mut h);
    let attacker = h.login(ATTACKER_NODE, "attacker", "attacker-pw");
    let r = h.bind_as(ATTACKER_NODE, attacker);
    assert!(r.reply.is_ok());
    let r = h.send(
        ATTACKER_NODE,
        Message::Control {
            dev_id: dev_id(),
            user_token: attacker,
            session: None,
            action: ControlAction::TurnOn,
        },
    );
    assert!(r.reply.is_ok(), "hijacker controls the device: {}", r.reply);
    assert!(
        r.pushes.iter().any(|(n, _)| *n == DEVICE_NODE),
        "command reached the device"
    );
}

// ---------------------------------------------------------------------------
// Session displacement / reset semantics.
// ---------------------------------------------------------------------------

#[test]
fn forged_status_displaces_real_device_when_not_concurrent() {
    let mut h = Harness::new(vendors::e_link());
    setup_bound(&mut h);
    assert_eq!(h.cloud.device_nodes(&dev_id()), vec![DEVICE_NODE]);
    h.send(
        ATTACKER_NODE,
        Message::Status(StatusPayload::register(
            StatusAuth::DevId(dev_id()),
            dev_id(),
            DeviceAttributes::default(),
        )),
    );
    assert_eq!(h.cloud.device_nodes(&dev_id()), vec![ATTACKER_NODE]);
}

#[test]
fn concurrent_design_keeps_both_sessions() {
    let mut h = Harness::new(vendors::d_link());
    setup_bound(&mut h);
    h.send(
        ATTACKER_NODE,
        Message::Status(StatusPayload::register(
            StatusAuth::DevId(dev_id()),
            dev_id(),
            DeviceAttributes::default(),
        )),
    );
    let nodes = h.cloud.device_nodes(&dev_id());
    assert!(nodes.contains(&DEVICE_NODE) && nodes.contains(&ATTACKER_NODE));
}

#[test]
fn register_resets_binding_on_tp_link() {
    let mut h = Harness::new(vendors::tp_link());
    h.device_register(StatusAuth::DevId(dev_id()));
    h.send(
        DEVICE_NODE,
        Message::Bind(BindPayload::AclDevice {
            dev_id: dev_id(),
            user_id: UserId::new("victim"),
            user_pw: UserPw::new("victim-pw"),
        }),
    );
    assert_eq!(h.cloud.bound_user(&dev_id()), Some(UserId::new("victim")));
    // A forged *registration* (not heartbeat) resets the binding: A3-4.
    let r = h.send(
        ATTACKER_NODE,
        Message::Status(StatusPayload::register(
            StatusAuth::DevId(dev_id()),
            dev_id(),
            DeviceAttributes::default(),
        )),
    );
    assert!(r.reply.is_ok());
    assert_eq!(h.cloud.bound_user(&dev_id()), None);
    assert_eq!(h.cloud.shadow_state(&dev_id()), ShadowState::Online);
}

#[test]
fn heartbeat_does_not_reset_binding_even_on_tp_link() {
    let mut h = Harness::new(vendors::tp_link());
    h.device_register(StatusAuth::DevId(dev_id()));
    h.send(
        DEVICE_NODE,
        Message::Bind(BindPayload::AclDevice {
            dev_id: dev_id(),
            user_id: UserId::new("victim"),
            user_pw: UserPw::new("victim-pw"),
        }),
    );
    h.send(
        ATTACKER_NODE,
        Message::Status(StatusPayload::heartbeat(
            StatusAuth::DevId(dev_id()),
            dev_id(),
        )),
    );
    assert_eq!(h.cloud.bound_user(&dev_id()), Some(UserId::new("victim")));
}

#[test]
fn decisions_reach_counters_and_rpc_marks() {
    let mut h = Harness::new(vendors::d_link());
    setup_bound(&mut h);
    h.cloud.set_forensics(true);
    let r = h.bind_as(ATTACKER_NODE, UserToken::from_entropy(1));
    assert_eq!(
        r.reply,
        Response::Denied {
            reason: DenyReason::InvalidUserToken
        }
    );
    let telemetry = &h.telemetry;
    assert_eq!(telemetry.counter("cloud_denials_total{kind=\"Bind\"}"), 1);
    assert_eq!(telemetry.counter("cloud_requests_total{kind=\"Bind\"}"), 2);
    let marks = h.cloud.take_forensic_marks();
    let rpc = marks
        .iter()
        .rfind(|m| m.starts_with("rpc "))
        .expect("the denied bind leaves an rpc mark");
    let reason = DenyReason::InvalidUserToken;
    assert!(rpc.ends_with(&format!("outcome=Denied({reason})")), "{rpc}");
}

#[test]
fn forged_bind_probes_reach_the_per_kind_counters() {
    // §V-C: the attacker sweeps a sequential ID window with forged binds.
    // Some IDs are sold and unbound (occupied), some unknown, and the
    // second pass hits bindings the first pass already took.
    let mut design = vendors::ozwi();
    design.id_scheme = rb_wire::ids::IdScheme::SequentialSerial {
        vendor: 0x0102,
        start: 0,
    };
    let ids: Vec<DevId> = (0..24).map(|i| design.id_scheme.id_at(i)).collect();
    let mut h = Harness::new(design);
    for (i, id) in ids.iter().enumerate().filter(|(i, _)| i % 3 == 0) {
        h.cloud.manufacture(id.clone(), i as u128 + 1, None);
    }
    let user_token = h.login(ATTACKER_NODE, "attacker", "attacker-pw");
    let mut probes = 0;
    let mut denied = 0;
    for _pass in 0..2 {
        for id in &ids {
            let reply = h.send(
                ATTACKER_NODE,
                Message::Bind(BindPayload::AclApp {
                    dev_id: id.clone(),
                    user_token,
                }),
            );
            probes += 1;
            if matches!(reply.reply, Response::Denied { .. }) {
                denied += 1;
            }
        }
    }
    assert!(denied > 0 && denied < probes, "{denied} of {probes} denied");
    let telemetry = &h.telemetry;
    assert_eq!(
        telemetry.counter("cloud_requests_total{kind=\"Bind\"}"),
        probes
    );
    assert_eq!(
        telemetry.counter("cloud_denials_total{kind=\"Bind\"}"),
        denied
    );
    assert_eq!(telemetry.counter("cloud_requests_total{kind=\"Login\"}"), 1);
    assert_eq!(telemetry.counter("cloud_denials_total{kind=\"Login\"}"), 0);
    assert!(
        !telemetry
            .to_prometheus()
            .contains("cloud_denials_total{kind=\"Login\"}"),
        "a kind never denied is absent from the export"
    );
}
