//! Detection tests: each attack signature raises its alert, and the
//! legitimate life cycle raises none (no false positives on the happy
//! path).

use rb_cloud::{CloudConfig, CloudService, SecurityAlert};
use rb_core::vendors;
use rb_netsim::{NodeId, SimRng, Telemetry, Tick};
use rb_wire::ids::DevId;
use rb_wire::messages::{
    BindPayload, DeviceAttributes, Message, Response, StatusAuth, StatusPayload, UnbindPayload,
};
use rb_wire::tokens::{UserId, UserPw, UserToken};

const USER_NODE: NodeId = NodeId(1);
const DEVICE_NODE: NodeId = NodeId(2);
const ATTACKER_NODE: NodeId = NodeId(3);

fn dev_id() -> DevId {
    DevId::Digits {
        value: 424_242,
        width: 6,
    }
}

struct H {
    cloud: CloudService,
    telemetry: Telemetry,
    rng: SimRng,
    now: Tick,
}

impl H {
    fn new(design: rb_core::design::VendorDesign) -> Self {
        let mut cloud = CloudService::new(CloudConfig::new(design));
        let telemetry = Telemetry::new();
        cloud.set_telemetry(telemetry.clone());
        cloud.provision_account(UserId::new("victim"), UserPw::new("v"));
        cloud.provision_account(UserId::new("attacker"), UserPw::new("a"));
        cloud.manufacture(dev_id(), 0, None);
        // Victim home shares IP 100; attacker sits at 200.
        cloud.set_public_ip(USER_NODE, 100);
        cloud.set_public_ip(DEVICE_NODE, 100);
        cloud.set_public_ip(ATTACKER_NODE, 200);
        H {
            cloud,
            telemetry,
            rng: SimRng::new(77),
            now: Tick(0),
        }
    }

    /// Alerts of one kind the monitor raised over the whole run.
    fn alerts(&self, kind: &str) -> usize {
        self.cloud
            .monitor()
            .alert_log()
            .iter()
            .filter(|(_, alert)| alert.kind() == kind)
            .count()
    }

    fn send(&mut self, from: NodeId, msg: Message) -> Response {
        self.now += 10;
        let now = self.now;
        self.cloud
            .handle_message(from, now, &msg, &mut self.rng)
            .reply
    }

    fn login(&mut self, from: NodeId, user: &str, pw: &str) -> UserToken {
        match self.send(
            from,
            Message::Login {
                user_id: UserId::new(user),
                user_pw: UserPw::new(pw),
            },
        ) {
            Response::LoginOk { user_token } => user_token,
            other => panic!("{other}"),
        }
    }

    /// Legit setup on a DevId design: device registers, victim binds.
    fn setup(&mut self) -> UserToken {
        let victim = self.login(USER_NODE, "victim", "v");
        let r = self.send(
            DEVICE_NODE,
            Message::Status(StatusPayload::register(
                StatusAuth::DevId(dev_id()),
                dev_id(),
                DeviceAttributes::default(),
            )),
        );
        assert!(r.is_ok());
        let r = self.send(
            USER_NODE,
            Message::Bind(BindPayload::AclApp {
                dev_id: dev_id(),
                user_token: victim,
            }),
        );
        assert!(r.is_ok());
        victim
    }
}

#[test]
fn happy_path_raises_no_alerts() {
    let mut h = H::new(vendors::d_link());
    let victim = h.setup();
    // Heartbeats, control, owner unbind, re-bind: all clean.
    let hb = StatusPayload::heartbeat(StatusAuth::DevId(dev_id()), dev_id());
    h.send(DEVICE_NODE, Message::Status(hb));
    h.send(
        USER_NODE,
        Message::Unbind(UnbindPayload::DevIdUserToken {
            dev_id: dev_id(),
            user_token: victim,
        }),
    );
    h.send(
        USER_NODE,
        Message::Bind(BindPayload::AclApp {
            dev_id: dev_id(),
            user_token: victim,
        }),
    );
    assert!(
        h.cloud.monitor().alerts().is_empty(),
        "{:?}",
        h.cloud.monitor().alerts()
    );
}

#[test]
fn foreign_unbind_is_flagged() {
    // An OZWI-style DevId design missing the unbind-ownership check.
    let mut design = vendors::ozwi();
    design.checks.verify_unbind_is_bound_user = false;
    let mut h = H::new(design);
    let _ = h.setup();
    let attacker = h.login(ATTACKER_NODE, "attacker", "a");
    let r = h.send(
        ATTACKER_NODE,
        Message::Unbind(UnbindPayload::DevIdUserToken {
            dev_id: dev_id(),
            user_token: attacker,
        }),
    );
    assert_eq!(r, Response::Unbound);
    assert_eq!(h.alerts("foreign-unbind"), 1);
}

#[test]
fn bare_unbind_from_foreign_ip_is_flagged_but_device_reset_is_not() {
    let mut h = H::new(vendors::tp_link());
    let victim = h.login(USER_NODE, "victim", "v");
    h.send(
        DEVICE_NODE,
        Message::Status(StatusPayload::register(
            StatusAuth::DevId(dev_id()),
            dev_id(),
            DeviceAttributes::default(),
        )),
    );
    // TP-LINK binds by device message, carrying the user's credentials.
    let _ = victim;
    h.send(
        DEVICE_NODE,
        Message::Bind(BindPayload::AclDevice {
            dev_id: dev_id(),
            user_id: UserId::new("victim"),
            user_pw: UserPw::new("v"),
        }),
    );
    // The real device resets: bare unbind from the household IP — clean.
    let r = h.send(
        DEVICE_NODE,
        Message::Unbind(UnbindPayload::DevIdOnly { dev_id: dev_id() }),
    );
    assert_eq!(r, Response::Unbound);
    assert_eq!(h.alerts("bare-unbind"), 0);
    // Rebind, then the attacker does the same from the WAN.
    h.send(
        DEVICE_NODE,
        Message::Bind(BindPayload::AclDevice {
            dev_id: dev_id(),
            user_id: UserId::new("victim"),
            user_pw: UserPw::new("v"),
        }),
    );
    let r = h.send(
        ATTACKER_NODE,
        Message::Unbind(UnbindPayload::DevIdOnly { dev_id: dev_id() }),
    );
    assert_eq!(r, Response::Unbound);
    assert_eq!(h.alerts("bare-unbind"), 1);
}

#[test]
fn binding_replacement_and_remote_bind_are_flagged() {
    let mut h = H::new(vendors::e_link());
    let _ = h.setup();
    let attacker = h.login(ATTACKER_NODE, "attacker", "a");
    let r = h.send(
        ATTACKER_NODE,
        Message::Bind(BindPayload::AclApp {
            dev_id: dev_id(),
            user_token: attacker,
        }),
    );
    assert!(r.is_ok(), "E-Link replaces bindings");
    assert_eq!(h.alerts("binding-replaced"), 1);
    assert_eq!(h.alerts("remote-only-bind"), 1, "bind IP ≠ device IP");
    match &h.cloud.monitor().alerts()[0] {
        SecurityAlert::BindingReplaced {
            victim, new_holder, ..
        } => {
            assert_eq!(victim, &UserId::new("victim"));
            assert_eq!(new_holder, &UserId::new("attacker"));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn forged_status_session_move_is_flagged() {
    let mut h = H::new(vendors::d_link());
    let _ = h.setup();
    // The attacker opens a forged device session from IP 200.
    let r = h.send(
        ATTACKER_NODE,
        Message::Status(StatusPayload::register(
            StatusAuth::DevId(dev_id()),
            dev_id(),
            DeviceAttributes::default(),
        )),
    );
    assert!(r.is_ok());
    assert_eq!(h.alerts("session-moved"), 1);
}

#[test]
fn id_sweep_triggers_enumeration_alert() {
    let mut h = H::new(vendors::ozwi());
    // The attacker walks the 6-digit space; most probes hit unknown IDs.
    let attacker = h.login(ATTACKER_NODE, "attacker", "a");
    for i in 0..10u32 {
        let probe = DevId::Digits { value: i, width: 6 };
        let _ = h.send(
            ATTACKER_NODE,
            Message::Bind(BindPayload::AclApp {
                dev_id: probe,
                user_token: attacker,
            }),
        );
    }
    assert_eq!(h.alerts("enumeration"), 1);
    // The victim's single-device traffic never trips it.
    assert!(!h.cloud.monitor().alerts().iter().any(
        |a| matches!(a, SecurityAlert::EnumerationSuspected { source, .. } if *source == USER_NODE)
    ));
}

#[test]
fn contested_binding_flags_the_a2_victim_experience() {
    // The attacker occupies first; the victim's app retries binding and is
    // denied repeatedly — the monitor flags the dispute.
    let mut h = H::new(vendors::d_link());
    let attacker = h.login(ATTACKER_NODE, "attacker", "a");
    let r = h.send(
        ATTACKER_NODE,
        Message::Bind(BindPayload::AclApp {
            dev_id: dev_id(),
            user_token: attacker,
        }),
    );
    assert!(r.is_ok(), "occupation: {r}");
    let victim = h.login(USER_NODE, "victim", "v");
    for _ in 0..3 {
        let r = h.send(
            USER_NODE,
            Message::Bind(BindPayload::AclApp {
                dev_id: dev_id(),
                user_token: victim,
            }),
        );
        assert!(!r.is_ok());
    }
    assert_eq!(h.alerts("contested-binding"), 1);
}

// -- Active defense ----------------------------------------------------------

#[test]
fn quarantine_revokes_a_hijacked_binding_and_blocks_rebinds() {
    let mut h = H::new(vendors::e_link());
    let _ = h.setup();
    h.cloud.set_defense(rb_cloud::DefensePolicy::hardened());
    let attacker = h.login(ATTACKER_NODE, "attacker", "a");
    // The hijack still *succeeds* as a request — but the binding-replaced
    // alert it raises is reacted to before the reply leaves, revoking the
    // non-co-located binding on the spot.
    let r = h.send(
        ATTACKER_NODE,
        Message::Bind(BindPayload::AclApp {
            dev_id: dev_id(),
            user_token: attacker,
        }),
    );
    assert!(r.is_ok(), "the hijack bind itself is accepted: {r}");
    assert!(
        !h.cloud.shadow_state(&dev_id()).is_bound(),
        "quarantine revoked the hijacker's binding in the same outcome"
    );
    assert_eq!(
        h.telemetry
            .counter("cloud_mitigations_total{action=\"quarantine\"}"),
        1
    );
    // While quarantined, the attacker cannot re-bind from the WAN…
    let r = h.send(
        ATTACKER_NODE,
        Message::Bind(BindPayload::AclApp {
            dev_id: dev_id(),
            user_token: attacker,
        }),
    );
    assert_eq!(
        r,
        Response::Denied {
            reason: rb_wire::messages::DenyReason::RateLimited
        }
    );
    // …but the victim, co-located with the device, re-binds immediately.
    let victim = h.login(USER_NODE, "victim", "v");
    let r = h.send(
        USER_NODE,
        Message::Bind(BindPayload::AclApp {
            dev_id: dev_id(),
            user_token: victim,
        }),
    );
    assert!(r.is_ok(), "co-located victim rebind during quarantine: {r}");
    assert_eq!(h.cloud.bound_user(&dev_id()), Some(UserId::new("victim")));
}

#[test]
fn token_rotation_turns_a_displaced_session_into_a_detected_replay() {
    // KONKE issues post-binding session tokens and tolerates re-binds.
    let mut h = H::new(vendors::konke());
    h.cloud.set_defense(rb_cloud::DefensePolicy {
        rotate_tokens: true,
        bind_limit: None,
        quarantine_ticks: 0,
    });
    // KONKE auth is DevToken: the victim fetches one, the device registers
    // with it, the victim binds.
    let victim = h.login(USER_NODE, "victim", "v");
    let dev_token = match h.send(USER_NODE, Message::RequestDevToken { user_token: victim }) {
        Response::DevTokenIssued { dev_token } => dev_token,
        other => panic!("{other}"),
    };
    let r = h.send(
        DEVICE_NODE,
        Message::Status(StatusPayload::register(
            StatusAuth::DevToken(dev_token),
            dev_id(),
            DeviceAttributes::default(),
        )),
    );
    assert!(r.is_ok(), "{r}");
    let r = h.send(
        USER_NODE,
        Message::Bind(BindPayload::AclApp {
            dev_id: dev_id(),
            user_token: victim,
        }),
    );
    assert!(r.is_ok(), "{r}");
    let attacker = h.login(ATTACKER_NODE, "attacker", "a");
    let stolen = match h.send(
        ATTACKER_NODE,
        Message::Bind(BindPayload::AclApp {
            dev_id: dev_id(),
            user_token: attacker,
        }),
    ) {
        Response::Bound { session } => session.expect("KONKE issues sessions"),
        other => panic!("{other}"),
    };
    // The displacement alert triggered a rotation: the token the hijacker
    // just received is already retired.
    assert_eq!(
        h.telemetry
            .counter("cloud_mitigations_total{action=\"rotate-token\"}"),
        1
    );
    let r = h.send(
        ATTACKER_NODE,
        Message::Control {
            dev_id: dev_id(),
            user_token: attacker,
            session: Some(stolen),
            action: rb_wire::messages::ControlAction::TurnOn,
        },
    );
    assert!(!r.is_ok(), "rotated-away session must not control: {r}");
    assert_eq!(
        h.alerts("stale-token-replay"),
        1,
        "presenting the retired token from a foreign IP is a replay"
    );
}

#[test]
fn bind_rate_limiter_prices_out_bind_floods() {
    let mut h = H::new(vendors::ozwi());
    h.cloud.set_defense(rb_cloud::DefensePolicy {
        rotate_tokens: false,
        bind_limit: Some(rb_cloud::RateLimit {
            window: 10_000,
            max: 3,
        }),
        quarantine_ticks: 0,
    });
    let attacker = h.login(ATTACKER_NODE, "attacker", "a");
    let mut denied = 0;
    for i in 0..8u32 {
        let probe = DevId::Digits { value: i, width: 6 };
        let r = h.send(
            ATTACKER_NODE,
            Message::Bind(BindPayload::AclApp {
                dev_id: probe,
                user_token: attacker,
            }),
        );
        if r == (Response::Denied {
            reason: rb_wire::messages::DenyReason::RateLimited,
        }) {
            denied += 1;
        }
    }
    assert_eq!(denied, 5, "probes beyond the window max are denied");
    assert_eq!(
        h.telemetry
            .counter("cloud_mitigations_total{action=\"rate-limit-bind\"}"),
        5
    );
    let limited = Response::Denied {
        reason: rb_wire::messages::DenyReason::RateLimited,
    };
    // Another source is unaffected.
    let victim = h.login(USER_NODE, "victim", "v");
    let r = h.send(
        USER_NODE,
        Message::Bind(BindPayload::AclApp {
            dev_id: dev_id(),
            user_token: victim,
        }),
    );
    assert_ne!(r, limited);
    // And the window resets.
    h.now += 10_000;
    let r = h.send(
        ATTACKER_NODE,
        Message::Bind(BindPayload::AclApp {
            dev_id: DevId::Digits {
                value: 99,
                width: 6,
            },
            user_token: attacker,
        }),
    );
    assert_ne!(r, limited);
}

#[test]
fn disabled_policy_never_intervenes() {
    // Same hijack as the quarantine test, default (disabled) policy: the
    // monitor sees everything, the service changes nothing.
    let mut h = H::new(vendors::e_link());
    let _ = h.setup();
    let attacker = h.login(ATTACKER_NODE, "attacker", "a");
    let r = h.send(
        ATTACKER_NODE,
        Message::Bind(BindPayload::AclApp {
            dev_id: dev_id(),
            user_token: attacker,
        }),
    );
    assert!(r.is_ok());
    assert_eq!(h.alerts("binding-replaced"), 1);
    assert_eq!(h.cloud.bound_user(&dev_id()), Some(UserId::new("attacker")));
    assert_eq!(
        h.telemetry
            .counter("cloud_mitigations_total{action=\"quarantine\"}"),
        0
    );
}

#[test]
fn rate_limited_bind_flood_counts_each_denial_and_marks_only_under_forensics() {
    for forensics in [false, true] {
        let mut h = H::new(vendors::ozwi());
        h.cloud.set_forensics(forensics);
        h.cloud.set_defense(rb_cloud::DefensePolicy {
            rotate_tokens: false,
            bind_limit: Some(rb_cloud::RateLimit {
                window: 10_000,
                max: 2,
            }),
            quarantine_ticks: 0,
        });
        let attacker = h.login(ATTACKER_NODE, "attacker", "a");
        h.cloud.take_forensic_marks();
        let mut denied = 0;
        for i in 0..20u32 {
            let r = h.send(
                ATTACKER_NODE,
                Message::Bind(BindPayload::AclApp {
                    dev_id: DevId::Digits { value: i, width: 6 },
                    user_token: attacker,
                }),
            );
            if r == (Response::Denied {
                reason: rb_wire::messages::DenyReason::RateLimited,
            }) {
                denied += 1;
            }
        }
        assert_eq!(denied, 18, "forensics={forensics}");
        assert_eq!(
            h.telemetry
                .counter("cloud_mitigations_total{action=\"rate-limit-bind\"}"),
            denied
        );
        let defense_marks: Vec<String> = h
            .cloud
            .take_forensic_marks()
            .into_iter()
            .filter(|m| m.starts_with("defense "))
            .collect();
        if forensics {
            assert_eq!(defense_marks.len() as u64, denied);
            assert_eq!(
                defense_marks[0],
                format!("defense action=rate-limit-bind from={ATTACKER_NODE} trigger=bind-rate")
            );
        } else {
            assert!(defense_marks.is_empty(), "{defense_marks:?}");
        }
    }
}
