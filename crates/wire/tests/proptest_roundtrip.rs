//! Property-based roundtrip and robustness tests for the wire format.
//!
//! Every generated message/response/envelope must round-trip, and the
//! decoder must survive garbage, truncation, and mutation without
//! panicking. Reading a frame header first and then through the body
//! decoder of the kind it names must agree with the whole-envelope decode
//! on every input: the same value or the same error.

// Test code: panicking on unexpected state is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;
use proptest::prelude::*;

use rb_wire::codec::{decode_message, decode_response, encode_message, encode_response, Frame};
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::ids::{DevId, MacAddr};
use rb_wire::messages::{
    AutomationRule, BindPayload, ControlAction, DenyReason, DeviceAttributes, Message, MessageKind,
    Response, StatusAuth, StatusKind, StatusPayload, UnbindPayload,
};
use rb_wire::telemetry::{RuleTrigger, ScheduleEntry, TelemetryFrame};
use rb_wire::tokens::{BindToken, DevToken, SessionToken, UserId, UserPw, UserToken};
use rb_wire::WireError;

fn arb_dev_id() -> impl Strategy<Value = DevId> {
    prop_oneof![
        any::<[u8; 6]>().prop_map(|b| DevId::Mac(MacAddr::new(b))),
        (any::<u16>(), any::<u64>()).prop_map(|(vendor, seq)| DevId::Serial { vendor, seq }),
        (1u8..=9).prop_flat_map(|width| {
            let max = 10u64.pow(u32::from(width)) - 1;
            (0..=max).prop_map(move |v| DevId::Digits {
                value: v as u32,
                width,
            })
        }),
        any::<u128>().prop_map(DevId::Uuid),
    ]
}

fn arb_telemetry() -> impl Strategy<Value = TelemetryFrame> {
    prop_oneof![
        any::<u64>().prop_map(TelemetryFrame::PowerMilliwatts),
        any::<i32>().prop_map(TelemetryFrame::TemperatureMilliC),
        any::<bool>().prop_map(|on| TelemetryFrame::SwitchState { on }),
        any::<u8>().prop_map(TelemetryFrame::Brightness),
        (any::<bool>(), any::<u64>())
            .prop_map(|(locked, at_tick)| TelemetryFrame::LockEvent { locked, at_tick }),
        any::<u8>().prop_map(|confidence| TelemetryFrame::Motion { confidence }),
        any::<bool>().prop_map(|triggered| TelemetryFrame::Alarm { triggered }),
    ]
}

fn arb_status_auth() -> impl Strategy<Value = StatusAuth> {
    prop_oneof![
        any::<u128>().prop_map(|e| StatusAuth::DevToken(DevToken::from_entropy(e))),
        arb_dev_id().prop_map(StatusAuth::DevId),
        (any::<u64>(), any::<u128>())
            .prop_map(|(key_id, signature)| StatusAuth::PublicKey { key_id, signature }),
    ]
}

fn arb_action() -> impl Strategy<Value = ControlAction> {
    prop_oneof![
        Just(ControlAction::TurnOn),
        Just(ControlAction::TurnOff),
        any::<u8>().prop_map(ControlAction::SetBrightness),
        (any::<u64>(), any::<bool>()).prop_map(|(at_tick, turn_on)| {
            ControlAction::SetSchedule(ScheduleEntry { at_tick, turn_on })
        }),
        Just(ControlAction::QuerySchedule),
        Just(ControlAction::QueryTelemetry),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    let status = (
        arb_status_auth(),
        arb_dev_id(),
        any::<bool>(),
        "[a-zA-Z0-9 _.-]{0,40}",
        "[a-zA-Z0-9._-]{0,20}",
        proptest::option::of(any::<u128>()),
        proptest::collection::vec(arb_telemetry(), 0..8),
        any::<bool>(),
    )
        .prop_map(
            |(auth, dev_id, hb, model, firmware, session, telemetry, button_pressed)| {
                Message::Status(StatusPayload {
                    auth,
                    dev_id,
                    kind: if hb {
                        StatusKind::Heartbeat
                    } else {
                        StatusKind::Register
                    },
                    attributes: DeviceAttributes::new(model, firmware),
                    session: session.map(SessionToken::from_entropy),
                    telemetry,
                    button_pressed,
                })
            },
        );
    let bind = prop_oneof![
        (arb_dev_id(), any::<u128>()).prop_map(|(dev_id, t)| Message::Bind(BindPayload::AclApp {
            dev_id,
            user_token: UserToken::from_entropy(t),
        })),
        (arb_dev_id(), "[a-z0-9@.]{1,30}", "[!-~]{0,30}").prop_map(|(dev_id, uid, pw)| {
            Message::Bind(BindPayload::AclDevice {
                dev_id,
                user_id: UserId::new(uid),
                user_pw: UserPw::new(pw),
            })
        }),
        any::<u128>().prop_map(|t| Message::Bind(BindPayload::Capability {
            bind_token: BindToken::from_entropy(t),
        })),
    ];
    let unbind = prop_oneof![
        (arb_dev_id(), any::<u128>()).prop_map(|(dev_id, t)| {
            Message::Unbind(UnbindPayload::DevIdUserToken {
                dev_id,
                user_token: UserToken::from_entropy(t),
            })
        }),
        arb_dev_id().prop_map(|dev_id| Message::Unbind(UnbindPayload::DevIdOnly { dev_id })),
    ];
    prop_oneof![
        ("[a-z0-9@.]{1,30}", "[!-~]{0,30}").prop_map(|(u, p)| Message::Login {
            user_id: UserId::new(u),
            user_pw: UserPw::new(p),
        }),
        any::<u128>().prop_map(|t| Message::RequestDevToken {
            user_token: UserToken::from_entropy(t)
        }),
        any::<u128>().prop_map(|t| Message::RequestBindToken {
            user_token: UserToken::from_entropy(t)
        }),
        status,
        bind,
        unbind,
        (
            arb_dev_id(),
            any::<u128>(),
            proptest::option::of(any::<u128>()),
            arb_action()
        )
            .prop_map(|(dev_id, t, session, action)| Message::Control {
                dev_id,
                user_token: UserToken::from_entropy(t),
                session: session.map(SessionToken::from_entropy),
                action,
            }),
        arb_dev_id().prop_map(|dev_id| Message::QueryShadow { dev_id }),
        (arb_dev_id(), any::<u128>(), "[a-z0-9@.]{1,30}").prop_map(|(dev_id, t, g)| {
            Message::Share {
                dev_id,
                user_token: UserToken::from_entropy(t),
                grantee: UserId::new(g),
            }
        }),
        (arb_dev_id(), any::<u128>(), "[a-z0-9@.]{1,30}").prop_map(|(dev_id, t, g)| {
            Message::Unshare {
                dev_id,
                user_token: UserToken::from_entropy(t),
                grantee: UserId::new(g),
            }
        }),
        (
            any::<u128>(),
            arb_dev_id(),
            arb_trigger(),
            arb_dev_id(),
            arb_action()
        )
            .prop_map(
                |(t, trigger_dev, trigger, action_dev, action)| Message::SetRule {
                    user_token: UserToken::from_entropy(t),
                    rule: AutomationRule {
                        trigger_dev,
                        trigger,
                        action_dev,
                        action,
                    },
                }
            ),
    ]
}

fn arb_trigger() -> impl Strategy<Value = RuleTrigger> {
    prop_oneof![
        any::<i32>().prop_map(RuleTrigger::TemperatureAbove),
        any::<i32>().prop_map(RuleTrigger::TemperatureBelow),
        Just(RuleTrigger::AlarmTriggered),
        any::<u8>().prop_map(RuleTrigger::MotionAtLeast),
        any::<u64>().prop_map(RuleTrigger::PowerAbove),
    ]
}

fn arb_deny() -> impl Strategy<Value = DenyReason> {
    prop_oneof![
        Just(DenyReason::BadCredentials),
        Just(DenyReason::InvalidUserToken),
        Just(DenyReason::DeviceAuthFailed),
        Just(DenyReason::AlreadyBound),
        Just(DenyReason::NotBoundUser),
        Just(DenyReason::NotBound),
        Just(DenyReason::InvalidBindToken),
        Just(DenyReason::BadSession),
        Just(DenyReason::OwnershipProofFailed),
        Just(DenyReason::DeviceOffline),
        Just(DenyReason::UnknownDevice),
        Just(DenyReason::UnsupportedOperation),
        Just(DenyReason::RateLimited),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u128>().prop_map(|t| Response::LoginOk {
            user_token: UserToken::from_entropy(t)
        }),
        any::<u128>().prop_map(|t| Response::DevTokenIssued {
            dev_token: DevToken::from_entropy(t)
        }),
        any::<u128>().prop_map(|t| Response::BindTokenIssued {
            bind_token: BindToken::from_entropy(t)
        }),
        proptest::option::of(any::<u128>()).prop_map(|s| Response::StatusAccepted {
            session: s.map(SessionToken::from_entropy),
        }),
        proptest::option::of(any::<u128>()).prop_map(|s| Response::Bound {
            session: s.map(SessionToken::from_entropy)
        }),
        Just(Response::Unbound),
        (
            proptest::collection::vec(
                (any::<u64>(), any::<bool>())
                    .prop_map(|(at_tick, turn_on)| ScheduleEntry { at_tick, turn_on }),
                0..5
            ),
            proptest::collection::vec(arb_telemetry(), 0..5)
        )
            .prop_map(|(schedule, telemetry)| Response::ControlOk {
                schedule: schedule.into_boxed_slice(),
                telemetry: telemetry.into_boxed_slice(),
            }),
        (any::<bool>(), any::<bool>())
            .prop_map(|(online, bound)| Response::ShadowState { online, bound }),
        (
            arb_dev_id(),
            proptest::collection::vec(arb_telemetry(), 0..5)
        )
            .prop_map(|(dev_id, telemetry)| Response::TelemetryPush {
                dev_id: Box::new(dev_id),
                telemetry
            }),
        (arb_action(), proptest::option::of(any::<u128>())).prop_map(|(action, s)| {
            Response::ControlPush {
                action,
                session: s.map(SessionToken::from_entropy),
            }
        }),
        Just(Response::BindingRevoked),
        any::<u16>().prop_map(|count| Response::RuleSet { count }),
        (proptest::option::of(any::<u128>()), any::<u16>()).prop_map(|(s, guests)| {
            Response::ShareOk {
                session: s.map(SessionToken::from_entropy),
                guests,
            }
        }),
        arb_deny().prop_map(|reason| Response::Denied { reason }),
    ]
}

proptest! {
    #[test]
    fn message_encode_decode_roundtrip(msg in arb_message()) {
        let bytes = encode_message(&msg);
        let back = decode_message(&bytes).expect("well-formed message must decode");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn response_encode_decode_roundtrip(rsp in arb_response()) {
        let bytes = encode_response(&rsp);
        let back = decode_response(&bytes).expect("well-formed response must decode");
        prop_assert_eq!(back, rsp);
    }

    #[test]
    fn envelope_roundtrip(corr in any::<u64>(), msg in arb_message(), rsp in arb_response()) {
        let req = Envelope::Request { corr: CorrId(corr), msg };
        prop_assert_eq!(Envelope::decode(&req.encode()).unwrap(), req);
        let rsp = Envelope::Response { corr: CorrId(corr), rsp };
        prop_assert_eq!(Envelope::decode(&rsp.encode()).unwrap(), rsp);
    }

    /// Fuzz-style robustness: arbitrary bytes must produce Ok or Err,
    /// never a panic.
    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let bytes = Bytes::from(bytes);
        let _ = decode_message(&bytes);
        let _ = decode_response(&bytes);
        let _ = Envelope::decode(&bytes);
    }

    /// Truncating a frame anywhere either fails cleanly or yields a
    /// canonical shorter message (omit-default tails make some prefixes
    /// legal) — it never panics and never decodes non-canonically.
    #[test]
    fn truncation_never_panics(msg in arb_message(), cut_frac in 0.0f64..1.0) {
        let bytes = encode_message(&msg);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let prefix = bytes.slice(..cut);
        if let Ok(decoded) = decode_message(&prefix) {
            prop_assert_eq!(encode_message(&decoded), prefix);
        }
    }

    /// Flipping any single byte of a frame must never panic.
    #[test]
    fn single_byte_mutation_never_panics(
        msg in arb_message(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut mutated = encode_message(&msg).to_vec();
        let pos = ((mutated.len() as f64) * pos_frac) as usize;
        let pos = pos.min(mutated.len().saturating_sub(1));
        if !mutated.is_empty() {
            mutated[pos] ^= flip;
        }
        let _ = decode_message(&Bytes::from(mutated));
    }

    #[test]
    fn encoding_is_deterministic(msg in arb_message()) {
        prop_assert_eq!(encode_message(&msg), encode_message(&msg));
    }
}

proptest! {
    /// `DevId::short` is injective: distinct identifiers never collide in
    /// their printed form (labels, logs, and the provisioning parser all
    /// rely on it).
    #[test]
    fn dev_id_short_is_injective(a in arb_dev_id(), b in arb_dev_id()) {
        if a != b {
            prop_assert_ne!(a.short(), b.short(), "{:?} vs {:?}", a, b);
        } else {
            prop_assert_eq!(a.short(), b.short());
        }
    }
}

/// Reads `bytes` header first, then through the public body decoder of the
/// kind the header names: the way the cloud and the agents read a frame.
fn read_per_kind(bytes: &Bytes) -> Result<Envelope, WireError> {
    let frame = Frame::read(bytes)?;
    let corr = frame.corr;
    let Some(kind) = frame.request else {
        let rsp = frame.response()?;
        return Ok(Envelope::Response { corr, rsp });
    };
    let msg = match kind {
        MessageKind::Login => {
            let (user_id, user_pw) = frame.login()?;
            Message::Login { user_id, user_pw }
        }
        MessageKind::RequestDevToken => Message::RequestDevToken {
            user_token: frame.user_token()?,
        },
        MessageKind::RequestBindToken => Message::RequestBindToken {
            user_token: frame.user_token()?,
        },
        MessageKind::Status => Message::Status(frame.status()?),
        MessageKind::Bind => Message::Bind(frame.bind()?),
        MessageKind::Unbind => Message::Unbind(frame.unbind()?),
        MessageKind::Control => {
            let (dev_id, user_token, action, session) = frame.control()?;
            Message::Control {
                dev_id,
                user_token,
                session,
                action,
            }
        }
        MessageKind::QueryShadow => Message::QueryShadow {
            dev_id: frame.dev_id()?,
        },
        MessageKind::Share => {
            let (dev_id, user_token, grantee) = frame.share()?;
            Message::Share {
                dev_id,
                user_token,
                grantee,
            }
        }
        MessageKind::Unshare => {
            let (dev_id, user_token, grantee) = frame.share()?;
            Message::Unshare {
                dev_id,
                user_token,
                grantee,
            }
        }
        MessageKind::SetRule => {
            let (user_token, rule) = frame.set_rule()?;
            Message::SetRule { user_token, rule }
        }
    };
    Ok(Envelope::Request { corr, msg })
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    prop_oneof![
        (any::<u64>(), arb_message()).prop_map(|(corr, msg)| Envelope::Request {
            corr: CorrId(corr),
            msg
        }),
        (any::<u64>(), arb_response()).prop_map(|(corr, rsp)| Envelope::Response {
            corr: CorrId(corr),
            rsp
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Header first on arbitrary bytes: the same value or the same
    /// `WireError` as `Envelope::decode`.
    #[test]
    fn header_first_agrees_with_envelope_decode_on_garbage(
        raw in proptest::collection::vec(any::<u8>(), 0..256),
        dir in 0u8..3,
    ) {
        // Most random frames die at the direction byte; a third keep a
        // request and a third a response direction, so bodies are reached.
        let mut raw = raw;
        match (raw.first_mut(), dir) {
            (Some(first), 1) => *first = 0xC1,
            (Some(first), 2) => *first = 0xC2,
            _ => {}
        }
        let bytes = Bytes::from(raw);
        prop_assert_eq!(read_per_kind(&bytes), Envelope::decode(&bytes));
    }

    /// Every truncation of an envelope, from empty to whole.
    #[test]
    fn header_first_agrees_with_envelope_decode_on_every_truncation(env in arb_envelope()) {
        let full = env.encode();
        prop_assert_eq!(read_per_kind(&full), Ok(env));
        for cut in 0..full.len() {
            let prefix = full.slice(..cut);
            prop_assert_eq!(read_per_kind(&prefix), Envelope::decode(&prefix));
        }
    }

    /// Every single-byte mutation of an envelope: each position, each of
    /// the 255 other values.
    #[test]
    fn header_first_agrees_with_envelope_decode_on_every_single_byte_mutation(
        env in arb_envelope(),
    ) {
        let full = env.encode().to_vec();
        for pos in 0..full.len() {
            for flip in 1..=255u8 {
                let mut mutated = full.clone();
                mutated[pos] ^= flip;
                let bytes = Bytes::from(mutated);
                prop_assert_eq!(read_per_kind(&bytes), Envelope::decode(&bytes));
            }
        }
    }
}
