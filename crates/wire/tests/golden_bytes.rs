//! Golden hex fixtures pinning the byte output of the wire format.
//!
//! The fixtures pin the varint/TLV layout documented in `WIRE-FORMAT.md`:
//! if any of them change, old captures and forged-packet experiments
//! silently break, so a failure here is a wire-compatibility break, not a
//! test to "update". Each fixture must also decode back to its source
//! value.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::ids::{DevId, MacAddr};
use rb_wire::messages::{BindPayload, ControlAction, DenyReason, Message, Response};
use rb_wire::tokens::{BindToken, SessionToken, UserId, UserPw, UserToken};

fn fixtures() -> Vec<(&'static str, Envelope)> {
    let dev_id = DevId::Mac(MacAddr::new([0x94, 0x10, 0x3e, 0x01, 0x02, 0x03]));
    vec![
        (
            "login",
            Envelope::Request {
                corr: CorrId(1),
                msg: Message::Login {
                    user_id: UserId::new("alice@example.com"),
                    user_pw: UserPw::new("hunter2"),
                },
            },
        ),
        (
            "bind_acl_app",
            Envelope::Request {
                corr: CorrId(2),
                msg: Message::Bind(BindPayload::AclApp {
                    dev_id: dev_id.clone(),
                    user_token: UserToken::from_bytes([7u8; 16]),
                }),
            },
        ),
        (
            "bind_capability",
            Envelope::Request {
                corr: CorrId(3),
                msg: Message::Bind(BindPayload::Capability {
                    bind_token: BindToken::from_bytes([9u8; 16]),
                }),
            },
        ),
        (
            "control",
            Envelope::Request {
                corr: CorrId(4),
                msg: Message::Control {
                    dev_id,
                    user_token: UserToken::from_bytes([7u8; 16]),
                    session: None,
                    action: ControlAction::TurnOn,
                },
            },
        ),
        (
            "login_ok",
            Envelope::Response {
                corr: CorrId(1),
                rsp: Response::LoginOk {
                    user_token: UserToken::from_bytes([7u8; 16]),
                },
            },
        ),
        (
            "bound_push",
            Envelope::push(Response::Bound {
                session: Some(SessionToken::from_bytes([3u8; 16])),
            }),
        ),
        (
            "denied",
            Envelope::Response {
                corr: CorrId(5),
                rsp: Response::Denied {
                    reason: DenyReason::NotBound,
                },
            },
        ),
    ]
}

/// `(fixture name, expected hex)` — regenerate only with a spec change to
/// `WIRE-FORMAT.md`.
const GOLDEN: &[(&str, &str)] = &[
    (
        "login",
        "c1011011616c696365406578616d706c652e636f6d0768756e74657232",
    ),
    (
        "bind_acl_app",
        "c10214010194103e01020307070707070707070707070707070707",
    ),
    (
        "bind_capability",
        "c103140309090909090909090909090909090909",
    ),
    (
        "control",
        "c104160194103e0102030707070707070707070707070707070701",
    ),
    ("login_ok", "c2012007070707070707070707070707070707"),
    ("bound_push", "c20024011003030303030303030303030303030303"),
    ("denied", "c2052b05"),
];

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(hex: &str) -> Bytes {
    let raw: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("fixture hex"))
        .collect();
    Bytes::from(raw)
}

fn fixture(name: &str) -> Envelope {
    fixtures()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, env)| env)
        .expect("fixture name")
}

#[test]
fn every_fixture_has_a_golden() {
    for (name, _) in fixtures() {
        assert!(
            GOLDEN.iter().any(|(n, _)| *n == name),
            "missing golden for {name}"
        );
    }
}

#[test]
fn encoding_matches_golden_bytes() {
    for (name, hex) in GOLDEN {
        let env = fixture(name);
        assert_eq!(to_hex(&env.encode()), *hex, "{name}: wire format drifted");
    }
}

#[test]
fn golden_bytes_decode_to_fixture() {
    for (name, hex) in GOLDEN {
        let env = fixture(name);
        let bytes = from_hex(hex);
        assert_eq!(
            Envelope::decode(&bytes).expect("golden must decode"),
            env,
            "{name}"
        );
    }
}
