//! FIG3 — regenerates the paper's Figure 3: the two commodity
//! device-authentication modes (Type 1 `Status:DevToken`, Type 2
//! `Status:DevId`) plus the public-key reference, each executed end to end
//! with the accept/reject evidence that distinguishes them. Exits 1,
//! naming the row, when an outcome drifts from the paper's §IV-A
//! assessment: every real device is accepted, and a forged status is
//! denied under Type 1 and the public key but accepted under Type 2.
//!
//! ```text
//! cargo run -p rb-bench --bin fig3_device_auth
//! ```

use rb_bench::render_table;
use rb_cloud::{CloudConfig, CloudService};
use rb_core::vendors;
use rb_netsim::{NodeId, SimRng, Tick};
use rb_wire::crypto::sign_dev_id;
use rb_wire::ids::{DevId, MacAddr};
use rb_wire::messages::{DeviceAttributes, Message, Response, StatusAuth, StatusPayload};
use rb_wire::tokens::{UserId, UserPw};

const USER: NodeId = NodeId(1);
const DEVICE: NodeId = NodeId(2);
const ATTACKER: NodeId = NodeId(3);

fn dev_id() -> DevId {
    DevId::Mac(MacAddr::from_oui([0x94, 0x10, 0x3e], 0x77))
}

fn register(auth: StatusAuth) -> Message {
    Message::Status(StatusPayload::register(
        auth,
        dev_id(),
        DeviceAttributes::default(),
    ))
}

/// Adds one mode's row and checks its printed cells: the real device is
/// accepted, and the forged status is accepted exactly when
/// `forgery_admitted`, else denied for failed device authentication.
fn push_row(
    rows: &mut Vec<Vec<String>>,
    drift: &mut Vec<String>,
    [mode, mechanism]: [&str; 2],
    real: &Response,
    forged: &Response,
    forgery_admitted: bool,
) {
    const ACCEPTED: &str = "StatusAccepted";
    let forged_expected = if forgery_admitted {
        ACCEPTED
    } else {
        "Denied(device authentication failed)"
    };
    let (real, forged) = (real.to_string(), forged.to_string());
    for (who, got, expected) in [
        ("real device", &real, ACCEPTED),
        ("forged status", &forged, forged_expected),
    ] {
        if got != expected {
            drift.push(format!("{mode}: {who} answered {got}, expected {expected}"));
        }
    }
    rows.push(vec![mode.into(), mechanism.into(), real, forged]);
}

fn main() {
    println!("Figure 3: device authentication (executed flows)\n");
    let mut rows = Vec::new();
    let mut drift = Vec::new();
    let mut rng = SimRng::new(3);

    // -- Type 1: Status:DevToken -------------------------------------------
    let mut cloud = CloudService::new(CloudConfig::new(vendors::belkin()));
    cloud.provision_account(UserId::new("user"), UserPw::new("pw"));
    cloud.manufacture(dev_id(), 0, None);
    let login = cloud.handle_message(
        USER,
        Tick(1),
        &Message::Login {
            user_id: UserId::new("user"),
            user_pw: UserPw::new("pw"),
        },
        &mut rng,
    );
    let Response::LoginOk { user_token } = login.reply else {
        panic!("login")
    };
    let issued = cloud.handle_message(
        USER,
        Tick(2),
        &Message::RequestDevToken { user_token },
        &mut rng,
    );
    let Response::DevTokenIssued { dev_token } = issued.reply else {
        panic!("issue")
    };
    // (the app now delivers dev_token to the device over the LAN)
    let real = cloud.handle_message(
        DEVICE,
        Tick(3),
        &register(StatusAuth::DevToken(dev_token)),
        &mut rng,
    );
    let forged = cloud.handle_message(
        ATTACKER,
        Tick(4),
        &register(StatusAuth::DevId(dev_id())),
        &mut rng,
    );
    push_row(
        &mut rows,
        &mut drift,
        [
            "Type 1: Status:DevToken",
            "app requests token; delivers it locally; device presents it",
        ],
        &real.reply,
        &forged.reply,
        false,
    );

    // -- Type 2: Status:DevId ----------------------------------------------
    let mut cloud = CloudService::new(CloudConfig::new(vendors::d_link()));
    cloud.manufacture(dev_id(), 0, None);
    let real = cloud.handle_message(
        DEVICE,
        Tick(1),
        &register(StatusAuth::DevId(dev_id())),
        &mut rng,
    );
    let forged = cloud.handle_message(
        ATTACKER,
        Tick(2),
        &register(StatusAuth::DevId(dev_id())),
        &mut rng,
    );
    push_row(
        &mut rows,
        &mut drift,
        [
            "Type 2: Status:DevId",
            "device presents its static ID; anyone holding the ID can too",
        ],
        &real.reply,
        &forged.reply,
        true,
    );

    // -- Public key (AWS/IBM/Google reference) ------------------------------
    let mut cloud = CloudService::new(CloudConfig::new(vendors::public_key_reference()));
    let secret = 0xfeed_cafe_u128;
    cloud.manufacture(dev_id(), 0, Some((1, secret)));
    let real = cloud.handle_message(
        DEVICE,
        Tick(1),
        &register(StatusAuth::PublicKey {
            key_id: 1,
            signature: sign_dev_id(secret, &dev_id()),
        }),
        &mut rng,
    );
    let forged = cloud.handle_message(
        ATTACKER,
        Tick(2),
        &register(StatusAuth::PublicKey {
            key_id: 1,
            signature: 0xbad,
        }),
        &mut rng,
    );
    push_row(
        &mut rows,
        &mut drift,
        [
            "Public key (reference)",
            "per-device key pair provisioned at manufacture signs each message",
        ],
        &real.reply,
        &forged.reply,
        false,
    );

    println!(
        "{}",
        render_table(
            &[
                "mode",
                "mechanism",
                "real device",
                "forged (attacker holds DevId)"
            ],
            &rows
        )
    );
    println!("assessment (paper §IV-A): static identifiers inevitably admit forgery; the");
    println!("promising commodity approach is the dynamic DevToken delivered via the user.");

    if !drift.is_empty() {
        for row in &drift {
            eprintln!("fig3_device_auth: GATE FAILED — {row}");
        }
        std::process::exit(1);
    }
}
