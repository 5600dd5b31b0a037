//! Property tests for the provisioning codecs.

// Test code: panicking on unexpected state is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use rb_provision::apmode::{PairingMaterial, ProvisionReply, ProvisionRequest};
use rb_provision::label::DeviceLabel;
use rb_provision::localctl::LocalCtl;
use rb_provision::WifiCredentials;
use rb_wire::ids::{DevId, MacAddr};

fn arb_creds() -> impl Strategy<Value = WifiCredentials> {
    ("[ -~]{1,32}", "[ -~]{0,63}").prop_map(|(ssid, psk)| WifiCredentials::new(ssid, psk))
}

fn arb_dev_id() -> impl Strategy<Value = DevId> {
    prop_oneof![
        any::<[u8; 6]>().prop_map(|b| DevId::Mac(MacAddr::new(b))),
        (any::<u16>(), any::<u64>()).prop_map(|(v, s)| DevId::Serial { vendor: v, seq: s }),
        (1u8..=9).prop_flat_map(|w| {
            (0..10u64.pow(u32::from(w))).prop_map(move |v| DevId::Digits {
                value: v as u32,
                width: w,
            })
        }),
        any::<u128>().prop_map(DevId::Uuid),
    ]
}

proptest! {
    #[test]
    fn provision_request_roundtrips(
        creds in arb_creds(),
        dev_token in proptest::option::of(any::<[u8; 16]>()),
        bind_token in proptest::option::of(any::<[u8; 16]>()),
        user in proptest::option::of(("[a-z0-9@.]{1,30}".prop_map(String::from), "[ -~]{0,30}".prop_map(String::from))),
    ) {
        let req = ProvisionRequest {
            wifi: creds,
            pairing: PairingMaterial { dev_token, bind_token, user_credentials: user },
        };
        prop_assert_eq!(ProvisionRequest::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn provision_reply_roundtrips(info in "[ -~]{0,100}") {
        let reply = ProvisionReply::Accepted { device_info: info };
        prop_assert_eq!(ProvisionReply::decode(&reply.encode()).unwrap(), reply);
    }

    #[test]
    fn labels_roundtrip_for_any_device(dev_id in arb_dev_id(), code in any::<u16>()) {
        let label = DeviceLabel::new(dev_id, code);
        prop_assert_eq!(DeviceLabel::scan(&label.print()).unwrap(), label);
    }

    #[test]
    fn localctl_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = LocalCtl::decode(&bytes);
        let _ = ProvisionRequest::decode(&bytes);
        let _ = ProvisionReply::decode(&bytes);
        let _ = DeviceLabel::scan(std::str::from_utf8(&bytes).unwrap_or(""));
    }
}
