//! The ten vendor designs of Table III, plus secure reference designs.
//!
//! Each profile encodes what the paper reports (or what its attack results
//! imply) about the vendor's remote-binding implementation. Where the paper
//! could not confirm a mechanism (firmware unavailable), the profile says
//! so explicitly via [`DeviceAuthScheme::Opaque`] /
//! [`FirmwareKnowledge::Opaque`] instead of guessing — the analyzer then
//! reports "O" exactly as the paper does.

use rb_wire::ids::IdScheme;

use crate::design::{
    BindScheme, CloudChecks, DeviceAuthScheme, DeviceKind, FirmwareKnowledge, SetupOrder,
    UnbindSupport, VendorDesign,
};

fn checks_common() -> CloudChecks {
    CloudChecks {
        verify_unbind_is_bound_user: true,
        reject_bind_when_bound: true,
        bind_requires_local_proof: false,
        bind_requires_online_device: false,
        post_binding_session: false,
        register_resets_binding: false,
        concurrent_device_sessions: false,
    }
}

/// #1 Belkin (smart plug): `DevToken` status auth, app-sent ACL binding,
/// token unbinding **without** the bound-user check (⇒ A3-2), sticky
/// bindings with no pre-bind ownership proof (⇒ A2).
pub fn belkin() -> VendorDesign {
    VendorDesign {
        vendor: "Belkin".into(),
        device: DeviceKind::SmartPlug,
        id_scheme: IdScheme::SequentialSerial {
            vendor: 0x424b,
            start: 221_000_000,
        },
        auth: DeviceAuthScheme::DevToken,
        bind: BindScheme::AclApp,
        unbind: UnbindSupport::token_only(),
        checks: CloudChecks {
            verify_unbind_is_bound_user: false,
            ..checks_common()
        },
        setup_order: SetupOrder::OnlineFirst,
        firmware: FirmwareKnowledge::Known,
    }
}

/// #2 BroadLink (smart plug): status auth unconfirmed (no firmware),
/// app-sent ACL binding with no pre-bind ownership proof (⇒ A2), correct
/// unbind checks.
pub fn broadlink() -> VendorDesign {
    VendorDesign {
        vendor: "BroadLink".into(),
        device: DeviceKind::SmartPlug,
        id_scheme: IdScheme::MacWithOui {
            oui: [0x78, 0x0f, 0x77],
        },
        auth: DeviceAuthScheme::Opaque,
        bind: BindScheme::AclApp,
        unbind: UnbindSupport::token_only(),
        checks: checks_common(),
        setup_order: SetupOrder::OnlineFirst,
        firmware: FirmwareKnowledge::Opaque,
    }
}

/// #3 KONKE (smart socket): `DevToken` auth, **no unbinding support** — a
/// new binding replaces the previous one (⇒ A3-3, and incidentally immunity
/// to A2), with a post-binding session token that stops the replacement
/// from becoming a hijack.
pub fn konke() -> VendorDesign {
    VendorDesign {
        vendor: "KONKE".into(),
        device: DeviceKind::SmartSocket,
        id_scheme: IdScheme::SequentialSerial {
            vendor: 0x4b4b,
            start: 60_000,
        },
        auth: DeviceAuthScheme::DevToken,
        bind: BindScheme::AclApp,
        unbind: UnbindSupport::none(),
        checks: CloudChecks {
            reject_bind_when_bound: false,
            post_binding_session: true,
            ..checks_common()
        },
        setup_order: SetupOrder::OnlineFirst,
        firmware: FirmwareKnowledge::Known,
    }
}

/// #4 Lightstory (smart plug): `DevToken` auth (per API documentation),
/// app-sent ACL binding with no pre-bind proof (⇒ A2), otherwise correct.
pub fn lightstory() -> VendorDesign {
    VendorDesign {
        vendor: "Lightstory".into(),
        device: DeviceKind::SmartPlug,
        id_scheme: IdScheme::SequentialSerial {
            vendor: 0x4c53,
            start: 10_000,
        },
        auth: DeviceAuthScheme::DevToken,
        bind: BindScheme::AclApp,
        unbind: UnbindSupport::token_only(),
        checks: checks_common(),
        setup_order: SetupOrder::OnlineFirst,
        firmware: FirmwareKnowledge::Known,
    }
}

/// #5 Orvibo (smart plug): status auth unconfirmed, app-sent ACL binding
/// (⇒ A2), unbind missing the bound-user check (⇒ A3-2); hijack still fails
/// because control is keyed to a session the attacker cannot refresh.
pub(crate) fn orvibo() -> VendorDesign {
    VendorDesign {
        vendor: "Orvibo".into(),
        device: DeviceKind::SmartPlug,
        id_scheme: IdScheme::MacWithOui {
            oui: [0xac, 0xcf, 0x23],
        },
        auth: DeviceAuthScheme::Opaque,
        bind: BindScheme::AclApp,
        unbind: UnbindSupport::token_only(),
        checks: CloudChecks {
            verify_unbind_is_bound_user: false,
            post_binding_session: true,
            ..checks_common()
        },
        setup_order: SetupOrder::OnlineFirst,
        firmware: FirmwareKnowledge::Opaque,
    }
}

/// #6 OZWI (IP camera): static `DevId` auth, app-sent ACL binding with no
/// proof (⇒ A2) and a real online-unbound setup window (⇒ A4-2); firmware
/// unavailable, so A1 is unconfirmable.
pub fn ozwi() -> VendorDesign {
    VendorDesign {
        vendor: "OZWI".into(),
        device: DeviceKind::IpCamera,
        id_scheme: IdScheme::ShortDigits { width: 7 },
        auth: DeviceAuthScheme::DevId,
        bind: BindScheme::AclApp,
        unbind: UnbindSupport::token_only(),
        checks: checks_common(),
        setup_order: SetupOrder::OnlineFirst,
        firmware: FirmwareKnowledge::Opaque,
    }
}

/// #7 Philips Hue (smart bulb + bridge): binding requires pressing the
/// physical button within 30 s and matching source IPs of the app and
/// device requests — a local-presence proof that blocks every forged bind.
pub fn philips_hue() -> VendorDesign {
    VendorDesign {
        vendor: "Philips Hue".into(),
        device: DeviceKind::SmartBulb,
        id_scheme: IdScheme::MacWithOui {
            oui: [0x00, 0x17, 0x88],
        },
        auth: DeviceAuthScheme::Opaque,
        bind: BindScheme::AclApp,
        unbind: UnbindSupport::token_only(),
        checks: CloudChecks {
            bind_requires_local_proof: true,
            ..checks_common()
        },
        setup_order: SetupOrder::OnlineFirst,
        firmware: FirmwareKnowledge::Opaque,
    }
}

/// #8 TP-LINK (smart bulb): static `DevId` auth with known firmware
/// (⇒ status forgeable), **device-sent** binding that requires a live
/// device session (⇒ A2 blocked), both unbind types including bare
/// `Unbind:DevId` (⇒ A3-1), registration treated as reset (⇒ A3-4), and no
/// session binding (⇒ A4-3 = A3-1 + bind).
pub fn tp_link() -> VendorDesign {
    VendorDesign {
        vendor: "TP-LINK".into(),
        device: DeviceKind::SmartBulb,
        id_scheme: IdScheme::MacWithOui {
            oui: [0x50, 0xc7, 0xbf],
        },
        auth: DeviceAuthScheme::DevId,
        bind: BindScheme::AclDevice,
        unbind: UnbindSupport::both(),
        checks: CloudChecks {
            bind_requires_online_device: true,
            register_resets_binding: true,
            ..checks_common()
        },
        setup_order: SetupOrder::OnlineFirst,
        firmware: FirmwareKnowledge::Known,
    }
}

/// #9 E-Link Smart (IP camera): static `DevId` auth (firmware unavailable
/// for status forgery), app-sent binding that **replaces** an existing
/// binding outright (⇒ A4-1 in the control state).
pub fn e_link() -> VendorDesign {
    VendorDesign {
        vendor: "E-Link Smart".into(),
        device: DeviceKind::IpCamera,
        id_scheme: IdScheme::ShortDigits { width: 6 },
        auth: DeviceAuthScheme::DevId,
        bind: BindScheme::AclApp,
        unbind: UnbindSupport::token_only(),
        checks: CloudChecks {
            reject_bind_when_bound: false,
            ..checks_common()
        },
        setup_order: SetupOrder::OnlineFirst,
        firmware: FirmwareKnowledge::Opaque,
    }
}

/// #10 D-LINK (smart plug): static `DevId` auth with known firmware —
/// the confirmed A1 (forged status over a raw socket, fake power readings,
/// schedule exfiltration); binding created **before** the device first
/// registers (no A4-2 window), concurrent device sessions tolerated, unbind
/// properly checked.
pub fn d_link() -> VendorDesign {
    VendorDesign {
        vendor: "D-LINK".into(),
        device: DeviceKind::SmartPlug,
        id_scheme: IdScheme::MacWithOui {
            oui: [0xb0, 0xc5, 0x54],
        },
        auth: DeviceAuthScheme::DevId,
        bind: BindScheme::AclApp,
        unbind: UnbindSupport::token_only(),
        checks: CloudChecks {
            concurrent_device_sessions: true,
            ..checks_common()
        },
        setup_order: SetupOrder::BindFirst,
        firmware: FirmwareKnowledge::Known,
    }
}

/// The ten designs of Table III, in table order (index 0 = vendor #1).
pub fn vendor_designs() -> Vec<VendorDesign> {
    vec![
        belkin(),
        broadlink(),
        konke(),
        lightstory(),
        orvibo(),
        ozwi(),
        philips_hue(),
        tp_link(),
        e_link(),
        d_link(),
    ]
}

/// The capability-based reference design (Samsung SmartThings style,
/// Section IV-B "our assessment"): `BindToken` authorization, `DevToken`
/// auth, strict checks. Expected to defeat every attack in the taxonomy.
pub fn capability_reference() -> VendorDesign {
    VendorDesign {
        vendor: "Capability (reference)".into(),
        device: DeviceKind::SmartPlug,
        id_scheme: IdScheme::RandomUuid,
        auth: DeviceAuthScheme::DevToken,
        bind: BindScheme::Capability,
        unbind: UnbindSupport::token_only(),
        checks: CloudChecks {
            post_binding_session: true,
            ..checks_common()
        },
        setup_order: SetupOrder::OnlineFirst,
        firmware: FirmwareKnowledge::Known,
    }
}

/// The public-key reference design (AWS/IBM/Google IoT style): per-device
/// keys sign every message; binding still capability-based.
pub fn public_key_reference() -> VendorDesign {
    VendorDesign {
        vendor: "PublicKey (reference)".into(),
        device: DeviceKind::Sensor,
        id_scheme: IdScheme::RandomUuid,
        auth: DeviceAuthScheme::PublicKey,
        bind: BindScheme::Capability,
        unbind: UnbindSupport::token_only(),
        checks: CloudChecks {
            post_binding_session: true,
            ..checks_common()
        },
        setup_order: SetupOrder::OnlineFirst,
        firmware: FirmwareKnowledge::Known,
    }
}

/// The weakest coherent design: static sequential IDs, ID-only auth, no
/// checks. Table II's taxonomy is derived against this configuration.
pub fn weakest_design() -> VendorDesign {
    VendorDesign {
        vendor: "Weakest (model)".into(),
        device: DeviceKind::SmartPlug,
        id_scheme: IdScheme::ShortDigits { width: 6 },
        auth: DeviceAuthScheme::DevId,
        bind: BindScheme::AclApp,
        unbind: UnbindSupport::both(),
        checks: CloudChecks::weakest(),
        setup_order: SetupOrder::OnlineFirst,
        firmware: FirmwareKnowledge::Known,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_vendors_in_table_order() {
        let v = vendor_designs();
        assert_eq!(v.len(), 10);
        let names: Vec<&str> = v.iter().map(|d| d.vendor.as_str()).collect();
        assert_eq!(
            names,
            [
                "Belkin",
                "BroadLink",
                "KONKE",
                "Lightstory",
                "Orvibo",
                "OZWI",
                "Philips Hue",
                "TP-LINK",
                "E-Link Smart",
                "D-LINK"
            ]
        );
    }

    #[test]
    fn all_designs_validate() {
        for d in vendor_designs() {
            d.validate().unwrap_or_else(|e| panic!("{e}"));
        }
        capability_reference().validate().unwrap();
        public_key_reference().validate().unwrap();
        weakest_design().validate().unwrap();
    }

    #[test]
    fn table_iii_design_columns() {
        let v = vendor_designs();
        // Status column.
        assert_eq!(v[0].auth, DeviceAuthScheme::DevToken);
        assert_eq!(v[1].auth, DeviceAuthScheme::Opaque);
        assert_eq!(v[2].auth, DeviceAuthScheme::DevToken);
        assert_eq!(v[3].auth, DeviceAuthScheme::DevToken);
        assert_eq!(v[4].auth, DeviceAuthScheme::Opaque);
        assert_eq!(v[5].auth, DeviceAuthScheme::DevId);
        assert_eq!(v[6].auth, DeviceAuthScheme::Opaque);
        assert_eq!(v[7].auth, DeviceAuthScheme::DevId);
        assert_eq!(v[8].auth, DeviceAuthScheme::DevId);
        assert_eq!(v[9].auth, DeviceAuthScheme::DevId);
        // Bind column: only TP-LINK sends by device.
        for (i, d) in v.iter().enumerate() {
            if i == 7 {
                assert_eq!(d.bind, BindScheme::AclDevice);
            } else {
                assert_eq!(d.bind, BindScheme::AclApp);
            }
        }
        // Unbind column: KONKE N.A., TP-LINK both, rest token-only.
        assert_eq!(v[2].unbind, UnbindSupport::none());
        assert_eq!(v[7].unbind, UnbindSupport::both());
        for i in [0, 1, 3, 4, 5, 6, 8, 9] {
            assert_eq!(
                v[i].unbind,
                UnbindSupport::token_only(),
                "vendor #{}",
                i + 1
            );
        }
    }

    #[test]
    fn at_least_four_devices_authenticate_by_dev_id() {
        // "at least 4 of the devices use device IDs for device
        // authentication" (Section VI-B).
        let n = vendor_designs()
            .iter()
            .filter(|d| d.auth == DeviceAuthScheme::DevId)
            .count();
        assert!(n >= 4, "paper reports at least 4, got {n}");
    }

    #[test]
    fn ninety_percent_support_token_unbind() {
        // "Most devices (90%) support message type Unbind:(DevId,UserToken)".
        let n = vendor_designs()
            .iter()
            .filter(|d| d.unbind.dev_id_user_token)
            .count();
        assert_eq!(n, 9);
    }

    #[test]
    fn nine_devices_send_binding_by_app() {
        // "9 devices send binding messages by apps" (Section VI-A).
        let n = vendor_designs()
            .iter()
            .filter(|d| d.bind == BindScheme::AclApp)
            .count();
        assert_eq!(n, 9);
    }

    #[test]
    fn five_use_mac_addresses_as_ids() {
        // "5 of them use MAC addresses (the first 3-bytes are ID number of
        // the manufacturer) as their device IDs."
        let n = vendor_designs()
            .iter()
            .filter(|d| matches!(d.id_scheme, IdScheme::MacWithOui { .. }))
            .count();
        assert_eq!(n, 5);
    }

    #[test]
    fn reference_designs_are_strong() {
        assert!(!capability_reference().bind_forgeable());
        assert!(!capability_reference().status_forgeable());
        assert!(!public_key_reference().status_forgeable());
        assert!(weakest_design().status_forgeable());
        assert!(weakest_design().bind_forgeable());
    }
}
