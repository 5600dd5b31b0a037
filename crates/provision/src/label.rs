//! Label-based pairing: the device ID printed on the unit or its box.
//!
//! Several of the paper's vendors "attach labels containing device
//! information (e.g. Device IDs or pairing IDs) on devices, and ask users to
//! input such IDs in their apps". The same label is what leaks through
//! supply chains, resale, and purchase-and-return — the paper's off-site
//! physical interaction channel. [`DeviceLabel`] models the printed label,
//! including the check digit real vendors add against typos.

use rb_wire::ids::DevId;

use crate::ProvisionError;

/// A printed device label: the device ID plus a short pairing code and a
/// check character.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeviceLabel {
    /// The device's identifier, exactly as printed.
    pub(crate) dev_id: DevId,
    /// A 4-digit pairing code some vendors print next to the ID.
    pub(crate) pairing_code: u16,
}

impl DeviceLabel {
    /// Creates a label for a device.
    pub fn new(dev_id: DevId, pairing_code: u16) -> Self {
        DeviceLabel {
            dev_id,
            pairing_code: pairing_code % 10_000,
        }
    }

    /// Renders the label text as printed on the unit, with a trailing check
    /// character (mod-36 over the body).
    pub fn print(&self) -> String {
        let body = format!("{}|{:04}", self.dev_id.short(), self.pairing_code);
        let check = check_char(&body);
        format!("{body}|{check}")
    }

    /// Parses (— "scans" —) a printed label.
    ///
    /// # Errors
    ///
    /// Returns [`ProvisionError::BadFraming`] on malformed labels and
    /// [`ProvisionError::ChecksumMismatch`] when the check character does
    /// not match (a typo while entering the ID into the app).
    pub fn scan(text: &str) -> Result<Self, ProvisionError> {
        let Some((body, check)) = text.rsplit_once('|') else {
            return Err(ProvisionError::BadFraming {
                what: "label missing check field",
            });
        };
        let expected = check_char(body);
        let mut chars = check.chars();
        let (Some(actual), None) = (chars.next(), chars.next()) else {
            return Err(ProvisionError::BadFraming {
                what: "check field not one char",
            });
        };
        if actual != expected {
            return Err(ProvisionError::ChecksumMismatch {
                expected: expected as u8,
                actual: actual as u8,
            });
        }
        let Some((id_part, code_part)) = body.rsplit_once('|') else {
            return Err(ProvisionError::BadFraming {
                what: "label missing pairing code",
            });
        };
        let pairing_code: u16 = code_part.parse().map_err(|_| ProvisionError::BadFraming {
            what: "pairing code not numeric",
        })?;
        let dev_id = parse_dev_id(id_part)?;
        Ok(DeviceLabel {
            dev_id,
            pairing_code,
        })
    }
}

fn check_char(body: &str) -> char {
    let sum: u32 = body.bytes().map(u32::from).sum();
    let v = (sum % 36) as u8;
    if v < 10 {
        (b'0' + v) as char
    } else {
        (b'A' + v - 10) as char
    }
}

/// Parses the `short()` rendering of a [`DevId`] back into the value —
/// the inverse of [`DevId::short`] for the label use case.
pub(crate) fn parse_dev_id(s: &str) -> Result<DevId, ProvisionError> {
    if let Some(mac) = s.strip_prefix("mac:") {
        let parts: Vec<&str> = mac.split(':').collect();
        if parts.len() != 6 {
            return Err(ProvisionError::BadFraming {
                what: "mac must have 6 octets",
            });
        }
        let mut bytes = [0u8; 6];
        for (i, p) in parts.iter().enumerate() {
            bytes[i] = u8::from_str_radix(p, 16).map_err(|_| ProvisionError::BadFraming {
                what: "mac octet not hex",
            })?;
        }
        return Ok(DevId::Mac(rb_wire::ids::MacAddr::new(bytes)));
    }
    if let Some(sn) = s.strip_prefix("sn:") {
        let Some((vendor, seq)) = sn.split_once('-') else {
            return Err(ProvisionError::BadFraming {
                what: "serial missing separator",
            });
        };
        let vendor = u16::from_str_radix(vendor, 16).map_err(|_| ProvisionError::BadFraming {
            what: "serial vendor not hex",
        })?;
        let seq: u64 = seq.parse().map_err(|_| ProvisionError::BadFraming {
            what: "serial seq not numeric",
        })?;
        return Ok(DevId::Serial { vendor, seq });
    }
    if let Some(digits) = s.strip_prefix("id:") {
        let width = digits.len() as u8;
        let value: u32 = digits.parse().map_err(|_| ProvisionError::BadFraming {
            what: "digit id not numeric",
        })?;
        let id = DevId::Digits { value, width };
        id.validate().map_err(|_| ProvisionError::BadFraming {
            what: "digit id out of range",
        })?;
        return Ok(id);
    }
    if let Some(uuid) = s.strip_prefix("uuid:") {
        let value = u128::from_str_radix(uuid, 16).map_err(|_| ProvisionError::BadFraming {
            what: "uuid not hex",
        })?;
        return Ok(DevId::Uuid(value));
    }
    Err(ProvisionError::BadFraming {
        what: "unknown id prefix",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_wire::ids::MacAddr;

    fn ids() -> Vec<DevId> {
        vec![
            DevId::Mac(MacAddr::new([0xde, 0xad, 0xbe, 0xef, 0x00, 0x42])),
            DevId::Serial {
                vendor: 0x0102,
                seq: 99887,
            },
            DevId::Digits {
                value: 123456,
                width: 7,
            },
            DevId::Uuid(0xdead_beef_cafe),
        ]
    }

    #[test]
    fn print_scan_roundtrip() {
        for id in ids() {
            let label = DeviceLabel::new(id.clone(), 1234);
            let scanned = DeviceLabel::scan(&label.print()).unwrap();
            assert_eq!(scanned, label, "id={id}");
        }
    }

    #[test]
    fn typo_is_caught_by_check_char() {
        let label = DeviceLabel::new(ids()[0].clone(), 7);
        let mut text = label.print();
        // Fat-finger one hex digit of the MAC.
        text = text.replacen('d', "c", 1);
        assert!(matches!(
            DeviceLabel::scan(&text),
            Err(ProvisionError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn pairing_code_is_four_digits() {
        let label = DeviceLabel::new(ids()[1].clone(), 65535);
        assert_eq!(label.pairing_code, 5535);
        assert!(label.print().contains("|5535|"));
    }

    #[test]
    fn malformed_labels_are_rejected() {
        assert!(DeviceLabel::scan("").is_err());
        assert!(DeviceLabel::scan("no-separators").is_err());
        assert!(DeviceLabel::scan("mac:aa:bb|0001|Z").is_err());
    }

    #[test]
    fn parse_dev_id_rejects_garbage() {
        assert!(parse_dev_id("mac:zz:zz:zz:zz:zz:zz").is_err());
        assert!(parse_dev_id("sn:xyz").is_err());
        assert!(parse_dev_id("id:12ab").is_err());
        assert!(parse_dev_id("uuid:nothex").is_err());
        assert!(parse_dev_id("wat:1").is_err());
    }

    #[test]
    fn parse_inverts_short_for_all_id_kinds() {
        for id in ids() {
            assert_eq!(parse_dev_id(&id.short()).unwrap(), id);
        }
    }
}
