//! Device identifiers and the vendor ID-allocation schemes behind them.
//!
//! The paper's adversary model (Section III-A) rests on how *guessable* and
//! *leakable* device IDs are in practice: MAC addresses expose their 3-byte
//! OUI leaving only 24 bits of entropy, some vendors use 6–7-digit serial
//! numbers enumerable "within an hour", and labels printed on devices or
//! packaging leak through the supply chain. [`DevId`] captures the concrete
//! shapes observed in the wild and [`IdScheme`] captures the allocation
//! policies, so the `rb-attack` crate can quantify search spaces exactly.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::WireError;

/// A 48-bit IEEE 802 MAC address used by several vendors as the device ID.
///
/// The first three bytes are the Organizationally Unique Identifier (OUI):
/// they identify the vendor and are public knowledge, which is why the paper
/// notes "with vendor-specific bytes excluded, the search space of MAC
/// addresses is often within 3 bytes".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// Creates a MAC address from its six raw bytes.
    pub fn new(bytes: [u8; 6]) -> Self {
        MacAddr(bytes)
    }

    /// Builds a MAC address from a vendor OUI and a 24-bit NIC-specific
    /// suffix.
    ///
    /// # Panics
    ///
    /// Panics if `nic` does not fit in 24 bits.
    pub fn from_oui(oui: [u8; 3], nic: u32) -> Self {
        assert!(nic <= 0x00ff_ffff, "nic suffix must fit in 24 bits");
        MacAddr([
            oui[0],
            oui[1],
            oui[2],
            (nic >> 16) as u8,
            (nic >> 8) as u8,
            nic as u8,
        ])
    }

    /// The raw bytes of the address.
    pub(crate) fn octets(&self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// A device identifier (`DevId` in the paper's Table I): "a piece of
/// *definite* data for device authentication".
///
/// Being definite (static) is exactly what makes it unsuitable as an
/// authenticator — it can be inferred, enumerated, or leaked through
/// ownership transfer, yet several of the studied vendors authenticate
/// devices with nothing else.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DevId {
    /// The device's MAC address (vendors #2, #5, #6, #8, #10 style).
    Mac(MacAddr),
    /// A vendor-assigned sequential serial number.
    Serial {
        /// Vendor code embedded in the serial.
        vendor: u16,
        /// Sequential unit number.
        seq: u64,
    },
    /// A short all-digit ID, as found on the insecure cameras and baby
    /// monitors the paper cites (6 or 7 digits).
    Digits {
        /// The numeric value.
        value: u32,
        /// Number of digits (fixed width, zero padded).
        width: u8,
    },
    /// A 128-bit random identifier — large enough that enumeration is
    /// infeasible, though leakage through labels remains possible.
    Uuid(u128),
}

impl DevId {
    /// Validates internal invariants (digit IDs fit their declared width).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::ValueOutOfRange`] if a [`DevId::Digits`] value
    /// does not fit in its width or the width is outside `1..=9`.
    pub fn validate(&self) -> Result<(), WireError> {
        if let DevId::Digits { value, width } = self {
            if *width == 0 || *width > 9 {
                return Err(WireError::ValueOutOfRange {
                    context: "DevId::Digits width",
                });
            }
            if u64::from(*value) >= 10u64.pow(u32::from(*width)) {
                return Err(WireError::ValueOutOfRange {
                    context: "DevId::Digits value",
                });
            }
        }
        Ok(())
    }

    /// A short stable label for logs and tables.
    pub fn short(&self) -> String {
        match self {
            DevId::Mac(m) => format!("mac:{m}"),
            DevId::Serial { vendor, seq } => format!("sn:{vendor:04x}-{seq}"),
            DevId::Digits { value, width } => {
                format!("id:{value:0width$}", width = *width as usize)
            }
            DevId::Uuid(u) => format!("uuid:{u:032x}"),
        }
    }
}

impl fmt::Display for DevId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.short())
    }
}

impl From<MacAddr> for DevId {
    fn from(mac: MacAddr) -> Self {
        DevId::Mac(mac)
    }
}

/// How a vendor allocates device IDs across its product line.
///
/// The scheme determines the attacker's search space (Section III-A); the
/// `rb-attack::idspace` module uses [`IdScheme::search_space`] and
/// [`IdScheme::id_at`] to reproduce the paper's enumeration-cost claims.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IdScheme {
    /// MAC addresses with a publicly known vendor OUI; the attacker must
    /// search only the 24-bit NIC suffix.
    MacWithOui {
        /// The vendor's OUI.
        oui: [u8; 3],
    },
    /// Sequential serial numbers starting from `start`.
    SequentialSerial {
        /// Vendor code embedded in serials.
        vendor: u16,
        /// First unit number.
        start: u64,
    },
    /// Fixed-width all-digit IDs assigned sequentially (the 6/7-digit camera
    /// IDs of the paper's citations \[14\], \[18\]).
    ShortDigits {
        /// Number of digits.
        width: u8,
    },
    /// 128-bit random IDs (the recommended strong scheme).
    RandomUuid,
}

impl IdScheme {
    /// Number of distinct IDs the scheme can produce — the attacker's
    /// worst-case search space.
    ///
    /// Returns `None` for spaces that overflow `u128` (never happens for the
    /// supported schemes, but keeps the API total).
    pub fn search_space(&self) -> u128 {
        match self {
            IdScheme::MacWithOui { .. } => 1 << 24,
            IdScheme::SequentialSerial { .. } => u128::from(u64::MAX),
            IdScheme::ShortDigits { width } => 10u128.pow(u32::from(*width)),
            IdScheme::RandomUuid => u128::MAX,
        }
    }

    /// The `index`-th ID under this scheme, for deterministic allocation and
    /// for attacker enumeration.
    ///
    /// For [`IdScheme::RandomUuid`] the index is diffused through a
    /// SplitMix64-style mixer: the scheme is *modeled* as unpredictable, so
    /// enumeration by index does not correspond to real allocation order.
    pub fn id_at(&self, index: u64) -> DevId {
        match self {
            IdScheme::MacWithOui { oui } => {
                DevId::Mac(MacAddr::from_oui(*oui, (index as u32) & 0x00ff_ffff))
            }
            IdScheme::SequentialSerial { vendor, start } => DevId::Serial {
                vendor: *vendor,
                seq: start.wrapping_add(index),
            },
            IdScheme::ShortDigits { width } => DevId::Digits {
                value: (index % 10u64.pow(u32::from(*width))) as u32,
                width: *width,
            },
            IdScheme::RandomUuid => {
                let lo = splitmix64(index);
                let hi = splitmix64(index ^ 0x9e37_79b9_7f4a_7c15);
                DevId::Uuid((u128::from(hi) << 64) | u128::from(lo))
            }
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_roundtrips_oui_and_suffix() {
        let mac = MacAddr::from_oui([0x94, 0x10, 0x3e], 0x0a0b0c);
        assert_eq!(mac.to_string(), "94:10:3e:0a:0b:0c");
    }

    #[test]
    #[should_panic(expected = "24 bits")]
    fn mac_from_oui_rejects_oversized_suffix() {
        let _ = MacAddr::from_oui([0, 0, 0], 0x0100_0000);
    }

    #[test]
    fn digits_validation_enforces_width() {
        assert!(DevId::Digits {
            value: 123_456,
            width: 6
        }
        .validate()
        .is_ok());
        assert!(DevId::Digits {
            value: 1_234_567,
            width: 6
        }
        .validate()
        .is_err());
        assert!(DevId::Digits { value: 1, width: 0 }.validate().is_err());
        assert!(DevId::Digits {
            value: 1,
            width: 10
        }
        .validate()
        .is_err());
    }

    #[test]
    fn short_formats_are_distinct_and_padded() {
        let a = DevId::Digits {
            value: 42,
            width: 6,
        };
        assert_eq!(a.short(), "id:000042");
        let b = DevId::Serial {
            vendor: 0x00ab,
            seq: 9,
        };
        assert_eq!(b.short(), "sn:00ab-9");
        assert_ne!(a.short(), b.short());
    }

    #[test]
    fn mac_scheme_search_space_is_24_bits() {
        let scheme = IdScheme::MacWithOui { oui: [1, 2, 3] };
        assert_eq!(scheme.search_space(), 1 << 24);
    }

    #[test]
    fn six_digit_ids_enumerable_within_an_hour() {
        // The paper: "some device IDs only contain 6 or 7 digits, allowing
        // attackers to traverse all possible IDs within an hour."
        let six = IdScheme::ShortDigits { width: 6 };
        let seven = IdScheme::ShortDigits { width: 7 };
        // 300 probes/sec is a very modest HTTP request rate.
        assert!(six.search_space() <= 300 * 3600);
        assert!(seven.search_space() <= 3000 * 3600);
        // A UUID space never is.
        assert!(IdScheme::RandomUuid.search_space() > u128::from(u64::MAX) * u128::from(u64::MAX));
    }

    #[test]
    fn sequential_allocation_is_dense() {
        let scheme = IdScheme::SequentialSerial {
            vendor: 7,
            start: 100,
        };
        assert_eq!(
            scheme.id_at(0),
            DevId::Serial {
                vendor: 7,
                seq: 100
            }
        );
        assert_eq!(
            scheme.id_at(5),
            DevId::Serial {
                vendor: 7,
                seq: 105
            }
        );
    }

    #[test]
    fn uuid_allocation_is_diffused() {
        let scheme = IdScheme::RandomUuid;
        let a = scheme.id_at(0);
        let b = scheme.id_at(1);
        assert_ne!(a, b);
        // Adjacent indices must not produce adjacent ids.
        if let (DevId::Uuid(x), DevId::Uuid(y)) = (a, b) {
            assert!(x.abs_diff(y) > 1 << 64);
        } else {
            panic!("uuid scheme must produce uuid ids");
        }
    }

    #[test]
    fn digit_allocation_wraps_at_width() {
        let scheme = IdScheme::ShortDigits { width: 6 };
        assert_eq!(scheme.id_at(1_000_000), scheme.id_at(0));
        assert!(scheme.id_at(999_999).validate().is_ok());
    }
}
