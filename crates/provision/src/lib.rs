//! # rb-provision
//!
//! Local-network provisioning and discovery for the simulated IoT world —
//! the "local configuration" phase of the paper's Figure 1.
//!
//! Before a device can be remotely bound it must (1) join the home Wi-Fi
//! (*network provisioning*), (2) be found by the companion app (*local
//! discovery*), and (3) exchange pairing material with the app (*local
//! binding*). The simulation models:
//!
//! * **AP-mode provisioning** ([`apmode`]): the device opens a soft AP and
//!   the app posts the Wi-Fi credentials and pairing material to it. This
//!   is the only channel that brings a simulated device online; the
//!   length-encoded broadcasts some vendors also use (cited as \[13\] and
//!   \[16\] in the paper) are not modelled, because every attack in the
//!   paper runs over the WAN and none reads the LAN.
//! * **Label pairing** ([`label`]): the device ID / pairing code printed on
//!   the unit or its box — the very channel whose leakage the paper's
//!   adversary model exploits.
//! * **SSDP-style discovery** ([`discovery`]): multicast search and reply
//!   (cited as \[12\]).
//!
//! All codecs are pure functions over byte sequences, so they run
//! identically inside the network simulator and in unit tests.

pub mod apmode;
pub mod discovery;
pub mod label;
pub mod localctl;
pub mod wifi;

pub use wifi::WifiCredentials;

/// Errors arising while decoding provisioning exchanges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvisionError {
    /// The byte stream did not contain a complete frame.
    Incomplete,
    /// A checksum failed.
    ChecksumMismatch {
        /// Expected checksum value.
        expected: u8,
        /// Actual checksum value.
        actual: u8,
    },
    /// Framing was violated (bad preamble, wrong ordering, bad tag).
    BadFraming {
        /// Human-readable description of the violation.
        what: &'static str,
    },
    /// Text that should have been UTF-8 was not.
    InvalidUtf8,
}

impl std::fmt::Display for ProvisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProvisionError::Incomplete => write!(f, "incomplete provisioning frame"),
            ProvisionError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:#04x}, got {actual:#04x}"
                )
            }
            ProvisionError::BadFraming { what } => write!(f, "bad framing: {what}"),
            ProvisionError::InvalidUtf8 => write!(f, "invalid utf-8 in provisioning payload"),
        }
    }
}

impl std::error::Error for ProvisionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert_eq!(
            ProvisionError::ChecksumMismatch {
                expected: 0xab,
                actual: 0xcd
            }
            .to_string(),
            "checksum mismatch: expected 0xab, got 0xcd"
        );
        assert!(ProvisionError::BadFraming { what: "x" }
            .to_string()
            .contains("x"));
    }
}
