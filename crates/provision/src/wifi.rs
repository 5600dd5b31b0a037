//! Wi-Fi credential value type shared by all provisioning schemes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// SSID and pre-shared key of the home network being provisioned.
///
/// The PSK is redacted in `Debug`/`Display`; the paper's related work
/// (\[41\]) shows SmartCfg-style provisioning can leak exactly this value,
/// so the simulator treats it as a secret everywhere.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WifiCredentials {
    ssid: String,
    psk: String,
}

impl WifiCredentials {
    /// Maximum SSID length per IEEE 802.11.
    pub(crate) const MAX_SSID: usize = 32;
    /// Maximum WPA2 passphrase length.
    pub(crate) const MAX_PSK: usize = 63;

    /// Creates credentials, truncating over-long fields to their 802.11
    /// limits.
    pub fn new(ssid: impl Into<String>, psk: impl Into<String>) -> Self {
        let mut ssid = ssid.into();
        let mut psk = psk.into();
        truncate_on_boundary(&mut ssid, Self::MAX_SSID);
        truncate_on_boundary(&mut psk, Self::MAX_PSK);
        WifiCredentials { ssid, psk }
    }

    /// The network name.
    pub(crate) fn ssid(&self) -> &str {
        &self.ssid
    }

    /// The pre-shared key.
    pub(crate) fn psk(&self) -> &str {
        &self.psk
    }
}

fn truncate_on_boundary(s: &mut String, max: usize) {
    if s.len() > max {
        let mut cut = max;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
    }
}

impl fmt::Debug for WifiCredentials {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WifiCredentials {{ ssid: {:?}, psk: <redacted> }}",
            self.ssid
        )
    }
}

impl fmt::Display for WifiCredentials {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (psk redacted)", self.ssid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_redaction() {
        let c = WifiCredentials::new("HomeNet", "correct horse");
        assert_eq!(c.ssid(), "HomeNet");
        assert_eq!(c.psk(), "correct horse");
        let dbg = format!("{c:?}");
        assert!(dbg.contains("HomeNet"));
        assert!(!dbg.contains("correct horse"));
        assert!(!c.to_string().contains("correct horse"));
    }

    #[test]
    fn over_long_fields_truncate() {
        let c = WifiCredentials::new("s".repeat(100), "p".repeat(100));
        assert_eq!(c.ssid().len(), WifiCredentials::MAX_SSID);
        assert_eq!(c.psk().len(), WifiCredentials::MAX_PSK);
    }

    #[test]
    fn multibyte_truncation_is_boundary_safe() {
        let c = WifiCredentials::new("日".repeat(20), "語".repeat(30));
        assert!(c.ssid().len() <= WifiCredentials::MAX_SSID);
        assert!(c.ssid().chars().all(|ch| ch == '日'));
    }
}
