//! AP-mode (SoftAP) provisioning.
//!
//! The unprovisioned device opens its own access point (e.g.
//! `Vendor-Setup-1A2B`); the app joins it and posts the home network's
//! credentials, optionally together with pairing material (a `DevToken` or
//! `BindToken` obtained from the cloud — the delivery channel of the
//! paper's recommended designs). The exchange is a two-message protocol
//! encoded as tagged byte frames.

use crate::wifi::WifiCredentials;
use crate::ProvisionError;

const TAG_REQUEST: u8 = 0xA1;
const TAG_ACCEPTED: u8 = 0xA2;
const TAG_REJECTED: u8 = 0xA3;

/// Pairing material the app pushes to the device alongside Wi-Fi
/// credentials.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PairingMaterial {
    /// A device token to authenticate with (Figure 3 Type 1), if the design
    /// uses one.
    pub dev_token: Option<[u8; 16]>,
    /// A binding capability to submit back to the cloud (capability-based
    /// designs), if used.
    pub bind_token: Option<[u8; 16]>,
    /// The user's account credentials, for device-initiated ACL binding —
    /// the design the paper explicitly warns against.
    pub user_credentials: Option<(String, String)>,
}

/// The app → device provisioning request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvisionRequest {
    /// Home network credentials.
    pub wifi: WifiCredentials,
    /// Pairing material per the vendor's design.
    pub pairing: PairingMaterial,
}

/// The device → app reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvisionReply {
    /// The device accepted the configuration and will join the network.
    Accepted {
        /// The device's self-reported identifier string (the app may use it
        /// for the subsequent cloud binding).
        device_info: String,
    },
    /// The device rejected the configuration.
    Rejected,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let b = s.as_bytes();
    out.push(b.len().min(255) as u8);
    out.extend_from_slice(&b[..b.len().min(255)]);
}

fn get_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str, ProvisionError> {
    if buf.is_empty() {
        return Err(ProvisionError::Incomplete);
    }
    let len = usize::from(buf[0]);
    if buf.len() < 1 + len {
        return Err(ProvisionError::Incomplete);
    }
    let s = std::str::from_utf8(&buf[1..1 + len]).map_err(|_| ProvisionError::InvalidUtf8)?;
    *buf = &buf[1 + len..];
    Ok(s)
}

fn put_opt16(out: &mut Vec<u8>, v: &Option<[u8; 16]>) {
    match v {
        None => out.push(0),
        Some(bytes) => {
            out.push(1);
            out.extend_from_slice(bytes);
        }
    }
}

fn get_opt16(buf: &mut &[u8]) -> Result<Option<[u8; 16]>, ProvisionError> {
    if buf.is_empty() {
        return Err(ProvisionError::Incomplete);
    }
    let tag = buf[0];
    *buf = &buf[1..];
    match tag {
        0 => Ok(None),
        1 => {
            if buf.len() < 16 {
                return Err(ProvisionError::Incomplete);
            }
            let mut out = [0u8; 16];
            out.copy_from_slice(&buf[..16]);
            *buf = &buf[16..];
            Ok(Some(out))
        }
        _ => Err(ProvisionError::BadFraming { what: "option tag" }),
    }
}

impl ProvisionRequest {
    /// Serializes the request for transmission over the soft AP.
    pub fn encode(&self) -> Vec<u8> {
        // Tag, two strings, two optional tokens, the credential flag and
        // its two strings: sized once.
        let creds = self
            .pairing
            .user_credentials
            .as_ref()
            .map_or(0, |(uid, pw)| 2 + uid.len() + pw.len());
        let mut out =
            Vec::with_capacity(4 + self.wifi.ssid().len() + self.wifi.psk().len() + 2 * 17 + creds);
        out.push(TAG_REQUEST);
        put_str(&mut out, self.wifi.ssid());
        put_str(&mut out, self.wifi.psk());
        put_opt16(&mut out, &self.pairing.dev_token);
        put_opt16(&mut out, &self.pairing.bind_token);
        match &self.pairing.user_credentials {
            None => out.push(0),
            Some((uid, pw)) => {
                out.push(1);
                put_str(&mut out, uid);
                put_str(&mut out, pw);
            }
        }
        out
    }

    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// Returns [`ProvisionError`] on truncation, bad tags, or invalid UTF-8.
    pub fn decode(mut buf: &[u8]) -> Result<Self, ProvisionError> {
        if buf.first() != Some(&TAG_REQUEST) {
            return Err(ProvisionError::BadFraming {
                what: "request tag",
            });
        }
        buf = &buf[1..];
        let ssid = get_str(&mut buf)?.to_owned();
        let psk = get_str(&mut buf)?.to_owned();
        let dev_token = get_opt16(&mut buf)?;
        let bind_token = get_opt16(&mut buf)?;
        if buf.is_empty() {
            return Err(ProvisionError::Incomplete);
        }
        let has_creds = buf[0];
        buf = &buf[1..];
        let user_credentials = match has_creds {
            0 => None,
            1 => {
                let uid = get_str(&mut buf)?.to_owned();
                let pw = get_str(&mut buf)?.to_owned();
                Some((uid, pw))
            }
            _ => {
                return Err(ProvisionError::BadFraming {
                    what: "credential flag",
                })
            }
        };
        if !buf.is_empty() {
            return Err(ProvisionError::BadFraming {
                what: "trailing bytes",
            });
        }
        Ok(ProvisionRequest {
            wifi: WifiCredentials::new(ssid, psk),
            pairing: PairingMaterial {
                dev_token,
                bind_token,
                user_credentials,
            },
        })
    }
}

impl ProvisionReply {
    /// Serializes the reply.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ProvisionReply::Accepted { device_info } => {
                let mut out = Vec::with_capacity(2 + device_info.len());
                out.push(TAG_ACCEPTED);
                put_str(&mut out, device_info);
                out
            }
            ProvisionReply::Rejected => vec![TAG_REJECTED],
        }
    }

    /// Parses a reply frame.
    ///
    /// # Errors
    ///
    /// Returns [`ProvisionError`] on truncation or bad tags.
    pub fn decode(mut buf: &[u8]) -> Result<Self, ProvisionError> {
        match buf.first() {
            Some(&TAG_ACCEPTED) => {
                buf = &buf[1..];
                let device_info = get_str(&mut buf)?.to_owned();
                if !buf.is_empty() {
                    return Err(ProvisionError::BadFraming {
                        what: "trailing bytes",
                    });
                }
                Ok(ProvisionReply::Accepted { device_info })
            }
            Some(&TAG_REJECTED) if buf.len() == 1 => Ok(ProvisionReply::Rejected),
            Some(_) => Err(ProvisionError::BadFraming { what: "reply tag" }),
            None => Err(ProvisionError::Incomplete),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> ProvisionRequest {
        ProvisionRequest {
            wifi: WifiCredentials::new("HomeNet", "pa55word"),
            pairing: PairingMaterial {
                dev_token: Some([1; 16]),
                bind_token: None,
                user_credentials: Some(("alice@example.com".into(), "hunter2".into())),
            },
        }
    }

    #[test]
    fn request_roundtrip_full() {
        let r = request();
        assert_eq!(ProvisionRequest::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn request_roundtrip_minimal() {
        let r = ProvisionRequest {
            wifi: WifiCredentials::new("n", ""),
            pairing: PairingMaterial::default(),
        };
        assert_eq!(ProvisionRequest::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn reply_roundtrips() {
        let a = ProvisionReply::Accepted {
            device_info: "mac:aa:bb:cc:dd:ee:ff".into(),
        };
        assert_eq!(ProvisionReply::decode(&a.encode()).unwrap(), a);
        let r = ProvisionReply::Rejected;
        assert_eq!(ProvisionReply::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn truncation_fails_cleanly() {
        let bytes = request().encode();
        for cut in 0..bytes.len() {
            assert!(
                ProvisionRequest::decode(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn wrong_tag_rejected() {
        assert!(matches!(
            ProvisionRequest::decode(&[0xFF, 0, 0]),
            Err(ProvisionError::BadFraming {
                what: "request tag"
            })
        ));
        assert!(ProvisionReply::decode(&[0x00]).is_err());
        assert!(ProvisionReply::decode(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = request().encode();
        bytes.push(0);
        assert!(matches!(
            ProvisionRequest::decode(&bytes),
            Err(ProvisionError::BadFraming {
                what: "trailing bytes"
            })
        ));
    }
}
