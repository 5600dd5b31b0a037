//! SSDP-style local discovery.
//!
//! "In some solutions, service discovery protocols like Simple Service
//! Discovery Protocol (SSDP) are used to broadcast self-descriptions and
//! exchange information between the device and the app" (paper,
//! Section II-B). This module implements a line-oriented search/response
//! protocol in SSDP's image: the app multicasts an `M-SEARCH` with a search
//! target, matching devices unicast back a description including their
//! device ID.

use rb_wire::ids::DevId;

use crate::label::parse_dev_id;
use crate::ProvisionError;

/// What the searcher is looking for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SearchTarget {
    /// Any device (`ssdp:all`).
    All,
    /// Devices of one vendor (matched against the vendor field devices
    /// advertise).
    Vendor(String),
    /// One specific device by ID.
    Device(DevId),
}

/// The app's multicast search message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRequest {
    /// What to find.
    pub target: SearchTarget,
}

impl SearchRequest {
    /// Renders the request in SSDP-like text form.
    pub fn encode(&self) -> Vec<u8> {
        match &self.target {
            SearchTarget::All => "M-SEARCH * RB/1.0\r\nST: ssdp:all\r\n\r\n".to_owned(),
            SearchTarget::Vendor(v) => format!("M-SEARCH * RB/1.0\r\nST: vendor:{v}\r\n\r\n"),
            SearchTarget::Device(id) => format!("M-SEARCH * RB/1.0\r\nST: device:{id}\r\n\r\n"),
        }
        .into_bytes()
    }

    /// Parses a search request.
    ///
    /// # Errors
    ///
    /// Returns [`ProvisionError`] if the frame is not a well-formed search.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProvisionError> {
        let text = std::str::from_utf8(bytes).map_err(|_| ProvisionError::InvalidUtf8)?;
        let mut lines = text.split("\r\n");
        if lines.next() != Some("M-SEARCH * RB/1.0") {
            return Err(ProvisionError::BadFraming {
                what: "search start line",
            });
        }
        let st_line = lines.next().ok_or(ProvisionError::Incomplete)?;
        let st = st_line
            .strip_prefix("ST: ")
            .ok_or(ProvisionError::BadFraming {
                what: "missing ST header",
            })?;
        let target = if st == "ssdp:all" {
            SearchTarget::All
        } else if let Some(v) = st.strip_prefix("vendor:") {
            SearchTarget::Vendor(v.to_owned())
        } else if let Some(d) = st.strip_prefix("device:") {
            SearchTarget::Device(parse_dev_id(d)?)
        } else {
            return Err(ProvisionError::BadFraming {
                what: "unknown search target",
            });
        };
        Ok(SearchRequest { target })
    }

    /// Whether a device advertisement matches this search.
    pub fn matches(&self, vendor: &str, dev_id: &DevId) -> bool {
        match &self.target {
            SearchTarget::All => true,
            SearchTarget::Vendor(v) => v == vendor,
            SearchTarget::Device(d) => d == dev_id,
        }
    }
}

/// A device's unicast reply to a matching search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResponse {
    /// Vendor name.
    pub vendor: String,
    /// Model name.
    pub model: String,
    /// The device's ID — handed to the app for the subsequent cloud
    /// binding, which is why discovery traffic is one of the ID-leak
    /// channels the paper lists ("device IDs can be observed from the
    /// traffic").
    pub dev_id: DevId,
}

impl SearchResponse {
    /// Renders the response in SSDP-like text form.
    pub fn encode(&self) -> Vec<u8> {
        format!(
            "RB/1.0 200 OK\r\nVENDOR: {}\r\nMODEL: {}\r\nUSN: {}\r\n\r\n",
            self.vendor, self.model, self.dev_id
        )
        .into_bytes()
    }

    /// Parses a search response.
    ///
    /// # Errors
    ///
    /// Returns [`ProvisionError`] if the frame is not a well-formed
    /// response.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProvisionError> {
        let text = std::str::from_utf8(bytes).map_err(|_| ProvisionError::InvalidUtf8)?;
        let mut lines = text.split("\r\n");
        if lines.next() != Some("RB/1.0 200 OK") {
            return Err(ProvisionError::BadFraming {
                what: "response start line",
            });
        }
        let mut vendor = None;
        let mut model = None;
        let mut usn = None;
        for line in lines {
            if line.is_empty() {
                break;
            }
            if let Some(v) = line.strip_prefix("VENDOR: ") {
                vendor = Some(v.to_owned());
            } else if let Some(m) = line.strip_prefix("MODEL: ") {
                model = Some(m.to_owned());
            } else if let Some(u) = line.strip_prefix("USN: ") {
                usn = Some(parse_dev_id(u)?);
            }
        }
        Ok(SearchResponse {
            vendor: vendor.ok_or(ProvisionError::BadFraming {
                what: "missing VENDOR",
            })?,
            model: model.ok_or(ProvisionError::BadFraming {
                what: "missing MODEL",
            })?,
            dev_id: usn.ok_or(ProvisionError::BadFraming {
                what: "missing USN",
            })?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_wire::ids::MacAddr;

    fn dev_id() -> DevId {
        DevId::Mac(MacAddr::new([1, 2, 3, 4, 5, 6]))
    }

    #[test]
    fn search_roundtrip_all_variants() {
        for target in [
            SearchTarget::All,
            SearchTarget::Vendor("tp-link".into()),
            SearchTarget::Device(dev_id()),
        ] {
            let req = SearchRequest { target };
            assert_eq!(SearchRequest::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let rsp = SearchResponse {
            vendor: "belkin".into(),
            model: "WeMo".into(),
            dev_id: dev_id(),
        };
        assert_eq!(SearchResponse::decode(&rsp.encode()).unwrap(), rsp);
    }

    #[test]
    fn matching_logic() {
        let all = SearchRequest {
            target: SearchTarget::All,
        };
        let vendor = SearchRequest {
            target: SearchTarget::Vendor("belkin".into()),
        };
        let device = SearchRequest {
            target: SearchTarget::Device(dev_id()),
        };
        assert!(all.matches("anyone", &dev_id()));
        assert!(vendor.matches("belkin", &dev_id()));
        assert!(!vendor.matches("tp-link", &dev_id()));
        assert!(device.matches("anyone", &dev_id()));
        assert!(!device.matches("anyone", &DevId::Uuid(9)));
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(SearchRequest::decode(b"GET / HTTP/1.1\r\n\r\n").is_err());
        assert!(SearchRequest::decode(b"M-SEARCH * RB/1.0\r\nXX: y\r\n\r\n").is_err());
        assert!(SearchResponse::decode(b"RB/1.0 200 OK\r\nVENDOR: v\r\n\r\n").is_err());
        assert!(SearchResponse::decode(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn search_and_response_are_distinguishable() {
        let req = SearchRequest {
            target: SearchTarget::All,
        }
        .encode();
        let rsp = SearchResponse {
            vendor: "v".into(),
            model: "m".into(),
            dev_id: dev_id(),
        }
        .encode();
        assert!(SearchResponse::decode(&req).is_err());
        assert!(SearchRequest::decode(&rsp).is_err());
    }
}
