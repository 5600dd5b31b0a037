//! Request/response envelopes with correlation ids.
//!
//! The network simulator delivers opaque byte payloads; an [`Envelope`] adds
//! the correlation id that lets a party match a [`Response`] to the
//! [`Message`] it sent, and a direction discriminator so one byte stream can
//! carry both.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::codec::{encode_envelope, Frame};
use crate::error::WireError;
use crate::messages::{Message, Response};

/// Correlation id matching responses to requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CorrId(pub u64);

/// A framed request or response travelling over the simulated network.
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope {
    /// A party → cloud request.
    Request {
        /// Correlation id chosen by the sender.
        corr: CorrId,
        /// The request body.
        msg: Message,
    },
    /// A cloud → party response or unsolicited push.
    Response {
        /// Correlation id of the request being answered; pushes use
        /// `CorrId(0)`.
        corr: CorrId,
        /// The response body.
        rsp: Response,
    },
}

impl Envelope {
    /// Wraps a push (unsolicited response) with the conventional zero
    /// correlation id.
    pub fn push(rsp: Response) -> Self {
        Envelope::Response {
            corr: CorrId(0),
            rsp,
        }
    }

    /// Serializes the envelope (`WIRE-FORMAT.md` §1).
    pub fn encode(&self) -> Bytes {
        encode_envelope(self)
    }

    /// Deserializes an envelope: its header, then the body decoder of the
    /// kind the header names ([`Frame`]). String fields borrow `bytes`, so
    /// the caller hands over the shared packet buffer rather than a slice.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the frame is malformed.
    pub fn decode(bytes: &Bytes) -> Result<Self, WireError> {
        let frame = Frame::read(bytes)?;
        let corr = frame.corr;
        Ok(match frame.request {
            Some(_) => Envelope::Request {
                corr,
                msg: frame.message()?,
            },
            None => Envelope::Response {
                corr,
                rsp: frame.response()?,
            },
        })
    }

    /// Same as [`Envelope::encode`]; `format` selects nothing.
    pub fn encode_with(&self, _format: WireFormat) -> Bytes {
        self.encode()
    }

    /// Same as [`Envelope::decode`]; `format` selects nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the frame is malformed.
    pub fn decode_with(_format: WireFormat, bytes: &Bytes) -> Result<Self, WireError> {
        Self::decode(bytes)
    }
}

/// The one wire format, as a value. It has no variants and selects
/// nothing: it exists only so the benchmark package in `perfbench/`,
/// which names `World::codec`, [`Envelope::encode_with`] and
/// [`Envelope::decode_with`], still builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireFormat;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{DevId, MacAddr};
    use crate::messages::Message;

    fn dev_id() -> DevId {
        DevId::Mac(MacAddr::new([9, 8, 7, 6, 5, 4]))
    }

    #[test]
    fn request_roundtrip() {
        let env = Envelope::Request {
            corr: CorrId(77),
            msg: Message::QueryShadow { dev_id: dev_id() },
        };
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
    }

    #[test]
    fn response_roundtrip_and_push() {
        let env = Envelope::push(Response::BindingRevoked);
        assert_eq!(
            env,
            Envelope::Response {
                corr: CorrId(0),
                rsp: Response::BindingRevoked
            }
        );
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);

        let answered = Envelope::Response {
            corr: CorrId(3),
            rsp: Response::Unbound,
        };
        assert_eq!(Envelope::decode(&answered.encode()).unwrap(), answered);
    }

    #[test]
    fn wire_format_marker_changes_nothing() {
        let env = Envelope::Request {
            corr: CorrId(12),
            msg: Message::QueryShadow { dev_id: dev_id() },
        };
        let bytes = env.encode_with(WireFormat);
        assert_eq!(bytes, env.encode());
        assert_eq!(Envelope::decode_with(WireFormat, &bytes).unwrap(), env);
    }

    #[test]
    fn short_frames_fail_cleanly() {
        for len in 0..2 {
            let buf = Bytes::from(vec![0xC1; len]);
            assert!(Envelope::decode(&buf).is_err());
        }
    }

    #[test]
    fn unknown_direction_fails() {
        let buf = Bytes::from(vec![0x55, 0x00]);
        assert!(matches!(
            Envelope::decode(&buf),
            Err(WireError::UnknownTag {
                context: "Envelope direction",
                tag: 0x55
            })
        ));
    }
}
