//! The wire format: varint/TLV framing with a zero-copy decode path.
//!
//! The experiments forge messages at the byte level — the same vantage point
//! the paper's authors had with a MITM proxy, Postman, and raw OpenSSL
//! sockets — so the codec is a real serializer, not a facade over `serde`.
//! Every party in a simulated world speaks this one format (byte-level
//! layout in `WIRE-FORMAT.md` at the repository root):
//!
//! * **varints** — unsigned LEB128, canonical (overlong encodings are
//!   rejected), zigzag for signed values;
//! * **positional required fields** — fields a message cannot exist
//!   without are written back-to-back in a fixed order, with no per-field
//!   header;
//! * **TLV tail for defaultable fields** — options, booleans, strings
//!   with a default, and sequences follow as `field id (u8) · varint
//!   length · value` entries with strictly ascending ids; a field equal
//!   to its default (absent option, `false`, empty string/sequence) is
//!   omitted entirely, so the common heartbeat costs nothing for the
//!   fields it does not use;
//! * **zero-copy decode** — decoders take the arriving packet's [`Bytes`]
//!   and return string fields as [`crate::bytestr::ByteStr`] sub-slices of
//!   it: a refcount bump, not an allocation.
//!
//! All decoders reject trailing bytes, unknown tags, and out-of-range
//! lengths with precise [`WireError`]s, and never panic.
//!
//! ```rust
//! use rb_wire::envelope::{CorrId, Envelope};
//! use rb_wire::messages::Message;
//! use rb_wire::tokens::{UserId, UserPw};
//!
//! # fn main() -> Result<(), rb_wire::WireError> {
//! let env = Envelope::Request {
//!     corr: CorrId(1),
//!     msg: Message::Login {
//!         user_id: UserId::new("alice@example.com"),
//!         user_pw: UserPw::new("s3cret"),
//!     },
//! };
//! let packet = env.encode();
//! // Decoding borrows the packet: the user id above comes back as a
//! // sub-slice of `packet`, not a fresh allocation.
//! assert_eq!(Envelope::decode(&packet)?, env);
//! # Ok(())
//! # }
//! ```

use bytes::Bytes;

use crate::bytestr::ByteStr;
use crate::envelope::{CorrId, Envelope};
use crate::error::WireError;
use crate::ids::{DevId, MacAddr};
use crate::messages::{
    AutomationRule, BindPayload, ControlAction, DenyReason, DeviceAttributes, Message, MessageKind,
    Response, StatusAuth, StatusKind, StatusPayload, UnbindPayload,
};
use crate::telemetry::{RuleTrigger, ScheduleEntry, TelemetryFrame};
use crate::tokens::{BindToken, DevToken, SessionToken, UserId, UserPw, UserToken};

/// Maximum accepted string length on the wire.
pub(crate) const MAX_STR: usize = 1024;
/// Maximum accepted sequence length on the wire.
pub(crate) const MAX_SEQ: usize = 4096;

// ---------------------------------------------------------------------------
// Tag bytes: one per enum variant.
// ---------------------------------------------------------------------------

const DEVID_MAC: u8 = 0x01;
const DEVID_SERIAL: u8 = 0x02;
const DEVID_DIGITS: u8 = 0x03;
const DEVID_UUID: u8 = 0x04;

const AUTH_DEVTOKEN: u8 = 0x01;
const AUTH_DEVID: u8 = 0x02;
const AUTH_PUBKEY: u8 = 0x03;

const TEL_POWER: u8 = 0x01;
const TEL_TEMP: u8 = 0x02;
const TEL_SWITCH: u8 = 0x03;
const TEL_BRIGHT: u8 = 0x04;
const TEL_LOCK: u8 = 0x05;
const TEL_MOTION: u8 = 0x06;
const TEL_ALARM: u8 = 0x07;

const BIND_ACL_APP: u8 = 0x01;
const BIND_ACL_DEVICE: u8 = 0x02;
const BIND_CAPABILITY: u8 = 0x03;

const UNBIND_ID_TOKEN: u8 = 0x01;
const UNBIND_ID_ONLY: u8 = 0x02;

const ACT_ON: u8 = 0x01;
const ACT_OFF: u8 = 0x02;
const ACT_BRIGHT: u8 = 0x03;
const ACT_SET_SCHED: u8 = 0x04;
const ACT_QUERY_SCHED: u8 = 0x05;
const ACT_QUERY_TEL: u8 = 0x06;

const MSG_LOGIN: u8 = 0x10;
const MSG_REQ_DEVTOKEN: u8 = 0x11;
const MSG_REQ_BINDTOKEN: u8 = 0x12;
const MSG_STATUS: u8 = 0x13;
const MSG_BIND: u8 = 0x14;
const MSG_UNBIND: u8 = 0x15;
const MSG_CONTROL: u8 = 0x16;
const MSG_QUERY_SHADOW: u8 = 0x17;
const MSG_SHARE: u8 = 0x18;
const MSG_UNSHARE: u8 = 0x19;
const MSG_SET_RULE: u8 = 0x1a;

const TRG_TEMP_ABOVE: u8 = 0x01;
const TRG_TEMP_BELOW: u8 = 0x02;
const TRG_ALARM: u8 = 0x03;
const TRG_MOTION: u8 = 0x04;
const TRG_POWER: u8 = 0x05;

const RSP_LOGIN_OK: u8 = 0x20;
const RSP_DEVTOKEN: u8 = 0x21;
const RSP_BINDTOKEN: u8 = 0x22;
const RSP_STATUS_ACCEPTED: u8 = 0x23;
const RSP_BOUND: u8 = 0x24;
const RSP_UNBOUND: u8 = 0x25;
const RSP_CONTROL_OK: u8 = 0x26;
const RSP_SHADOW: u8 = 0x27;
const RSP_TEL_PUSH: u8 = 0x28;
const RSP_CTRL_PUSH: u8 = 0x29;
const RSP_REVOKED: u8 = 0x2a;
const RSP_DENIED: u8 = 0x2b;
const RSP_SHARE_OK: u8 = 0x2c;
const RSP_RULE_SET: u8 = 0x2d;

/// A deny reason's wire value: its discriminant.
fn deny_to_u8(d: DenyReason) -> u8 {
    d as u8
}

fn deny_from_u8(v: u8) -> Result<DenyReason, WireError> {
    Ok(match v {
        0 => DenyReason::BadCredentials,
        1 => DenyReason::InvalidUserToken,
        2 => DenyReason::DeviceAuthFailed,
        3 => DenyReason::AlreadyBound,
        4 => DenyReason::NotBoundUser,
        5 => DenyReason::NotBound,
        6 => DenyReason::InvalidBindToken,
        7 => DenyReason::BadSession,
        8 => DenyReason::OwnershipProofFailed,
        9 => DenyReason::DeviceOffline,
        10 => DenyReason::UnknownDevice,
        11 => DenyReason::UnsupportedOperation,
        12 => DenyReason::RateLimited,
        13 => DenyReason::UnknownUser,
        tag => return unknown("DenyReason", tag),
    })
}

/// Envelope direction byte: request.
const DIR_REQUEST: u8 = 0xC1;
/// Envelope direction byte: response.
const DIR_RESPONSE: u8 = 0xC2;

/// The error for a tag byte that selects no variant of `context`.
fn unknown<T>(context: &'static str, tag: u8) -> Result<T, WireError> {
    Err(WireError::UnknownTag { context, tag })
}

// ---------------------------------------------------------------------------
// Varints.
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(v: i32) -> u64 {
    u64::from(((v << 1) ^ (v >> 31)) as u32)
}

fn unzigzag(n: u64) -> i32 {
    let n = n as u32;
    ((n >> 1) as i32) ^ -((n & 1) as i32)
}

// ---------------------------------------------------------------------------
// The zero-copy reader: a cursor over a window of the packet's shared
// buffer. Sub-readers (a message body, one TLV value) are narrower windows
// over the same buffer, so walking a frame never touches its refcount; only
// a string field that becomes a `ByteStr` slices the buffer.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct CReader<'a> {
    /// The packet, for slicing string fields out of it.
    buf: &'a Bytes,
    /// The packet's bytes, dereferenced once.
    data: &'a [u8],
    pos: usize,
    end: usize,
}

impl<'a> CReader<'a> {
    #[inline]
    fn new(buf: &'a Bytes) -> Self {
        CReader {
            buf,
            data: buf,
            pos: 0,
            end: buf.len(),
        }
    }

    fn remaining(&self) -> usize {
        self.end - self.pos
    }

    #[inline]
    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        if self.pos == self.end {
            return Err(WireError::Truncated { context });
        }
        let b = self.data[self.pos];
        self.pos += 1;
        Ok(b)
    }

    fn bool(&mut self, context: &'static str) -> Result<bool, WireError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => unknown(context, tag),
        }
    }

    /// Canonical LEB128: overlong encodings (a multi-byte encoding whose
    /// final group is zero, or one overflowing 64 bits) are rejected.
    #[inline]
    fn varint(&mut self, context: &'static str) -> Result<u64, WireError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        let mut len = 0u32;
        loop {
            let b = self.u8(context)?;
            len += 1;
            let group = u64::from(b & 0x7f);
            if shift == 63 && group > 1 {
                return Err(WireError::ValueOutOfRange { context });
            }
            value |= group << shift;
            if b & 0x80 == 0 {
                if len > 1 && group == 0 {
                    return Err(WireError::ValueOutOfRange { context });
                }
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::ValueOutOfRange { context });
            }
        }
    }

    fn varint_max(&mut self, context: &'static str, max: u64) -> Result<u64, WireError> {
        let v = self.varint(context)?;
        if v > max {
            return Err(WireError::ValueOutOfRange { context });
        }
        Ok(v)
    }

    fn zigzag_i32(&mut self, context: &'static str) -> Result<i32, WireError> {
        Ok(unzigzag(self.varint_max(context, u64::from(u32::MAX))?))
    }

    #[inline]
    fn bytes16(&mut self, context: &'static str) -> Result<[u8; 16], WireError> {
        if self.remaining() < 16 {
            return Err(WireError::Truncated { context });
        }
        let mut out = [0u8; 16];
        out.copy_from_slice(&self.data[self.pos..self.pos + 16]);
        self.pos += 16;
        Ok(out)
    }

    /// Steps over the next `len` bytes, returning a reader bounded to them.
    fn sub(&mut self, len: usize, context: &'static str) -> Result<CReader<'a>, WireError> {
        if self.remaining() < len {
            return Err(WireError::Truncated { context });
        }
        let start = self.pos;
        self.pos += len;
        Ok(CReader {
            buf: self.buf,
            data: self.data,
            pos: start,
            end: self.pos,
        })
    }

    /// The rest of the window as a reader of its own; this one ends spent.
    fn rest(&mut self) -> CReader<'a> {
        let start = self.pos;
        self.pos = self.end;
        CReader {
            pos: start,
            ..*self
        }
    }

    /// The rest of the window as a UTF-8 string borrowed from the packet
    /// buffer — a refcount bump.
    fn rest_str(self, context: &'static str) -> Result<ByteStr, WireError> {
        ByteStr::from_utf8(self.buf.slice(self.pos..self.end))
            .map_err(|_| WireError::InvalidUtf8 { context })
    }

    /// A length-prefixed UTF-8 string, borrowed from the packet buffer.
    fn string(&mut self, context: &'static str) -> Result<ByteStr, WireError> {
        let len = self.varint(context)?;
        if len > MAX_STR as u64 {
            return Err(WireError::LengthOutOfRange {
                context,
                len: usize::try_from(len).unwrap_or(usize::MAX),
                max: MAX_STR,
            });
        }
        self.sub(len as usize, context)?.rest_str(context)
    }

    #[inline]
    fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// TLV tails.
// ---------------------------------------------------------------------------

/// Streaming TLV cursor over a message's defaultable tail: fields must
/// appear in strictly ascending id order, so decoding is a single forward
/// pass with one header of lookahead and no per-message bookkeeping
/// allocation.
struct Fields<'a> {
    r: CReader<'a>,
    pending: Option<(u8, CReader<'a>)>,
    last_id: u16,
    context: &'static str,
}

impl<'a> Fields<'a> {
    fn new(r: CReader<'a>, context: &'static str) -> Result<Self, WireError> {
        let mut fields = Fields {
            r,
            pending: None,
            last_id: 0,
            context,
        };
        fields.advance()?;
        Ok(fields)
    }

    fn advance(&mut self) -> Result<(), WireError> {
        if self.r.remaining() == 0 {
            self.pending = None;
            return Ok(());
        }
        let id = self.r.u8("TLV field id")?;
        if u16::from(id) <= self.last_id {
            return Err(WireError::ValueOutOfRange {
                context: "TLV field id order",
            });
        }
        self.last_id = u16::from(id);
        let len = self.r.varint("TLV field length")?;
        let len = usize::try_from(len).map_err(|_| WireError::LengthOutOfRange {
            context: "TLV field length",
            len: usize::MAX,
            max: MAX_STR.max(MAX_SEQ),
        })?;
        let value = self.r.sub(len, "TLV field value")?;
        self.pending = Some((id, value));
        Ok(())
    }

    /// The next field if it carries `id`, parsed by `parse`, which must
    /// consume its value fully; `None` if it is absent.
    fn get<T>(
        &mut self,
        id: u8,
        parse: impl FnOnce(&mut CReader<'a>) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        match self.pending {
            Some((pending, v)) if pending == id => {
                self.advance()?;
                value(v, parse).map(Some)
            }
            _ => Ok(None),
        }
    }

    /// All expected fields have been taken; anything left is unknown.
    fn finish(self) -> Result<(), WireError> {
        match self.pending {
            None => Ok(()),
            Some((id, _)) => unknown(self.context, id),
        }
    }
}

/// Parses one tail-field value, which `parse` must consume fully.
fn value<'a, T>(
    mut r: CReader<'a>,
    parse: impl FnOnce(&mut CReader<'a>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let v = parse(&mut r)?;
    r.expect_end()?;
    Ok(v)
}

/// A whole-value UTF-8 string, borrowed from the packet buffer.
fn str_value(r: CReader<'_>, context: &'static str) -> Result<ByteStr, WireError> {
    if r.remaining() > MAX_STR {
        return Err(WireError::LengthOutOfRange {
            context,
            len: r.remaining(),
            max: MAX_STR,
        });
    }
    r.rest_str(context)
}

fn telemetry(r: &mut CReader<'_>) -> Result<Vec<TelemetryFrame>, WireError> {
    get_seq(r, "telemetry", get_telemetry)
}

fn session(r: &mut CReader<'_>) -> Result<SessionToken, WireError> {
    Ok(SessionToken::from_bytes(r.bytes16("SessionToken")?))
}

/// A tail whose one field is a session token (id 1).
fn session_tail(
    r: &mut CReader<'_>,
    context: &'static str,
) -> Result<Option<SessionToken>, WireError> {
    let mut f = Fields::new(r.rest(), context)?;
    let session = f.get(1, session)?;
    f.finish()?;
    Ok(session)
}

#[inline]
fn user_token(r: &mut CReader<'_>) -> Result<UserToken, WireError> {
    Ok(UserToken::from_bytes(r.bytes16("UserToken")?))
}

// ---------------------------------------------------------------------------
// The writer.
// ---------------------------------------------------------------------------

/// Encoder state: the output buffer, the only allocation an encode
/// performs.
struct W {
    out: Vec<u8>,
}

impl W {
    fn with_capacity(cap: usize) -> Self {
        W {
            out: Vec::with_capacity(cap),
        }
    }

    /// A TLV field whose value `write` appends in place. The length prefix
    /// is reserved as one byte, which fits every value shorter than 128
    /// bytes, and widened after the fact for a longer one.
    fn field_with(&mut self, id: u8, write: impl FnOnce(&mut Vec<u8>)) {
        self.out.push(id);
        let at = self.out.len();
        self.out.push(0);
        write(&mut self.out);
        let len = self.out.len() - at - 1;
        if len < 0x80 {
            self.out[at] = len as u8;
        } else {
            let value = self.out.split_off(at + 1);
            self.out.truncate(at);
            put_varint(&mut self.out, len as u64);
            self.out.extend_from_slice(&value);
        }
    }

    fn field_bytes(&mut self, id: u8, bytes: &[u8]) {
        self.out.push(id);
        put_varint(&mut self.out, bytes.len() as u64);
        self.out.extend_from_slice(bytes);
    }

    /// Empty strings are omitted (decode restores the default).
    fn field_str(&mut self, id: u8, bytes: &[u8]) {
        if !bytes.is_empty() {
            self.field_bytes(id, &bytes[..bytes.len().min(MAX_STR)]);
        }
    }

    /// `false` is omitted (decode restores the default).
    fn field_bool(&mut self, id: u8, v: bool) {
        if v {
            self.field_bytes(id, &[1]);
        }
    }

    fn field_session(&mut self, id: u8, session: &Option<SessionToken>) {
        if let Some(t) = session {
            self.field_bytes(id, t.as_bytes());
        }
    }
}

/// A length-prefixed string, from the bytes of a [`ByteStr`]-backed value
/// (read without re-validating them as UTF-8).
fn put_string(out: &mut Vec<u8>, s: &[u8]) {
    let bytes = &s[..s.len().min(MAX_STR)];
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

// ---------------------------------------------------------------------------
// Positional sub-encodings.
// ---------------------------------------------------------------------------

fn put_dev_id(out: &mut Vec<u8>, id: &DevId) {
    match id {
        DevId::Mac(mac) => {
            out.push(DEVID_MAC);
            out.extend_from_slice(&mac.octets());
        }
        DevId::Serial { vendor, seq } => {
            out.push(DEVID_SERIAL);
            put_varint(out, u64::from(*vendor));
            put_varint(out, *seq);
        }
        DevId::Digits { value, width } => {
            out.push(DEVID_DIGITS);
            put_varint(out, u64::from(*value));
            out.push(*width);
        }
        DevId::Uuid(u) => {
            out.push(DEVID_UUID);
            out.extend_from_slice(&u.to_be_bytes());
        }
    }
}

#[inline]
fn get_dev_id(r: &mut CReader<'_>) -> Result<DevId, WireError> {
    match r.u8("DevId tag")? {
        DEVID_MAC => {
            let mut octets = [0u8; 6];
            for b in &mut octets {
                *b = r.u8("DevId::Mac")?;
            }
            Ok(DevId::Mac(MacAddr::new(octets)))
        }
        DEVID_SERIAL => Ok(DevId::Serial {
            vendor: r.varint_max("DevId::Serial vendor", u64::from(u16::MAX))? as u16,
            seq: r.varint("DevId::Serial seq")?,
        }),
        DEVID_DIGITS => {
            let id = DevId::Digits {
                value: r.varint_max("DevId::Digits value", u64::from(u32::MAX))? as u32,
                width: r.u8("DevId::Digits width")?,
            };
            id.validate()?;
            Ok(id)
        }
        DEVID_UUID => Ok(DevId::Uuid(u128::from_be_bytes(r.bytes16("DevId::Uuid")?))),
        tag => unknown("DevId", tag),
    }
}

fn put_status_auth(out: &mut Vec<u8>, auth: &StatusAuth) {
    match auth {
        StatusAuth::DevToken(t) => {
            out.push(AUTH_DEVTOKEN);
            out.extend_from_slice(t.as_bytes());
        }
        StatusAuth::DevId(id) => {
            out.push(AUTH_DEVID);
            put_dev_id(out, id);
        }
        StatusAuth::PublicKey { key_id, signature } => {
            out.push(AUTH_PUBKEY);
            put_varint(out, *key_id);
            out.extend_from_slice(&signature.to_be_bytes());
        }
    }
}

fn get_status_auth(r: &mut CReader<'_>) -> Result<StatusAuth, WireError> {
    match r.u8("StatusAuth tag")? {
        AUTH_DEVTOKEN => Ok(StatusAuth::DevToken(DevToken::from_bytes(
            r.bytes16("DevToken")?,
        ))),
        AUTH_DEVID => Ok(StatusAuth::DevId(get_dev_id(r)?)),
        AUTH_PUBKEY => Ok(StatusAuth::PublicKey {
            key_id: r.varint("PublicKey key_id")?,
            signature: u128::from_be_bytes(r.bytes16("PublicKey signature")?),
        }),
        tag => unknown("StatusAuth", tag),
    }
}

fn put_telemetry(out: &mut Vec<u8>, t: &TelemetryFrame) {
    match t {
        TelemetryFrame::PowerMilliwatts(mw) => {
            out.push(TEL_POWER);
            put_varint(out, *mw);
        }
        TelemetryFrame::TemperatureMilliC(c) => {
            out.push(TEL_TEMP);
            put_varint(out, zigzag(*c));
        }
        TelemetryFrame::SwitchState { on } => {
            out.push(TEL_SWITCH);
            out.push(u8::from(*on));
        }
        TelemetryFrame::Brightness(b) => {
            out.push(TEL_BRIGHT);
            out.push(*b);
        }
        TelemetryFrame::LockEvent { locked, at_tick } => {
            out.push(TEL_LOCK);
            out.push(u8::from(*locked));
            put_varint(out, *at_tick);
        }
        TelemetryFrame::Motion { confidence } => {
            out.push(TEL_MOTION);
            out.push(*confidence);
        }
        TelemetryFrame::Alarm { triggered } => {
            out.push(TEL_ALARM);
            out.push(u8::from(*triggered));
        }
    }
}

fn get_telemetry(r: &mut CReader<'_>) -> Result<TelemetryFrame, WireError> {
    match r.u8("TelemetryFrame tag")? {
        TEL_POWER => Ok(TelemetryFrame::PowerMilliwatts(r.varint("Power")?)),
        TEL_TEMP => Ok(TelemetryFrame::TemperatureMilliC(
            r.zigzag_i32("Temperature")?,
        )),
        TEL_SWITCH => Ok(TelemetryFrame::SwitchState {
            on: r.bool("SwitchState")?,
        }),
        TEL_BRIGHT => Ok(TelemetryFrame::Brightness(r.u8("Brightness")?)),
        TEL_LOCK => Ok(TelemetryFrame::LockEvent {
            locked: r.bool("LockEvent locked")?,
            at_tick: r.varint("LockEvent at_tick")?,
        }),
        TEL_MOTION => Ok(TelemetryFrame::Motion {
            confidence: r.u8("Motion")?,
        }),
        TEL_ALARM => Ok(TelemetryFrame::Alarm {
            triggered: r.bool("Alarm")?,
        }),
        tag => unknown("TelemetryFrame", tag),
    }
}

/// A sequence: a varint count, then each item. The count is capped at
/// [`MAX_SEQ`]: items past it are not written.
fn put_seq<T>(out: &mut Vec<u8>, items: &[T], put: impl Fn(&mut Vec<u8>, &T)) {
    put_varint(out, items.len().min(MAX_SEQ) as u64);
    for item in items.iter().take(MAX_SEQ) {
        put(out, item);
    }
}

fn put_telemetry_vec(out: &mut Vec<u8>, tel: &[TelemetryFrame]) {
    put_seq(out, tel, put_telemetry);
}

fn get_seq<'a, T>(
    r: &mut CReader<'a>,
    context: &'static str,
    get: impl Fn(&mut CReader<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = r.varint_max(context, MAX_SEQ as u64)? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(get(r)?);
    }
    Ok(out)
}

fn put_schedule_entry(out: &mut Vec<u8>, e: &ScheduleEntry) {
    put_varint(out, e.at_tick);
    out.push(u8::from(e.turn_on));
}

fn get_schedule_entry(r: &mut CReader<'_>) -> Result<ScheduleEntry, WireError> {
    Ok(ScheduleEntry {
        at_tick: r.varint("ScheduleEntry at_tick")?,
        turn_on: r.bool("ScheduleEntry turn_on")?,
    })
}

fn put_action(out: &mut Vec<u8>, a: &ControlAction) {
    match a {
        ControlAction::TurnOn => out.push(ACT_ON),
        ControlAction::TurnOff => out.push(ACT_OFF),
        ControlAction::SetBrightness(b) => {
            out.push(ACT_BRIGHT);
            out.push(*b);
        }
        ControlAction::SetSchedule(e) => {
            out.push(ACT_SET_SCHED);
            put_schedule_entry(out, e);
        }
        ControlAction::QuerySchedule => out.push(ACT_QUERY_SCHED),
        ControlAction::QueryTelemetry => out.push(ACT_QUERY_TEL),
    }
}

fn get_action(r: &mut CReader<'_>) -> Result<ControlAction, WireError> {
    match r.u8("ControlAction tag")? {
        ACT_ON => Ok(ControlAction::TurnOn),
        ACT_OFF => Ok(ControlAction::TurnOff),
        ACT_BRIGHT => Ok(ControlAction::SetBrightness(r.u8("Brightness")?)),
        ACT_SET_SCHED => Ok(ControlAction::SetSchedule(get_schedule_entry(r)?)),
        ACT_QUERY_SCHED => Ok(ControlAction::QuerySchedule),
        ACT_QUERY_TEL => Ok(ControlAction::QueryTelemetry),
        tag => unknown("ControlAction", tag),
    }
}

fn put_trigger(out: &mut Vec<u8>, t: &RuleTrigger) {
    match t {
        RuleTrigger::TemperatureAbove(v) => {
            out.push(TRG_TEMP_ABOVE);
            put_varint(out, zigzag(*v));
        }
        RuleTrigger::TemperatureBelow(v) => {
            out.push(TRG_TEMP_BELOW);
            put_varint(out, zigzag(*v));
        }
        RuleTrigger::AlarmTriggered => out.push(TRG_ALARM),
        RuleTrigger::MotionAtLeast(c) => {
            out.push(TRG_MOTION);
            out.push(*c);
        }
        RuleTrigger::PowerAbove(p) => {
            out.push(TRG_POWER);
            put_varint(out, *p);
        }
    }
}

fn get_trigger(r: &mut CReader<'_>) -> Result<RuleTrigger, WireError> {
    match r.u8("RuleTrigger tag")? {
        TRG_TEMP_ABOVE => Ok(RuleTrigger::TemperatureAbove(
            r.zigzag_i32("TemperatureAbove")?,
        )),
        TRG_TEMP_BELOW => Ok(RuleTrigger::TemperatureBelow(
            r.zigzag_i32("TemperatureBelow")?,
        )),
        TRG_ALARM => Ok(RuleTrigger::AlarmTriggered),
        TRG_MOTION => Ok(RuleTrigger::MotionAtLeast(r.u8("MotionAtLeast")?)),
        TRG_POWER => Ok(RuleTrigger::PowerAbove(r.varint("PowerAbove")?)),
        tag => unknown("RuleTrigger", tag),
    }
}

// ---------------------------------------------------------------------------
// Encoders: message, response and envelope.
// ---------------------------------------------------------------------------

fn encode_message_into(w: &mut W, msg: &Message) {
    match msg {
        Message::Login { user_id, user_pw } => {
            w.out.push(MSG_LOGIN);
            put_string(&mut w.out, user_id.as_bytes());
            put_string(&mut w.out, user_pw.as_bytes());
        }
        Message::RequestDevToken { user_token } | Message::RequestBindToken { user_token } => {
            let dev = matches!(msg, Message::RequestDevToken { .. });
            w.out.push(if dev {
                MSG_REQ_DEVTOKEN
            } else {
                MSG_REQ_BINDTOKEN
            });
            w.out.extend_from_slice(user_token.as_bytes());
        }
        Message::Status(s) => {
            w.out.push(MSG_STATUS);
            put_status_auth(&mut w.out, &s.auth);
            put_dev_id(&mut w.out, &s.dev_id);
            w.out.push(match s.kind {
                StatusKind::Register => 0,
                StatusKind::Heartbeat => 1,
            });
            w.field_str(1, s.attributes.model.as_bytes());
            w.field_str(2, s.attributes.firmware.as_bytes());
            w.field_session(3, &s.session);
            if !s.telemetry.is_empty() {
                w.field_with(4, |o| put_telemetry_vec(o, &s.telemetry));
            }
            w.field_bool(5, s.button_pressed);
        }
        Message::Bind(b) => {
            w.out.push(MSG_BIND);
            match b {
                BindPayload::AclApp { dev_id, user_token } => {
                    w.out.push(BIND_ACL_APP);
                    put_dev_id(&mut w.out, dev_id);
                    w.out.extend_from_slice(user_token.as_bytes());
                }
                BindPayload::AclDevice {
                    dev_id,
                    user_id,
                    user_pw,
                } => {
                    w.out.push(BIND_ACL_DEVICE);
                    put_dev_id(&mut w.out, dev_id);
                    put_string(&mut w.out, user_id.as_bytes());
                    put_string(&mut w.out, user_pw.as_bytes());
                }
                BindPayload::Capability { bind_token } => {
                    w.out.push(BIND_CAPABILITY);
                    w.out.extend_from_slice(bind_token.as_bytes());
                }
            }
        }
        Message::Unbind(u) => {
            w.out.push(MSG_UNBIND);
            match u {
                UnbindPayload::DevIdUserToken { dev_id, user_token } => {
                    w.out.push(UNBIND_ID_TOKEN);
                    put_dev_id(&mut w.out, dev_id);
                    w.out.extend_from_slice(user_token.as_bytes());
                }
                UnbindPayload::DevIdOnly { dev_id } => {
                    w.out.push(UNBIND_ID_ONLY);
                    put_dev_id(&mut w.out, dev_id);
                }
            }
        }
        Message::Control {
            dev_id,
            user_token,
            session,
            action,
        } => {
            w.out.push(MSG_CONTROL);
            put_dev_id(&mut w.out, dev_id);
            w.out.extend_from_slice(user_token.as_bytes());
            put_action(&mut w.out, action);
            w.field_session(1, session);
        }
        Message::QueryShadow { dev_id } => {
            w.out.push(MSG_QUERY_SHADOW);
            put_dev_id(&mut w.out, dev_id);
        }
        Message::Share {
            dev_id,
            user_token,
            grantee,
        }
        | Message::Unshare {
            dev_id,
            user_token,
            grantee,
        } => {
            let share = matches!(msg, Message::Share { .. });
            w.out.push(if share { MSG_SHARE } else { MSG_UNSHARE });
            put_dev_id(&mut w.out, dev_id);
            w.out.extend_from_slice(user_token.as_bytes());
            put_string(&mut w.out, grantee.as_bytes());
        }
        Message::SetRule { user_token, rule } => {
            w.out.push(MSG_SET_RULE);
            w.out.extend_from_slice(user_token.as_bytes());
            put_dev_id(&mut w.out, &rule.trigger_dev);
            put_trigger(&mut w.out, &rule.trigger);
            put_dev_id(&mut w.out, &rule.action_dev);
            put_action(&mut w.out, &rule.action);
        }
    }
}

/// Encodes a [`Message`] to bytes.
pub fn encode_message(msg: &Message) -> Bytes {
    let mut w = W::with_capacity(64);
    encode_message_into(&mut w, msg);
    Bytes::from(w.out)
}

fn encode_response_into(w: &mut W, rsp: &Response) {
    match rsp {
        Response::LoginOk { user_token } => {
            w.out.push(RSP_LOGIN_OK);
            w.out.extend_from_slice(user_token.as_bytes());
        }
        Response::DevTokenIssued { dev_token } => {
            w.out.push(RSP_DEVTOKEN);
            w.out.extend_from_slice(dev_token.as_bytes());
        }
        Response::BindTokenIssued { bind_token } => {
            w.out.push(RSP_BINDTOKEN);
            w.out.extend_from_slice(bind_token.as_bytes());
        }
        Response::StatusAccepted { session } | Response::Bound { session } => {
            let bound = matches!(rsp, Response::Bound { .. });
            w.out.push(if bound {
                RSP_BOUND
            } else {
                RSP_STATUS_ACCEPTED
            });
            w.field_session(1, session);
        }
        Response::Unbound => w.out.push(RSP_UNBOUND),
        Response::ControlOk {
            schedule,
            telemetry,
        } => {
            w.out.push(RSP_CONTROL_OK);
            if !schedule.is_empty() {
                w.field_with(1, |o| put_seq(o, schedule, put_schedule_entry));
            }
            if !telemetry.is_empty() {
                w.field_with(2, |o| put_telemetry_vec(o, telemetry));
            }
        }
        Response::ShadowState { online, bound } => {
            w.out.push(RSP_SHADOW);
            w.field_bool(1, *online);
            w.field_bool(2, *bound);
        }
        Response::TelemetryPush { dev_id, telemetry } => {
            w.out.push(RSP_TEL_PUSH);
            put_dev_id(&mut w.out, dev_id);
            if !telemetry.is_empty() {
                w.field_with(1, |o| put_telemetry_vec(o, telemetry));
            }
        }
        Response::ControlPush { action, session } => {
            w.out.push(RSP_CTRL_PUSH);
            put_action(&mut w.out, action);
            w.field_session(1, session);
        }
        Response::BindingRevoked => w.out.push(RSP_REVOKED),
        Response::RuleSet { count } => {
            w.out.push(RSP_RULE_SET);
            put_varint(&mut w.out, u64::from(*count));
        }
        Response::ShareOk { session, guests } => {
            w.out.push(RSP_SHARE_OK);
            put_varint(&mut w.out, u64::from(*guests));
            w.field_session(1, session);
        }
        Response::Denied { reason } => {
            w.out.push(RSP_DENIED);
            w.out.push(deny_to_u8(*reason));
        }
    }
}

/// Encodes a [`Response`] to bytes.
pub fn encode_response(rsp: &Response) -> Bytes {
    let mut w = W::with_capacity(32);
    encode_response_into(&mut w, rsp);
    Bytes::from(w.out)
}

/// Encodes an [`Envelope`]: direction byte, varint correlation id, body.
pub(crate) fn encode_envelope(env: &Envelope) -> Bytes {
    let mut w;
    match env {
        Envelope::Request { corr, msg } => {
            // A token-authenticated heartbeat with a session and telemetry
            // runs past 72 bytes; sized for it, a request never regrows.
            w = W::with_capacity(128);
            w.out.push(DIR_REQUEST);
            put_varint(&mut w.out, corr.0);
            encode_message_into(&mut w, msg);
        }
        Envelope::Response { corr, rsp } => {
            w = W::with_capacity(72);
            w.out.push(DIR_RESPONSE);
            put_varint(&mut w.out, corr.0);
            encode_response_into(&mut w, rsp);
        }
    }
    Bytes::from(w.out)
}

// ---------------------------------------------------------------------------
// Decoders, header first: the header, then the body decoder of its kind.
// ---------------------------------------------------------------------------

/// Decodes a [`Message`]; string fields borrow `bytes`.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, unknown tags, invalid UTF-8,
/// out-of-range values, or trailing bytes.
pub fn decode_message(bytes: &Bytes) -> Result<Message, WireError> {
    Frame::body(CReader::new(bytes), CorrId(0), true)?.message()
}

/// Decodes a [`Response`]; string fields borrow `bytes`.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, unknown tags, invalid UTF-8,
/// out-of-range values, or trailing bytes.
pub fn decode_response(bytes: &Bytes) -> Result<Response, WireError> {
    Frame::body(CReader::new(bytes), CorrId(0), false)?.response()
}

/// An envelope read up to its body: the correlation id and the body's
/// kind, with the body unread in its window over the packet. Each kind's
/// body decoder checks all [`Envelope::decode`] checks, which is
/// [`Frame::read`] plus the decoder of the kind the header names. The
/// header read, the hot decoders and the readers under them are
/// `#[inline]`: a caller in another crate inlines them without LTO.
pub struct Frame<'a> {
    /// The correlation id.
    pub corr: CorrId,
    /// The request's kind; `None` for a response or push, whose kind
    /// [`Frame::response`] reads.
    pub request: Option<MessageKind>,
    /// The body's tag byte.
    tag: u8,
    /// The body after its tag.
    body: CReader<'a>,
}

impl<'a> Frame<'a> {
    /// Reads an envelope's header: direction byte, varint correlation id
    /// and the body's tag, which on a request must name a [`MessageKind`].
    /// Fails with the [`WireError`] [`Envelope::decode`] gives the header.
    #[inline]
    pub fn read(bytes: &'a Bytes) -> Result<Self, WireError> {
        let mut r = CReader::new(bytes);
        let dir = r.u8("Envelope header")?;
        let corr = CorrId(r.varint("Envelope corr")?);
        match dir {
            DIR_REQUEST | DIR_RESPONSE => Frame::body(r, corr, dir == DIR_REQUEST),
            tag => unknown("Envelope direction", tag),
        }
    }

    /// Reads a body's tag.
    #[inline]
    fn body(mut body: CReader<'a>, corr: CorrId, request: bool) -> Result<Self, WireError> {
        let context = if request {
            "Message tag"
        } else {
            "Response tag"
        };
        let tag = body.u8(context)?;
        let kind = match tag {
            _ if !request => None,
            MSG_LOGIN => Some(MessageKind::Login),
            MSG_REQ_DEVTOKEN => Some(MessageKind::RequestDevToken),
            MSG_REQ_BINDTOKEN => Some(MessageKind::RequestBindToken),
            MSG_STATUS => Some(MessageKind::Status),
            MSG_BIND => Some(MessageKind::Bind),
            MSG_UNBIND => Some(MessageKind::Unbind),
            MSG_CONTROL => Some(MessageKind::Control),
            MSG_QUERY_SHADOW => Some(MessageKind::QueryShadow),
            MSG_SHARE => Some(MessageKind::Share),
            MSG_UNSHARE => Some(MessageKind::Unshare),
            MSG_SET_RULE => Some(MessageKind::SetRule),
            tag => return unknown("Message", tag),
        };
        Ok(Frame {
            corr,
            request: kind,
            tag,
            body,
        })
    }

    /// A request body as a [`Message`], through its kind's decoder.
    pub(crate) fn message(self) -> Result<Message, WireError> {
        let Some(kind) = self.request else {
            return unknown("Message", self.tag);
        };
        Ok(match kind {
            MessageKind::Login => {
                let (user_id, user_pw) = self.login()?;
                Message::Login { user_id, user_pw }
            }
            MessageKind::RequestDevToken => Message::RequestDevToken {
                user_token: self.user_token()?,
            },
            MessageKind::RequestBindToken => Message::RequestBindToken {
                user_token: self.user_token()?,
            },
            MessageKind::Status => Message::Status(self.status()?),
            MessageKind::Bind => Message::Bind(self.bind()?),
            MessageKind::Unbind => Message::Unbind(self.unbind()?),
            MessageKind::Control => {
                let (dev_id, user_token, action, session) = self.control()?;
                Message::Control {
                    dev_id,
                    user_token,
                    session,
                    action,
                }
            }
            MessageKind::QueryShadow => Message::QueryShadow {
                dev_id: self.dev_id()?,
            },
            MessageKind::Share => {
                let (dev_id, user_token, grantee) = self.share()?;
                Message::Share {
                    dev_id,
                    user_token,
                    grantee,
                }
            }
            MessageKind::Unshare => {
                let (dev_id, user_token, grantee) = self.share()?;
                Message::Unshare {
                    dev_id,
                    user_token,
                    grantee,
                }
            }
            MessageKind::SetRule => {
                let (user_token, rule) = self.set_rule()?;
                Message::SetRule { user_token, rule }
            }
        })
    }

    /// A `Login` body: the account's id and password.
    pub fn login(self) -> Result<(UserId, UserPw), WireError> {
        value(self.body, |r| {
            let user_id = UserId::from_bytestr(r.string("UserId")?);
            Ok((user_id, UserPw::from_bytestr(r.string("UserPw")?)))
        })
    }

    /// A `RequestDevToken` or `RequestBindToken` body.
    pub fn user_token(self) -> Result<UserToken, WireError> {
        value(self.body, user_token)
    }

    /// A `Status` body.
    #[inline]
    pub fn status(self) -> Result<StatusPayload, WireError> {
        value(self.body, |r| {
            let auth = get_status_auth(r)?;
            let dev_id = get_dev_id(r)?;
            let kind = match r.u8("StatusKind")? {
                0 => StatusKind::Register,
                1 => StatusKind::Heartbeat,
                tag => return unknown("StatusKind", tag),
            };
            let mut f = Fields::new(r.rest(), "Status fields")?;
            let model = f.get(1, |r| str_value(r.rest(), "attributes.model"))?;
            let firmware = f.get(2, |r| str_value(r.rest(), "attributes.firmware"))?;
            let session = f.get(3, session)?;
            let telemetry = f.get(4, telemetry)?.unwrap_or_default();
            let button_pressed = f.get(5, |r| r.bool("button_pressed"))?.unwrap_or(false);
            f.finish()?;
            let attributes = DeviceAttributes {
                model: model.unwrap_or_default(),
                firmware: firmware.unwrap_or_default(),
            };
            Ok(StatusPayload {
                auth,
                dev_id,
                kind,
                attributes,
                session,
                telemetry,
                button_pressed,
            })
        })
    }

    /// A `Bind` body.
    #[inline]
    pub fn bind(self) -> Result<BindPayload, WireError> {
        value(self.body, |r| match r.u8("BindPayload tag")? {
            BIND_ACL_APP => Ok(BindPayload::AclApp {
                dev_id: get_dev_id(r)?,
                user_token: user_token(r)?,
            }),
            BIND_ACL_DEVICE => Ok(BindPayload::AclDevice {
                dev_id: get_dev_id(r)?,
                user_id: UserId::from_bytestr(r.string("UserId")?),
                user_pw: UserPw::from_bytestr(r.string("UserPw")?),
            }),
            BIND_CAPABILITY => Ok(BindPayload::Capability {
                bind_token: BindToken::from_bytes(r.bytes16("BindToken")?),
            }),
            tag => unknown("BindPayload", tag),
        })
    }

    /// An `Unbind` body.
    pub fn unbind(self) -> Result<UnbindPayload, WireError> {
        value(self.body, |r| match r.u8("UnbindPayload tag")? {
            UNBIND_ID_TOKEN => Ok(UnbindPayload::DevIdUserToken {
                dev_id: get_dev_id(r)?,
                user_token: user_token(r)?,
            }),
            UNBIND_ID_ONLY => Ok(UnbindPayload::DevIdOnly {
                dev_id: get_dev_id(r)?,
            }),
            tag => unknown("UnbindPayload", tag),
        })
    }

    /// A `Control` body: device, user token, action and session.
    pub fn control(
        self,
    ) -> Result<(DevId, UserToken, ControlAction, Option<SessionToken>), WireError> {
        value(self.body, |r| {
            let dev_id = get_dev_id(r)?;
            let user_token = user_token(r)?;
            let action = get_action(r)?;
            Ok((
                dev_id,
                user_token,
                action,
                session_tail(r, "Control fields")?,
            ))
        })
    }

    /// A `QueryShadow` body: the device asked about.
    pub fn dev_id(self) -> Result<DevId, WireError> {
        value(self.body, get_dev_id)
    }

    /// A `Share` or `Unshare` body: device, owner's token and grantee.
    pub fn share(self) -> Result<(DevId, UserToken, UserId), WireError> {
        value(self.body, |r| {
            let dev_id = get_dev_id(r)?;
            let user_token = user_token(r)?;
            Ok((
                dev_id,
                user_token,
                UserId::from_bytestr(r.string("grantee")?),
            ))
        })
    }

    /// A `SetRule` body: the owner's token and the rule.
    pub fn set_rule(self) -> Result<(UserToken, AutomationRule), WireError> {
        value(self.body, |r| {
            let user_token = user_token(r)?;
            let rule = AutomationRule {
                trigger_dev: get_dev_id(r)?,
                trigger: get_trigger(r)?,
                action_dev: get_dev_id(r)?,
                action: get_action(r)?,
            };
            Ok((user_token, rule))
        })
    }

    /// A response or push body, read per the kind its tag names. On a
    /// request frame it fails: request and response tags are disjoint.
    #[inline]
    pub fn response(self) -> Result<Response, WireError> {
        let tag = self.tag;
        value(self.body, |r| {
            Ok(match tag {
                RSP_LOGIN_OK => Response::LoginOk {
                    user_token: user_token(r)?,
                },
                RSP_DEVTOKEN => Response::DevTokenIssued {
                    dev_token: DevToken::from_bytes(r.bytes16("DevToken")?),
                },
                RSP_BINDTOKEN => Response::BindTokenIssued {
                    bind_token: BindToken::from_bytes(r.bytes16("BindToken")?),
                },
                RSP_STATUS_ACCEPTED => Response::StatusAccepted {
                    session: session_tail(r, "StatusAccepted fields")?,
                },
                RSP_BOUND => Response::Bound {
                    session: session_tail(r, "Bound fields")?,
                },
                RSP_UNBOUND => Response::Unbound,
                RSP_CONTROL_OK => {
                    let mut f = Fields::new(r.rest(), "ControlOk fields")?;
                    let schedule = f.get(1, |r| get_seq(r, "schedule", get_schedule_entry))?;
                    let telemetry = f.get(2, telemetry)?;
                    f.finish()?;
                    Response::ControlOk {
                        schedule: schedule.unwrap_or_default().into_boxed_slice(),
                        telemetry: telemetry.unwrap_or_default().into_boxed_slice(),
                    }
                }
                RSP_SHADOW => {
                    let mut f = Fields::new(r.rest(), "ShadowState fields")?;
                    let online = f.get(1, |r| r.bool("ShadowState online"))?;
                    let bound = f.get(2, |r| r.bool("ShadowState bound"))?;
                    f.finish()?;
                    Response::ShadowState {
                        online: online.unwrap_or(false),
                        bound: bound.unwrap_or(false),
                    }
                }
                RSP_TEL_PUSH => {
                    let dev_id = Box::new(get_dev_id(r)?);
                    let mut f = Fields::new(r.rest(), "TelemetryPush fields")?;
                    let telemetry = f.get(1, telemetry)?.unwrap_or_default();
                    f.finish()?;
                    Response::TelemetryPush { dev_id, telemetry }
                }
                RSP_CTRL_PUSH => Response::ControlPush {
                    action: get_action(r)?,
                    session: session_tail(r, "ControlPush fields")?,
                },
                RSP_REVOKED => Response::BindingRevoked,
                RSP_RULE_SET => Response::RuleSet {
                    count: r.varint_max("RuleSet count", u64::from(u16::MAX))? as u16,
                },
                RSP_SHARE_OK => Response::ShareOk {
                    guests: r.varint_max("ShareOk guests", u64::from(u16::MAX))? as u16,
                    session: session_tail(r, "ShareOk fields")?,
                },
                RSP_DENIED => Response::Denied {
                    reason: deny_from_u8(r.u8("DenyReason")?)?,
                },
                tag => return unknown("Response", tag),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn sample_dev_id() -> DevId {
        DevId::Mac(MacAddr::new([0xa0, 0xb1, 0xc2, 0x12, 0x34, 0x56]))
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Login {
                user_id: UserId::new("alice@example.com"),
                user_pw: UserPw::new("s3cret"),
            },
            Message::Login {
                user_id: UserId::new(""),
                user_pw: UserPw::new(""),
            },
            Message::RequestDevToken {
                user_token: UserToken::from_entropy(42),
            },
            Message::RequestBindToken {
                user_token: UserToken::from_entropy(43),
            },
            Message::Status(StatusPayload {
                auth: StatusAuth::DevToken(DevToken::from_entropy(9)),
                dev_id: sample_dev_id(),
                kind: StatusKind::Register,
                attributes: DeviceAttributes::new("HS100", "1.2.3"),
                session: Some(SessionToken::from_entropy(7)),
                telemetry: vec![
                    TelemetryFrame::PowerMilliwatts(1234),
                    TelemetryFrame::TemperatureMilliC(-2500),
                    TelemetryFrame::LockEvent {
                        locked: true,
                        at_tick: 99,
                    },
                ],
                button_pressed: true,
            }),
            Message::Status(StatusPayload::heartbeat(
                StatusAuth::PublicKey {
                    key_id: 3,
                    signature: u128::MAX,
                },
                DevId::Uuid(u128::MAX - 1),
            )),
            Message::Bind(BindPayload::AclApp {
                dev_id: sample_dev_id(),
                user_token: UserToken::from_entropy(1),
            }),
            Message::Bind(BindPayload::AclDevice {
                dev_id: DevId::Digits {
                    value: 123_456,
                    width: 6,
                },
                user_id: UserId::new("bob"),
                user_pw: UserPw::new("pw"),
            }),
            Message::Bind(BindPayload::Capability {
                bind_token: BindToken::from_entropy(5),
            }),
            Message::Unbind(UnbindPayload::DevIdOnly {
                dev_id: DevId::Uuid(77),
            }),
            Message::Unbind(UnbindPayload::DevIdUserToken {
                dev_id: DevId::Serial {
                    vendor: u16::MAX,
                    seq: u64::MAX,
                },
                user_token: UserToken::from_entropy(2),
            }),
            Message::Control {
                dev_id: sample_dev_id(),
                user_token: UserToken::from_entropy(1),
                session: None,
                action: ControlAction::SetSchedule(ScheduleEntry {
                    at_tick: 5,
                    turn_on: false,
                }),
            },
            Message::QueryShadow {
                dev_id: sample_dev_id(),
            },
            Message::Share {
                dev_id: sample_dev_id(),
                user_token: UserToken::from_entropy(8),
                grantee: UserId::new("guest@example.com"),
            },
            Message::Unshare {
                dev_id: sample_dev_id(),
                user_token: UserToken::from_entropy(8),
                grantee: UserId::new("guest@example.com"),
            },
            Message::SetRule {
                user_token: UserToken::from_entropy(9),
                rule: AutomationRule {
                    trigger_dev: sample_dev_id(),
                    trigger: RuleTrigger::TemperatureAbove(30_000),
                    action_dev: DevId::Digits {
                        value: 42,
                        width: 6,
                    },
                    action: ControlAction::TurnOn,
                },
            },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::LoginOk {
                user_token: UserToken::from_entropy(1),
            },
            Response::DevTokenIssued {
                dev_token: DevToken::from_entropy(2),
            },
            Response::BindTokenIssued {
                bind_token: BindToken::from_entropy(3),
            },
            Response::StatusAccepted {
                session: Some(SessionToken::from_entropy(4)),
            },
            Response::StatusAccepted { session: None },
            Response::Bound { session: None },
            Response::Unbound,
            Response::ControlOk {
                schedule: Box::new([ScheduleEntry {
                    at_tick: 1,
                    turn_on: true,
                }]),
                telemetry: Box::new([TelemetryFrame::Alarm { triggered: true }]),
            },
            Response::ControlOk {
                schedule: Box::default(),
                telemetry: Box::default(),
            },
            Response::ShadowState {
                online: true,
                bound: false,
            },
            Response::ShadowState {
                online: false,
                bound: false,
            },
            Response::TelemetryPush {
                dev_id: Box::new(sample_dev_id()),
                telemetry: vec![TelemetryFrame::Motion { confidence: 80 }],
            },
            Response::ControlPush {
                action: ControlAction::TurnOn,
                session: None,
            },
            Response::BindingRevoked,
            Response::ShareOk {
                session: Some(SessionToken::from_entropy(6)),
                guests: 2,
            },
            Response::RuleSet { count: 3 },
            Response::Denied {
                reason: DenyReason::NotBoundUser,
            },
        ]
    }

    #[test]
    fn message_roundtrips() {
        for msg in sample_messages() {
            let bytes = encode_message(&msg);
            let back = decode_message(&bytes).unwrap_or_else(|e| panic!("{msg}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn response_roundtrips() {
        for rsp in sample_responses() {
            let bytes = encode_response(&rsp);
            let back = decode_response(&bytes).unwrap_or_else(|e| panic!("{rsp}: {e}"));
            assert_eq!(back, rsp);
        }
    }

    #[test]
    fn envelope_roundtrips_and_push() {
        for msg in sample_messages() {
            let env = Envelope::Request {
                corr: CorrId(u64::MAX),
                msg,
            };
            let bytes = encode_envelope(&env);
            assert_eq!(Envelope::decode(&bytes).unwrap(), env);
        }
        let push = Envelope::push(Response::BindingRevoked);
        let bytes = encode_envelope(&push);
        let back = Envelope::decode(&bytes).unwrap();
        assert_eq!(back, push);
    }

    #[test]
    fn decoded_strings_borrow_the_packet_buffer() {
        let env = Envelope::Request {
            corr: CorrId(1),
            msg: Message::Login {
                user_id: UserId::new("alice@example.com"),
                user_pw: UserPw::new("hunter2hunter2"),
            },
        };
        let packet = encode_envelope(&env);
        let decoded = Envelope::decode(&packet).unwrap();
        let Envelope::Request {
            msg: Message::Login { user_id, .. },
            ..
        } = decoded
        else {
            panic!("wrong shape");
        };
        // Zero-copy: the decoded id's bytes live inside the packet buffer.
        let packet_range = packet.as_ptr() as usize..packet.as_ptr() as usize + packet.len();
        let id_ptr = user_id.as_str().as_ptr() as usize;
        assert!(
            packet_range.contains(&id_ptr),
            "decoded UserId must be a sub-slice of the packet"
        );
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // corr = 0 encoded in two bytes (0x80 0x00) is non-canonical.
        let bytes = Bytes::from(vec![DIR_REQUEST, 0x80, 0x00, MSG_QUERY_SHADOW]);
        assert_eq!(
            Envelope::decode(&bytes),
            Err(WireError::ValueOutOfRange {
                context: "Envelope corr"
            })
        );
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 11 continuation bytes: shifts past 63 bits.
        let mut raw = vec![DIR_REQUEST];
        raw.extend_from_slice(&[0xff; 10]);
        raw.push(0x01);
        assert_eq!(
            Envelope::decode(&Bytes::from(raw)),
            Err(WireError::ValueOutOfRange {
                context: "Envelope corr"
            })
        );
    }

    #[test]
    fn unknown_tail_field_id_is_rejected() {
        // A Status whose tail carries an unexpected field 9.
        let mut w = W::with_capacity(64);
        w.out.push(MSG_STATUS);
        put_status_auth(&mut w.out, &StatusAuth::DevId(sample_dev_id()));
        put_dev_id(&mut w.out, &sample_dev_id());
        w.out.push(1); // heartbeat
        w.field_bytes(9, &[0]);
        let bytes = Bytes::from(w.out);
        assert_eq!(
            decode_message(&bytes),
            Err(WireError::UnknownTag {
                context: "Status fields",
                tag: 9
            })
        );
    }

    #[test]
    fn out_of_order_tail_fields_are_rejected() {
        // Status with firmware (2) before model (1): non-canonical order.
        let mut w = W::with_capacity(64);
        w.out.push(MSG_STATUS);
        put_status_auth(&mut w.out, &StatusAuth::DevId(sample_dev_id()));
        put_dev_id(&mut w.out, &sample_dev_id());
        w.out.push(1);
        w.field_str(2, b"fw");
        w.field_str(1, b"model");
        let bytes = Bytes::from(w.out);
        assert_eq!(
            decode_message(&bytes),
            Err(WireError::ValueOutOfRange {
                context: "TLV field id order"
            })
        );
    }

    #[test]
    fn missing_required_field_is_truncation() {
        // Control cut off before its action byte.
        let mut w = W::with_capacity(64);
        w.out.push(MSG_CONTROL);
        put_dev_id(&mut w.out, &sample_dev_id());
        w.out
            .extend_from_slice(UserToken::from_entropy(1).as_bytes());
        let bytes = Bytes::from(w.out);
        assert_eq!(
            decode_message(&bytes),
            Err(WireError::Truncated {
                context: "ControlAction tag"
            })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // A RequestDevToken with one byte of slack after the token.
        let mut w = W::with_capacity(32);
        w.out.push(MSG_REQ_DEVTOKEN);
        w.out
            .extend_from_slice(UserToken::from_entropy(1).as_bytes());
        w.out.push(0xde);
        let bytes = Bytes::from(w.out);
        assert_eq!(
            decode_message(&bytes),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn trailing_bytes_inside_a_tail_value_are_rejected() {
        // A session tail field of 17 bytes: the sub-reader must not leave
        // slack.
        let mut w = W::with_capacity(64);
        w.out.push(RSP_BOUND);
        let mut fat = SessionToken::from_entropy(1).as_bytes().to_vec();
        fat.push(0xde);
        w.field_bytes(1, &fat);
        let bytes = Bytes::from(w.out);
        assert_eq!(
            decode_response(&bytes),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn oversized_string_is_rejected() {
        let mut w = W::with_capacity(MAX_STR + 16);
        w.out.push(MSG_LOGIN);
        put_varint(&mut w.out, MAX_STR as u64 + 1);
        w.out.extend_from_slice(&vec![b'a'; MAX_STR + 1]);
        let bytes = Bytes::from(w.out);
        assert!(matches!(
            decode_message(&bytes),
            Err(WireError::LengthOutOfRange { .. })
        ));
    }

    #[test]
    fn oversized_sequence_count_is_rejected() {
        let mut w = W::with_capacity(64);
        w.out.push(MSG_STATUS);
        put_status_auth(&mut w.out, &StatusAuth::DevId(sample_dev_id()));
        put_dev_id(&mut w.out, &sample_dev_id());
        w.out.push(1);
        w.field_with(4, |o| put_varint(o, MAX_SEQ as u64 + 1));
        let bytes = Bytes::from(w.out);
        assert_eq!(
            decode_message(&bytes),
            Err(WireError::ValueOutOfRange {
                context: "telemetry"
            })
        );
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = W::with_capacity(16);
        w.out.push(MSG_LOGIN);
        put_varint(&mut w.out, 2);
        w.out.extend_from_slice(&[0xff, 0xfe]);
        let bytes = Bytes::from(w.out);
        assert_eq!(
            decode_message(&bytes),
            Err(WireError::InvalidUtf8 { context: "UserId" })
        );
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let env = Envelope::Request {
            corr: CorrId(0x0123_4567_89ab),
            msg: Message::Status(StatusPayload {
                auth: StatusAuth::DevId(sample_dev_id()),
                dev_id: sample_dev_id(),
                kind: StatusKind::Register,
                attributes: DeviceAttributes::new("model", "fw"),
                session: Some(SessionToken::from_entropy(1)),
                telemetry: vec![TelemetryFrame::PowerMilliwatts(500)],
                button_pressed: true,
            }),
        };
        let full = encode_envelope(&env);
        for cut in 0..full.len() {
            let prefix = full.slice(..cut);
            // With omit-default tail fields, a cut at a field boundary can
            // be a valid *shorter* message — but then it must be canonical:
            // it re-encodes to exactly the bytes we decoded. Every other
            // cut must fail cleanly, never panic.
            match Envelope::decode(&prefix) {
                Err(_) => {}
                Ok(decoded) => {
                    assert_eq!(
                        encode_envelope(&decoded),
                        prefix,
                        "prefix of {cut} bytes decoded non-canonically"
                    );
                }
            }
        }
    }

    #[test]
    fn long_tail_values_widen_their_length_prefix() {
        // 100 power frames are well over 127 bytes: the field's length
        // takes two varint bytes, written after the value.
        let telemetry: Vec<TelemetryFrame> = (0..100u64)
            .map(|i| TelemetryFrame::PowerMilliwatts(i * 1_000_003))
            .collect();
        let rsp = Response::ControlOk {
            schedule: Box::default(),
            telemetry: telemetry.clone().into_boxed_slice(),
        };
        let bytes = encode_response(&rsp);
        let mut body = Vec::new();
        put_telemetry_vec(&mut body, &telemetry);
        assert!(body.len() >= 0x80);
        let mut want = vec![RSP_CONTROL_OK, 2];
        put_varint(&mut want, body.len() as u64);
        want.extend_from_slice(&body);
        assert_eq!(&bytes[..], &want[..]);
        assert_eq!(decode_response(&bytes), Ok(rsp));
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0, 1, -1, i32::MAX, i32::MIN, -2500, 30_000] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn all_deny_reasons_roundtrip() {
        for v in 0..=13u8 {
            let reason = deny_from_u8(v).unwrap();
            assert_eq!(deny_to_u8(reason), v);
        }
        assert!(deny_from_u8(14).is_err());
    }

    #[test]
    fn unknown_message_tag_is_rejected() {
        assert_eq!(
            decode_message(&Bytes::from(vec![0xee])),
            Err(WireError::UnknownTag {
                context: "Message",
                tag: 0xee
            })
        );
    }

    #[test]
    fn invalid_digit_width_is_rejected() {
        // A Digits DevId with width 12 inside a QueryShadow.
        let bytes = Bytes::from(vec![MSG_QUERY_SHADOW, DEVID_DIGITS, 123, 12]);
        assert_eq!(
            decode_message(&bytes),
            Err(WireError::ValueOutOfRange {
                context: "DevId::Digits width"
            })
        );
    }

    #[test]
    fn bad_bool_is_rejected() {
        // ShadowState whose `online` field holds 7.
        let bytes = Bytes::from(vec![RSP_SHADOW, 1, 1, 7]);
        assert_eq!(
            decode_response(&bytes),
            Err(WireError::UnknownTag {
                context: "ShadowState online",
                tag: 7
            })
        );
    }

    #[test]
    fn forged_message_is_bit_identical_to_honest_one() {
        // The essence of the paper's attacks: a forged Bind with the victim's
        // DevId is indistinguishable on the wire from the app's own.
        let bind = || {
            encode_message(&Message::Bind(BindPayload::AclApp {
                dev_id: sample_dev_id(),
                user_token: UserToken::from_entropy(0xbad),
            }))
        };
        assert_eq!(bind(), bind());
    }
}
