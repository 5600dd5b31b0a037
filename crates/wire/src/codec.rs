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
    AutomationRule, BindPayload, ControlAction, DenyReason, DeviceAttributes, Message, Response,
    StatusAuth, StatusKind, StatusPayload, UnbindPayload,
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

fn deny_to_u8(d: DenyReason) -> u8 {
    match d {
        DenyReason::UnknownUser => 13,
        DenyReason::BadCredentials => 0,
        DenyReason::InvalidUserToken => 1,
        DenyReason::DeviceAuthFailed => 2,
        DenyReason::AlreadyBound => 3,
        DenyReason::NotBoundUser => 4,
        DenyReason::NotBound => 5,
        DenyReason::InvalidBindToken => 6,
        DenyReason::BadSession => 7,
        DenyReason::OwnershipProofFailed => 8,
        DenyReason::DeviceOffline => 9,
        DenyReason::UnknownDevice => 10,
        DenyReason::UnsupportedOperation => 11,
        DenyReason::RateLimited => 12,
    }
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
        tag => {
            return Err(WireError::UnknownTag {
                context: "DenyReason",
                tag,
            })
        }
    })
}

/// Envelope direction byte: request.
const DIR_REQUEST: u8 = 0xC1;
/// Envelope direction byte: response.
const DIR_RESPONSE: u8 = 0xC2;

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
// The zero-copy reader: a cursor over the packet's shared buffer.
// ---------------------------------------------------------------------------

struct CReader<'a> {
    buf: &'a Bytes,
    pos: usize,
}

impl<'a> CReader<'a> {
    fn new(buf: &'a Bytes) -> Self {
        CReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        let Some(&b) = self.buf.get(self.pos) else {
            return Err(WireError::Truncated { context });
        };
        self.pos += 1;
        Ok(b)
    }

    fn bool(&mut self, context: &'static str) -> Result<bool, WireError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag { context, tag }),
        }
    }

    /// Canonical LEB128: overlong encodings (a multi-byte encoding whose
    /// final group is zero, or one overflowing 64 bits) are rejected.
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

    fn bytes16(&mut self, context: &'static str) -> Result<[u8; 16], WireError> {
        if self.remaining() < 16 {
            return Err(WireError::Truncated { context });
        }
        let mut out = [0u8; 16];
        out.copy_from_slice(&self.buf[self.pos..self.pos + 16]);
        self.pos += 16;
        Ok(out)
    }

    /// Slices `len` bytes out of the shared buffer — a refcount bump.
    fn take(&mut self, len: usize, context: &'static str) -> Result<Bytes, WireError> {
        if self.remaining() < len {
            return Err(WireError::Truncated { context });
        }
        let out = self.buf.slice(self.pos..self.pos + len);
        self.pos += len;
        Ok(out)
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
        let bytes = self.take(len as usize, context)?;
        ByteStr::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8 { context })
    }

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
    pending: Option<(u8, Bytes)>,
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
        let value = self.r.take(len, "TLV field value")?;
        self.pending = Some((id, value));
        Ok(())
    }

    /// Consumes the next field if it carries `id`.
    fn take(&mut self, id: u8) -> Result<Option<Bytes>, WireError> {
        let matches = matches!(self.pending, Some((pid, _)) if pid == id);
        if matches {
            if let Some((_, value)) = self.pending.take() {
                self.advance()?;
                return Ok(Some(value));
            }
        }
        Ok(None)
    }

    /// All expected fields have been taken; anything left is unknown.
    fn finish(self) -> Result<(), WireError> {
        match self.pending {
            None => Ok(()),
            Some((id, _)) => Err(WireError::UnknownTag {
                context: self.context,
                tag: id,
            }),
        }
    }
}

/// Parses one tail-field value with a sub-reader that must consume it
/// fully.
fn value<T>(
    bytes: &Bytes,
    parse: impl FnOnce(&mut CReader<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut r = CReader::new(bytes);
    let v = parse(&mut r)?;
    r.expect_end()?;
    Ok(v)
}

/// A whole-value UTF-8 string, borrowed from the packet buffer.
fn str_value(bytes: Bytes, context: &'static str) -> Result<ByteStr, WireError> {
    if bytes.len() > MAX_STR {
        return Err(WireError::LengthOutOfRange {
            context,
            len: bytes.len(),
            max: MAX_STR,
        });
    }
    ByteStr::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8 { context })
}

fn session_field(
    f: &mut Fields<'_>,
    id: u8,
    context: &'static str,
) -> Result<Option<SessionToken>, WireError> {
    match f.take(id)? {
        None => Ok(None),
        Some(v) => Ok(Some(SessionToken::from_bytes(value(&v, |r| {
            r.bytes16(context)
        })?))),
    }
}

fn bool_field(f: &mut Fields<'_>, id: u8, context: &'static str) -> Result<bool, WireError> {
    match f.take(id)? {
        None => Ok(false),
        Some(v) => value(&v, |r| r.bool(context)),
    }
}

fn str_field(f: &mut Fields<'_>, id: u8, context: &'static str) -> Result<ByteStr, WireError> {
    match f.take(id)? {
        None => Ok(ByteStr::default()),
        Some(v) => str_value(v, context),
    }
}

fn telemetry_field(f: &mut Fields<'_>, id: u8) -> Result<Vec<TelemetryFrame>, WireError> {
    match f.take(id)? {
        None => Ok(Vec::new()),
        Some(v) => value(&v, get_telemetry_vec),
    }
}

// ---------------------------------------------------------------------------
// The writer.
// ---------------------------------------------------------------------------

/// Encoder state: the output buffer plus one reusable scratch buffer for
/// computing TLV tail-field lengths (the only allocations an encode
/// performs).
struct W {
    out: Vec<u8>,
    scratch: Vec<u8>,
}

impl W {
    fn with_capacity(cap: usize) -> Self {
        W {
            out: Vec::with_capacity(cap),
            scratch: Vec::new(),
        }
    }

    fn field_with(&mut self, id: u8, write: impl FnOnce(&mut Vec<u8>)) {
        self.scratch.clear();
        write(&mut self.scratch);
        self.out.push(id);
        put_varint(&mut self.out, self.scratch.len() as u64);
        self.out.extend_from_slice(&self.scratch);
    }

    fn field_bytes(&mut self, id: u8, bytes: &[u8]) {
        self.out.push(id);
        put_varint(&mut self.out, bytes.len() as u64);
        self.out.extend_from_slice(bytes);
    }

    /// Empty strings are omitted (decode restores the default).
    fn field_str(&mut self, id: u8, s: &str) {
        if !s.is_empty() {
            let cut = s.len().min(MAX_STR);
            self.field_bytes(id, &s.as_bytes()[..cut]);
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

fn put_string(out: &mut Vec<u8>, s: &str) {
    let cut = s.len().min(MAX_STR);
    let bytes = &s.as_bytes()[..cut];
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
        tag => Err(WireError::UnknownTag {
            context: "DevId",
            tag,
        }),
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
        tag => Err(WireError::UnknownTag {
            context: "StatusAuth",
            tag,
        }),
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
        tag => Err(WireError::UnknownTag {
            context: "TelemetryFrame",
            tag,
        }),
    }
}

fn put_telemetry_vec(out: &mut Vec<u8>, tel: &[TelemetryFrame]) {
    put_varint(out, tel.len().min(MAX_SEQ) as u64);
    for t in tel.iter().take(MAX_SEQ) {
        put_telemetry(out, t);
    }
}

fn get_telemetry_vec(r: &mut CReader<'_>) -> Result<Vec<TelemetryFrame>, WireError> {
    let n = r.varint_max("telemetry", MAX_SEQ as u64)? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(get_telemetry(r)?);
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

fn put_schedule_vec(out: &mut Vec<u8>, entries: &[ScheduleEntry]) {
    put_varint(out, entries.len().min(MAX_SEQ) as u64);
    for e in entries.iter().take(MAX_SEQ) {
        put_schedule_entry(out, e);
    }
}

fn get_schedule_vec(r: &mut CReader<'_>) -> Result<Vec<ScheduleEntry>, WireError> {
    let n = r.varint_max("schedule", MAX_SEQ as u64)? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(get_schedule_entry(r)?);
    }
    Ok(out)
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
        tag => Err(WireError::UnknownTag {
            context: "ControlAction",
            tag,
        }),
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
        tag => Err(WireError::UnknownTag {
            context: "RuleTrigger",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------------
// Message encode/decode.
// ---------------------------------------------------------------------------

fn encode_message_into(w: &mut W, msg: &Message) {
    match msg {
        Message::Login { user_id, user_pw } => {
            w.out.push(MSG_LOGIN);
            put_string(&mut w.out, user_id.as_str());
            put_string(&mut w.out, user_pw.expose());
        }
        Message::RequestDevToken { user_token } => {
            w.out.push(MSG_REQ_DEVTOKEN);
            w.out.extend_from_slice(user_token.as_bytes());
        }
        Message::RequestBindToken { user_token } => {
            w.out.push(MSG_REQ_BINDTOKEN);
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
            w.field_str(1, &s.attributes.model);
            w.field_str(2, &s.attributes.firmware);
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
                    put_string(&mut w.out, user_id.as_str());
                    put_string(&mut w.out, user_pw.expose());
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
        } => {
            w.out.push(MSG_SHARE);
            put_dev_id(&mut w.out, dev_id);
            w.out.extend_from_slice(user_token.as_bytes());
            put_string(&mut w.out, grantee.as_str());
        }
        Message::Unshare {
            dev_id,
            user_token,
            grantee,
        } => {
            w.out.push(MSG_UNSHARE);
            put_dev_id(&mut w.out, dev_id);
            w.out.extend_from_slice(user_token.as_bytes());
            put_string(&mut w.out, grantee.as_str());
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

/// Decodes a [`Message`]; string fields borrow `bytes`.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, unknown tags, invalid UTF-8,
/// out-of-range values, or trailing bytes.
pub fn decode_message(bytes: &Bytes) -> Result<Message, WireError> {
    let mut r = CReader::new(bytes);
    match r.u8("Message tag")? {
        MSG_LOGIN => {
            let user_id = UserId::from_bytestr(r.string("UserId")?);
            let user_pw = UserPw::from_bytestr(r.string("UserPw")?);
            r.expect_end()?;
            Ok(Message::Login { user_id, user_pw })
        }
        MSG_REQ_DEVTOKEN => {
            let user_token = UserToken::from_bytes(r.bytes16("UserToken")?);
            r.expect_end()?;
            Ok(Message::RequestDevToken { user_token })
        }
        MSG_REQ_BINDTOKEN => {
            let user_token = UserToken::from_bytes(r.bytes16("UserToken")?);
            r.expect_end()?;
            Ok(Message::RequestBindToken { user_token })
        }
        MSG_STATUS => {
            let auth = get_status_auth(&mut r)?;
            let dev_id = get_dev_id(&mut r)?;
            let kind = match r.u8("StatusKind")? {
                0 => StatusKind::Register,
                1 => StatusKind::Heartbeat,
                tag => {
                    return Err(WireError::UnknownTag {
                        context: "StatusKind",
                        tag,
                    })
                }
            };
            let mut f = Fields::new(r, "Status fields")?;
            let model = str_field(&mut f, 1, "attributes.model")?;
            let firmware = str_field(&mut f, 2, "attributes.firmware")?;
            let session = session_field(&mut f, 3, "SessionToken")?;
            let telemetry = telemetry_field(&mut f, 4)?;
            let button_pressed = bool_field(&mut f, 5, "button_pressed")?;
            f.finish()?;
            Ok(Message::Status(StatusPayload {
                auth,
                dev_id,
                kind,
                attributes: DeviceAttributes { model, firmware },
                session,
                telemetry,
                button_pressed,
            }))
        }
        MSG_BIND => {
            let payload = match r.u8("BindPayload tag")? {
                BIND_ACL_APP => BindPayload::AclApp {
                    dev_id: get_dev_id(&mut r)?,
                    user_token: UserToken::from_bytes(r.bytes16("UserToken")?),
                },
                BIND_ACL_DEVICE => BindPayload::AclDevice {
                    dev_id: get_dev_id(&mut r)?,
                    user_id: UserId::from_bytestr(r.string("UserId")?),
                    user_pw: UserPw::from_bytestr(r.string("UserPw")?),
                },
                BIND_CAPABILITY => BindPayload::Capability {
                    bind_token: BindToken::from_bytes(r.bytes16("BindToken")?),
                },
                tag => {
                    return Err(WireError::UnknownTag {
                        context: "BindPayload",
                        tag,
                    })
                }
            };
            r.expect_end()?;
            Ok(Message::Bind(payload))
        }
        MSG_UNBIND => {
            let payload = match r.u8("UnbindPayload tag")? {
                UNBIND_ID_TOKEN => UnbindPayload::DevIdUserToken {
                    dev_id: get_dev_id(&mut r)?,
                    user_token: UserToken::from_bytes(r.bytes16("UserToken")?),
                },
                UNBIND_ID_ONLY => UnbindPayload::DevIdOnly {
                    dev_id: get_dev_id(&mut r)?,
                },
                tag => {
                    return Err(WireError::UnknownTag {
                        context: "UnbindPayload",
                        tag,
                    })
                }
            };
            r.expect_end()?;
            Ok(Message::Unbind(payload))
        }
        MSG_CONTROL => {
            let dev_id = get_dev_id(&mut r)?;
            let user_token = UserToken::from_bytes(r.bytes16("UserToken")?);
            let action = get_action(&mut r)?;
            let mut f = Fields::new(r, "Control fields")?;
            let session = session_field(&mut f, 1, "SessionToken")?;
            f.finish()?;
            Ok(Message::Control {
                dev_id,
                user_token,
                session,
                action,
            })
        }
        MSG_QUERY_SHADOW => {
            let dev_id = get_dev_id(&mut r)?;
            r.expect_end()?;
            Ok(Message::QueryShadow { dev_id })
        }
        MSG_SHARE => {
            let dev_id = get_dev_id(&mut r)?;
            let user_token = UserToken::from_bytes(r.bytes16("UserToken")?);
            let grantee = UserId::from_bytestr(r.string("grantee")?);
            r.expect_end()?;
            Ok(Message::Share {
                dev_id,
                user_token,
                grantee,
            })
        }
        MSG_UNSHARE => {
            let dev_id = get_dev_id(&mut r)?;
            let user_token = UserToken::from_bytes(r.bytes16("UserToken")?);
            let grantee = UserId::from_bytestr(r.string("grantee")?);
            r.expect_end()?;
            Ok(Message::Unshare {
                dev_id,
                user_token,
                grantee,
            })
        }
        MSG_SET_RULE => {
            let user_token = UserToken::from_bytes(r.bytes16("UserToken")?);
            let rule = AutomationRule {
                trigger_dev: get_dev_id(&mut r)?,
                trigger: get_trigger(&mut r)?,
                action_dev: get_dev_id(&mut r)?,
                action: get_action(&mut r)?,
            };
            r.expect_end()?;
            Ok(Message::SetRule { user_token, rule })
        }
        tag => Err(WireError::UnknownTag {
            context: "Message",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------------
// Response encode/decode.
// ---------------------------------------------------------------------------

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
        Response::StatusAccepted { session } => {
            w.out.push(RSP_STATUS_ACCEPTED);
            w.field_session(1, session);
        }
        Response::Bound { session } => {
            w.out.push(RSP_BOUND);
            w.field_session(1, session);
        }
        Response::Unbound => w.out.push(RSP_UNBOUND),
        Response::ControlOk {
            schedule,
            telemetry,
        } => {
            w.out.push(RSP_CONTROL_OK);
            if !schedule.is_empty() {
                w.field_with(1, |o| put_schedule_vec(o, schedule));
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

/// Decodes a [`Response`]; string fields borrow `bytes`.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, unknown tags, invalid UTF-8,
/// out-of-range values, or trailing bytes.
pub fn decode_response(bytes: &Bytes) -> Result<Response, WireError> {
    let mut r = CReader::new(bytes);
    match r.u8("Response tag")? {
        RSP_LOGIN_OK => {
            let user_token = UserToken::from_bytes(r.bytes16("UserToken")?);
            r.expect_end()?;
            Ok(Response::LoginOk { user_token })
        }
        RSP_DEVTOKEN => {
            let dev_token = DevToken::from_bytes(r.bytes16("DevToken")?);
            r.expect_end()?;
            Ok(Response::DevTokenIssued { dev_token })
        }
        RSP_BINDTOKEN => {
            let bind_token = BindToken::from_bytes(r.bytes16("BindToken")?);
            r.expect_end()?;
            Ok(Response::BindTokenIssued { bind_token })
        }
        RSP_STATUS_ACCEPTED => {
            let mut f = Fields::new(r, "StatusAccepted fields")?;
            let session = session_field(&mut f, 1, "SessionToken")?;
            f.finish()?;
            Ok(Response::StatusAccepted { session })
        }
        RSP_BOUND => {
            let mut f = Fields::new(r, "Bound fields")?;
            let session = session_field(&mut f, 1, "SessionToken")?;
            f.finish()?;
            Ok(Response::Bound { session })
        }
        RSP_UNBOUND => {
            r.expect_end()?;
            Ok(Response::Unbound)
        }
        RSP_CONTROL_OK => {
            let mut f = Fields::new(r, "ControlOk fields")?;
            let schedule = match f.take(1)? {
                None => Vec::new(),
                Some(v) => value(&v, get_schedule_vec)?,
            };
            let telemetry = telemetry_field(&mut f, 2)?;
            f.finish()?;
            Ok(Response::ControlOk {
                schedule,
                telemetry,
            })
        }
        RSP_SHADOW => {
            let mut f = Fields::new(r, "ShadowState fields")?;
            let online = bool_field(&mut f, 1, "ShadowState online")?;
            let bound = bool_field(&mut f, 2, "ShadowState bound")?;
            f.finish()?;
            Ok(Response::ShadowState { online, bound })
        }
        RSP_TEL_PUSH => {
            let dev_id = get_dev_id(&mut r)?;
            let mut f = Fields::new(r, "TelemetryPush fields")?;
            let telemetry = telemetry_field(&mut f, 1)?;
            f.finish()?;
            Ok(Response::TelemetryPush { dev_id, telemetry })
        }
        RSP_CTRL_PUSH => {
            let action = get_action(&mut r)?;
            let mut f = Fields::new(r, "ControlPush fields")?;
            let session = session_field(&mut f, 1, "SessionToken")?;
            f.finish()?;
            Ok(Response::ControlPush { action, session })
        }
        RSP_REVOKED => {
            r.expect_end()?;
            Ok(Response::BindingRevoked)
        }
        RSP_RULE_SET => {
            let count = r.varint_max("RuleSet count", u64::from(u16::MAX))? as u16;
            r.expect_end()?;
            Ok(Response::RuleSet { count })
        }
        RSP_SHARE_OK => {
            let guests = r.varint_max("ShareOk guests", u64::from(u16::MAX))? as u16;
            let mut f = Fields::new(r, "ShareOk fields")?;
            let session = session_field(&mut f, 1, "SessionToken")?;
            f.finish()?;
            Ok(Response::ShareOk { session, guests })
        }
        RSP_DENIED => {
            let reason = deny_from_u8(r.u8("DenyReason")?)?;
            r.expect_end()?;
            Ok(Response::Denied { reason })
        }
        tag => Err(WireError::UnknownTag {
            context: "Response",
            tag,
        }),
    }
}

// ---------------------------------------------------------------------------
// Envelope encode/decode.
// ---------------------------------------------------------------------------

/// Encodes an [`Envelope`]: direction byte, varint correlation id, body.
pub(crate) fn encode_envelope(env: &Envelope) -> Bytes {
    let mut w = W::with_capacity(72);
    match env {
        Envelope::Request { corr, msg } => {
            w.out.push(DIR_REQUEST);
            put_varint(&mut w.out, corr.0);
            encode_message_into(&mut w, msg);
        }
        Envelope::Response { corr, rsp } => {
            w.out.push(DIR_RESPONSE);
            put_varint(&mut w.out, corr.0);
            encode_response_into(&mut w, rsp);
        }
    }
    Bytes::from(w.out)
}

/// Decodes an [`Envelope`]; the body is a sub-slice of `bytes`.
pub(crate) fn decode_envelope(bytes: &Bytes) -> Result<Envelope, WireError> {
    let mut r = CReader::new(bytes);
    let dir = r.u8("Envelope header")?;
    let corr = CorrId(r.varint("Envelope corr")?);
    let body = bytes.slice(r.pos..);
    match dir {
        DIR_REQUEST => Ok(Envelope::Request {
            corr,
            msg: decode_message(&body)?,
        }),
        DIR_RESPONSE => Ok(Envelope::Response {
            corr,
            rsp: decode_response(&body)?,
        }),
        tag => Err(WireError::UnknownTag {
            context: "Envelope direction",
            tag,
        }),
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
                schedule: vec![ScheduleEntry {
                    at_tick: 1,
                    turn_on: true,
                }],
                telemetry: vec![TelemetryFrame::Alarm { triggered: true }],
            },
            Response::ControlOk {
                schedule: Vec::new(),
                telemetry: Vec::new(),
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
                dev_id: sample_dev_id(),
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
            assert_eq!(decode_envelope(&bytes).unwrap(), env);
        }
        let push = Envelope::push(Response::BindingRevoked);
        let bytes = encode_envelope(&push);
        let back = decode_envelope(&bytes).unwrap();
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
        let decoded = decode_envelope(&packet).unwrap();
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
            decode_envelope(&bytes),
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
            decode_envelope(&Bytes::from(raw)),
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
        w.field_str(2, "fw");
        w.field_str(1, "model");
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
            match decode_envelope(&prefix) {
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
