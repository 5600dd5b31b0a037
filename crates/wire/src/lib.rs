//! # rb-wire
//!
//! Wire-level vocabulary for IoT remote binding, following the notation of
//! *"Your IoTs Are (Not) Mine: On the Remote Binding Between IoT Devices and
//! Users"* (DSN 2019), Table I:
//!
//! | Notation    | Meaning                                               |
//! |-------------|-------------------------------------------------------|
//! | `Status`    | messages reporting device status (sent by the device) |
//! | `Bind`      | messages creating bindings in the cloud               |
//! | `Unbind`    | messages revoking bindings in the cloud               |
//! | `DevId`     | a piece of *definite* data for device authentication  |
//! | `DevToken`  | a piece of *random* data for device authentication    |
//! | `BindToken` | a piece of random data authorizing binding creation   |
//! | `UserToken` | a piece of random data for user authentication        |
//! | `UserId`    | identifier (e.g. email address) of a user account     |
//! | `UserPw`    | password of a user account                            |
//!
//! The crate provides:
//!
//! * newtyped identifiers and credentials ([`ids`], [`tokens`]) so the type
//!   system mirrors the paper's notation,
//! * the primitive message vocabulary exchanged between device, app, and
//!   cloud ([`messages`]),
//! * request/response envelopes with correlation ids ([`envelope`]),
//! * the wire format ([`codec`]): varint/TLV framing with a zero-copy
//!   decode path, so that "forging a message" in the attack crates means
//!   constructing real bytes, exactly as the paper's authors did with
//!   Postman and raw sockets. See `WIRE-FORMAT.md` for the byte-level
//!   specification.
//!
//! # Example
//!
//! ```rust
//! use rb_wire::ids::{DevId, MacAddr};
//! use rb_wire::tokens::UserToken;
//! use rb_wire::messages::{BindPayload, Message};
//! use rb_wire::codec::{decode_message, encode_message};
//!
//! # fn main() -> Result<(), rb_wire::WireError> {
//! let dev_id = DevId::Mac(MacAddr::new([0x94, 0x10, 0x3e, 0x01, 0x02, 0x03]));
//! let bind = Message::Bind(BindPayload::AclApp {
//!     dev_id: dev_id.clone(),
//!     user_token: UserToken::from_bytes([7u8; 16]),
//! });
//! let bytes = encode_message(&bind);
//! assert_eq!(decode_message(&bytes)?, bind);
//! # Ok(())
//! # }
//! ```

pub mod bytestr;
pub mod codec;
pub mod crypto;
pub mod envelope;
pub mod error;
pub mod ids;
pub mod messages;
pub mod telemetry;
pub mod tokens;

pub use error::WireError;
