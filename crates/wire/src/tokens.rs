//! Credential and token newtypes (`DevToken`, `UserToken`, `BindToken`,
//! `SessionToken`, `UserId`, `UserPw`).
//!
//! Tokens are 128-bit random values; the paper's central recommendation is
//! that *random* tokens (delivered out of band through local configuration)
//! must replace *definite* identifiers for authentication and authorization.
//! Token material is opaque `[u8; 16]` and constructed from caller-supplied
//! entropy, keeping this crate free of RNG dependencies and the simulations
//! deterministic.

use crate::bytestr::ByteStr;
use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! token_newtype {
    ($(#[$meta:meta])* $name:ident, $label:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        pub struct $name([u8; 16]);

        impl $name {
            /// Wraps raw token material.
            pub fn from_bytes(bytes: [u8; 16]) -> Self {
                Self(bytes)
            }

            /// Builds a token from 128 bits of caller-supplied entropy.
            pub fn from_entropy(entropy: u128) -> Self {
                Self(entropy.to_be_bytes())
            }

            /// The raw token material.
            pub fn as_bytes(&self) -> &[u8; 16] {
                &self.0
            }

            /// The token material as a `u128` (for codecs).
            pub fn to_u128(self) -> u128 {
                u128::from_be_bytes(self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                // Redact all but a 4-byte prefix so experiment logs do not
                // become token oracles.
                write!(
                    f,
                    concat!($label, "({:02x}{:02x}{:02x}{:02x}..)"),
                    self.0[0], self.0[1], self.0[2], self.0[3]
                )
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(self, f)
            }
        }
    };
}

token_newtype!(
    /// `DevToken`: random data for device authentication, requested from the
    /// cloud by the app and delivered to the device during local
    /// configuration (Figure 3, Type 1).
    DevToken,
    "DevToken"
);

token_newtype!(
    /// `UserToken`: random data returned by the cloud at login, used to
    /// authenticate the user in subsequent requests.
    UserToken,
    "UserToken"
);

token_newtype!(
    /// `BindToken`: random data authorizing a *capability-based* binding —
    /// possession proves the user locally communicated with the device
    /// (Section IV-B, Samsung SmartThings style).
    BindToken,
    "BindToken"
);

token_newtype!(
    /// Post-binding session token returned to *both* user and device when a
    /// binding is created; subsequently required on every control/status
    /// message (the "extra step for post-binding authorization" of
    /// Section IV-B that defeats hijack-then-control).
    SessionToken,
    "SessionToken"
);

/// `UserId`: the human-readable account identifier, e.g. an email address.
///
/// Backed by a [`ByteStr`], so a decoder holding the packet's [`bytes::Bytes`]
/// buffer can build one without copying the identifier out.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UserId(ByteStr);

impl UserId {
    /// Maximum accepted length in bytes.
    pub(crate) const MAX_LEN: usize = 256;

    /// Creates a user id, truncating to `UserId::MAX_LEN` bytes.
    pub fn new(id: impl Into<String>) -> Self {
        UserId::from_bytestr(ByteStr::new(id))
    }

    /// Creates a user id from an existing [`ByteStr`] (zero-copy when the
    /// value fits [`UserId::MAX_LEN`]; truncation slices, never copies).
    pub(crate) fn from_bytestr(id: ByteStr) -> Self {
        UserId(id.truncated(Self::MAX_LEN))
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for UserId {
    fn from(s: &str) -> Self {
        UserId::new(s)
    }
}

/// `UserPw`: the account password. Display/Debug are redacted; the paper's
/// fourth lesson is that this credential "should never be delivered to the
/// device", which device-initiated ACL binding violates.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UserPw(ByteStr);

impl UserPw {
    /// Creates a password value.
    pub fn new(pw: impl Into<String>) -> Self {
        UserPw(ByteStr::new(pw))
    }

    /// Creates a password from an existing [`ByteStr`] (zero-copy).
    pub(crate) fn from_bytestr(pw: ByteStr) -> Self {
        UserPw(pw)
    }

    /// Constant-time-ish comparison (length leak only); enough for a
    /// simulator, and it documents the right instinct.
    pub fn verify(&self, candidate: &UserPw) -> bool {
        if self.0.len() != candidate.0.len() {
            return false;
        }
        self.0
            .bytes()
            .zip(candidate.0.bytes())
            .fold(0u8, |acc, (a, b)| acc | (a ^ b))
            == 0
    }

    /// Exposes the secret; only the codec should need this.
    pub fn expose(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for UserPw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("UserPw(<redacted>)")
    }
}

impl fmt::Display for UserPw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("<redacted>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_roundtrips_entropy() {
        let t = DevToken::from_entropy(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        assert_eq!(t.to_u128(), 0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        assert_eq!(DevToken::from_bytes(*t.as_bytes()), t);
    }

    #[test]
    fn token_debug_redacts_tail() {
        let t = UserToken::from_bytes([0xaa; 16]);
        let s = format!("{t:?}");
        assert_eq!(s, "UserToken(aaaaaaaa..)");
        assert!(!s.contains(&"aa".repeat(16)));
    }

    #[test]
    fn distinct_token_types_do_not_unify() {
        // Compile-time property: DevToken and UserToken are different types.
        fn takes_dev(_: DevToken) {}
        takes_dev(DevToken::from_entropy(1));
        // takes_dev(UserToken::from_entropy(1)); // must not compile
    }

    #[test]
    fn user_id_truncates_at_max_len() {
        let long = "x".repeat(UserId::MAX_LEN + 100);
        let id = UserId::new(long);
        assert_eq!(id.as_str().len(), UserId::MAX_LEN);
    }

    #[test]
    fn user_id_truncates_on_char_boundary() {
        let long = "é".repeat(UserId::MAX_LEN); // 2 bytes per char
        let id = UserId::new(long);
        assert!(id.as_str().len() <= UserId::MAX_LEN);
        assert!(id.as_str().chars().all(|c| c == 'é'));
    }

    #[test]
    fn password_verify_and_redaction() {
        let pw = UserPw::new("hunter2");
        assert!(pw.verify(&UserPw::new("hunter2")));
        assert!(!pw.verify(&UserPw::new("hunter3")));
        assert!(!pw.verify(&UserPw::new("hunter22")));
        assert_eq!(format!("{pw:?}"), "UserPw(<redacted>)");
        assert_eq!(pw.to_string(), "<redacted>");
    }

    #[test]
    fn session_token_ordering_is_stable() {
        let a = SessionToken::from_entropy(1);
        let b = SessionToken::from_entropy(2);
        assert!(a < b);
    }
}
