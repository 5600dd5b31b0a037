//! [`ByteStr`]: an immutable UTF-8 string view over a shared [`Bytes`]
//! buffer.
//!
//! The wire codec decodes string fields as *sub-slices of the
//! arriving packet* — a refcount bump instead of a heap allocation per
//! field. `ByteStr` is the type that carries that borrow: it wraps a
//! [`Bytes`] handle whose contents are guaranteed valid UTF-8, and it
//! compares, orders, and hashes by string content, so the credential
//! newtypes ([`crate::tokens::UserId`], [`crate::tokens::UserPw`]) and
//! device attributes can switch their internals to it without changing
//! observable behavior.
//!
//! ```
//! use rb_wire::bytestr::ByteStr;
//! use bytes::Bytes;
//!
//! // Zero-copy: the ByteStr shares the packet's allocation.
//! let packet = Bytes::from(b"...alice@example.com...".to_vec());
//! let field = ByteStr::from_utf8(packet.slice(3..20)).expect("valid UTF-8");
//! assert_eq!(field.as_str(), "alice@example.com");
//!
//! // Owned construction still works for call sites that build values.
//! let owned = ByteStr::new("alice@example.com");
//! assert_eq!(owned, field);
//! ```

use bytes::Bytes;
use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;

/// An immutable UTF-8 string backed by a reference-counted [`Bytes`]
/// buffer. Cloning is O(1); equality, ordering, and hashing follow the
/// string content (matching `String`/`str` semantics).
#[derive(Clone, Default)]
pub struct ByteStr(Bytes);

impl ByteStr {
    /// Creates a `ByteStr` from an owned string (one allocation, the
    /// `String`'s own buffer is reused).
    pub fn new(s: impl Into<String>) -> Self {
        ByteStr(Bytes::from(s.into().into_bytes()))
    }

    /// Wraps a [`Bytes`] buffer after validating it is UTF-8 — the
    /// zero-copy path used by the wire decoder.
    pub fn from_utf8(bytes: Bytes) -> Result<Self, std::str::Utf8Error> {
        std::str::from_utf8(&bytes)?;
        Ok(ByteStr(bytes))
    }

    /// The string content.
    pub fn as_str(&self) -> &str {
        // SAFETY-FREE invariant: every constructor validates UTF-8, and the
        // buffer is immutable afterwards, so this re-check always succeeds.
        std::str::from_utf8(&self.0).unwrap_or_default()
    }

    /// The content's bytes, without the UTF-8 re-check of
    /// [`ByteStr::as_str`].
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns a prefix of at most `max` bytes, cut on a char boundary —
    /// zero-copy (shares this value's backing buffer). Used by bounded
    /// fields like `UserId` to enforce their length cap.
    pub(crate) fn truncated(&self, max: usize) -> ByteStr {
        if self.len() <= max {
            return self.clone();
        }
        let s = self.as_str();
        let mut cut = max;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        ByteStr(self.0.slice(..cut))
    }
}

impl Deref for ByteStr {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for ByteStr {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for ByteStr {
    fn from(s: &str) -> Self {
        ByteStr::new(s)
    }
}

impl From<String> for ByteStr {
    fn from(s: String) -> Self {
        ByteStr::new(s)
    }
}

// Equality, ordering and hashing read the bytes directly: `as_str`
// re-validates UTF-8 on every call. Byte order is `str` order, and the
// hash writes what `str`'s does (the bytes, then 0xff), so `Borrow<str>`
// lookups keep finding their entries.

impl PartialEq for ByteStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for ByteStr {}

impl PartialEq<str> for ByteStr {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for ByteStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialOrd for ByteStr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByteStr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::hash::Hash for ByteStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Display for ByteStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for ByteStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn zero_copy_slice_view() {
        let packet = Bytes::from(b"xxhelloyy".to_vec());
        let s = ByteStr::from_utf8(packet.slice(2..7)).expect("utf8");
        assert_eq!(s.as_str(), "hello");
        assert_eq!(s, "hello");
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn rejects_invalid_utf8() {
        let bad = Bytes::from(vec![0xff, 0xfe]);
        assert!(ByteStr::from_utf8(bad).is_err());
    }

    #[test]
    fn content_equality_across_backings() {
        let owned = ByteStr::new("café");
        let sliced = ByteStr::from_utf8(Bytes::from("xcaféx".as_bytes().to_vec()).slice(1..6))
            .expect("utf8");
        assert_eq!(owned, sliced);
        assert_eq!(owned.cmp(&sliced), std::cmp::Ordering::Equal);
    }

    #[test]
    fn hash_agrees_with_str_for_map_lookup() {
        let mut map: HashMap<ByteStr, u32> = HashMap::new();
        map.insert(ByteStr::new("alice"), 1);
        // Borrow<str> lookup must find the entry.
        assert_eq!(map.get("alice"), Some(&1));
        use std::hash::BuildHasher;
        let state = std::collections::hash_map::RandomState::new();
        for s in ["", "alice", "café", "a\0"] {
            assert_eq!(state.hash_one(ByteStr::new(s)), state.hash_one(s));
        }
    }

    #[test]
    fn order_is_str_order() {
        let words = ["", "a", "ab", "b", "café", "cafe", "z\u{10ffff}", "é"];
        for a in words {
            for b in words {
                assert_eq!(ByteStr::new(a).cmp(&ByteStr::new(b)), a.cmp(b));
                assert_eq!(ByteStr::new(a) == ByteStr::new(b), a == b);
                assert_eq!(ByteStr::new(a) == *b, a == b);
            }
        }
    }

    #[test]
    fn truncated_cuts_on_char_boundary() {
        let s = ByteStr::new("é".repeat(10)); // 2 bytes each
        let t = s.truncated(5);
        assert_eq!(t.len(), 4);
        assert!(t.as_str().chars().all(|c| c == 'é'));
        // No-op when already short enough.
        assert_eq!(s.truncated(100), s);
    }

    #[test]
    fn display_and_debug_match_str() {
        let s = ByteStr::new("a\"b");
        assert_eq!(s.to_string(), "a\"b");
        assert_eq!(format!("{s:?}"), "\"a\\\"b\"");
    }
}
