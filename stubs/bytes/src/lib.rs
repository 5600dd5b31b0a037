//! Offline stand-in for the `bytes` crate.
//!
//! Implements the surface this workspace consumes: a reference-counted,
//! sliceable [`Bytes`] with the real crate's zero-copy semantics —
//! `From<Vec<u8>>` wraps the vector without copying it, and `clone` and
//! [`Bytes::slice`] share one backing allocation.
//!
//! The zero-copy behaviour matters: `rb-netsim` delivers every packet as a
//! [`Bytes`] handle, and `rb-wire`'s decoder returns string fields
//! as sub-slices of the arriving packet — a refcount bump instead of an
//! allocation per field.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. Dereferences to `&[u8]`;
/// `clone` and [`Bytes::slice`] are O(1) and allocation-free.
#[derive(Clone, Default)]
pub struct Bytes {
    /// Shared backing store; `None` encodes the empty buffer so that
    /// `Bytes::new()` never allocates.
    data: Option<Arc<Vec<u8>>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a sub-view sharing this buffer's backing allocation: a
    /// refcount bump, never a copy.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice range {start}..{end} out of bounds for Bytes of length {}",
            self.len
        );
        Bytes {
            data: if start == end {
                None
            } else {
                self.data.clone()
            },
            off: self.off + start,
            len: end - start,
        }
    }

    fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.off..self.off + self.len],
            None => &[],
        }
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for b in self.as_slice() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Wraps the vector without copying its contents (one refcount
    /// allocation).
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        if len == 0 {
            return Bytes::new();
        }
        Bytes {
            data: Some(Arc::new(v)),
            off: 0,
            len,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_the_backing_allocation() {
        let whole = Bytes::from(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let mid = whole.slice(2..6);
        assert_eq!(&mid[..], &[2, 3, 4, 5]);
        // Same Arc: the sub-view's data pointer lies inside the parent's.
        let parent_range =
            whole.as_slice().as_ptr() as usize..whole.as_slice().as_ptr() as usize + whole.len();
        assert!(parent_range.contains(&(mid.as_slice().as_ptr() as usize)));
        // Nested slicing composes.
        let inner = mid.slice(1..3);
        assert_eq!(&inner[..], &[3, 4]);
        // Empty tail slice is fine and holds no reference.
        let empty = whole.slice(8..8);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1, 2, 3]);
        let _ = b.slice(1..5);
    }

    #[test]
    fn from_vec_does_not_copy() {
        let v = b"hello".to_vec();
        let ptr = v.as_ptr() as usize;
        let bytes = Bytes::from(v);
        assert_eq!(bytes.as_slice().as_ptr() as usize, ptr);
        assert_eq!(&bytes[..], b"hello");
    }

    #[test]
    fn equality_and_hash_are_by_content() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = Bytes::from(vec![9, 9, 1, 2, 3]).slice(2..);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        let hash = |x: &Bytes| {
            let mut h = DefaultHasher::new();
            x.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        assert_eq!(a, [1u8, 2, 3][..]);
    }

    #[test]
    fn empty_bytes_never_allocate() {
        let e = Bytes::new();
        assert!(e.is_empty());
        assert!(e.data.is_none());
        assert!(Bytes::from(Vec::new()).data.is_none());
    }
}
