//! Offline stand-in for the `bytes` crate.
//!
//! Provides the small slice of the `Bytes` API the workspace uses: cheap
//! clones of an immutable buffer (`Arc<[u8]>` underneath), construction from
//! vectors and slices, and `Deref` to `[u8]`.
//!
//! One constructor the published crate spells differently (`BytesMut` +
//! `freeze`): [`Bytes::try_edit_copy`] builds a buffer *in* its shared
//! allocation. `From<Vec<u8>>` cannot — an `Arc<[u8]>` carries its counts in
//! front of the bytes, so adopting a `Vec` allocates again and copies.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// An immutable, reference-counted byte buffer. Clones share the allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// An empty buffer. As in the published crate it costs no allocation:
    /// every empty buffer made here is a clone of one.
    pub fn new() -> Self {
        static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
        Bytes(EMPTY.get_or_init(|| Arc::from(&[][..])).clone())
    }

    /// Copies `data` into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes(Arc::from(data))
    }

    /// Copies `src` into a new buffer and lets `edit` rewrite the copy in
    /// place before anyone else can see it: one allocation, and no second
    /// copy of what `edit` writes. An `Err` from `edit` drops the buffer.
    pub fn try_edit_copy<E>(
        src: &[u8],
        edit: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut buf: Arc<[u8]> = Arc::from(src);
        edit(Arc::get_mut(&mut buf).expect("a new Arc has one owner"))?;
        Ok(Bytes(buf))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes(Arc::from(data.into_boxed_slice()))
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Self::copy_from_slice(data)
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        // Collecting straight into the `Arc` is one allocation when the
        // iterator knows its length, and what it was before when not.
        Bytes(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_and_compare_equal() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(&*a, &[1, 2, 3]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn try_edit_copy_edits_only_the_copy() {
        let src = [7u8; 16];
        let edited = Bytes::try_edit_copy(&src, |buf| {
            buf[3] = 9;
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(edited[3], 9);
        assert_eq!(src, [7u8; 16]);
        let mut expected = src.to_vec();
        expected[3] = 9;
        assert_eq!(edited, Bytes::from(expected));
        assert_eq!(
            Bytes::try_edit_copy(&src, |_| Err("refused")),
            Err("refused")
        );
    }

    #[test]
    fn copy_from_slice_copies() {
        let v = [9u8; 16];
        let b = Bytes::copy_from_slice(&v);
        assert_eq!(b.as_ref(), &v);
    }
}
