//! Byte storage behind a simulated device.
//!
//! The backend stores real bytes so the whole system is testable
//! end-to-end: what MaSM writes to the simulated SSD is exactly what a
//! later range scan merges back. [`MemBackend`] is a growable in-memory
//! byte array; the timing model supplies all performance behaviour.

use parking_lot::RwLock;

use crate::error::{StorageError, StorageResult};

/// Growable in-memory random-access byte storage, safe for concurrent
/// use: the simulated device layer serializes *timing*, not data access.
#[derive(Debug, Default)]
pub(crate) struct MemBackend {
    data: RwLock<Vec<u8>>,
}

impl MemBackend {
    /// Create an empty in-memory backend.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Run `f` over the `len` bytes starting at `offset`, in place, and
    /// return its result with the backend's size — read under the lock
    /// the access holds anyway, so the device's scheduler need not come
    /// back for it. The backend's read lock is held while `f` runs: `f`
    /// must not write to this backend (or ask for its length) and
    /// should be short.
    pub(crate) fn read_with<R>(
        &self,
        offset: u64,
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> StorageResult<(R, u64)> {
        let data = self.data.read();
        let size = data.len() as u64;
        match offset.checked_add(len) {
            Some(end) if end <= size => Ok((f(&data[offset as usize..end as usize]), size)),
            _ => Err(StorageError::OutOfBounds {
                offset,
                len,
                capacity: size,
            }),
        }
    }

    /// Read `buf.len()` bytes starting at `offset`.
    pub(crate) fn read_at(&self, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        self.read_with(offset, buf.len() as u64, |bytes| buf.copy_from_slice(bytes))
            .map(|_| ())
    }

    /// Write `buf` starting at `offset`, growing the backend if needed;
    /// returns the backend's size after the write (see
    /// [`MemBackend::read_with`]). An extent that does not fit — the
    /// end offset overflows, or the memory for it cannot be had — is
    /// [`StorageError::OutOfBounds`], decided before anything changes.
    pub(crate) fn write_at(&self, offset: u64, buf: &[u8]) -> StorageResult<u64> {
        let mut data = self.data.write();
        let out_of_bounds = |capacity: usize| StorageError::OutOfBounds {
            offset,
            len: buf.len() as u64,
            capacity: capacity as u64,
        };
        let end = offset
            .checked_add(buf.len() as u64)
            .and_then(|end| usize::try_from(end).ok())
            .ok_or_else(|| out_of_bounds(data.len()))?;
        if end > data.len() {
            let grow = end - data.len();
            data.try_reserve(grow)
                .map_err(|_| out_of_bounds(data.len()))?;
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(buf);
        Ok(data.len() as u64)
    }

    /// Current size in bytes (high-water mark of writes).
    pub(crate) fn len(&self) -> u64 {
        self.data.read().len() as u64
    }

    /// True when nothing has been written yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zeroed(len: usize) -> MemBackend {
        let b = MemBackend::new();
        b.write_at(0, &vec![0; len]).unwrap();
        b
    }

    #[test]
    fn mem_roundtrip() {
        let b = MemBackend::new();
        b.write_at(0, b"hello world").unwrap();
        let mut buf = [0u8; 5];
        b.read_at(6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        assert_eq!(b.len(), 11);
    }

    #[test]
    fn mem_grows_on_write() {
        let b = MemBackend::new();
        assert!(b.is_empty());
        b.write_at(100, &[1, 2, 3]).unwrap();
        assert_eq!(b.len(), 103);
        let mut buf = [0u8; 3];
        b.read_at(100, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        // The gap is zero-filled.
        let mut gap = [9u8; 4];
        b.read_at(0, &mut gap).unwrap();
        assert_eq!(gap, [0, 0, 0, 0]);
    }

    #[test]
    fn mem_read_past_end_errors() {
        let b = zeroed(8);
        let mut buf = [0u8; 16];
        let err = b.read_at(0, &mut buf).unwrap_err();
        assert!(matches!(err, StorageError::OutOfBounds { .. }));
    }

    #[test]
    fn read_with_lends_the_bytes_and_checks_bounds() {
        let b = MemBackend::new();
        b.write_at(0, b"hello world").unwrap();
        let (bytes, size) = b.read_with(6, 5, |bytes| bytes.to_vec()).unwrap();
        assert_eq!((bytes.as_slice(), size), (&b"world"[..], 11));
        assert_eq!(b.read_with(11, 0, |bytes| bytes.len()).unwrap(), (0, 11));
        for (offset, len) in [(7, 5), (12, 0), (u64::MAX, 2)] {
            let err = b.read_with(offset, len, |_| ()).unwrap_err();
            assert!(matches!(err, StorageError::OutOfBounds { .. }), "{err}");
        }
    }

    #[test]
    fn write_reports_the_size_and_refuses_an_extent_that_does_not_fit() {
        let b = MemBackend::new();
        assert_eq!(b.write_at(4, b"abcd").unwrap(), 8);
        assert_eq!(
            b.write_at(0, b"xy").unwrap(),
            8,
            "an overwrite does not grow"
        );
        // The end offset overflows `u64`, or no allocation can hold it.
        for offset in [u64::MAX - 1, u64::MAX, 1 << 62] {
            let err = b.write_at(offset, &[0; 4]).unwrap_err();
            assert!(matches!(err, StorageError::OutOfBounds { .. }), "{err}");
            assert_eq!(b.len(), 8, "nothing was resized");
        }
        let mut buf = [0u8; 8];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"xy\0\0abcd");
    }

    #[test]
    fn mem_overwrite_in_place() {
        let b = zeroed(16);
        b.write_at(4, b"abcd").unwrap();
        b.write_at(6, b"XY").unwrap();
        let mut buf = [0u8; 4];
        b.read_at(4, &mut buf).unwrap();
        assert_eq!(&buf, b"abXY");
        assert_eq!(b.len(), 16, "overwrite must not grow");
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let b = std::sync::Arc::new(zeroed(8 * 1024));
        std::thread::scope(|s| {
            for i in 0..8u64 {
                let b = b.clone();
                s.spawn(move || {
                    let payload = vec![i as u8; 1024];
                    b.write_at(i * 1024, &payload).unwrap();
                });
            }
        });
        for i in 0..8u64 {
            let mut buf = vec![0u8; 1024];
            b.read_at(i * 1024, &mut buf).unwrap();
            assert!(buf.iter().all(|&x| x == i as u8));
        }
    }
}
