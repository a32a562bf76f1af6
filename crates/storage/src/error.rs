//! Error type shared by the storage substrate.

use std::fmt;

/// Errors surfaced by storage backends and simulated devices.
#[derive(Debug)]
pub enum StorageError {
    /// An access touched bytes beyond the end of the device.
    OutOfBounds {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// Underlying OS-level I/O failure.
    Io(std::io::Error),
    /// The device was explicitly failed by fault injection.
    Faulted(&'static str),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::OutOfBounds {
                offset,
                len,
                capacity,
            } => write!(
                f,
                "access out of bounds: offset={offset} len={len} capacity={capacity}"
            ),
            StorageError::Io(e) => write!(f, "io error: {e}"),
            StorageError::Faulted(msg) => write!(f, "device faulted: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience alias used throughout the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_out_of_bounds() {
        let e = StorageError::OutOfBounds {
            offset: 10,
            len: 20,
            capacity: 16,
        };
        let s = e.to_string();
        assert!(s.contains("offset=10"));
        assert!(s.contains("capacity=16"));
    }

    #[test]
    fn display_faulted() {
        let e = StorageError::Faulted("injected");
        assert!(e.to_string().contains("injected"));
    }

    #[test]
    fn io_error_source_preserved() {
        let e = StorageError::from(std::io::Error::other("boom"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("boom"));
    }
}
