//! Error type for MaSM operations.

use std::fmt;

use masm_blockrun::BlockRunError;
use masm_pagestore::{BulkLoadError, RecordTooLarge};
use masm_storage::StorageError;

/// Errors surfaced by the MaSM engine.
#[derive(Debug)]
pub enum MasmError {
    /// Underlying storage failure.
    Storage(StorageError),
    /// Block-run format failure (checksum mismatch, corrupt region).
    BlockRun(BlockRunError),
    /// The SSD update cache is full and migration is required.
    CacheFull {
        /// Bytes currently cached.
        cached: u64,
        /// Cache capacity in bytes.
        capacity: u64,
    },
    /// Corrupt or truncated on-SSD / WAL encoding.
    Corrupt(&'static str),
    /// A transaction conflict (first-committer-wins under snapshot
    /// isolation).
    Conflict {
        /// Key on which the conflict was detected.
        key: u64,
    },
    /// Invalid configuration.
    Config(String),
    /// An update refused at the door — nothing was buffered, logged or
    /// counted: the run and log encoding cannot represent it (payload
    /// over `u16::MAX` bytes, more than 255 field patches) or the
    /// schema cannot apply it (a payload that is not the schema's width,
    /// a patch for a field that does not exist, or of the wrong width).
    InvalidUpdate {
        /// Key the update was for.
        key: u64,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// The redo log refused an append because an earlier append to it
    /// failed: the log may end in a hole there, and a record
    /// acknowledged behind a hole would not survive a crash. Nothing
    /// was logged; reads keep working; the table accepts writes again
    /// once it is reopened through `recover`.
    LogFailed {
        /// Log offset of the first append that failed.
        offset: u64,
    },
    /// A bulk load into a table that already has data: nothing was
    /// written or logged.
    TableNotEmpty {
        /// Heap pages the table has.
        pages: usize,
    },
}

impl fmt::Display for MasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MasmError::Storage(e) => write!(f, "storage: {e}"),
            MasmError::BlockRun(e) => write!(f, "block run: {e}"),
            MasmError::CacheFull { cached, capacity } => {
                write!(
                    f,
                    "update cache full: {cached}/{capacity} bytes; migrate first"
                )
            }
            MasmError::Corrupt(what) => write!(f, "corrupt encoding: {what}"),
            MasmError::Conflict { key } => write!(f, "write-write conflict on key {key}"),
            MasmError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            MasmError::InvalidUpdate { key, reason } => {
                write!(f, "invalid update for key {key}: {reason}")
            }
            MasmError::LogFailed { offset } => write!(
                f,
                "redo log failed at offset {offset}: no append is accepted until recovery"
            ),
            MasmError::TableNotEmpty { pages } => {
                write!(
                    f,
                    "the table already has {pages} heap pages: only an empty table loads"
                )
            }
        }
    }
}

impl std::error::Error for MasmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MasmError::Storage(e) => Some(e),
            MasmError::BlockRun(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for MasmError {
    fn from(e: StorageError) -> Self {
        MasmError::Storage(e)
    }
}

impl From<BlockRunError> for MasmError {
    fn from(e: BlockRunError) -> Self {
        // Storage failures keep their own variant so callers can match
        // on them uniformly.
        match e {
            BlockRunError::Storage(s) => MasmError::Storage(s),
            other => MasmError::BlockRun(other),
        }
    }
}

impl From<BulkLoadError> for MasmError {
    fn from(e: BulkLoadError) -> Self {
        match e {
            BulkLoadError::NotEmpty { pages } => MasmError::TableNotEmpty { pages },
            BulkLoadError::Storage(e) => MasmError::Storage(e),
        }
    }
}

impl From<RecordTooLarge> for MasmError {
    fn from(_: RecordTooLarge) -> Self {
        // `open` refuses a schema whose records cannot fit a page and
        // every update is checked against the schema at the door: only
        // the bytes of a heap page can still claim such a record.
        MasmError::Corrupt("heap record larger than a page")
    }
}

/// Convenience alias.
pub type MasmResult<T> = Result<T, MasmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MasmError::CacheFull {
            cached: 9,
            capacity: 10
        }
        .to_string()
        .contains("9/10"));
        assert!(MasmError::Corrupt("run header")
            .to_string()
            .contains("run header"));
        assert!(MasmError::Conflict { key: 7 }.to_string().contains("key 7"));
        let log_failed = MasmError::LogFailed { offset: 52 }.to_string();
        assert!(log_failed.contains("offset 52"), "{log_failed}");
    }

    #[test]
    fn from_storage_error() {
        let e: MasmError = StorageError::Faulted("x").into();
        assert!(matches!(e, MasmError::Storage(_)));
    }
}
