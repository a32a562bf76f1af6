//! # masm-core — MaSM: Materialized Sort-Merge online updates
//!
//! This crate implements the paper's primary contribution: caching
//! incoming data-warehouse updates on an SSD and merging them into table
//! range scans on the fly, treating query processing with differential
//! updates as an outer join between main data (disk, key order) and
//! cached updates (SSD).
//!
//! The five design goals of §1.2 and how the modules meet them:
//!
//! 1. **Low query overhead with a small memory footprint** — updates are
//!    external-sorted: [`run`] materializes sorted runs of updates on the
//!    SSD in the block-run format of `masm-blockrun` (checksummed,
//!    codec-compressed blocks — [`config::CodecChoice`] — with per-block
//!    zone maps and a per-run bloom filter), so a range scan reads only
//!    the blocks overlapping its key range ([`run::RunScan`]), hot
//!    blocks are served from a
//!    shared block cache with zero SSD reads, and [`merge`] combines
//!    them with the scan in one pass.
//! 2. **No random SSD writes** — runs are written strictly sequentially
//!    ([`run::write_run`]); the `random_writes` counter of the simulated
//!    SSD stays zero, and tests assert it.
//! 3. **Few SSD writes per update** — the run set implements MaSM-2M,
//!    MaSM-M and MaSM-αM run-management policies with the optimal `S`,
//!    `N` parameters of Theorems 3.2/3.3; [`theory`] has the closed
//!    forms the measurements are checked against.
//! 4. **Efficient in-place migration** — [`engine`] migrates runs back
//!    into the heap with a chunked copy-forward rewrite; timestamps on
//!    updates, pages, and queries decide whether a page has already
//!    absorbed an update, so concurrent queries and crash-redo are safe.
//! 5. **Correct ACID support** — [`txn`] provides timestamp ordering,
//!    snapshot-isolation private buffers, and lock-release visibility;
//!    [`wal`] (CRC-framed records, stable-tail group commit, torn-tail
//!    truncation) + [`engine::MasmEngine::recover`] rebuild the
//!    in-memory buffer (and only it) after a crash, replaying the
//!    table's one redo log.

pub(crate) mod algo;
pub mod config;
pub mod engine;
pub mod error;
pub mod membuf;
pub mod merge;
pub mod run;
pub mod theory;
pub mod ts;
pub mod txn;
pub mod update;
pub mod wal;

pub use config::{CodecChoice, IndexGranularity, MasmConfig};
pub use engine::{MasmEngine, MergeScan, RecoveryReport};
pub use error::{MasmError, MasmResult};
// Re-exported so engine users consume `MasmEngine::stats()` without a
// direct masm-telemetry dependency.
pub use masm_telemetry::{EngineStats, StatsDelta};
pub use update::{FieldPatch, UpdateOp, UpdateRecord};
