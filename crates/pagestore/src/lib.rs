//! # masm-pagestore — row-store substrate for the MaSM reproduction
//!
//! The paper's prototype is "a row-store DW supporting range scans on
//! tables. Tables are implemented as file system files with the slotted
//! page structure. Records are clustered according to the primary key
//! order. A range scan performs 1MB-sized disk I/O reads" (§4.1). This
//! crate is that prototype, built on the simulated devices of
//! [`masm_storage`]:
//!
//! * [`record`] — records with a `u64` primary key and a fixed- or
//!   variable-width payload.
//! * [`schema`] — fixed-width field layout so updates can modify
//!   individual attributes.
//! * [`page`] — slotted pages whose header carries the timestamp of the
//!   last update applied (the paper reuses the page LSN field for this;
//!   §3.2 "Timestamps"); a run of them in one buffer is a
//!   [`PageChunk`], which also packs records into new pages in place.
//! * [`index`] — the sparse primary-key index (smallest key per page).
//! * [`heap`] — the clustered table heap: bulk load, 1 MB prefetching
//!   range scans, 4 KB in-place page writes (for the in-place baseline),
//!   and a chunked copy-forward rewriter used by MaSM's in-place
//!   migration (one buffer read, one buffer written per chunk).

pub mod heap;
pub mod index;
pub mod page;
pub mod record;
pub mod schema;

pub use heap::{BulkLoadError, ChunkCommit, HeapConfig, HeapRewriter, RangeScan, TableHeap};
pub use index::SparseIndex;
pub use page::{Page, PageChunk, PageRef, RecordTooLarge};
pub use record::{Key, Record, RECORD_HEADER};
pub use schema::{Field, FieldType, Schema};
