//! # masm-storage — simulated storage substrate for the MaSM reproduction
//!
//! The MaSM paper (Athanassoulis et al., SIGMOD 2011) evaluates on a real
//! SATA disk (Seagate Barracuda, 77 MB/s sequential) and a real SSD
//! (Intel X25-E, 250 MB/s sequential read / 170 MB/s sequential write,
//! tens of thousands of 4 KB random reads per second). Its results are
//! *I/O-shape* results: sequential vs. random accesses, disk vs. SSD
//! bandwidth, and the overlap of asynchronous I/O across devices.
//!
//! This crate substitutes the hardware with a **byte-accurate storage layer
//! plus a calibrated device timing model**:
//!
//! * in-memory byte storage behind every device; data written is data
//!   read back, so all correctness properties are testable.
//! * [`device`] — [`DeviceProfile`]s turning an access (kind, offset,
//!   length, sequentiality) into a duration in virtual nanoseconds, with
//!   presets matching the paper's hardware constants.
//! * [`clock`] — [`SimClock`], a shared virtual timeline.
//! * [`sim`] — [`SimDevice`], which binds a backend to a profile, keeps a
//!   busy-until horizon (so concurrent request streams to one device
//!   serialize and disturb each other's sequentiality — the exact
//!   interference effect the paper measures), and records
//!   [`IoStatsSnapshot`]s including SSD wear counters.
//! * [`SessionHandle`] — a per-actor time cursor with synchronous
//!   and asynchronous (ticket-based) operations, modeling `libaio`-style
//!   overlap of disk and SSD accesses.
//!
//! All timing is virtual: experiments are deterministic and run in
//! milliseconds of wall-clock time while reproducing the relative
//! performance the paper reports.

pub(crate) mod backend;
pub mod clock;
pub mod device;
pub mod error;
pub(crate) mod lockcheck;
pub(crate) mod sched;
pub mod sim;
pub mod stats;

pub use clock::{Ns, SimClock};
pub use device::{AccessKind, DeviceProfile};
pub use error::{StorageError, StorageResult};
pub use lockcheck::{TrackedGuard, TrackedMutex};
pub use sched::{IoTicket, SessionHandle};
pub use sim::SimDevice;
pub use stats::{
    BufferStats, CacheStats, CacheStatsSnapshot, CompressionReport, IoStatsSnapshot, MergeReport,
    RunSetStats, StatFamily, StatField, StatKind, Unit, WearStats, WorkerStats,
    WorkerStatsRecorder,
};

/// Number of bytes in one kibibyte.
pub(crate) const KIB: u64 = 1024;
/// Number of bytes in one mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// Number of bytes in one gibibyte.
pub const GIB: u64 = 1024 * MIB;
