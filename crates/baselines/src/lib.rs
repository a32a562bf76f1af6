//! # masm-baselines — the comparison schemes of the MaSM paper
//!
//! Every scheme MaSM is evaluated against in §2 and §4:
//!
//! * [`inplace`] — conventional in-place updates: 4 KB read-modify-write
//!   I/Os against the main data disk. Concurrent with range scans they
//!   destroy the scan's sequential access pattern — the 1.5–4.1×
//!   slowdowns of Figures 3/4/9 and the ~tens-of-updates-per-second
//!   sustained rate of Figure 12.
//! * [`iu`] — Indexed Updates extended to SSDs (Figure 5(b)): updates
//!   append to SSD-resident tables, an in-memory index maps keys to
//!   entry locations, and range scans fetch entries with random 4 KB SSD
//!   reads — wasteful because "an entire SSD page has to be read and
//!   discarded for retrieving a single update entry" (up to 3.8× query
//!   slowdowns in §4.2).
//! * [`lsm`] — LSM applied to IU (Figure 5(c)): solves IU's random-read
//!   problem but copies each update through the level hierarchy,
//!   multiplying SSD writes (≈128× for a 2-level tree, ≈17× at the
//!   write-optimal height in the paper's 4 GB-flash/16 MB-memory
//!   setting) and so dividing SSD lifetime.

pub mod inplace;
pub mod iu;
pub mod lsm;

pub use inplace::InPlaceEngine;
pub use iu::IuEngine;
