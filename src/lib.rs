//! # masm — umbrella crate for the MaSM reproduction workspace
//!
//! Re-exports the workspace crates so the examples can depend on one
//! package. See the individual crates for the real documentation:
//!
//! * [`masm_storage`] — simulated HDD/SSD devices with calibrated timing.
//! * [`masm_pagestore`] — slotted-page clustered heap (the "main data").
//! * [`masm_blockrun`] — block-based immutable run format + block cache.
//! * [`masm_core`] — the MaSM engine itself.
//! * [`masm_baselines`] — in-place / IU / LSM comparison schemes.
//! * [`masm_workloads`] — synthetic, Zipf, and TPC-H-like generators.
//! * [`masm_bench`] — the experiment harness: the paper's figures
//!   behind the `repro` binary.

pub use masm_baselines;
pub use masm_bench;
pub use masm_blockrun;
pub use masm_core;
pub use masm_pagestore;
pub use masm_storage;
pub use masm_workloads;
