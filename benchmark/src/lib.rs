//! # masm-benchmark — the repository's benchmark
//!
//! A two-clock benchmark of the MaSM engine: the simulated device clock
//! (I/O cost, bit-identical run to run) beside real wall-clock (CPU
//! cost), end to end and layer by layer. One process, one thread, one
//! closed-loop client, in-memory simulated devices; the engine is driven
//! only through its public functions. See `README.md` for the metric
//! glossary, the workloads and the noise findings that shaped the run
//! skeleton.

pub mod alloc;
pub mod env;
pub mod harness;
pub mod layers;
pub mod model;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
