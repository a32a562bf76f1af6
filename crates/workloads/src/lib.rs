//! # masm-workloads — workload generators for the MaSM reproduction
//!
//! * [`synthetic`] — the §4.1 synthetic setup: a table of 100-byte
//!   records populated with even-numbered keys (odd keys are reserved
//!   for insertions), plus a stream of well-formed updates with randomly
//!   selected types, uniformly or Zipf(θ) distributed over the key space
//!   (the skew experiments of §3.5).
//! * [`tpch`] — a TPC-H-*like* replay workload. The paper replays
//!   `blktrace` I/O traces of 20 TPC-H queries (SF 30) captured on a
//!   commercial row store; those traces reduce to multi-table range
//!   scans over a schema dominated by `lineitem` and `orders` (>80% of
//!   bytes). We regenerate equivalent range-scan traces from scaled
//!   tables with the same size proportions and query shapes — the
//!   substitution preserves the I/O interference behaviour the
//!   experiment measures (`repro fig03_tpch_inplace_row`,
//!   `fig04_tpch_inplace_col` and `fig14_tpch_masm`).

pub mod synthetic;
pub mod tpch;
pub(crate) mod zipf;

pub use synthetic::{SyntheticTable, UpdateMix, UpdateStreamGen};
