//! The four workloads: what each is sized like and why it exists.

use masm_core::{IndexGranularity, MasmConfig};
use masm_workloads::UpdateMix;

/// How a lap is put together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Writes and reads in separate blocks: k ingest→migrate cycles from
    /// an empty cache, refill to the read-state, then k repetitions of
    /// each read at that fixed state.
    Blocks,
    /// Reads beside writes: inside every ingest→migrate cycle, after each
    /// sixteenth of the cycle's updates, a batch of range scans and gets;
    /// one full scan at half fill.
    Mixed,
}

/// `--smoke` shrinks every size so all four workloads finish in seconds
/// (the crate's tests run it); the numbers it prints mean nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes recorded in `BENCHMARK.json`.
    Full,
    /// Tiny tables, one repetition of everything.
    Smoke,
}

/// One workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Main-data table size in MiB (100-byte records).
    pub table_mib: u64,
    /// Update-cache flash in 4 KiB pages.
    pub flash_pages: u64,
    /// Block cache tier 1 (decoded blocks), bytes.
    pub tier1_bytes: usize,
    /// Block cache tier 2 (stored victim blocks), bytes; 0 disables it.
    pub tier2_bytes: usize,
    /// `Some(θ)` draws update keys Zipf(θ); `None` uniformly.
    pub zipf_theta: Option<f64>,
    /// Insert / delete / modify shares of the update stream.
    pub mix: UpdateMix,
    /// Cache fill at which reads are measured, as a share of the
    /// migration threshold.
    pub read_fill: f64,
    /// Lap layout.
    pub shape: Shape,
    /// Ingest→migrate cycles per lap.
    pub cycles_per_lap: usize,
    /// Repetitions of each read per lap ([`Shape::Blocks`] only).
    pub reads_per_lap: usize,
    /// Range scans per batch (per sixteenth of a cycle when mixed).
    pub ranges_per_batch: usize,
    /// Gets per batch (per sixteenth of a cycle when mixed).
    pub gets_per_batch: usize,
    /// MiB to pre-fault before anything is timed: at least the steady
    /// resident set (two table copies during bulk load, the model, the
    /// log).
    pub prefault_mib: usize,
}

/// Laps per run: every phase's repetitions fall into three windows
/// several seconds apart, so that no single neighbour burst (they last
/// a few seconds) can cover every repetition of one phase.
pub const LAPS: usize = 3;

/// Records covered by one range scan: 1 MiB of table.
pub const RANGE_RECORDS: u64 = (1 << 20) / 100;

const THIRDS: UpdateMix = UpdateMix {
    insert: 1.0 / 3.0,
    delete: 1.0 / 3.0,
    modify: 1.0 / 3.0,
};

/// The benchmark's workloads, in the order of `BENCHMARK.json`.
pub fn all() -> [Spec; 4] {
    let scan_cold = Spec {
        name: "scan_cold",
        table_mib: 256,
        flash_pages: 2560,
        // ≈5 % of the run bytes at the read-state: every run block is a
        // device read + CRC + codec decode + cache insert and evict.
        tier1_bytes: 256 << 10,
        tier2_bytes: 0,
        zipf_theta: None,
        mix: THIRDS,
        // ≈ 36 one-pass runs, so the scan set-up always merges 20 of
        // them and reads see ≈ 17. At the paper's 50 % there were 26 or
        // 27, on either side of the 26 query pages: one lap read 8 runs
        // and the next 26, and `get` cost 3.0 or 4.3 µs accordingly.
        read_fill: 0.68,
        shape: Shape::Blocks,
        cycles_per_lap: 3,
        reads_per_lap: 4,
        ranges_per_batch: 100,
        gets_per_batch: 60_000,
        prefault_mib: 768,
    };
    [
        scan_cold.clone(),
        Spec {
            name: "scan_hot",
            // Every decoded run block fits: after the first scan all
            // blocks are tier-1 hits and the codec is bypassed.
            tier1_bytes: 64 << 20,
            ..scan_cold.clone()
        },
        Spec {
            name: "ingest_sustained",
            // Same flash on a quarter of the table: migration is 4x
            // cheaper per cycle, so the write path dominates.
            table_mib: 64,
            tier1_bytes: 8 << 20,
            tier2_bytes: 4 << 20,
            // ≈ 38 one-pass runs before the set-up merge; at 85 % there
            // were 44–46, astride the second merge's threshold of 45.
            read_fill: 0.72,
            cycles_per_lap: 5,
            prefault_mib: 320,
            ..scan_cold.clone()
        },
        Spec {
            name: "mixed_online",
            tier1_bytes: 8 << 20,
            tier2_bytes: 4 << 20,
            zipf_theta: Some(0.99),
            mix: UpdateMix {
                insert: 0.2,
                delete: 0.2,
                modify: 0.6,
            },
            // Only the final crash image's fill: reads happen all along.
            read_fill: 0.5,
            shape: Shape::Mixed,
            cycles_per_lap: 2,
            ranges_per_batch: 10,
            gets_per_batch: 2_000,
            ..scan_cold
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// This workload at `scale`, with its repetition counts stretched to
    /// fill roughly `seconds` of measuring (20 s is the calibrated size).
    ///
    /// The work done is a fixed function of `(workload, seconds)`, never
    /// of a timer: a timer-bounded loop would do a different number of
    /// repetitions under interference, and the deterministic metrics
    /// would stop being bit-identical.
    pub fn sized(mut self, scale: Scale, seconds: u64) -> Spec {
        let stretch = |k: usize| ((k as u64 * seconds.max(1) + 10) / 20).max(1) as usize;
        match scale {
            Scale::Full => {
                self.cycles_per_lap = stretch(self.cycles_per_lap);
                self.reads_per_lap = stretch(self.reads_per_lap);
            }
            Scale::Smoke => {
                self.table_mib = 2;
                self.flash_pages = 100;
                self.tier1_bytes = (self.tier1_bytes / 64).max(16 << 10);
                self.tier2_bytes /= 64;
                self.cycles_per_lap = 1;
                self.reads_per_lap = 1;
                self.ranges_per_batch = 4;
                self.gets_per_batch = 400;
                self.prefault_mib = 8;
            }
        }
        self
    }

    /// Records the table is loaded with.
    pub fn records(&self) -> u64 {
        self.table_mib * (1 << 20) / 100
    }

    /// The engine configuration: 4 KiB flash pages and blocks, α = 1,
    /// the default `Delta` codec, inline maintenance (no workers).
    pub fn config(&self) -> MasmConfig {
        MasmConfig {
            ssd_page_size: 4096,
            ssd_capacity: self.flash_pages * 4096,
            alpha: 1.0,
            index_granularity: IndexGranularity::Fine,
            block_cache_bytes: self.tier1_bytes,
            cache_tier2_bytes: self.tier2_bytes,
            background_workers: 0,
            ..MasmConfig::default()
        }
    }
}
