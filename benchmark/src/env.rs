//! What the benchmark reads from, and does to, its own process: memory
//! pre-faulting, resident-set readings, run-queue wait and a CPU speed
//! probe.

use std::time::Instant;

/// Touch `mb` MiB of fresh memory and give it back, untimed by any
/// metric: after the VM has idled, first-touch page faults are several
/// times slower, and without this the first allocation-heavy phase of
/// the first run in a set inherits that. Returns how long it took (ms).
pub fn prefault(mb: usize) -> f64 {
    let t = Instant::now();
    let mut block = vec![0u8; mb << 20];
    for i in (0..block.len()).step_by(4096) {
        block[i] = 1;
    }
    std::hint::black_box(&block);
    drop(block);
    t.elapsed().as_secs_f64() * 1e3
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process since [`PeakRss::start`], which
/// comes after the pre-fault.
pub struct PeakRss {
    /// Whether the kernel's high-water mark could be reset. Where procfs
    /// forbids it the mark still includes the pre-fault, so the current
    /// resident set is reported instead.
    reset: bool,
}

impl PeakRss {
    /// Begin a fresh peak: `5` to `clear_refs` resets `VmHWM`.
    pub fn start() -> PeakRss {
        PeakRss {
            reset: std::fs::write("/proc/self/clear_refs", "5").is_ok(),
        }
    }

    /// The peak so far, in MB (10^6 bytes); NaN where procfs is absent.
    pub fn peak_mb(&self) -> f64 {
        let field = if self.reset { "VmHWM:" } else { "VmRSS:" };
        status_kb(field).map_or(f64::NAN, |kb| kb as f64 * 1024.0 / 1e6)
    }
}

/// Nanoseconds this thread has spent runnable but waiting for a CPU
/// (second field of `/proc/thread-self/schedstat`); 0 where unreadable.
pub fn runq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Time a fixed arithmetic loop (ns). The same loop every lap: if its
/// time moves, the machine moved, not the program under test.
pub fn calibration_ns() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..4_000_000u64 {
        x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as f64
}
