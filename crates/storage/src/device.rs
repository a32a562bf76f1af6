//! Device timing profiles.
//!
//! A [`DeviceProfile`] converts a single access — kind (read/write),
//! length, and whether it continues the previous access (sequential) —
//! into a duration in virtual nanoseconds. The presets are calibrated to
//! the hardware of the paper's §4.1 experimental setup:
//!
//! * [`DeviceProfile::hdd_barracuda`] — 200 GB 7200 rpm Seagate Barracuda:
//!   77 MB/s sequential read/write, ~8.5 ms average seek, ~4.17 ms average
//!   rotational delay (half a revolution at 7200 rpm). A random 4 KB access
//!   therefore costs ≈12.7 ms, i.e. ≈78 IOPS, matching the paper's measured
//!   68 random writes/s (Figure 12) to first order.
//! * [`DeviceProfile::ssd_x25e`] — Intel X25-E: 250 MB/s sequential read,
//!   170 MB/s sequential write, ≈26 µs random-read setup (the paper cites
//!   "over 35,000 4KB random reads per second" under native command
//!   queuing), and an erase/wear-leveling penalty on *random* writes —
//!   the reason MaSM's design goal 2 ("no random SSD writes") matters.

use crate::clock::Ns;

/// Kind of device access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read bytes from the device.
    Read,
    /// Write bytes to the device.
    Write,
}

/// Distance-dependent seek model for rotating media:
/// `seek(d) = min + span · sqrt(d / device_span) + rotational`.
///
/// The square-root law is the classic disk-arm model; with two uniform
/// random positions `E[sqrt(|X−Y|)] ≈ 0.532`, so the defaults reproduce
/// the Barracuda's ~8.5 ms average seek while making *short* seeks (an
/// elevator-sorted update batch, say) several times cheaper than full
/// random strokes — the effect behind the paper's §2.2 observation that
/// mixing workloads costs 1.6× beyond the sum of the parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeekModel {
    /// Minimum (track-to-track) seek in ns.
    pub min: Ns,
    /// Full-stroke seek minus the minimum, in ns.
    pub span: Ns,
    /// Average rotational delay in ns (half a revolution).
    pub rotational: Ns,
}

/// Timing model of one storage device.
///
/// `duration(kind, len, sequential)` =
/// `setup(kind, sequential) + len / bandwidth(kind)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name (used in reports).
    pub name: &'static str,
    /// Sequential read bandwidth in bytes per second.
    pub seq_read_bw: f64,
    /// Sequential write bandwidth in bytes per second.
    pub seq_write_bw: f64,
    /// Fixed cost of a non-sequential read (seek + rotation for HDDs,
    /// channel setup for SSDs), in ns.
    pub rand_read_setup: Ns,
    /// Fixed cost of a non-sequential write, in ns. For SSDs this includes
    /// the amortized erase / wear-leveling penalty of random writes.
    pub rand_write_setup: Ns,
    /// Fixed per-operation overhead even when sequential (command issue,
    /// controller), in ns.
    pub seq_setup: Ns,
    /// Extra *latency* of a random operation beyond its device
    /// occupancy, in ns. SSDs reach their random-read IOPS only under
    /// native command queuing: a single queued 4 KB read occupies the
    /// device ~28 µs (35 k IOPS) but completes ~85 µs after issue. The
    /// extra latency delays the caller's completion without blocking
    /// other requests — dependent (queue-depth-1) read chains feel it in
    /// full, deep pipelines hide it.
    pub rand_extra_latency: Ns,
    /// Distance-dependent seek model (rotating media). When set, the
    /// random-access setup of an op is computed from the seek distance
    /// instead of the flat `rand_*_setup` averages.
    pub seek_model: Option<SeekModel>,
    /// Number of concurrent sequential *write* streams the device can
    /// keep open (NCQ / multi-channel flash). `0` models a single
    /// physical head: sequentiality is judged against the one most
    /// recent access, so interleaved streams destroy each other — the
    /// HDD interference effect of the paper's §2.2. A positive value
    /// makes the device track that many open write-stream tails (plus
    /// `4×` as many read tails): an access is sequential when it
    /// continues *its own* stream, which is how flash devices behave —
    /// the random-write erase penalty comes from scattered writes, not
    /// from interleaving independent append streams.
    pub queue_streams: usize,
    /// Erase-block size in bytes used for wear accounting (SSDs). Zero
    /// disables wear tracking (HDDs).
    pub erase_block: u64,
}

impl DeviceProfile {
    /// The paper's main-data disk: 200 GB 7200 rpm SATA Barracuda.
    pub fn hdd_barracuda() -> Self {
        DeviceProfile {
            name: "hdd-barracuda-7200",
            seq_read_bw: 77.0e6,
            seq_write_bw: 77.0e6,
            // 8.5 ms average seek + 4.17 ms average rotational delay.
            rand_read_setup: 12_670_000,
            rand_write_setup: 12_670_000,
            seq_setup: 50_000,     // 50 µs command overhead
            rand_extra_latency: 0, // the seek model is already latency
            // min 0.8 ms, full stroke ~15.3 ms, rotation 4.17 ms:
            // averages to the 12.67 ms flat model over random distances.
            seek_model: Some(SeekModel {
                min: 800_000,
                span: 14_500_000,
                rotational: 4_170_000,
            }),
            queue_streams: 0,
            erase_block: 0,
        }
    }

    /// The paper's update-cache SSD: Intel X25-E (SLC).
    pub fn ssd_x25e() -> Self {
        DeviceProfile {
            name: "ssd-intel-x25e",
            seq_read_bw: 250.0e6,
            seq_write_bw: 170.0e6,
            // ~35k 4KB random reads/s => ~28.5 µs per op; 4KB transfer at
            // 250 MB/s is 16.4 µs, so setup ≈ 12 µs.
            rand_read_setup: 12_000,
            // Random writes trigger erase and wear-leveling; uFLIP-style
            // measurements put sustained random 4KB writes around
            // ~2-3k IOPS on this class of device.
            rand_write_setup: 350_000,
            seq_setup: 5_000,
            // QD1 4 KB random read latency ~85 µs vs ~28 µs occupancy.
            rand_extra_latency: 55_000,
            seek_model: None,
            // The X25-E advertises NCQ depth 32; eight concurrent
            // sequential write streams is conservative for its
            // ten-channel controller.
            queue_streams: 8,
            erase_block: 256 * 1024,
        }
    }

    /// Duration of an access of `len` bytes, using the *average* seek
    /// cost for non-sequential accesses.
    ///
    /// `sequential` means the access starts exactly where the previous
    /// access to the device ended (same kind of head/channel continuation).
    /// The calibration tests read the paper's device constants off it.
    #[cfg(test)]
    pub(crate) fn duration(&self, kind: AccessKind, len: u64, sequential: bool) -> Ns {
        // E[sqrt(|X-Y|)] for uniform X, Y is ~0.532.
        self.duration_at_distance(kind, len, sequential, 0.532f64.powi(2))
    }

    /// Duration of an access whose seek distance is `dist_frac` of the
    /// device span (only meaningful with a [`SeekModel`]; other devices
    /// ignore the distance).
    pub fn duration_at_distance(
        &self,
        kind: AccessKind,
        len: u64,
        sequential: bool,
        dist_frac: f64,
    ) -> Ns {
        let (bw, setup) = match (kind, sequential) {
            (AccessKind::Read, true) => (self.seq_read_bw, self.seq_setup),
            (AccessKind::Read, false) => (self.seq_read_bw, self.rand_read_setup),
            (AccessKind::Write, true) => (self.seq_write_bw, self.seq_setup),
            (AccessKind::Write, false) => (self.seq_write_bw, self.rand_write_setup),
        };
        let setup = match (&self.seek_model, sequential) {
            (Some(m), false) => {
                m.min + (m.span as f64 * dist_frac.clamp(0.0, 1.0).sqrt()) as Ns + m.rotational
            }
            _ => setup,
        };
        let transfer = (len as f64) / bw * 1e9;
        setup + transfer as Ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MIB;

    #[test]
    fn hdd_sequential_read_tracks_bandwidth() {
        let p = DeviceProfile::hdd_barracuda();
        // 77 MB at 77 MB/s should take ~1 s.
        let d = p.duration(AccessKind::Read, 77_000_000, true);
        assert!((d as f64 - 1e9).abs() < 1e9 * 0.01, "got {d}");
    }

    #[test]
    fn hdd_random_4k_is_about_12_7_ms() {
        let p = DeviceProfile::hdd_barracuda();
        let d = p.duration(AccessKind::Read, 4096, false);
        assert!(d > 12_000_000 && d < 14_000_000, "got {d}");
    }

    #[test]
    fn hdd_random_iops_matches_paper_ballpark() {
        // Paper Figure 12 measures 68 sustained random 4KB writes/s.
        let p = DeviceProfile::hdd_barracuda();
        let d = p.duration(AccessKind::Write, 4096, false);
        let iops = 1e9 / d as f64;
        assert!((60.0..100.0).contains(&iops), "got {iops}");
    }

    #[test]
    fn ssd_random_read_iops_in_tens_of_thousands() {
        let p = DeviceProfile::ssd_x25e();
        let d = p.duration(AccessKind::Read, 4096, false);
        let iops = 1e9 / d as f64;
        assert!(iops > 25_000.0, "got {iops}");
    }

    #[test]
    fn ssd_reads_faster_than_hdd_reads() {
        let ssd = DeviceProfile::ssd_x25e();
        let hdd = DeviceProfile::hdd_barracuda();
        for &len in &[4096u64, 64 * 1024, MIB] {
            for &seq in &[true, false] {
                assert!(
                    ssd.duration(AccessKind::Read, len, seq)
                        < hdd.duration(AccessKind::Read, len, seq)
                );
            }
        }
    }

    #[test]
    fn ssd_random_write_much_slower_than_sequential() {
        let p = DeviceProfile::ssd_x25e();
        let rand = p.duration(AccessKind::Write, 4096, false);
        let seq = p.duration(AccessKind::Write, 4096, true);
        assert!(rand > 5 * seq, "rand={rand} seq={seq}");
    }

    #[test]
    fn duration_scales_linearly_in_len() {
        let p = DeviceProfile::ssd_x25e();
        let d1 = p.duration(AccessKind::Read, MIB, true);
        let d2 = p.duration(AccessKind::Read, 2 * MIB, true);
        let fixed = p.seq_setup;
        assert!((d2 - fixed) > (d1 - fixed) * 19 / 10);
    }
}
