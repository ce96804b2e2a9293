//! Controller-level statistics.
//!
//! Beyond the per-device counters in `icash-storage`, the evaluation needs
//! to see *why* I-CASH behaves as it does: how many blocks are references
//! vs associates vs independents (the paper reports 1 % / 85 % / 14 % for
//! SysBench), how often reads were served without touching the HDD, and how
//! much delta traffic the log absorbed.

use serde::{Deserialize, Serialize};

/// Counters maintained by the I-CASH controller.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IcashStats {
    /// Host read requests processed.
    pub reads: u64,
    /// Host write requests processed.
    pub writes: u64,
    /// Reads served entirely from cached data blocks in RAM.
    pub ram_hits: u64,
    /// Reads served by SSD reference + delta decode (no HDD access).
    pub delta_hits: u64,
    /// Reads that had to fetch a packed delta block from the HDD log.
    pub log_fetches: u64,
    /// Deltas recovered as by-catch when unpacking fetched log blocks.
    pub log_prefetched_deltas: u64,
    /// Reads that fell through to the HDD home area.
    pub home_reads: u64,
    /// Writes absorbed as RAM deltas (the fast path).
    pub delta_writes: u64,
    /// Writes whose delta exceeded the threshold and went straight to SSD.
    pub ssd_direct_writes: u64,
    /// Writes stored as full independent blocks.
    pub independent_writes: u64,
    /// Reference blocks installed into the SSD by the scanner.
    pub ref_installs: u64,
    /// Blocks bound to a reference (became associates).
    pub binds: u64,
    /// Scan phases executed.
    pub scans: u64,
    /// Appends to the HDD log, one sequential write each: a flush's batch
    /// or a group commit. Not flush triggers: one that only stages (or
    /// whose whole batch went home) appends nothing.
    pub flushes: u64,
    /// Packed delta blocks written to the HDD log.
    pub log_blocks_written: u64,
    /// Current virtual blocks by role: (references, associates, independents).
    pub role_counts: (u64, u64, u64),
    /// Reads reported failed to the host: retry and repair both exhausted.
    pub unrecoverable_reads: u64,
    /// Writes that fell back to a degraded path (e.g. an SSD slot write
    /// failed and the block was stored as a log-resident independent).
    pub degraded_writes: u64,
    /// Log frames dropped at recovery because a torn write (or a corrupt
    /// frame) made them unverifiable.
    pub torn_frames_dropped: u64,
    /// Log entries ignored at recovery because the slot directory holds a
    /// newer generation for the block (stale data must not resurrect).
    pub stale_frames_dropped: u64,
    /// Log entries dropped from the tail of a *torn* multi-entry frame at
    /// recovery (the frame replayed up to its last complete entry).
    pub torn_entries_dropped: u64,
    /// High-water mark of buffered staging bytes.
    pub staging_high_water: u64,
    /// Reads served from the HDD home copy because the SSD was failed (or
    /// the slot not yet rebuilt).
    pub degraded_reads: u64,
    /// Writes refused admission by staging-buffer backpressure.
    pub busy_rejections: u64,
    /// Writes failed fast because the HDD was in the `Failed` state.
    pub failed_fast_writes: u64,
}

impl IcashStats {
    /// Fraction of reads that avoided the HDD entirely.
    pub fn hdd_free_read_fraction(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        (self.ram_hits + self.delta_hits) as f64 / self.reads as f64
    }

    /// Fraction of writes absorbed as deltas.
    pub fn delta_write_fraction(&self) -> f64 {
        if self.writes == 0 {
            return 0.0;
        }
        self.delta_writes as f64 / self.writes as f64
    }

    /// Role mix as fractions (references, associates, independents);
    /// the paper's SysBench run reports roughly (0.01, 0.85, 0.14).
    pub fn role_fractions(&self) -> (f64, f64, f64) {
        let (r, a, i) = self.role_counts;
        let total = (r + a + i).max(1) as f64;
        (r as f64 / total, a as f64 / total, i as f64 / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_handle_zero_totals() {
        let s = IcashStats::default();
        assert_eq!(s.hdd_free_read_fraction(), 0.0);
        assert_eq!(s.delta_write_fraction(), 0.0);
        let (r, a, i) = s.role_fractions();
        assert_eq!((r, a, i), (0.0, 0.0, 0.0));
    }

    #[test]
    fn fractions_compute() {
        let s = IcashStats {
            reads: 10,
            ram_hits: 3,
            delta_hits: 4,
            writes: 8,
            delta_writes: 6,
            role_counts: (1, 85, 14),
            ..IcashStats::default()
        };
        assert!((s.hdd_free_read_fraction() - 0.7).abs() < 1e-12);
        assert!((s.delta_write_fraction() - 0.75).abs() < 1e-12);
        let (r, a, _) = s.role_fractions();
        assert!((r - 0.01).abs() < 1e-12);
        assert!((a - 0.85).abs() < 1e-12);
    }
}
