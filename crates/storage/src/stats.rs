//! Per-device operation statistics.

use crate::time::Ns;
use serde::{Deserialize, Serialize};

/// Operation counters and busy-time accounting for one device.
///
/// Every device model updates one of these as it services operations; the
/// evaluation harness reads them to reproduce Table 6 (SSD write counts) and
/// the utilization figures. Flash erases are the FTL's to count
/// ([`GcStats::erases`](crate::ssd::ftl::GcStats::erases)).
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Completed read operations.
    pub reads: u64,
    /// Completed write (program) operations.
    pub writes: u64,
    /// Bytes transferred by reads.
    pub read_bytes: u64,
    /// Bytes transferred by writes.
    pub write_bytes: u64,
    /// Total time the device spent servicing operations.
    pub busy: Ns,
    /// Total time requests waited in the device queue before service began.
    pub queued: Ns,
}

impl DeviceStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read of `bytes` that waited `queued` and took `service`.
    pub fn record_read(&mut self, bytes: usize, queued: Ns, service: Ns) {
        self.reads += 1;
        self.read_bytes += bytes as u64;
        self.queued += queued;
        self.busy += service;
    }

    /// Records a write of `bytes` that waited `queued` and took `service`.
    pub fn record_write(&mut self, bytes: usize, queued: Ns, service: Ns) {
        self.writes += 1;
        self.write_bytes += bytes as u64;
        self.queued += queued;
        self.busy += service;
    }

    /// Total completed operations (reads + writes).
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Device utilization over an elapsed span (clamped to 1.0).
    pub fn utilization(&self, elapsed: Ns) -> f64 {
        if elapsed == Ns::ZERO {
            0.0
        } else {
            (self.busy.as_ns() as f64 / elapsed.as_ns() as f64).min(1.0)
        }
    }

    /// Adds another device's counters into this one (for aggregating arrays).
    pub fn merge(&mut self, other: &DeviceStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.busy += other.busy;
        self.queued += other.queued;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = DeviceStats::new();
        s.record_read(4096, Ns::from_us(1), Ns::from_us(25));
        s.record_write(4096, Ns::ZERO, Ns::from_us(200));
        assert_eq!(s.ops(), 2);
        assert_eq!(s.read_bytes, 4096);
        assert_eq!(s.write_bytes, 4096);
        assert_eq!(s.busy, Ns::from_us(25) + Ns::from_us(200));
    }

    #[test]
    fn utilization_clamps() {
        let mut s = DeviceStats::new();
        s.record_read(4096, Ns::ZERO, Ns::from_ms(10));
        assert!(s.utilization(Ns::from_ms(5)) <= 1.0);
        assert!((s.utilization(Ns::from_ms(20)) - 0.5).abs() < 1e-9);
        assert_eq!(s.utilization(Ns::ZERO), 0.0);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = DeviceStats::new();
        a.record_read(100, Ns::ZERO, Ns::from_us(1));
        let mut b = DeviceStats::new();
        b.record_write(200, Ns::from_us(2), Ns::from_us(3));
        a.merge(&b);
        assert_eq!(a.reads, 1);
        assert_eq!(a.writes, 1);
        assert_eq!(a.read_bytes, 100);
        assert_eq!(a.write_bytes, 200);
        assert_eq!(a.queued, Ns::from_us(2));
    }
}
