//! Workload specifications (the paper's Tables 3–4).
//!
//! A [`WorkloadSpec`] captures both the measured block-level
//! characteristics of a benchmark (op counts, request sizes, data-set size
//! — Table 4) and the simulation parameters that reproduce its behaviour
//! (read fraction, locality, transaction shape, content profile).

use crate::content::ContentProfile;
use icash_storage::block::BLOCK_SIZE;
use icash_storage::time::Ns;
use serde::{Deserialize, Serialize};

/// Full description of one benchmark workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Benchmark name as in Table 3.
    pub name: String,
    /// Data-set size in bytes (Table 4 "Data Size").
    pub data_bytes: u64,
    /// Reads issued by the real benchmark (Table 4 "# of Read").
    pub table4_reads: u64,
    /// Writes issued by the real benchmark (Table 4 "# of Write").
    pub table4_writes: u64,
    /// Mean read request size in bytes (Table 4).
    pub avg_read_bytes: u64,
    /// Mean write request size in bytes (Table 4).
    pub avg_write_bytes: u64,
    /// SSD budget for I-CASH / LRU / Dedup in this experiment (§5).
    pub ssd_bytes: u64,
    /// Guest VM RAM (Table 4's last column): the page cache that sits in
    /// front of every storage system.
    pub vm_ram_bytes: u64,
    /// I-CASH RAM delta-buffer budget in this experiment (§5).
    pub ram_bytes: u64,
    /// Zipf exponent over the working set (0 = uniform).
    pub zipf_exponent: f64,
    /// Fraction of the data set the benchmark ever touches. Real traces
    /// tour a bounded region ("only 4.5–22.3% of the file system data were
    /// accessed over a week", paper §3.1); 1.0 = everything.
    pub active_fraction: f64,
    /// Probability an op starts a sequential run.
    pub sequential_prob: f64,
    /// Ops in one sequential run.
    pub seq_run_ops: u32,
    /// Host I/Os per application transaction.
    pub ops_per_transaction: u64,
    /// Application CPU work per I/O (drives CPU utilization).
    pub app_cpu_per_op: Ns,
    /// Client-side wait per I/O not spent on this machine's CPU (network
    /// round-trips, the separate workload-generator machine of §4.4).
    pub think_per_op: Ns,
    /// Content behaviour of this benchmark's data.
    pub profile: ContentProfile,
    /// Closed-loop client count the real benchmark used (16 SysBench
    /// threads, 100 LoadSim users, 300 RUBiS clients, ...).
    pub clients: u32,
    /// Default (scaled-down) ops for one simulated run; `--full` runs use
    /// the Table 4 totals.
    pub default_ops: u64,
}

impl WorkloadSpec {
    /// Fraction of operations that are reads, from the Table 4 counts.
    pub fn read_fraction(&self) -> f64 {
        let total = self.table4_reads + self.table4_writes;
        if total == 0 {
            0.5
        } else {
            self.table4_reads as f64 / total as f64
        }
    }

    /// Data-set size in 4 KB blocks.
    pub fn data_blocks(&self) -> u64 {
        self.data_bytes.div_ceil(BLOCK_SIZE as u64)
    }

    /// Mean read size in whole blocks (≥ 1).
    pub fn read_blocks(&self) -> u32 {
        (self.avg_read_bytes.div_ceil(BLOCK_SIZE as u64) as u32).max(1)
    }

    /// Mean write size in whole blocks (≥ 1).
    pub fn write_blocks(&self) -> u32 {
        (self.avg_write_bytes.div_ceil(BLOCK_SIZE as u64) as u32).max(1)
    }

    /// Total ops the real benchmark issued (Table 4).
    pub fn table4_ops(&self) -> u64 {
        self.table4_reads + self.table4_writes
    }

    /// A proportionally scaled copy for quick runs: issuing `ops`
    /// operations against a data set (and SSD/RAM budgets) shrunk by
    /// `ops / table4_ops` preserves the cache-pressure and working-set
    /// dynamics of the full-length benchmark.
    pub fn scaled_to_ops(&self, ops: u64) -> WorkloadSpec {
        let factor = (ops as f64 / self.table4_ops().max(1) as f64).clamp(1.0 / 256.0, 1.0);
        let mut s = self.clone();
        s.data_bytes = ((self.data_bytes as f64 * factor) as u64).max(16 << 20);
        s.ssd_bytes = ((self.ssd_bytes as f64 * factor) as u64).max(2 << 20);
        s.vm_ram_bytes = ((self.vm_ram_bytes as f64 * factor) as u64).max(1 << 20);
        s.ram_bytes = ((self.ram_bytes as f64 * factor) as u64).max(1 << 20);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test".into(),
            data_bytes: 960 << 20,
            table4_reads: 619_000,
            table4_writes: 236_000,
            avg_read_bytes: 6_656,
            avg_write_bytes: 7_680,
            ssd_bytes: 128 << 20,
            vm_ram_bytes: 256 << 20,
            ram_bytes: 32 << 20,
            zipf_exponent: 1.1,
            active_fraction: 1.0,
            sequential_prob: 0.05,
            seq_run_ops: 8,
            ops_per_transaction: 10,
            app_cpu_per_op: Ns::from_us(500),
            think_per_op: Ns::from_us(500),
            profile: ContentProfile::database(),
            clients: 16,
            default_ops: 50_000,
        }
    }

    #[test]
    fn scaling_preserves_ratios() {
        let s = spec();
        let q = s.scaled_to_ops(s.table4_ops() / 10);
        let ratio = |a: u64, b: u64| a as f64 / b as f64;
        assert!((ratio(q.ssd_bytes, q.data_bytes) - ratio(s.ssd_bytes, s.data_bytes)).abs() < 0.02);
        assert!(q.data_bytes < s.data_bytes);
        // Scaling never inflates and clamps at the floor sizes.
        let full = s.scaled_to_ops(s.table4_ops() * 10);
        assert_eq!(full.data_bytes, s.data_bytes);
        let tiny = s.scaled_to_ops(1);
        assert!(tiny.data_bytes >= 16 << 20);
    }

    #[test]
    fn derived_quantities() {
        let s = spec();
        assert!((s.read_fraction() - 619.0 / 855.0).abs() < 1e-9);
        assert_eq!(s.data_blocks(), (960 << 20) / 4096);
        assert_eq!(s.read_blocks(), 2); // 6656 B → 2 blocks
        assert_eq!(s.write_blocks(), 2);
        assert_eq!(s.table4_ops(), 855_000);
    }

    #[test]
    fn zero_op_spec_has_neutral_read_fraction() {
        let mut s = spec();
        s.table4_reads = 0;
        s.table4_writes = 0;
        assert_eq!(s.read_fraction(), 0.5);
    }
}
