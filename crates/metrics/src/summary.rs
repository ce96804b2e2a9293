//! End-of-run summaries: everything a paper figure or table reads.

use crate::histogram::LatencyHistogram;
use icash_storage::system::SystemReport;
use icash_storage::time::Ns;
use serde::{Deserialize, Serialize};

/// The complete result of running one workload against one storage system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSummary {
    /// Architecture name ("I-CASH", "FusionIO", ...).
    pub system: String,
    /// Workload name ("SysBench", "TPC-C", ...).
    pub workload: String,
    /// Host I/O requests completed.
    pub ops: u64,
    /// Application-level transactions completed.
    pub transactions: u64,
    /// Virtual wall time of the run.
    pub elapsed: Ns,
    /// Operations completed after the warmup phase.
    pub steady_ops: u64,
    /// Virtual time spent in the post-warmup (steady-state) phase.
    pub steady_elapsed: Ns,
    /// Read-request latencies.
    pub read_latency: LatencyHistogram,
    /// Write-request latencies.
    pub write_latency: LatencyHistogram,
    /// Whole-run CPU utilization (application + storage layer), 0..=1.
    pub cpu_utilization: f64,
    /// CPU utilization attributable to the storage layer alone.
    pub storage_cpu_utilization: f64,
    /// Host-level writes that reached the SSD (Table 6).
    pub ssd_writes: u64,
    /// Total energy (devices + CPU) in Watt-hours (Table 5).
    pub energy_wh: f64,
    /// The storage system's own report (device stats, GC, wear).
    pub report: SystemReport,
    /// Real (host) time the harness spent producing this cell, in
    /// nanoseconds. Pure instrumentation: it is set by the harness, varies
    /// run to run, and is deliberately excluded from [`RunSummary::to_json`]
    /// so parallel and sequential replays stay bit-identical.
    pub wall_ns: u64,
}

impl RunSummary {
    /// Steady-state transactions per second (Figures 6a, 10a): post-warmup
    /// ops over post-warmup time, the way the paper's 30-minute runs report
    /// their rates. Falls back to the whole run when no warmup was set.
    pub fn transactions_per_sec(&self) -> f64 {
        let (ops, secs) = self.steady_rate_parts();
        if secs == 0.0 {
            0.0
        } else {
            ops / self.transactions_denominator() / secs
        }
    }

    /// Steady-state requests per second (Figure 14).
    pub fn ops_per_sec(&self) -> f64 {
        let (ops, secs) = self.steady_rate_parts();
        if secs == 0.0 {
            0.0
        } else {
            ops / secs
        }
    }

    fn steady_rate_parts(&self) -> (f64, f64) {
        if self.steady_ops > 0 && self.steady_elapsed > Ns::ZERO {
            (self.steady_ops as f64, self.steady_elapsed.as_secs_f64())
        } else {
            (self.ops as f64, self.elapsed.as_secs_f64())
        }
    }

    fn transactions_denominator(&self) -> f64 {
        if self.transactions == 0 {
            1.0
        } else {
            self.ops as f64 / self.transactions as f64
        }
    }

    /// Mean read response time in microseconds (Figures 7, 9).
    pub fn read_mean_us(&self) -> f64 {
        self.read_latency.mean().as_us_f64()
    }

    /// Mean write response time in microseconds (Figures 7, 9).
    pub fn write_mean_us(&self) -> f64 {
        self.write_latency.mean().as_us_f64()
    }

    /// Mean response time over all requests in milliseconds (Figs 11, 13).
    pub fn mean_response_ms(&self) -> f64 {
        let reads = self.read_latency.count();
        let writes = self.write_latency.count();
        let total = reads + writes;
        if total == 0 {
            return 0.0;
        }
        let sum = self.read_latency.mean().as_ms_f64() * reads as f64
            + self.write_latency.mean().as_ms_f64() * writes as f64;
        sum / total as f64
    }

    /// Folds the per-shard summaries of one sharded replay into a single
    /// aggregate. Counters (ops, transactions, latencies, SSD writes,
    /// energy) add; the clocks take the max, because shards run in
    /// parallel on independent virtual clocks and the replay finishes when
    /// the slowest shard does; utilizations average weighted by each
    /// shard's share of virtual time; the device report merges via
    /// [`SystemReport::merge`]. Names come from shard 0 — all shards of
    /// one cell run the same architecture and workload.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: a zero-shard replay has no summary.
    pub fn merge_shards(parts: &[RunSummary]) -> RunSummary {
        let first = parts.first().expect("at least one shard summary");
        let mut merged = first.clone();
        let weight = |s: &RunSummary| s.elapsed.as_ns() as f64;
        let total_weight: f64 = parts.iter().map(weight).sum();
        for s in &parts[1..] {
            merged.ops += s.ops;
            merged.transactions += s.transactions;
            merged.elapsed = merged.elapsed.max(s.elapsed);
            merged.steady_ops += s.steady_ops;
            merged.steady_elapsed = merged.steady_elapsed.max(s.steady_elapsed);
            merged.read_latency.merge(&s.read_latency);
            merged.write_latency.merge(&s.write_latency);
            merged.ssd_writes += s.ssd_writes;
            merged.energy_wh += s.energy_wh;
            merged.report.merge(&s.report);
            merged.wall_ns = merged.wall_ns.max(s.wall_ns);
        }
        if total_weight > 0.0 {
            merged.cpu_utilization = parts
                .iter()
                .map(|s| s.cpu_utilization * weight(s))
                .sum::<f64>()
                / total_weight;
            merged.storage_cpu_utilization = parts
                .iter()
                .map(|s| s.storage_cpu_utilization * weight(s))
                .sum::<f64>()
                / total_weight;
        }
        merged
    }

    /// A canonical JSON rendering of every *simulation-determined* field.
    ///
    /// Two summaries render identically iff the simulated runs were
    /// bit-identical; `wall_ns` (host-time instrumentation) is excluded on
    /// purpose. Floats use Rust's shortest round-trip `{:?}` form, so equal
    /// bit patterns give equal strings. The determinism regression test
    /// compares these strings across `ICASH_THREADS` settings.
    pub fn to_json(&self) -> String {
        let r = &self.report;
        let dev = |d: &Option<icash_storage::stats::DeviceStats>| match d {
            None => "null".to_string(),
            Some(d) => format!(
                "{{\"reads\":{},\"writes\":{},\"erases\":{},\"read_bytes\":{},\
                 \"write_bytes\":{},\"busy\":{},\"queued\":{}}}",
                d.reads,
                d.writes,
                d.erases,
                d.read_bytes,
                d.write_bytes,
                d.busy.as_ns(),
                d.queued.as_ns()
            ),
        };
        let gc = match &r.gc {
            None => "null".to_string(),
            Some(g) => format!(
                "{{\"collections\":{},\"moved_pages\":{},\"erases\":{},\
                 \"host_programs\":{},\"gc_programs\":{}}}",
                g.collections, g.moved_pages, g.erases, g.host_programs, g.gc_programs
            ),
        };
        let life = match r.ssd_life_used {
            None => "null".to_string(),
            Some(l) => format!("{l:?}"),
        };
        let faults = format!(
            "{{\"hdd_read_errors\":{},\"hdd_write_errors\":{},\"ssd_read_errors\":{},\
             \"wearout_errors\":{},\"sectors_remapped\":{}}}",
            r.faults.hdd_read_errors,
            r.faults.hdd_write_errors,
            r.faults.ssd_read_errors,
            r.faults.wearout_errors,
            r.faults.sectors_remapped
        );
        format!(
            "{{\"system\":{:?},\"workload\":{:?},\"ops\":{},\"transactions\":{},\
             \"elapsed_ns\":{},\"steady_ops\":{},\"steady_elapsed_ns\":{},\
             \"read_latency\":{},\"write_latency\":{},\
             \"cpu_utilization\":{:?},\"storage_cpu_utilization\":{:?},\
             \"ssd_writes\":{},\"energy_wh\":{:?},\
             \"report\":{{\"name\":{:?},\"ssd\":{},\"hdd\":{},\"gc\":{},\
             \"ssd_life_used\":{},\"device_energy_uj\":{:?},\"faults\":{}}}}}",
            self.system,
            self.workload,
            self.ops,
            self.transactions,
            self.elapsed.as_ns(),
            self.steady_ops,
            self.steady_elapsed.as_ns(),
            self.read_latency.to_json(),
            self.write_latency.to_json(),
            self.cpu_utilization,
            self.storage_cpu_utilization,
            self.ssd_writes,
            self.energy_wh,
            r.name,
            dev(&r.ssd),
            dev(&r.hdd),
            gc,
            life,
            r.device_energy.as_uj(),
            faults,
        )
    }

    /// Renders a whole result vector as a JSON array (determinism tests).
    pub fn slice_to_json(summaries: &[RunSummary]) -> String {
        let items: Vec<String> = summaries.iter().map(|s| s.to_json()).collect();
        format!("[{}]", items.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> RunSummary {
        let mut read = LatencyHistogram::new();
        read.record(Ns::from_us(10));
        read.record(Ns::from_us(30));
        let mut write = LatencyHistogram::new();
        write.record(Ns::from_ms(1));
        RunSummary {
            system: "test".into(),
            workload: "wl".into(),
            ops: 3,
            transactions: 30,
            elapsed: Ns::from_secs(10),
            steady_ops: 0,
            steady_elapsed: Ns::ZERO,
            read_latency: read,
            write_latency: write,
            cpu_utilization: 0.5,
            storage_cpu_utilization: 0.1,
            ssd_writes: 7,
            energy_wh: 0.2,
            report: SystemReport::default(),
            wall_ns: 0,
        }
    }

    #[test]
    fn rates_are_per_virtual_second() {
        let s = summary();
        assert!((s.transactions_per_sec() - 3.0).abs() < 1e-12);
        assert!((s.ops_per_sec() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn mean_response_weights_by_count() {
        let s = summary();
        // (0.02 ms × 2 + 1 ms × 1) / 3
        assert!((s.mean_response_ms() - (0.02 * 2.0 + 1.0) / 3.0).abs() < 1e-9);
        assert!((s.read_mean_us() - 20.0).abs() < 1e-9);
        assert!((s.write_mean_us() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_elapsed_is_zero_rate() {
        let mut s = summary();
        s.elapsed = Ns::ZERO;
        assert_eq!(s.transactions_per_sec(), 0.0);
        assert_eq!(s.ops_per_sec(), 0.0);
    }

    #[test]
    fn shard_merge_adds_counters_and_maxes_clocks() {
        let a = summary();
        let mut b = summary();
        b.elapsed = Ns::from_secs(4);
        b.ops = 5;
        b.ssd_writes = 1;
        let merged = RunSummary::merge_shards(&[a.clone(), b]);
        assert_eq!(merged.ops, 8);
        assert_eq!(merged.ssd_writes, 8);
        assert_eq!(merged.elapsed, Ns::from_secs(10));
        assert_eq!(
            merged.read_latency.count(),
            a.read_latency.count() * 2,
            "histograms merge"
        );
        // Equal utilizations stay put under the weighted average.
        assert!((merged.cpu_utilization - 0.5).abs() < 1e-12);
        // One shard is the identity.
        assert_eq!(
            RunSummary::merge_shards(std::slice::from_ref(&a)).to_json(),
            a.to_json()
        );
    }

    #[test]
    fn json_ignores_wall_time_but_sees_everything_else() {
        let a = summary();
        let mut b = summary();
        b.wall_ns = 123_456_789; // host-time noise must not affect the digest
        assert_eq!(a.to_json(), b.to_json());

        let mut c = summary();
        c.ssd_writes += 1;
        assert_ne!(a.to_json(), c.to_json());
        let mut d = summary();
        d.read_latency.record(Ns::from_us(99));
        assert_ne!(a.to_json(), d.to_json());
        let mut e = summary();
        e.report.faults.hdd_read_errors += 1;
        assert_ne!(a.to_json(), e.to_json(), "fault counters are visible");

        let arr = RunSummary::slice_to_json(&[a.clone(), b]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert!(arr.contains("\"system\":\"test\""));
    }
}
