//! Ablation: device command-queue depth.
//!
//! Sweeps the queue depth (plus the queue-off baseline) on the SysBench
//! workload — the same recorded trace replayed at every depth, each cell an
//! independent simulation on the shared worker pool, so the table is
//! bit-identical no matter what `ICASH_THREADS` is. RAM is tightened below
//! the stock spec so eviction pressure produces real spill batches for the
//! HDD's NCQ scheduler to reorder and coalesce, and enough flash churn for
//! the SSD's per-channel queues to defer erases behind host traffic.
//!
//! The headline column is virtual HDD service time per thousand host
//! operations: seek-aware scheduling plus coalescing of adjacent home
//! writes shave positioning costs, so the figure falls as depth grows.
//! Every column is simulated, so the table is exact: `./ci.sh queue` diffs
//! the `ICASH_OPS=8000` table against `ci/golden/ablation_queue_depth.txt`,
//! and the test below holds that golden to the trend. `ICASH_ABL_SPEC`
//! swaps the workload (`pressure` is the HDD-bound SysBench variant).

use icash_bench::exhibits::workload_named;
use icash_bench::harness::{run_jobs, Ablation};
use icash_bench::RunConfig;
use icash_core::IcashConfigBuilder;
use icash_metrics::report::table;
use icash_metrics::summary::RunSummary;
use icash_storage::queue::QueueConfig;

/// The sweep: queue-off, then doubling depths under SPTF.
const DEPTHS: [Option<u32>; 7] = [None, Some(1), Some(2), Some(4), Some(8), Some(16), Some(32)];

fn depth_name(depth: Option<u32>) -> String {
    match depth {
        None => "off".to_string(),
        Some(d) => format!("{d}"),
    }
}

/// Virtual HDD service nanoseconds per thousand host operations — the
/// quantity the queue exists to shrink. Deterministic (simulated time).
fn hdd_ns_per_kop(s: &RunSummary) -> f64 {
    let busy = s.report.hdd.as_ref().map_or(0, |d| d.busy.as_ns());
    if s.ops == 0 {
        0.0
    } else {
        busy as f64 * 1000.0 / s.ops as f64
    }
}

fn main() {
    let run = RunConfig::from_env();
    let ops = run.ops.unwrap_or(40_000);
    let name = run.ablation_spec.as_deref().unwrap_or("sysbench");
    let base = workload_named(name).expect("validated name").base_spec();
    let mut spec = base.scaled_to_ops(ops);
    // Tighten RAM below the stock spec: eviction pressure turns into spill
    // batches and home-area reads — the submission streams the device
    // queues schedule.
    spec.ram_bytes = (spec.ram_bytes / 8).max(1 << 20);
    let ablation = &Ablation::new(spec, ops);

    let jobs: Vec<_> = DEPTHS
        .iter()
        .map(|&depth| {
            move || {
                let queued = |b: IcashConfigBuilder| match depth {
                    Some(d) => b.queue(QueueConfig::depth(d)),
                    None => b,
                };
                ablation.run(queued, &ablation.driver()).0
            }
        })
        .collect();
    let summaries = run_jobs(run.workers(), jobs);

    let mut rows = Vec::new();
    for (&depth, s) in DEPTHS.iter().zip(&summaries) {
        let hdd = s.report.hdd.clone().unwrap_or_default();
        let ssd = s.report.ssd.clone().unwrap_or_default();
        rows.push(vec![
            depth_name(depth),
            format!("{:.1}", s.transactions_per_sec()),
            format!("{}", hdd.writes),
            format!("{}", hdd.reads),
            format!("{}", ssd.erases),
            format!("{:.3}", hdd.busy.as_secs_f64() * 1e3),
            format!("{:.0}", hdd_ns_per_kop(s)),
            format!("{}", hdd.queue_coalesced),
            format!("{}", hdd.queue_reorders),
            format!("{}", ssd.queue_admits),
            format!("{}", ssd.queue_reorders),
        ]);
    }
    print!(
        "{}",
        table(
            "Ablation: device command-queue depth (SysBench, tight RAM; off = strict submission order)",
            &[
                "depth",
                "tx/s",
                "hdd_w",
                "hdd_r",
                "erases",
                "hdd_busy_ms",
                "hdd_ns/kop",
                "coalesced",
                "reorders",
                "ssd_defers",
                "ssd_jumps"
            ],
            &rows,
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pinned trajectory: one row per sweep depth, in order, and HDD
    /// service per kop never rises with depth and ends below queue-off — so
    /// a re-pin of the golden cannot invert the trend unnoticed.
    #[test]
    fn pinned_trajectory_falls_with_depth() {
        let golden = include_str!("../../../../ci/golden/ablation_queue_depth.txt");
        let rows: Vec<Vec<&str>> = golden
            .lines()
            .skip(1)
            .map(|line| line.split_whitespace().collect())
            .collect();
        let col = rows[0]
            .iter()
            .position(|&h| h == "hdd_ns/kop")
            .expect("column");
        let depths: Vec<&str> = rows[1..].iter().map(|row| row[0]).collect();
        let sweep: Vec<String> = DEPTHS.iter().map(|&d| depth_name(d)).collect();
        assert_eq!(depths, sweep);
        let ns: Vec<u64> = rows[1..]
            .iter()
            .map(|row| row[col].parse().expect("integer"))
            .collect();
        assert!(
            ns.windows(2).all(|w| w[1] <= w[0]),
            "HDD service rose with depth: {ns:?}"
        );
        assert!(
            ns[ns.len() - 1] < ns[0],
            "depth 32 must beat queue-off: {ns:?}"
        );
    }
}
