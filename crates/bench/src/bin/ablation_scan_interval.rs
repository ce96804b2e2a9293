//! Ablation: the similarity-scan interval (paper §4.2 fixes it at 2,000
//! I/Os with a 4,000-block window).
//!
//! Sweeps the interval across 500–16,000 I/Os on the SysBench workload and
//! reports throughput, SSD writes (scan-time reference installs), and the
//! CPU the scans burn. Too-frequent scans churn references and waste CPU;
//! too-rare scans leave new content unbound.

use icash_bench::harness::Ablation;
use icash_bench::RunConfig;
use icash_metrics::report::table;

fn main() {
    let ablation = Ablation::sysbench(&RunConfig::from_env());

    let mut rows = Vec::new();
    for interval in [500u64, 1_000, 2_000, 4_000, 8_000, 16_000] {
        let (s, system) = ablation.run(|b| b.scan_interval(interval), &ablation.driver());
        let st = system.stats();
        rows.push(vec![
            format!("{interval}"),
            format!("{:.1}", s.transactions_per_sec()),
            format!("{:.1}", s.read_mean_us()),
            format!("{}", s.ssd_writes),
            format!("{}", st.ref_installs),
            format!("{:.2}%", s.storage_cpu_utilization * 100.0),
        ]);
    }
    print!(
        "{}",
        table(
            "Ablation: similarity-scan interval (SysBench; paper default 2000)",
            &[
                "interval",
                "tx/s",
                "read_us",
                "ssd_writes",
                "installs",
                "storage_cpu"
            ],
            &rows,
        )
    );
}
