//! Ablation: the oversize-delta threshold (paper §5.3 fixes it at 2,048
//! bytes — "for blocks that have deltas larger than the threshold value,
//! the new data are written directly to the SSD to release delta buffer").
//!
//! Sweeps the threshold on SysBench: a low threshold pushes writes to the
//! SSD (wear, latency); a high threshold keeps poorly-compressible deltas
//! in precious RAM.

use icash_bench::harness::Ablation;
use icash_bench::RunConfig;
use icash_metrics::report::table;

fn main() {
    let ablation = Ablation::sysbench(&RunConfig::from_env());

    let mut rows = Vec::new();
    for threshold in [256usize, 512, 1_024, 2_048, 3_072, 4_096] {
        let (s, system) = ablation.run(|b| b.delta_threshold(threshold), &ablation.driver());
        let st = system.stats();
        rows.push(vec![
            format!("{threshold}"),
            format!("{:.1}", s.transactions_per_sec()),
            format!("{:.1}", s.write_mean_us()),
            format!("{}", s.ssd_writes),
            format!("{:.1}%", st.delta_write_fraction() * 100.0),
        ]);
    }
    print!(
        "{}",
        table(
            "Ablation: oversize-delta threshold (SysBench; paper default 2048 B)",
            &[
                "threshold",
                "tx/s",
                "write_us",
                "ssd_writes",
                "delta_writes"
            ],
            &rows,
        )
    );
}
