//! Ablation: host CPU vs embedded controller processor (the paper's §6
//! future work: "we are building a hardware prototype using an embedded
//! processor in order to fully realize the performance potential").
//!
//! Runs I-CASH on SysBench with the storage computation priced for three
//! processors: the host Xeon (the paper's software prototype), a strong
//! embedded SoC (4 cores, ~3× slower codec), and a weak controller MCU
//! (2 cores, ~10× slower codec). Since the codec runs off the host, app
//! CPU utilization stays put; the question is how much response time and
//! throughput the slower delta engine costs.

use icash_bench::harness::Ablation;
use icash_bench::RunConfig;
use icash_metrics::report::table;
use icash_storage::cpu::{CpuCosts, CpuModel};

fn scaled_costs(factor: u64) -> CpuCosts {
    let base = CpuCosts::default();
    CpuCosts {
        signature: base.signature * factor,
        delta_encode: base.delta_encode * factor,
        delta_decode: base.delta_decode * factor,
        content_hash: base.content_hash * factor,
        memcpy: base.memcpy * factor,
        scan: base.scan * factor,
    }
}

fn main() {
    let ablation = Ablation::sysbench(&RunConfig::from_env());

    let processors: Vec<(&str, CpuModel)> = vec![
        ("host Xeon (paper prototype)", CpuModel::xeon()),
        (
            "embedded SoC (4c, 3x codec)",
            CpuModel::new(scaled_costs(3), 4, 5.0, 8.0),
        ),
        (
            "controller MCU (2c, 10x codec)",
            CpuModel::new(scaled_costs(10), 2, 1.0, 2.0),
        ),
    ];

    let mut rows = Vec::new();
    for (name, cpu) in processors {
        let (s, _) = ablation.run(|b| b, &ablation.driver().cpu(cpu));
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", s.transactions_per_sec()),
            format!("{:.1}", s.read_mean_us()),
            format!("{:.1}", s.write_mean_us()),
            format!("{:.2}%", s.storage_cpu_utilization * 100.0),
        ]);
    }
    print!(
        "{}",
        table(
            "Ablation: processor running the I-CASH logic (SysBench)",
            &["processor", "tx/s", "read_us", "write_us", "storage_cpu"],
            &rows,
        )
    );
}
