//! Table 4: characteristics of the benchmark workloads.
//!
//! The generators self-report their specifications; the measured columns
//! (op counts, request sizes, data sizes) are pinned to the paper's values
//! and asserted by each module's unit tests.

use icash_bench::exhibits::{workload_named, PLAN};
use icash_metrics::report::table;

fn main() {
    let rows: Vec<Vec<String>> = PLAN
        .iter()
        .map(|name| {
            let s = workload_named(name).expect("planned").base_spec();
            vec![
                s.name.clone(),
                format!("{}K", s.table4_reads / 1000),
                format!("{}K", s.table4_writes / 1000),
                format!("{}B", s.avg_read_bytes),
                format!("{}B", s.avg_write_bytes),
                format!("{:.1}GB", s.data_bytes as f64 / (1 << 30) as f64),
                format!("{}MB", s.vm_ram_bytes >> 20),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            "Table 4. Characteristics of benchmarks.",
            &["Name", "#Read", "#Write", "AvgRead", "AvgWrite", "DataSize", "VM RAM"],
            &rows,
        )
    );
}
