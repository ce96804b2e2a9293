//! Ablation: the staged write pipeline's group-commit depth.
//!
//! Sweeps the depth across 1–64 on the SysBench workload (the same
//! recorded trace replayed at every depth) and reports how batching the
//! flush cycle amortizes HDD log traffic: log append operations fall as
//! many staged deltas drain into one sequential multi-entry append, while
//! the block payload itself is conserved. Depth 1 is the classic
//! synchronous encode → pack → flush cycle the paper describes; deeper
//! settings trade bounded staged-in-RAM exposure (recoverable via the
//! ticket barrier API) for fewer, larger log writes.

use icash_bench::harness::Ablation;
use icash_bench::RunConfig;
use icash_metrics::report::table;

fn main() {
    let ablation = Ablation::sysbench(&RunConfig::from_env());

    let mut rows = Vec::new();
    for depth in [1u64, 2, 4, 8, 16, 32, 64] {
        let (s, system) = ablation.run(|b| b.group_commit_depth(depth), &ablation.driver());
        let st = system.stats();
        let hdd_writes = s.report.hdd.as_ref().map_or(0, |d| d.writes);
        // Log append operations that reached the HDD. `flushes` counts
        // every drain of the dirty set — a group commit is one append no
        // matter how many staged entries it carries.
        let log_appends = st.flushes;
        let per_kwrite = |count: u64| {
            if st.writes == 0 {
                0.0
            } else {
                count as f64 * 1000.0 / st.writes as f64
            }
        };
        rows.push(vec![
            format!("{depth}"),
            format!("{:.1}", s.transactions_per_sec()),
            format!("{hdd_writes}"),
            format!("{:.1}", per_kwrite(hdd_writes)),
            format!("{log_appends}"),
            format!("{:.1}", per_kwrite(log_appends)),
            format!("{:.1}", st.entries_per_commit()),
            format!("{}", st.staging_high_water),
        ]);
    }
    print!(
        "{}",
        table(
            "Ablation: group-commit depth (SysBench; depth 1 = synchronous cycle)",
            &[
                "depth",
                "tx/s",
                "hdd_w",
                "hdd_w/kw",
                "appends",
                "appends/kw",
                "ent/commit",
                "staged_hw"
            ],
            &rows,
        )
    );
}
