//! The paper's exhibits, each defined once.
//!
//! [`EXHIBITS`] is the single table of what the evaluation reports — title,
//! unit, direction, the paper's values, which workload feeds it and how the
//! number is computed from the five run summaries. `run_all` renders all of
//! it as the paper-vs-measured report (EXPERIMENTS.md); `exhibit <name>`
//! renders the rows tagged with that name ([`print_exhibit`]), or one row of
//! the [`ABLATIONS`] table. [`PLAN`] is the matching workload list, and
//! [`workload_named`] the one place a workload name becomes a workload.

use crate::ablations::ABLATIONS;
use crate::config::RunConfig;
use crate::harness::{run_plan, PlannedWorkload};
use icash_metrics::report::{bar_chart, metric_rows, normalize, table};
use icash_metrics::summary::RunSummary;
use icash_workloads::spec::WorkloadSpec;
use icash_workloads::vm::{rubis_five_vms, tpcc_five_vms};
use icash_workloads::{hadoop, loadsim, rubis, specsfs, sysbench, tpcc};

/// The evaluation's workloads (Table 4), in the paper's order.
pub const PLAN: [&str; 8] = [
    "sysbench", "hadoop", "tpcc", "loadsim", "specsfs", "rubis", "tpcc5", "rubis5",
];

/// The workload a [`PLAN`] name stands for.
pub fn workload_named(name: &str) -> Option<PlannedWorkload> {
    Some(match name {
        "sysbench" => PlannedWorkload::Standard(sysbench::spec()),
        "hadoop" => PlannedWorkload::Standard(hadoop::spec()),
        "tpcc" => PlannedWorkload::Standard(tpcc::spec()),
        "loadsim" => PlannedWorkload::Standard(loadsim::spec()),
        "specsfs" => PlannedWorkload::Standard(specsfs::spec()),
        "rubis" => PlannedWorkload::Standard(rubis::spec()),
        "tpcc5" => PlannedWorkload::MultiVm(tpcc_five_vms),
        "rubis5" => PlannedWorkload::MultiVm(rubis_five_vms),
        _ => return None,
    })
}

/// One row per system: `(system name, value)`.
pub type Rows = Vec<(String, f64)>;

/// One figure, or one column of a table, of the paper's evaluation.
#[derive(Debug)]
pub struct Exhibit {
    /// The `exhibit <name>` that prints it, with the rows sharing the name.
    pub name: &'static str,
    /// The [`PLAN`] workload it is measured on.
    pub workload: &'static str,
    /// Title, as EXPERIMENTS.md words it.
    pub title: &'static str,
    /// Unit of the values.
    pub unit: &'static str,
    /// Whether the larger value wins.
    pub higher_better: bool,
    /// The paper's values; empty for a panel the report does not compare.
    pub paper: &'static [(&'static str, f64)],
    /// The measured rows, from the scaled spec and the five summaries.
    pub metric: fn(&WorkloadSpec, &[RunSummary]) -> Rows,
}

impl Exhibit {
    /// The winning system among `rows` under this exhibit's direction
    /// (ties: the later row for higher-is-better, as the report always did).
    pub fn winner(&self, rows: &[(String, f64)]) -> String {
        let mut rows = rows.to_vec();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        let best = if self.higher_better {
            rows.first()
        } else {
            rows.last()
        };
        best.map(|r| r.0.clone()).unwrap_or_default()
    }
}

/// Paper values for all five systems, in figure order.
const fn five(
    fusionio: f64,
    raid0: f64,
    dedup: f64,
    lru: f64,
    icash: f64,
) -> [(&'static str, f64); 5] {
    [
        ("FusionIO", fusionio),
        ("RAID0", raid0),
        ("Dedup", dedup),
        ("LRU", lru),
        ("I-CASH", icash),
    ]
}

/// Paper values for the four SSD-bearing systems (Table 6 omits RAID0).
const fn ssd_bearing(fusionio: f64, dedup: f64, lru: f64, icash: f64) -> [(&'static str, f64); 4] {
    [
        ("FusionIO", fusionio),
        ("Dedup", dedup),
        ("LRU", lru),
        ("I-CASH", icash),
    ]
}

fn tx_rate(_: &WorkloadSpec, runs: &[RunSummary]) -> Rows {
    metric_rows(runs, RunSummary::transactions_per_sec)
}

fn tx_rate_vs_fusionio(spec: &WorkloadSpec, runs: &[RunSummary]) -> Rows {
    normalize(&tx_rate(spec, runs), "FusionIO")
}

fn cpu_percent(_: &WorkloadSpec, runs: &[RunSummary]) -> Rows {
    metric_rows(runs, |s| s.cpu_utilization * 100.0)
}

fn read_us(_: &WorkloadSpec, runs: &[RunSummary]) -> Rows {
    metric_rows(runs, RunSummary::read_mean_us)
}

fn write_us(_: &WorkloadSpec, runs: &[RunSummary]) -> Rows {
    metric_rows(runs, RunSummary::write_mean_us)
}

fn energy_wh(_: &WorkloadSpec, runs: &[RunSummary]) -> Rows {
    metric_rows(runs, |s| s.energy_wh)
}

/// RAID0 has no SSD; the paper's table omits it too.
fn ssd_writes(_: &WorkloadSpec, runs: &[RunSummary]) -> Rows {
    let mut rows = metric_rows(runs, |s| s.ssd_writes as f64);
    rows.retain(|(name, _)| name != "RAID0");
    rows
}

/// The names `exhibit` prints as one table — `(name, heading, decimals)` —
/// with their rows as its columns, the way the paper lays them out; every
/// other name prints one bar chart per row.
const TABLES: [(&str, &str, usize); 2] = [
    (
        "tab05_power",
        "Table 5. Power consumption in Watt-hours.",
        3,
    ),
    (
        "tab06_ssd_writes",
        "Table 6. Number of write requests on SSD.",
        0,
    ),
];

/// The one exhibit that measures nothing: Table 4, the generators'
/// self-reported specifications ([`workloads_table`]).
const WORKLOADS_TABLE: &str = "tab04_workloads";

/// Every exhibit, in report order. The comment above a name's first row is
/// the paper's result whose *shape* (not absolute values) it reproduces.
pub const EXHIBITS: &[Exhibit] = &[
    // SysBench. Fig 6(a) transactions/s — I-CASH best (190), 2.24× RAID0
    // (85), ahead of FusionIO (180), LRU (175), Dedup (161). Fig 6(b) CPU
    // utilization — all five within ~4 % of each other. Fig 7 response times
    // (µs) — I-CASH reads ~half of FusionIO's, I-CASH writes ~10× faster
    // than FusionIO's; RAID0 writes slowest by far.
    Exhibit {
        name: "fig06_sysbench",
        workload: "sysbench",
        title: "Figure 6(a). SysBench transaction rate",
        unit: "tx/s",
        higher_better: true,
        paper: &five(180.0, 85.0, 161.0, 175.0, 190.0),
        metric: tx_rate,
    },
    Exhibit {
        name: "fig06_sysbench",
        workload: "sysbench",
        title: "Figure 6(b). SysBench CPU utilization",
        unit: "%",
        higher_better: true,
        paper: &five(52.0, 53.0, 53.0, 56.0, 55.0),
        metric: cpu_percent,
    },
    Exhibit {
        name: "fig06_sysbench",
        workload: "sysbench",
        title: "Figure 7. SysBench read response time",
        unit: "us",
        higher_better: false,
        paper: &five(35.0, 192.0, 71.0, 36.0, 18.0),
        metric: read_us,
    },
    Exhibit {
        name: "fig06_sysbench",
        workload: "sysbench",
        title: "Figure 7. SysBench write response time",
        unit: "us",
        higher_better: false,
        paper: &five(75.0, 1156.0, 106.0, 122.0, 7.0),
        metric: write_us,
    },
    // Hadoop WordCount. I-CASH finishes the job fastest (18 s vs FusionIO 24,
    // LRU 25, Dedup 26, RAID 32 — speedups 1.3–1.8×); CPU utilization is
    // high everywhere except RAID (Fig 8b); and I-CASH's write response is
    // an order of magnitude below the SSD-writing systems (Fig 9: 586 µs vs
    // 7301 µs for FusionIO).
    Exhibit {
        name: "fig08_hadoop",
        workload: "hadoop",
        title: "Figure 8(a). Hadoop execution time",
        unit: "s (scaled)",
        higher_better: false,
        paper: &five(24.0, 32.0, 26.0, 25.0, 18.0),
        metric: |_, runs| metric_rows(runs, |s| s.elapsed.as_secs_f64()),
    },
    Exhibit {
        name: "fig08_hadoop",
        workload: "hadoop",
        title: "Figure 8(b). Hadoop CPU utilization",
        unit: "%",
        higher_better: true,
        paper: &five(83.0, 73.0, 82.0, 84.0, 86.0),
        metric: cpu_percent,
    },
    Exhibit {
        name: "fig08_hadoop",
        workload: "hadoop",
        title: "Figure 9. Hadoop read response time",
        unit: "us",
        higher_better: false,
        paper: &[],
        metric: read_us,
    },
    Exhibit {
        name: "fig08_hadoop",
        workload: "hadoop",
        title: "Figure 9. Hadoop write response time",
        unit: "us",
        higher_better: false,
        paper: &five(7301.0, 3244.0, 7520.0, 7405.0, 586.0),
        metric: write_us,
    },
    // TPC-C. I-CASH processes the most transactions per second (58, +14 %
    // over FusionIO's 51, +45 % over RAID0's 40) and cuts the
    // application-level response time to 2.6 ms vs FusionIO's 6.6 ms and
    // RAID0's 14 ms — the benchmark where the fast delta-write path matters
    // most.
    Exhibit {
        name: "fig10_tpcc",
        workload: "tpcc",
        title: "Figure 10(a). TPC-C transaction rate",
        unit: "tx/s",
        higher_better: true,
        paper: &five(51.0, 40.0, 49.0, 50.0, 58.0),
        metric: tx_rate,
    },
    Exhibit {
        name: "fig10_tpcc",
        workload: "tpcc",
        title: "Figure 10(b). TPC-C CPU utilization",
        unit: "%",
        higher_better: true,
        paper: &five(51.0, 41.0, 52.0, 61.0, 62.0),
        metric: cpu_percent,
    },
    Exhibit {
        name: "fig10_tpcc",
        workload: "tpcc",
        title: "Figure 11. TPC-C application response time",
        unit: "ms",
        higher_better: false,
        paper: &five(6.6, 14.0, 12.0, 7.1, 2.6),
        metric: |spec, runs| {
            let per_tx = spec.ops_per_transaction as f64;
            metric_rows(runs, |s| s.mean_response_ms() * per_tx)
        },
    },
    // LoadSim (Exchange mail server), lower is better. The one benchmark
    // FusionIO wins (1803) — LoadSim is almost 100 % random over 17.5 GB, so
    // a 1 GB cache cannot hide the working set. I-CASH (2263) still lands
    // 2.4× ahead of RAID0 (5340) and clearly ahead of the LRU (3002) and
    // Dedup (3259) caches by catching content locality.
    // LoadSim scores weight client-observed response times, which include
    // Exchange server processing: score = (4 ms server + storage) x 420.
    Exhibit {
        name: "fig12_loadsim",
        workload: "loadsim",
        title: "Figure 12. LoadSim score (lower is better)",
        unit: "score",
        higher_better: false,
        paper: &five(1803.0, 5340.0, 3259.0, 3002.0, 2263.0),
        metric: |_, runs| metric_rows(runs, |s| (4.0 + s.mean_response_ms()) * 420.0),
    },
    // SPECsfs (NFS server). I-CASH (1.5 ms) matches FusionIO (1.4 ms) while
    // using one-tenth of the flash; the write-heavy stream punishes Dedup's
    // copy-on-write (2.1 ms, 28 % worse than I-CASH) and the LRU cache
    // equally (2.1 ms); RAID0 lands between (1.8 ms) because four spindles
    // absorb the write flood better than one.
    // NFS-op response = 1.2 ms server component + storage response,
    // matching the benchmark's client-side measurement.
    Exhibit {
        name: "fig13_specsfs",
        workload: "specsfs",
        title: "Figure 13. SPEC-sfs response time",
        unit: "ms",
        higher_better: false,
        paper: &five(1.4, 1.8, 2.1, 2.1, 1.5),
        metric: |_, runs| metric_rows(runs, |s| 1.2 + s.mean_response_ms()),
    },
    // RUBiS (auction site). Over 99 % reads caps the delta-write advantage,
    // so FusionIO wins by ~10 % (84 vs 76 req/s); I-CASH still beats RAID0
    // 1.5×, LRU 1.04× and Dedup 1.29× — the online similarity detection
    // stretching the same 128 MB flash budget further.
    Exhibit {
        name: "fig14_rubis",
        workload: "rubis",
        title: "Figure 14. RUBiS request rate",
        unit: "req/s",
        higher_better: true,
        paper: &five(84.0, 48.0, 59.0, 73.0, 76.0),
        metric: tx_rate,
    },
    // Five TPC-C virtual machines. With five VMs multiplying the write
    // pressure, pure flash hits its garbage-collection wall while I-CASH
    // absorbs the writes as deltas — 2.8× FusionIO and 5–6× the other three
    // baselines, I-CASH's biggest win in the paper.
    Exhibit {
        name: "fig15_tpcc_vms",
        workload: "tpcc5",
        title: "Figure 15. Five TPC-C VMs, normalized tx rate",
        unit: "x FusionIO",
        higher_better: true,
        paper: &five(1.0, 0.4, 0.5, 0.4, 2.8),
        metric: tx_rate_vs_fusionio,
    },
    // Five RUBiS virtual machines, the read-heavy multi-VM case. FusionIO
    // holds up well (RUBiS is read-intensive), I-CASH still edges it out
    // (1.2×) by serving five near-identical images from one set of reference
    // blocks, and the address-keyed caches trail 3–6× (they cache five
    // copies of the same content).
    Exhibit {
        name: "fig16_rubis_vms",
        workload: "rubis5",
        title: "Figure 16. Five RUBiS VMs, normalized request rate",
        unit: "x FusionIO",
        higher_better: true,
        paper: &five(1.0, 0.2, 0.3, 0.3, 1.2),
        metric: tx_rate_vs_fusionio,
    },
    // Table 5, energy for Hadoop and TPC-C. RAID0's four 15 W spindles burn
    // 2.4–3.4× the energy of I-CASH's one SSD + one disk (24 vs 7 Wh for
    // Hadoop, 28 vs 11 for TPC-C); the SSD-based systems cluster together,
    // with I-CASH lowest on Hadoop because it finishes first and writes the
    // flash least (9.5 µJ per 4 KB read vs 76.1 µJ per write).
    Exhibit {
        name: "tab05_power",
        workload: "hadoop",
        title: "Table 5 (Hadoop column). Energy",
        unit: "Wh (scaled)",
        higher_better: false,
        paper: &five(8.0, 24.0, 10.0, 10.0, 7.0),
        metric: energy_wh,
    },
    Exhibit {
        name: "tab05_power",
        workload: "tpcc",
        title: "Table 5 (TPC-C column). Energy",
        unit: "Wh (scaled)",
        higher_better: false,
        paper: &five(11.0, 28.0, 11.0, 12.0, 11.0),
        metric: energy_wh,
    },
    // Table 6, write requests reaching the SSD. I-CASH performs a small
    // fraction of the SSD writes of every other flash-bearing system on
    // SysBench (232 K vs 894 K–1.5 M), Hadoop and TPC-C, because writes are
    // absorbed as HDD-logged deltas; on the write-flood SPECsfs the counts
    // converge (5.1 M vs 5.5–5.8 M). Fewer flash writes = fewer erases =
    // longer device life (§5.3).
    Exhibit {
        name: "tab06_ssd_writes",
        workload: "sysbench",
        title: "Table 6 (SysBench column). SSD write requests",
        unit: "writes",
        higher_better: false,
        paper: &ssd_bearing(893_700.0, 1_419_023.0, 1_494_220.0, 232_452.0),
        metric: ssd_writes,
    },
    Exhibit {
        name: "tab06_ssd_writes",
        workload: "hadoop",
        title: "Table 6 (Hadoop column). SSD write requests",
        unit: "writes",
        higher_better: false,
        paper: &ssd_bearing(2_540_124.0, 3_082_196.0, 3_469_785.0, 1_521_399.0),
        metric: ssd_writes,
    },
    Exhibit {
        name: "tab06_ssd_writes",
        workload: "tpcc",
        title: "Table 6 (TPC-C column). SSD write requests",
        unit: "writes",
        higher_better: false,
        paper: &ssd_bearing(1_173_741.0, 1_963_988.0, 2_051_511.0, 359_919.0),
        metric: ssd_writes,
    },
    Exhibit {
        name: "tab06_ssd_writes",
        workload: "specsfs",
        title: "Table 6 (SPECsfs column). SSD write requests",
        unit: "writes",
        higher_better: false,
        paper: &ssd_bearing(5_752_436.0, 5_559_698.0, 5_514_935.0, 5_096_890.0),
        metric: ssd_writes,
    },
];

/// An exhibit evaluated on one run.
#[derive(Debug)]
pub struct Measured {
    /// What was measured.
    pub exhibit: &'static Exhibit,
    /// The workload's display name (a table bin's column header).
    pub workload: String,
    /// The measured rows.
    pub rows: Rows,
}

/// Runs every workload the exhibits named `name` (all of them for `None`)
/// need — once each, all cells on one pool, in [`PLAN`] order — and
/// evaluates those exhibits in table order. Also returns the raw plan
/// results.
pub fn measure(
    cfg: &RunConfig,
    name: Option<&str>,
) -> (Vec<(WorkloadSpec, Vec<RunSummary>)>, Vec<Measured>) {
    let shown = || {
        EXHIBITS
            .iter()
            .filter(|ex| name.is_none_or(|n| ex.name == n))
    };
    let names: Vec<&str> = PLAN
        .into_iter()
        .filter(|name| shown().any(|ex| ex.workload == *name))
        .collect();
    let plans: Vec<PlannedWorkload> = names
        .iter()
        .map(|name| workload_named(name).expect("PLAN names are known"))
        .collect();
    let results = run_plan(cfg, &plans);
    let measured = shown()
        .map(|exhibit| {
            let at = names.iter().position(|name| *name == exhibit.workload);
            let (spec, runs) = &results[at.expect("exhibit workloads are planned")];
            Measured {
                exhibit,
                workload: spec.name.clone(),
                rows: (exhibit.metric)(spec, runs),
            }
        })
        .collect();
    (results, measured)
}

/// What `exhibit` accepts: every name in [`EXHIBITS`], in table order,
/// `tab04_workloads`, and every name in [`ABLATIONS`].
pub fn exhibit_names() -> Vec<&'static str> {
    let mut names: Vec<&str> = EXHIBITS.iter().map(|ex| ex.name).collect();
    names.dedup();
    names.push(WORKLOADS_TABLE);
    names.extend(ABLATIONS.iter().map(|(name, _)| name));
    names
}

/// Runs and prints the exhibit `name`; `false` if there is none.
pub fn print_exhibit(cfg: &RunConfig, name: &str) -> bool {
    if name == WORKLOADS_TABLE {
        print!("{}", workloads_table());
        return true;
    }
    if let Some((_, render)) = ABLATIONS.iter().find(|(n, _)| *n == name) {
        print!("{}", render(cfg));
        return true;
    }
    if !EXHIBITS.iter().any(|ex| ex.name == name) {
        return false;
    }
    let measured = measure(cfg, Some(name)).1;
    let Some((_, heading, decimals)) = TABLES.into_iter().find(|t| t.0 == name) else {
        for m in measured {
            let ex = m.exhibit;
            print!(
                "{}",
                bar_chart(ex.title, ex.unit, &m.rows, ex.higher_better)
            );
        }
        return true;
    };
    let mut headers = vec!["System"];
    headers.extend(measured.iter().map(|m| m.workload.as_str()));
    let rows: Vec<Vec<String>> = measured[0]
        .rows
        .iter()
        .enumerate()
        .map(|(i, (system, _))| {
            let mut row = vec![system.clone()];
            row.extend(
                measured
                    .iter()
                    .map(|m| format!("{:.decimals$}", m.rows[i].1)),
            );
            row
        })
        .collect();
    print!("{}", table(heading, &headers, &rows));
    true
}

/// Table 4, characteristics of the benchmark workloads. The generators
/// self-report their specifications; the measured columns (op counts,
/// request sizes, data sizes) are pinned to the paper's values and asserted
/// by each module's unit tests.
pub fn workloads_table() -> String {
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
    table(
        "Table 4. Characteristics of benchmarks.",
        &[
            "Name", "#Read", "#Write", "AvgRead", "AvgWrite", "DataSize", "VM RAM",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_table_is_consistent() {
        let titles: BTreeSet<&str> = EXHIBITS.iter().map(|ex| ex.title).collect();
        assert_eq!(titles.len(), EXHIBITS.len(), "titles are unique");
        for ex in EXHIBITS {
            assert!(
                PLAN.contains(&ex.workload),
                "{}: unplanned workload",
                ex.title
            );
        }
        let names = exhibit_names();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name's rows are contiguous");
        assert_eq!(names.len(), 19, "11 exhibits and 8 ablations");
        for (table, ..) in TABLES {
            assert!(names.contains(&table), "{table}: a table of no exhibit");
        }
        for name in PLAN {
            assert!(workload_named(name).is_some(), "{name}");
        }
        assert!(workload_named("nope").is_none());
    }

    #[test]
    fn winner_follows_the_direction() {
        let rows = vec![
            ("a".to_string(), 1.0),
            ("b".to_string(), 3.0),
            ("c".to_string(), 2.0),
        ];
        let pick = |higher_better: bool| {
            let ex = EXHIBITS.iter().find(|ex| ex.higher_better == higher_better);
            ex.expect("both directions occur").winner(&rows)
        };
        assert_eq!(pick(true), "b");
        assert_eq!(pick(false), "a");
    }
}
