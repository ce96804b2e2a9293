//! The ablations of the paper's design choices, each defined once.
//!
//! [`ABLATIONS`] is the table: a name and the function that runs the
//! ablation and renders its table, printed by `exhibit <name>`
//! ([`crate::exhibits::print_exhibit`]). Every row but `ablation_codec`
//! replays one recorded stream through one I-CASH per design variant
//! ([`Ablation`]) at `ICASH_OPS` (default 40,000). The variants run on the
//! shared worker pool and every column is simulated, so a table is exact and
//! the same at any `ICASH_THREADS`: `./ci.sh golden` diffs each row at
//! `ICASH_OPS=8000` against `ci/golden/<name>.txt`.

use crate::config::RunConfig;
use crate::harness::{cell_driver, run_jobs, Ablation};
use icash_core::IcashConfigBuilder;
use icash_delta::codec::{sparse, DeltaCodec};
use icash_delta::signature::BlockSignature;
use icash_metrics::report::table;
use icash_metrics::summary::RunSummary;
use icash_storage::block::Lba;
use icash_storage::cpu::{CpuCosts, CpuModel};
use icash_storage::queue::QueueConfig;
use icash_workloads::content::{ContentModel, ContentProfile};
use icash_workloads::spec::WorkloadSpec;
use icash_workloads::sysbench;

/// Runs one ablation and renders its table.
pub type Render = fn(&RunConfig) -> String;

/// Every ablation, by the name `exhibit` prints it under.
pub const ABLATIONS: &[(&str, Render)] = &[
    ("ablation_codec", codec),
    ("ablation_delta_threshold", delta_threshold),
    ("ablation_embedded_cpu", embedded_cpu),
    ("ablation_group_commit", group_commit),
    ("ablation_preload", preload),
    ("ablation_queue_depth", queue_depth),
    ("ablation_queue_depth_pressure", queue_depth_pressure),
    ("ablation_scan_interval", scan_interval),
];

/// One table row per variant, each rendered by a job on the shared worker
/// pool; the rows come back in variant order.
fn rows<V: Sync>(
    cfg: &RunConfig,
    variants: &[V],
    row: impl Fn(&V) -> Vec<String> + Sync,
) -> Vec<Vec<String>> {
    let row = &row;
    run_jobs(
        cfg.workers(),
        variants.iter().map(|v| move || row(v)).collect(),
    )
}

/// Signature scheme and codec (§4.2 argues cheap sampled-byte sums beat
/// hashing for *similarity* detection, and §3.1 relies on fast delta
/// coding). Over the evaluation's content regimes: the delta size the
/// sparse codec produces for a block against its family sibling, how many
/// of those deltas fit the bind threshold, and what full-block hashing
/// would have missed (any single-byte change defeats an identity hash).
/// Independent of `ICASH_OPS`.
fn codec(cfg: &RunConfig) -> String {
    let profiles = [
        ("database", ContentProfile::database()),
        ("file_server", ContentProfile::file_server()),
        ("log_text", ContentProfile::log_text()),
        ("mail_store", ContentProfile::mail_store()),
        ("vm_images", ContentProfile::vm_images()),
        ("incompressible", ContentProfile::incompressible()),
    ];
    let rows = rows(cfg, &profiles, |(name, profile)| {
        let model = ContentModel::new(99, profile.clone());
        let codec = DeltaCodec::default();
        let (mut sparse_sum, mut identical, mut sig_close, mut bindable) = (0, 0, 0, 0);
        let pairs = 400usize;
        for i in 0..pairs as u64 {
            // A block and its family sibling — the pairing the scanner makes.
            let a = model.content_at(Lba::new(i * 2), 1);
            let b = model.content_at(Lba::new(i * 2 + 1), 1);
            sparse_sum += sparse::encode(a.as_slice(), b.as_slice()).len();
            identical += usize::from(a == b);
            let distance =
                BlockSignature::of(a.as_slice()).distance(&BlockSignature::of(b.as_slice()));
            sig_close += usize::from(distance <= 5);
            bindable += usize::from(codec.encode(a.as_slice(), b.as_slice()).len() <= 2_048);
        }
        let percent = |n: usize| format!("{:.0}%", n as f64 / pairs as f64 * 100.0);
        vec![
            name.to_string(),
            format!("{}", sparse_sum / pairs),
            percent(bindable),
            percent(sig_close),
            percent(identical),
        ]
    });
    format!(
        "{}\n'identical' is all a full-block hash (dedup) can exploit; 'bindable'\n\
         is what delta coding exploits — the gap is the paper's similarity\n\
         argument (§4.2).\n",
        table(
            "Ablation: codec + signature over sibling-block pairs",
            &[
                "profile",
                "sparse_B",
                "bindable",
                "sig<=5",
                "identical(hash-visible)",
            ],
            &rows,
        )
    )
}

/// The oversize-delta threshold (§5.3 fixes it at 2,048 bytes: "for blocks
/// that have deltas larger than the threshold value, the new data are
/// written directly to the SSD to release delta buffer"). A low threshold
/// pushes writes to the SSD (wear, latency); a high one keeps poorly
/// compressible deltas in precious RAM.
fn delta_threshold(cfg: &RunConfig) -> String {
    let ablation = Ablation::sysbench(cfg);
    let thresholds = [256usize, 512, 1_024, 2_048, 3_072, 4_096];
    let rows = rows(cfg, &thresholds, |&threshold| {
        let (s, system) = ablation.run(|b| b.delta_threshold(threshold), &ablation.driver());
        vec![
            format!("{threshold}"),
            format!("{:.1}", s.transactions_per_sec()),
            format!("{:.1}", s.write_mean_us()),
            format!("{}", s.ssd_writes),
            format!("{:.1}%", system.stats().delta_write_fraction() * 100.0),
        ]
    });
    table(
        "Ablation: oversize-delta threshold (SysBench; paper default 2048 B)",
        &[
            "threshold",
            "tx/s",
            "write_us",
            "ssd_writes",
            "delta_writes",
        ],
        &rows,
    )
}

/// Host CPU vs an embedded controller processor (§6's future work: "we are
/// building a hardware prototype using an embedded processor in order to
/// fully realize the performance potential"). The storage computation is
/// priced for the host Xeon (the paper's software prototype), a strong
/// embedded SoC (4 cores, ≈ 3× slower codec) and a weak controller MCU
/// (2 cores, ≈ 10× slower codec). The codec runs off the host, so the
/// question is how much response time and throughput the slower delta
/// engine costs.
fn embedded_cpu(cfg: &RunConfig) -> String {
    let scaled = |factor: u64| {
        let base = CpuCosts::default();
        CpuCosts {
            signature: base.signature * factor,
            delta_encode: base.delta_encode * factor,
            delta_decode: base.delta_decode * factor,
            content_hash: base.content_hash * factor,
            memcpy: base.memcpy * factor,
            scan: base.scan * factor,
        }
    };
    let processors = [
        ("host Xeon (paper prototype)", CpuModel::xeon()),
        (
            "embedded SoC (4c, 3x codec)",
            CpuModel::new(scaled(3), 4, 5.0, 8.0),
        ),
        (
            "controller MCU (2c, 10x codec)",
            CpuModel::new(scaled(10), 2, 1.0, 2.0),
        ),
    ];
    let ablation = Ablation::sysbench(cfg);
    let rows = rows(cfg, &processors, |(name, cpu)| {
        let (s, _) = ablation.run(|b| b, &ablation.driver().cpu(cpu.clone()));
        vec![
            name.to_string(),
            format!("{:.1}", s.transactions_per_sec()),
            format!("{:.1}", s.read_mean_us()),
            format!("{:.1}", s.write_mean_us()),
            format!("{:.2}%", s.storage_cpu_utilization * 100.0),
        ]
    });
    table(
        "Ablation: processor running the I-CASH logic (SysBench)",
        &["processor", "tx/s", "read_us", "write_us", "storage_cpu"],
        &rows,
    )
}

/// The staged write pipeline's group-commit depth. Depth 1 is the paper's
/// synchronous encode → pack → flush cycle; deeper settings trade bounded
/// staged-in-RAM exposure (recoverable through the ticket barrier API) for
/// fewer, larger log appends, while the payload itself is conserved.
/// Entries per commit come from the run's trace, the one count of group
/// commits.
fn group_commit(cfg: &RunConfig) -> String {
    let ablation = Ablation::sysbench(cfg);
    let depths = [1u64, 2, 4, 8, 16, 32, 64];
    let rows = rows(cfg, &depths, |&depth| {
        let (s, system, profile) =
            ablation.run_profiled(|b| b.group_commit_depth(depth), &ablation.driver());
        let st = system.stats();
        let hdd_writes = s.report.hdd.as_ref().map_or(0, |d| d.writes);
        // Log appends that reached the HDD: `flushes` counts appends, not
        // flush triggers, and a group commit is one append however many
        // staged entries it carries.
        let log_appends = st.flushes;
        let per_kwrite = |count: u64| {
            if st.writes == 0 {
                0.0
            } else {
                count as f64 * 1000.0 / st.writes as f64
            }
        };
        vec![
            format!("{depth}"),
            format!("{:.1}", s.transactions_per_sec()),
            format!("{hdd_writes}"),
            format!("{:.1}", per_kwrite(hdd_writes)),
            format!("{log_appends}"),
            format!("{:.1}", per_kwrite(log_appends)),
            format!("{:.1}", profile.stats.entries_per_commit()),
            format!("{}", st.staging_high_water),
        ]
    });
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
            "staged_hw",
        ],
        &rows,
    )
}

/// Offline image preparation (§3.2) off and on. The paper's VM-image case
/// derives deltas and installs references when images are *created*;
/// without it I-CASH discovers similarity online through the periodic scan
/// and pays a mechanical read for every cold block.
fn preload(cfg: &RunConfig) -> String {
    let ablation = Ablation::sysbench(cfg);
    let driver = cell_driver(ablation.ops, ablation.spec.clients);
    let modes = [
        ("online-only discovery", false),
        ("preloaded image (§3.2)", true),
    ];
    let rows = rows(cfg, &modes, |&(name, preloaded)| {
        // The driver prepares the image of every address the stream names;
        // the online arm names none.
        let mut player = ablation.player();
        if !preloaded {
            player = player.with_universe(Vec::new());
        }
        let (s, system) = ablation.replay(player, |b| b, &driver);
        let st = system.stats();
        vec![
            name.to_string(),
            format!("{:.1}", s.transactions_per_sec()),
            format!("{:.1}", s.read_mean_us()),
            format!(
                "{:.1}%",
                st.home_reads as f64 / st.reads.max(1) as f64 * 100.0
            ),
            format!("{}", s.ssd_writes),
        ]
    });
    table(
        "Ablation: offline image preparation (SysBench)",
        &["mode", "tx/s", "read_us", "home_reads", "ssd_writes"],
        &rows,
    )
}

/// The queue sweep: off, then doubling depths under SPTF.
const DEPTHS: [Option<u32>; 7] = [None, Some(1), Some(2), Some(4), Some(8), Some(16), Some(32)];

fn depth_name(depth: Option<u32>) -> String {
    depth.map_or("off".to_string(), |d| d.to_string())
}

/// Virtual HDD service nanoseconds per thousand host operations: what the
/// queue exists to shrink.
fn hdd_ns_per_kop(s: &RunSummary) -> f64 {
    let busy = s.report.hdd.as_ref().map_or(0, |d| d.busy.as_ns());
    if s.ops == 0 {
        0.0
    } else {
        busy as f64 * 1000.0 / s.ops as f64
    }
}

/// Device command-queue depth on SysBench. The headline column is virtual
/// HDD service time per thousand host operations: seek-aware scheduling and
/// coalescing of adjacent home writes shave positioning costs, so it falls
/// as depth grows (the test below holds the pinned table to that trend).
fn queue_depth(cfg: &RunConfig) -> String {
    queue_sweep(cfg, sysbench::spec(), "SysBench")
}

/// [`queue_depth`] on the HDD-bound SysBench variant
/// ([`sysbench::pressure_spec`]): delta-unfriendly writes, uniform access.
fn queue_depth_pressure(cfg: &RunConfig) -> String {
    queue_sweep(cfg, sysbench::pressure_spec(), "SysBench pressure variant")
}

/// The queue-depth sweep of `base`, titled `workload`. RAM is an eighth of
/// the scaled spec's, so eviction pressure produces real spill batches for
/// the HDD's NCQ scheduler to reorder and coalesce. The queue columns come
/// from a [`TraceProfile`](icash_metrics::trace::TraceProfile) of the run,
/// the one place queue events are counted.
fn queue_sweep(cfg: &RunConfig, base: WorkloadSpec, workload: &str) -> String {
    let ablation = Ablation::new(cfg, base, |spec| {
        spec.ram_bytes = (spec.ram_bytes / 8).max(1 << 20)
    });
    let rows = rows(cfg, &DEPTHS, |&depth| {
        let queued = |b: IcashConfigBuilder| match depth {
            Some(d) => b.queue(QueueConfig::depth(d)),
            None => b,
        };
        let (s, _, profile) = ablation.run_profiled(queued, &ablation.driver());
        let hdd = s.report.hdd.clone().unwrap_or_default();
        vec![
            depth_name(depth),
            format!("{:.1}", s.transactions_per_sec()),
            format!("{}", hdd.writes),
            format!("{}", hdd.reads),
            format!("{:.3}", hdd.busy.as_secs_f64() * 1e3),
            format!("{:.0}", hdd_ns_per_kop(&s)),
            format!("{}", profile.hdd_queue.coalesced_commands),
            format!("{}", profile.hdd_queue.reorders),
        ]
    });
    table(
        &format!(
            "Ablation: device command-queue depth ({workload}, tight RAM; off = strict submission order)"
        ),
        &[
            "depth",
            "tx/s",
            "hdd_w",
            "hdd_r",
            "hdd_busy_ms",
            "hdd_ns/kop",
            "coalesced",
            "reorders",
        ],
        &rows,
    )
}

/// The similarity-scan interval (§4.2 fixes it at 2,000 I/Os with a
/// 4,000-block window). Too-frequent scans churn references and burn CPU;
/// too-rare scans leave new content unbound.
fn scan_interval(cfg: &RunConfig) -> String {
    let ablation = Ablation::sysbench(cfg);
    let intervals = [500u64, 1_000, 2_000, 4_000, 8_000, 16_000];
    let rows = rows(cfg, &intervals, |&interval| {
        let (s, system) = ablation.run(|b| b.scan_interval(interval), &ablation.driver());
        vec![
            format!("{interval}"),
            format!("{:.1}", s.transactions_per_sec()),
            format!("{:.1}", s.read_mean_us()),
            format!("{}", s.ssd_writes),
            format!("{}", system.stats().ref_installs),
            format!("{:.2}%", s.storage_cpu_utilization * 100.0),
        ]
    });
    table(
        "Ablation: similarity-scan interval (SysBench; paper default 2000)",
        &[
            "interval",
            "tx/s",
            "read_us",
            "ssd_writes",
            "installs",
            "storage_cpu",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/golden");

    fn golden(name: &str) -> String {
        std::fs::read_to_string(format!("{GOLDEN_DIR}/{name}.txt")).expect(name)
    }

    /// Drift: every row has a pinned table and every pinned ablation table
    /// is a row.
    #[test]
    fn every_row_is_pinned_and_every_pin_is_a_row() {
        let pinned: BTreeSet<String> = std::fs::read_dir(GOLDEN_DIR)
            .expect("ci/golden")
            .map(|entry| {
                entry
                    .expect("entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8")
            })
            .filter_map(|file| Some(file.strip_suffix(".txt")?.to_string()))
            .filter(|name| name.starts_with("ablation_"))
            .collect();
        let rows: BTreeSet<String> = ABLATIONS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(pinned, rows, "ci/golden/ablation_*.txt vs ABLATIONS");
    }

    /// One folded row byte for byte inside `cargo test`: the codec table
    /// does not depend on `ICASH_OPS` and runs in milliseconds.
    #[test]
    fn the_codec_row_matches_its_pin() {
        let cfg = RunConfig {
            threads: Some(2),
            ..RunConfig::default()
        };
        assert!(
            codec(&cfg) == golden("ablation_codec"),
            "ablation_codec drifted"
        );
    }

    /// The pinned trajectory: one row per sweep depth, in order, and HDD
    /// service per kop never rises with depth and ends below queue-off, so a
    /// re-pin of the golden cannot invert the trend unnoticed.
    #[test]
    fn pinned_trajectory_falls_with_depth() {
        let golden = golden("ablation_queue_depth");
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
