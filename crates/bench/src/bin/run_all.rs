//! Regenerates every figure and table of the paper's evaluation in one run
//! and emits a Markdown report: at default op counts, EXPERIMENTS.md.
//!
//! Usage: `run_all [output.md] [--trace trace.jsonl]` — honours
//! `ICASH_OPS` / `ICASH_FULL=1`.

use icash_bench::exhibits::{measure, Measured};
use icash_bench::harness::cell_table;
use icash_bench::RunConfig;
use std::fmt::Write as _;

/// One exhibit's paper-vs-measured table plus its winner-shape line;
/// returns whether the measured winner matches the paper's.
fn md_table(out: &mut String, m: &Measured) -> bool {
    let ex = m.exhibit;
    let _ = writeln!(out, "### {}\n", ex.title);
    let _ = writeln!(
        out,
        "| System | Paper ({unit}) | Measured ({unit}) |\n|---|---:|---:|",
        unit = ex.unit
    );
    for (name, paper_v) in ex.paper {
        let measured = m
            .rows
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        let _ = writeln!(out, "| {name} | {paper_v:.2} | {measured:.2} |");
    }
    // Shape check: does the measured winner match the paper's?
    let paper_rows: Vec<(String, f64)> =
        ex.paper.iter().map(|(n, v)| (n.to_string(), *v)).collect();
    let paper_best = ex.winner(&paper_rows);
    let measured_best = ex.winner(&m.rows);
    let _ = writeln!(
        out,
        "\n*Paper winner: **{paper_best}**; measured winner: **{measured_best}**{}*\n",
        if paper_best == measured_best {
            " — shape reproduced."
        } else {
            " — deviation, see notes."
        }
    );
    paper_best == measured_best
}

const NOTES: &str = r#"
## Notes on deviations

* **CPU-utilization "winners" (Figs 6b/8b/10b)**: the paper's utilizations
  cluster within a few percent ("the difference less than 4%", §5.1); the
  winner-check on a near-tie metric is noise. The reproduced property is
  that I-CASH's codec overhead does *not* blow up CPU use — its utilization
  lands within a few points of pure SSD, as in the paper — while the
  disk-bound systems idle the CPU.
* **Read response times (Figs 7/9/11)**: the paper reports I-CASH reads
  *faster* than pure SSD (18 vs 35 us) — an artifact of its ioDrive's
  region-dependent latency ("randomly accessing a 10 MB file [vs] a 1 GB
  file ... is about 15 us", §5.1) that our flash model does not have. Our
  I-CASH reads are microsecond-scale from RAM/flash but carry a small
  mechanical tail from packed-log fetches, which dominates the *mean* in
  scaled runs; FusionIO has no mechanical tail by construction. Part of
  that tail was the fetch's own doing: it read 16 packed blocks whatever
  the request, and the deltas it installed unasked evicted hot ones, so
  later reads went back to the disk. A fetch sized to the request (two
  packed blocks per block the request still wants, at most 16) leaves
  the hot set in RAM: SysBench's read mean (Fig 7) falls from 117.3 to
  59.6 us, and TPC-C's response time (Fig 11) from 1.88 to 1.00 ms, below
  FusionIO's. What is left of the tail is the fetches reads need. Write
  responses reproduce the paper's shape (I-CASH ~5-10x below every
  flash-writing system) on every workload.
* **Figure 12 (LoadSim)**: FusionIO wins, as in the paper; but our RAID0's
  four spindles beat I-CASH's single HDD under the nearly-random 17.5 GB
  workload, where the paper has I-CASH 2.4x ahead of RAID0. I-CASH still
  beats the same-budget LRU and Dedup caches.
* **Figure 15 (five TPC-C VMs)**: I-CASH lands at 0.98x FusionIO, not
  2.8x. What the five images lost is full-span readahead over their
  dense packed blocks: near-identical images pack about ten current
  deltas to a log block, so a fixed 16-block fetch brought in what the
  next reads wanted. With it, I-CASH fetched 456 times, installing 158
  deltas each, and measured 1.52x; sized to the request, it fetches 706
  times, installing 93 each, and every extra fetch is a seek. The fixed
  span is not kept: on every other workload its unasked deltas evict hot
  ones (DESIGN.md §7, "Batched log fetches").
* **Figure 16 (five RUBiS VMs)**: I-CASH lands below FusionIO instead of
  20 % above — a read-dominated case gives our model no write-side flash
  saturation for I-CASH to exploit — while beating the address-keyed
  caches by roughly the paper's margins.
* **Table 5 (TPC-C column)**: paper and measurement both show the four
  SSD-bearing systems within ~10 % of each other and RAID0 2.5-4x worse;
  the within-cluster winner differs (a near-tie).

## Sensitivity to device command queueing (DESIGN.md §15)

Every number above is a `queue = off` run — the default build is pinned
byte-identical to the pre-queue engine (`./ci.sh golden` diffs the trace
JSONL and `campaign_faults` stdout against goldens pinned before the queue
existed), so nothing in this report moves unless
a cell is built with a device queue. What moves when one is:

* **HDD service time** is the sensitive quantity. `exhibit
  ablation_queue_depth` (SysBench, 8000 ops) tracks virtual HDD service ns
  per thousand host ops, which falls from queue-off to NCQ depth 8, where
  it saturates — once the whole group-commit cadence parks in the
  write-behind cache and drains as one coalesced burst, extra depth has
  nothing left to merge (`ci/golden/ablation_queue_depth.txt` pins the
  trajectory, and a test holds it to the trend).
* **Throughput moves only where the HDD is on the critical path.** The
  paper-exhibit cells are flash/RAM-bound after quick-mode scaling, so
  their tx/s barely shift. On the HDD-bound pressure variant
  (`exhibit ablation_queue_depth_pressure`: delta-unfriendly writes,
  uniform access, RAM/8) tx/s rises by about a percent from queue-off to
  depth 32 (8000 ops, pinned in
  `ci/golden/ablation_queue_depth_pressure.txt`), and
  `campaign_scale_queue16` on the same spec with RAM/64 at 16 shards
  clears its queue-on > queue-off assert, which `./ci.sh golden` runs.
* **Invariants that do not move**: bytes returned by every read and
  bytes reaching HDD media after a durability barrier (the queue
  reorders and merges HDD commands; it neither adds nor drops bytes).
  Only the HDD has a queue. `tests/identity.rs` holds the differential.

## What shifted-content matching buys (DESIGN.md §9)

Nothing, for any workload this repo can generate. Through PR 20 every
encode whose skip/literal payload exceeded 512 bytes also ran a
vcdiff-style chunk matcher (COPY/ADD against a window-hash index of the
reference) and kept its output when smaller — this repo's addition; the
paper's delta (§3.1, §5) is an in-place derivation. A counter in the
encoder at the last commit that had the matcher, default op counts:

| run | encodes | chunk passes | chunk wins | bytes saved | wins crossing the 2 048-byte bind threshold |
|---|---:|---:|---:|---:|---:|
| Figure 6 (SysBench) | 119 068 | 64 359 | 0 | 0 | 0 |
| Figure 8 (Hadoop) | 260 996 | 148 568 | 0 | 0 | 0 |
| Figure 10 (TPC-C) | 161 455 | 67 611 | 0 | 0 | 0 |
| Figure 12 (LoadSim) | 37 959 | 28 267 | 0 | 0 | 0 |
| Figure 13 (SPEC-sfs) | 510 990 | 380 720 | 0 | 0 | 0 |
| Figure 14 (RUBiS) | 60 890 | 1 485 | 0 | 0 | 0 |
| Figure 15 (five TPC-C VM images) | 392 968 | 58 849 | 0 | 0 | 0 |
| Figure 16 (five RUBiS VM images) | 88 800 | 510 | 0 | 0 | 0 |
| all eight | 1 633 126 | 750 369 | 0 | 0 | 0 |

With no win there is no simulated time and no SSD write to lose: every
figure and table above, Table 6 and the cross-VM images of Figs 15 / 16
included, is byte-identical without the matcher, which PR 21 deleted.
`exhibit ablation_codec` prints the per-profile delta sizes of the
encoder that remains.
"#;

fn main() {
    let cfg = RunConfig::from_env();
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs. measured\n\n\
         Regenerated by `cargo run --release -p icash-bench --bin run_all`.\n\
         Quick mode scales each workload's data set and device budgets by the\n\
         ops ratio (see `WorkloadSpec::scaled_to_ops`); absolute numbers are\n\
         simulator-scale, the reproduction target is the *shape* — ordering,\n\
         rough factors, crossovers. `ICASH_FULL=1` runs the Table 4 op counts.\n"
    );

    // One plan, one worker pool: every (system x workload) cell runs
    // concurrently on its own virtual clock (ICASH_THREADS workers). Host
    // timings go to stderr only: the report is simulated values alone, so
    // it is a golden (`./ci.sh golden` diffs it against EXPERIMENTS.md).
    let (results, measured) = measure(&cfg, None);
    eprintln!("{}", cell_table(&results, cfg.workers()));

    // The report compares against the paper; a panel with no paper values
    // (Hadoop's read half of Figure 9) is its binary's alone.
    let compared: Vec<&Measured> = measured
        .iter()
        .filter(|m| !m.exhibit.paper.is_empty())
        .collect();
    let mut reproduced = 0;
    for m in &compared {
        reproduced += usize::from(md_table(&mut md, m));
    }
    let _ = writeln!(
        md,
        "\n**Winner-shape summary: {reproduced}/{} exhibits reproduce the paper's winner.**",
        compared.len()
    );
    md.push_str(NOTES);

    match cfg.args.first() {
        Some(path) => {
            std::fs::write(path, &md).expect("write report");
            eprintln!("wrote {path}");
        }
        None => print!("{md}"),
    }
}
