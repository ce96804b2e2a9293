//! The shard-scaling campaign, rows `campaign_scale` and
//! `campaign_scale_queue16`: where does shard scaling saturate?
//!
//! The sharded engine ([`ShardRouter`]) stripes the block space across N
//! independent controllers, and because each shard is a complete
//! self-contained simulation on its own virtual clock, the N shards of one
//! replay can run on N real threads. This module measures what that buys:
//! it records one SysBench op stream, partitions it per shard with the
//! router's own striping (`partition_trace`), replays every
//! shard's slice as an independent closed-loop benchmark on the harness
//! worker pool, and reports both the *deterministic* merged results (virtual
//! time, latencies, device counters — byte-identical no matter how many
//! worker threads ran) and the *wall-clock* throughput that shows the real
//! parallel speedup.
//!
//! Two invariants the test suite pins:
//!
//! * [`document`] (the deterministic campaign report) contains no
//!   wall-clock quantity, so its bytes are independent of `ICASH_THREADS`
//!   (`crates/bench/tests/scale_determinism.rs`).
//! * At one shard the partition is the identity and the replay is the bare
//!   unsharded cell.
//!
//! Wall-clock numbers (the point of the exercise) go to the human table
//! (`wall_table`, on stderr) and nowhere else. The document is what the
//! rows print and `./ci.sh golden` diffs against `ci/golden/run_scale*.txt`.
//!
//! [`ShardRouter`]: icash_storage::shard::ShardRouter

use crate::campaign::verdict;
use crate::config::{RunConfig, SEED};
use crate::harness::{cell_driver, run_jobs, slice_config};
use icash_core::{Icash, IcashConfig};
use icash_metrics::histogram::LatencyHistogram;
use icash_metrics::summary::RunSummary;
use icash_storage::queue::QueueConfig;
use icash_storage::shard::{stripes, universe_share};
use icash_storage::system::SystemReport;
use icash_storage::time::Ns;
use icash_workloads::content::ContentModel;
use icash_workloads::driver::run_benchmark;
use icash_workloads::spec::WorkloadSpec;
use icash_workloads::sysbench;
use icash_workloads::trace::{Trace, TracePlayer};
use icash_workloads::workload::WorkloadOp;
use std::time::Instant;

/// `campaign_scale`'s shard-count sweep: powers of two through 64.
const SHARD_SWEEP: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// `campaign_scale`'s closed-loop client counts (per shard — each shard
/// runs its own closed loop, matching how a sharded deployment would drive
/// N queues).
const CLIENT_SWEEP: [u32; 2] = [4, 16];

/// The 8-vs-1-shard wall speedup `campaign_scale` requires on a host with
/// at least 8 workers, where the sharded engine must deliver.
const MIN_WALL_SPEEDUP: f64 = 4.0;

/// Splits a recorded outer-address op stream into one per-shard stream
/// with the router's striping ([`stripes`]): an op touching several
/// shards becomes one smaller op on each. At one shard this is the
/// identity. Think/CPU costs ride along unchanged — each shard's closed
/// loop models a client driving that shard.
fn partition_trace(trace: &Trace, shards: u32) -> Vec<Trace> {
    let mut per_shard: Vec<Vec<WorkloadOp>> = vec![Vec::new(); shards.max(1) as usize];
    for op in trace.ops() {
        for (shard, _, lba, count) in stripes(op.lba, op.blocks as u64, shards) {
            per_shard[shard as usize].push(WorkloadOp {
                lba,
                blocks: count as u32,
                ..*op
            });
        }
    }
    per_shard.into_iter().map(Trace::from_ops).collect()
}

/// The result of one (shard count × client count) sweep cell.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Controllers the block space was striped across.
    pub shards: u32,
    /// Closed-loop clients per shard.
    pub clients: u32,
    /// Outer (pre-partition) ops replayed.
    pub ops: u64,
    /// Per-shard summaries, in shard-id order.
    pub per_shard: Vec<RunSummary>,
    /// The shard-merged aggregate ([`RunSummary::merge_shards`]).
    pub merged: RunSummary,
    /// Shard ids ordered by `(virtual finish time, shard id)`. The last
    /// entry is the straggler that bounds the cell's virtual time.
    pub finish_order: Vec<u32>,
    /// Host time for the whole cell (partition + parallel replay). Pure
    /// instrumentation: excluded from [`ScaleCell::to_json`].
    pub wall_ns: u64,
}

impl ScaleCell {
    /// Wall-clock replay throughput in outer ops per host second — the
    /// quantity that shows real parallel speedup. Nondeterministic by
    /// nature; never part of the deterministic document.
    pub fn wall_ops_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.ops as f64 / (self.wall_ns as f64 / 1e9)
        }
    }

    /// The deterministic JSON line for this cell: grid coordinates, the
    /// shard-clock finish order, per-shard virtual finish times, and the
    /// merged summary. Everything here is simulation-determined, so two
    /// runs of the same campaign render identical lines regardless of
    /// `ICASH_THREADS`.
    pub fn to_json(&self) -> String {
        let finish: Vec<String> = self.finish_order.iter().map(u32::to_string).collect();
        let elapsed: Vec<String> = self
            .per_shard
            .iter()
            .map(|s| s.elapsed.as_ns().to_string())
            .collect();
        format!(
            "{{\"cell\":{{\"shards\":{},\"clients\":{}}},\"ops\":{},\
             \"finish_order\":[{}],\"shard_elapsed_ns\":[{}],\"merged\":{}}}",
            self.shards,
            self.clients,
            self.ops,
            finish.join(","),
            elapsed.join(","),
            self.merged.to_json()
        )
    }
}

/// Replays one shard's slice as an independent closed-loop benchmark.
fn replay_shard(
    spec: &WorkloadSpec,
    cfg: IcashConfig,
    trace: Trace,
    universe: Vec<(u8, u64)>,
    clients: u32,
) -> RunSummary {
    let ops = trace.len() as u64;
    if ops == 0 {
        // A shard the partition never touched (possible on tiny grids):
        // an empty summary keeps shard indices aligned.
        return RunSummary {
            system: "I-CASH".to_string(),
            workload: spec.name.clone(),
            ops: 0,
            transactions: 0,
            elapsed: Ns::ZERO,
            steady_ops: 0,
            steady_elapsed: Ns::ZERO,
            read_latency: LatencyHistogram::new(),
            write_latency: LatencyHistogram::new(),
            cpu_utilization: 0.0,
            storage_cpu_utilization: 0.0,
            ssd_writes: 0,
            energy_wh: 0.0,
            report: SystemReport::default(),
            wall_ns: 0,
        };
    }
    let mut system = Icash::new(cfg);
    let mut player = TracePlayer::new(spec.clone(), trace).with_universe(universe);
    let mut model = ContentModel::new(SEED, spec.profile.clone());
    let driver = cell_driver(ops, clients);
    run_benchmark(&mut system, &mut player, &mut model, &driver)
}

/// Runs one sweep cell: partition the recorded trace, replay every shard's
/// slice on the shared worker pool (thread-per-shard up to `cfg.workers()`
/// threads), merge. Each shard runs `slice_config` with `queue`.
fn run_cell(
    cfg: &RunConfig,
    spec: &WorkloadSpec,
    queue: Option<QueueConfig>,
    trace: &Trace,
    universe: &[(u8, u64)],
    shards: u32,
    clients: u32,
) -> ScaleCell {
    let wall_start = Instant::now();
    let parts = partition_trace(trace, shards);
    let slice_cfg = IcashConfig {
        queue,
        ..slice_config(spec, shards)
    };
    let jobs: Vec<_> = parts
        .into_iter()
        .enumerate()
        .map(|(shard, part)| {
            let sub_universe = universe_share(universe, shards, shard as u32);
            let slice_cfg = slice_cfg.clone();
            move || replay_shard(spec, slice_cfg, part, sub_universe, clients)
        })
        .collect();
    let per_shard = run_jobs(cfg.workers(), jobs);
    let wall_ns = wall_start.elapsed().as_nanos() as u64;
    // Shards by finish time, ties broken by shard id.
    let mut finish_order: Vec<u32> = (0..shards).collect();
    finish_order.sort_by_key(|&shard| (per_shard[shard as usize].elapsed, shard));
    let merged = RunSummary::merge_shards(&per_shard);
    ScaleCell {
        shards,
        clients,
        ops: trace.len() as u64,
        per_shard,
        merged,
        finish_order,
        wall_ns,
    }
}

/// Runs the full sweep grid over one recorded op stream: every shard count
/// × every client count, cells in grid order (shards outer, clients
/// inner), every shard's devices behind `queue` (`None` = no command
/// queue). The trace is recorded once from `spec` and [`SEED`], so every
/// cell replays the same outer op stream.
pub fn run_campaign(
    cfg: &RunConfig,
    spec: &WorkloadSpec,
    queue: Option<QueueConfig>,
    ops: u64,
    shard_sweep: &[u32],
    client_sweep: &[u32],
) -> Vec<ScaleCell> {
    let mut source = icash_workloads::MixedWorkload::new(spec.clone(), SEED);
    let universe = icash_workloads::workload::Workload::address_universe(&source);
    let trace = Trace::record(&mut source, ops);
    let mut cells = Vec::new();
    for &shards in shard_sweep {
        for &clients in client_sweep {
            eprintln!("scale: shards={shards} clients={clients} ({ops} ops)");
            cells.push(run_cell(
                cfg, spec, queue, &trace, &universe, shards, clients,
            ));
        }
    }
    cells
}

/// The deterministic campaign document: a schema header followed by one
/// [`ScaleCell::to_json`] line per cell. Contains no wall-clock quantity —
/// `crates/bench/tests/scale_determinism.rs` pins the bytes independent of
/// the worker count.
pub fn document(spec: &WorkloadSpec, ops: u64, cells: &[ScaleCell]) -> String {
    let mut doc = format!(
        "{{\"schema\":\"icash-scale-v1\",\"workload\":{:?},\"ops\":{},\"seed\":{}}}\n",
        spec.name, ops, SEED
    );
    for cell in cells {
        doc.push_str(&cell.to_json());
        doc.push('\n');
    }
    doc
}

/// The human-facing table: virtual rates (deterministic) next to the
/// wall-clock replay throughput and its speedup over the one-shard cell at
/// the same client count (host-dependent — this is the measurement).
fn wall_table(cells: &[ScaleCell]) -> String {
    let mut out = String::from(
        "| Shards | Clients/shard | Ops | Virtual time | Virtual ops/s | Wall time | Wall ops/s | Speedup |\n\
         |---:|---:|---:|---:|---:|---:|---:|---:|\n",
    );
    for cell in cells {
        let base = cells
            .iter()
            .find(|c| c.shards == 1 && c.clients == cell.clients)
            .map(ScaleCell::wall_ops_per_sec)
            .unwrap_or(0.0);
        let speedup = if base > 0.0 {
            cell.wall_ops_per_sec() / base
        } else {
            0.0
        };
        out.push_str(&format!(
            "| {} | {} | {} | {:.3} s | {:.0} | {:.3} s | {:.0} | {:.2}x |\n",
            cell.shards,
            cell.clients,
            cell.ops,
            cell.merged.elapsed.as_secs_f64(),
            cell.merged.ops_per_sec(),
            cell.wall_ns as f64 / 1e9,
            cell.wall_ops_per_sec(),
            speedup,
        ));
    }
    out
}

/// Wall-clock speedup of `hi` shards over `lo` shards at `clients` clients
/// per shard; `None` when either cell is missing from the sweep. This is
/// the campaign's headline number (the acceptance gate asserts ≥ 4x for 8
/// over 1 on a host with at least 8 workers).
fn wall_speedup(cells: &[ScaleCell], hi: u32, lo: u32, clients: u32) -> Option<f64> {
    let rate = |shards: u32| {
        cells
            .iter()
            .find(|c| c.shards == shards && c.clients == clients)
            .map(ScaleCell::wall_ops_per_sec)
    };
    let (hi, lo) = (rate(hi)?, rate(lo)?);
    if lo > 0.0 {
        Some(hi / lo)
    } else {
        None
    }
}

/// Runs SysBench over the sweep grid at `ops` outer ops behind `queue`:
/// returns the deterministic document and the cells, with the wall table
/// on stderr.
fn sweep(
    cfg: &RunConfig,
    queue: Option<QueueConfig>,
    ops: u64,
    shards: &[u32],
    clients: &[u32],
) -> (String, Vec<ScaleCell>) {
    let spec = sysbench::spec().scaled_to_ops(ops);
    eprintln!(
        "scale: SysBench, {ops} ops, shards {shards:?} x clients {clients:?}, {} workers, queue {queue:?}",
        cfg.workers(),
    );
    let cells = run_campaign(cfg, &spec, queue, ops, shards, clients);
    eprintln!("\n{}", wall_table(&cells));
    (document(&spec, ops, &cells), cells)
}

/// Row `campaign_scale`: the full sweep at `ICASH_OPS` (default 6,000),
/// queue off. On at least 8 workers it fails unless 8 shards replay 4 times
/// faster than one.
pub fn render(cfg: &RunConfig) -> String {
    let ops = cfg.ops.unwrap_or(6_000);
    let (doc, cells) = sweep(cfg, None, ops, &SHARD_SWEEP, &CLIENT_SWEEP);
    let mut violations = Vec::new();
    if cfg.workers() >= 8 {
        let clients = CLIENT_SWEEP[CLIENT_SWEEP.len() - 1];
        let speedup = wall_speedup(&cells, 8, 1, clients).unwrap_or(0.0);
        eprintln!("scale: 8-vs-1-shard wall speedup at {clients} clients: {speedup:.2}x");
        if speedup < MIN_WALL_SPEEDUP {
            violations.push(format!(
                "sharded engine scaled only {speedup:.2}x at 8 shards (required {MIN_WALL_SPEEDUP}x)"
            ));
        }
    }
    verdict(doc, "SCALE VIOLATION", &violations, "")
}

/// Row `campaign_scale_queue16`: 1, 8 and 16 shards of 4 clients at NCQ
/// depth 16 and `ICASH_OPS` (default 4,000). Fails unless queueing raises
/// the aggregate *virtual* throughput over queue-off at 16 shards — a
/// deterministic comparison, so it holds at any worker count.
pub fn render_queue16(cfg: &RunConfig) -> String {
    let ops = cfg.ops.unwrap_or(4_000);
    let queue = Some(QueueConfig::depth(16));
    let (doc, _) = sweep(cfg, queue, ops, &[1, 8, 16], &[4]);
    // The comparison cells run the HDD-pressure SysBench variant under a
    // tight RAM budget: stock SysBench touches the mechanical disk a
    // handful of times per shard (it is an SSD-friendly workload by
    // design), which leaves the device queue nothing to schedule and the
    // comparison a tie.
    let mut pspec = sysbench::pressure_spec().scaled_to_ops(ops);
    pspec.ram_bytes = (pspec.ram_bytes / 64).max(1 << 20);
    pspec.ssd_bytes = (pspec.ssd_bytes / 4).max(1 << 20);
    let rate = |queue| {
        run_campaign(cfg, &pspec, queue, ops, &[16], &[4])[0]
            .merged
            .ops_per_sec()
    };
    let (on_rate, off_rate) = (rate(queue), rate(None));
    eprintln!(
        "scale: aggregate virtual throughput at 16 shards {on_rate:.0} ops/s queued vs {off_rate:.0} ops/s unqueued"
    );
    let mut violations = Vec::new();
    if on_rate <= off_rate {
        violations.push(format!(
            "device queueing must raise aggregate virtual throughput at 16 shards: \
             {on_rate:.0} ops/s queued vs {off_rate:.0} ops/s unqueued"
        ));
    }
    verdict(doc, "SCALE VIOLATION", &violations, "")
}

#[cfg(test)]
mod tests {
    use super::*;
    use icash_baselines::Raid0;
    use icash_storage::block::{BlockBuf, Lba};
    use icash_storage::request::{Op, Request};
    use icash_storage::shard::ShardRouter;
    use proptest::prelude::*;

    fn small_spec() -> WorkloadSpec {
        let mut spec = sysbench::spec();
        spec.data_bytes = 16 << 20;
        spec.ssd_bytes = 2 << 20;
        spec.ram_bytes = 1 << 20;
        spec
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The campaign partitions a trace exactly as the router splits a
        /// request, and every sub-op keeps its op's kind, CPU and think
        /// time.
        #[test]
        fn partition_matches_the_router_split(
            base in 0u64..100_000,
            blocks in 1u32..200,
            vm in 0u8..4,
            write in any::<bool>(),
            width in 1u32..65,
        ) {
            let lba = Lba::new(base).with_vm(vm);
            let op = WorkloadOp {
                op: if write { Op::Write } else { Op::Read },
                lba,
                blocks,
                app_cpu: Ns::from_us(3),
                think: Ns::from_us(7),
            };
            let parts = partition_trace(&Trace::from_ops(vec![op]), width);
            prop_assert_eq!(parts.len(), width as usize);
            let mut partitioned = Vec::new();
            for (shard, part) in (0u32..).zip(&parts) {
                for sub in part.ops() {
                    // Only the address and the length change.
                    prop_assert_eq!(*sub, WorkloadOp { lba: sub.lba, blocks: sub.blocks, ..op });
                    partitioned.push((shard, sub.lba, sub.blocks));
                }
            }
            let router = ShardRouter::new((0..width).map(|_| Raid0::new(1 << 20, 1)).collect());
            let req = if write {
                Request::write_span(lba, Ns::ZERO, vec![BlockBuf::zeroed(); blocks as usize])
            } else {
                Request::read_span(lba, blocks, Ns::ZERO)
            };
            let split: Vec<(u32, Lba, u32)> = router
                .split(&req)
                .into_iter()
                .map(|(shard, sub)| (shard, sub.lba, sub.blocks))
                .collect();
            prop_assert_eq!(partitioned, split);
        }
    }

    #[test]
    fn one_shard_cell_matches_the_bare_replay() {
        let spec = small_spec();
        let mut wl = icash_workloads::MixedWorkload::new(spec.clone(), 5);
        let universe = icash_workloads::workload::Workload::address_universe(&wl);
        let trace = Trace::record(&mut wl, 400);
        let cell = run_cell(&RunConfig::default(), &spec, None, &trace, &universe, 1, 4);
        assert_eq!(cell.per_shard.len(), 1);
        assert_eq!(cell.finish_order, vec![0]);
        // The merged summary IS the single shard's summary.
        assert_eq!(cell.merged.to_json(), cell.per_shard[0].to_json());
        assert_eq!(cell.merged.ops, 400);
    }

    #[test]
    fn sharded_cell_replays_every_block_deterministically() {
        let spec = small_spec();
        let mut wl = icash_workloads::MixedWorkload::new(spec.clone(), 5);
        let universe = icash_workloads::workload::Workload::address_universe(&wl);
        let trace = Trace::record(&mut wl, 400);
        let cfg = RunConfig::default();
        let a = run_cell(&cfg, &spec, None, &trace, &universe, 4, 2);
        let b = run_cell(&cfg, &spec, None, &trace, &universe, 4, 2);
        assert_eq!(a.to_json(), b.to_json(), "cells replay bit-identically");
        assert_eq!(a.per_shard.len(), 4);
        assert_eq!(a.finish_order.len(), 4);
        assert_eq!(
            a.per_shard.iter().map(|s| s.ops).sum::<u64>(),
            a.merged.ops,
            "merged op count is the shard sum"
        );
    }

    #[test]
    fn document_excludes_wall_clock() {
        let spec = small_spec();
        let cells = run_campaign(&RunConfig::default(), &spec, None, 120, &[1, 2], &[2]);
        let doc = document(&spec, 120, &cells);
        assert!(doc.starts_with("{\"schema\":\"icash-scale-v1\""));
        assert_eq!(doc.lines().count(), 3, "header + one line per cell");
        assert!(!doc.contains("wall"), "no wall-clock field may leak");
        // Re-rendering with different wall numbers changes nothing.
        let mut forged = cells.clone();
        for cell in &mut forged {
            cell.wall_ns = cell.wall_ns.wrapping_mul(7).wrapping_add(13);
        }
        assert_eq!(doc, document(&spec, 120, &forged));
    }
}
