//! Shared experiment machinery.
//!
//! Every exhibit runs the same recorded operation trace against the five
//! storage architectures of §4.4 — FusionIO (pure SSD), RAID0, Dedup, LRU,
//! and I-CASH — under identical driver settings, then formats the results
//! the way the paper's figure does.
//!
//! ## Execution model
//!
//! Each (system × workload) pair is one independent **cell**: it owns its
//! entire simulated world (devices, RNG streams, virtual clock), so cells
//! can run on any worker thread in any order and still produce bit-identical
//! results. [`run_plan`] flattens all requested cells into one job list and
//! executes it on a [`std::thread::scope`] pool of
//! [`RunConfig::workers`] threads (`ICASH_THREADS`, default: available
//! parallelism). A determinism regression test
//! (`crates/bench/tests/determinism.rs`) holds that parallel and sequential
//! replays serialize identically.
//!
//! ## Tracing
//!
//! With [`RunConfig::trace`] set (`--trace <path>`) each
//! cell records its structured event stream into a [`JsonlSink`] and the
//! cells are concatenated — each under a `{"cell":...}` header line — into
//! one JSONL artifact readable by the `trace_profile` binary. Without it no
//! tracer is attached anywhere, so the run (and its emitted JSON) is
//! byte-identical to a build without this feature.

use crate::config::{RunConfig, SEED};
use icash_core::{Icash, IcashConfig, IcashConfigBuilder};
use icash_metrics::summary::RunSummary;
use icash_metrics::trace::{JsonlSink, TraceProfile};
use icash_storage::cpu::CpuModel;
use icash_storage::shard::ShardRouter;
use icash_storage::system::{IoCtx, StorageSystem, ZeroSource};
use icash_storage::time::Ns;
use icash_storage::trace::{TraceSink, Tracer};
use icash_workloads::content::ContentModel;
use icash_workloads::driver::{run_benchmark, DriverConfig};
use icash_workloads::spec::WorkloadSpec;
use icash_workloads::trace::{Trace, TracePlayer};
use icash_workloads::vm::MultiVm;
use icash_workloads::workload::{MixedWorkload, Workload};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The five architectures of the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Pure SSD holding the entire data set.
    FusionIo,
    /// Four striped SATA disks.
    Raid0,
    /// Content-addressed SSD cache over one disk.
    Dedup,
    /// LRU SSD cache over one disk.
    Lru,
    /// The I-CASH storage element.
    Icash,
}

impl SystemKind {
    /// All five, in the paper's figure order.
    pub const ALL: [SystemKind; 5] = [
        SystemKind::FusionIo,
        SystemKind::Raid0,
        SystemKind::Dedup,
        SystemKind::Lru,
        SystemKind::Icash,
    ];

    /// Builds the system sized for `spec` (baseline caches get exactly the
    /// I-CASH SSD budget; FusionIO gets the whole data set, §4.4).
    ///
    /// With `shards > 1` the system is striped across that many
    /// independent controllers behind a [`ShardRouter`], each a complete
    /// small system sized from `slice_config`, so the aggregate hardware
    /// budget matches the unsharded build. At one shard this returns the
    /// bare (unwrapped) system — the golden fixtures stay untouched by
    /// construction.
    pub fn build(self, spec: &WorkloadSpec, shards: u32) -> Box<dyn StorageSystem> {
        if shards > 1 {
            let slice = slice_config(spec, shards);
            let systems: Vec<_> = (0..shards).map(|_| self.sized(slice.clone())).collect();
            return Box::new(ShardRouter::new(systems));
        }
        self.sized(IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes).build())
    }

    /// One system over the capacities of `cfg`: I-CASH runs it, a baseline
    /// takes its SSD and data bytes.
    fn sized(self, cfg: IcashConfig) -> Box<dyn StorageSystem> {
        use icash_baselines::{DedupCache, LruCache, PureSsd, Raid0};
        let (ssd, data) = (cfg.ssd_bytes, cfg.data_bytes);
        match self {
            SystemKind::FusionIo => Box::new(PureSsd::new(data).timing_only()),
            SystemKind::Raid0 => Box::new(Raid0::new(data, 4).timing_only()),
            SystemKind::Dedup => Box::new(DedupCache::new(ssd, data).timing_only()),
            SystemKind::Lru => Box::new(LruCache::new(ssd, data).timing_only()),
            SystemKind::Icash => Box::new(Icash::new(cfg)),
        }
    }
}

/// The one slicing rule of a `shards`-wide system: each shard is
/// [`IcashConfig::shard_slice`] of the unsharded controller for `spec`, so
/// every budget is divided, not replicated. Sharded harness cells size all
/// five architectures from it, and every shard of the scale campaign runs
/// it.
pub(crate) fn slice_config(spec: &WorkloadSpec, shards: u32) -> IcashConfig {
    IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes)
        .build()
        .shard_slice(shards)
}

/// The driver settings of every harness cell: the workload's client count
/// and the last three quarters of the run measured.
pub fn cell_driver(ops: u64, clients: u32) -> DriverConfig {
    DriverConfig {
        warmup_ops: ops / 4,
        ..DriverConfig::new(ops).clients(clients)
    }
}

// ----------------------------------------------------------------------
// The worker pool
// ----------------------------------------------------------------------

/// Runs `jobs` on a scoped pool of at most `workers` threads and returns
/// their results in job order. Workers pull the next job index from a
/// shared atomic counter, so scheduling is dynamic but the output order
/// (and, because every job is a self-contained simulation, every result) is
/// deterministic. Public so campaign binaries run their cells on the same
/// pool with the same determinism contract.
pub fn run_jobs<T, F>(workers: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let workers = workers.clamp(1, jobs.len().max(1));
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let job = jobs[i]
                    .lock()
                    .expect("job slot")
                    .take()
                    .expect("job taken once");
                let result = job();
                *results[i].lock().expect("result slot") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("result lock").expect("job ran"))
        .collect()
}

// ----------------------------------------------------------------------
// Planning and running cells
// ----------------------------------------------------------------------

/// One workload an exhibit wants run against all five systems.
#[derive(Debug)]
pub enum PlannedWorkload {
    /// A single-machine workload generated from the spec itself.
    Standard(WorkloadSpec),
    /// A five-VM consolidation workload (Figures 15-16): the constructor
    /// builds the aggregate from a seed; the spec is rescaled per
    /// environment before VM construction.
    MultiVm(fn(u64) -> MultiVm),
}

impl PlannedWorkload {
    /// The paper-scale spec, before any per-run scaling.
    pub fn base_spec(&self) -> WorkloadSpec {
        match self {
            PlannedWorkload::Standard(spec) => spec.clone(),
            PlannedWorkload::MultiVm(make) => make(0).spec().clone(),
        }
    }
}

/// A recorded, scaled workload ready to fan out into five cells.
#[derive(Debug)]
pub struct PreparedWorkload {
    /// The spec scaled to [`ops`](Self::ops) (see
    /// [`WorkloadSpec::scaled_to_ops`]); at full length it is the paper's
    /// configuration unchanged.
    pub spec: WorkloadSpec,
    /// Operations every cell issues.
    pub ops: u64,
    trace: Trace,
    universe: Vec<(u8, u64)>,
}

impl PreparedWorkload {
    /// Scales `plan` for this run, announces it, and records its op stream
    /// once so every system replays it bit-identically.
    pub fn record(cfg: &RunConfig, plan: &PlannedWorkload) -> Self {
        let base = plan.base_spec();
        let ops = cfg.ops_for(&base);
        let spec = base.scaled_to_ops(ops);
        eprintln!(
            "running {}: {} ops x 5 systems ({} clients, data {} MB, ssd {} MB)",
            spec.name,
            ops,
            spec.clients,
            spec.data_bytes >> 20,
            spec.ssd_bytes >> 20
        );
        let mut source: Box<dyn Workload> = match plan {
            PlannedWorkload::Standard(_) => Box::new(MixedWorkload::new(spec.clone(), SEED)),
            PlannedWorkload::MultiVm(make) => {
                Box::new(icash_workloads::vm::rescale(make, SEED, &spec))
            }
        };
        let universe = source.address_universe();
        let trace = Trace::record(source.as_mut(), ops);
        PreparedWorkload {
            spec,
            ops,
            trace,
            universe,
        }
    }

    /// A fresh replay of the recorded op stream.
    pub fn player(&self) -> TracePlayer {
        TracePlayer::new(self.spec.clone(), self.trace.clone()).with_universe(self.universe.clone())
    }
}

/// Runs one cell: build the system, replay the recorded trace through it
/// under the closed loop, time it; returns the summary and the cell's JSONL
/// events (empty when untraced). The cell owns its whole simulated world.
/// When `traced` is false no sink is attached at all — the simulated run is
/// exactly the untraced one, which is what keeps `--trace`-less output
/// byte-identical.
fn run_cell(
    cfg: &RunConfig,
    kind: SystemKind,
    prep: &PreparedWorkload,
    traced: bool,
) -> (RunSummary, String) {
    let wall_start = Instant::now();
    let spec = &prep.spec;
    let mut system = kind.build(spec, cfg.shards);
    let sink = traced.then(|| attach_jsonl(system.as_mut()));
    let mut model = ContentModel::new(SEED, spec.profile.clone());
    let driver = cell_driver(prep.ops, spec.clients);
    let mut summary = run_benchmark(system.as_mut(), &mut prep.player(), &mut model, &driver);
    summary.wall_ns = wall_start.elapsed().as_nanos() as u64;
    // The cell's document ends with the measured run: taken out first, so
    // the barrier below never reaches an artifact.
    let text = sink.map(|s| s.lock().expect("trace sink").take_text());
    // Exercise the ticket barrier across every architecture: a full sync
    // after the measured run, after which no ticket may remain in flight.
    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::new(&backing, &mut cpu);
    let _ = system.sync(Ns::ZERO, &mut ctx);
    assert_eq!(
        system.flushed_ticket(),
        system.write_ticket(),
        "{}: sync left tickets in flight",
        summary.system
    );
    (summary, text.unwrap_or_default())
}

/// The ablations' protocol ([`crate::ablations`]): one workload scaled to
/// `ICASH_OPS` (default 40,000), its op stream recorded once at seed 1,
/// replayed through one I-CASH per design variant so every row of an
/// ablation table sees the same requests.
#[derive(Debug)]
pub struct Ablation {
    /// The scaled spec every variant is sized for.
    pub spec: WorkloadSpec,
    /// Operations every variant replays.
    pub ops: u64,
    trace: Trace,
}

impl Ablation {
    /// Scales `base`, lets `resize` adjust the scaled spec, and records its
    /// op stream.
    pub fn new(cfg: &RunConfig, base: WorkloadSpec, resize: fn(&mut WorkloadSpec)) -> Self {
        let ops = cfg.ops.unwrap_or(40_000);
        let mut spec = base.scaled_to_ops(ops);
        resize(&mut spec);
        let trace = Trace::record(&mut MixedWorkload::new(spec.clone(), 1), ops);
        Ablation { spec, ops, trace }
    }

    /// The stock ablation: SysBench, scaled and nothing else.
    pub fn sysbench(cfg: &RunConfig) -> Self {
        Self::new(cfg, icash_workloads::sysbench::spec(), |_| {})
    }

    /// The ablations' driver: the workload's clients, 10 % warmup.
    pub fn driver(&self) -> DriverConfig {
        DriverConfig::new(self.ops).clients(self.spec.clients)
    }

    /// A fresh replay of the recorded stream.
    pub fn player(&self) -> TracePlayer {
        TracePlayer::new(self.spec.clone(), self.trace.clone())
    }

    /// Replays the stream through the I-CASH `configure` builds; returns the
    /// summary and the controller (for its internal stats).
    pub fn run(
        &self,
        configure: impl FnOnce(IcashConfigBuilder) -> IcashConfigBuilder,
        driver: &DriverConfig,
    ) -> (RunSummary, Icash) {
        self.replay(self.player(), configure, driver)
    }

    /// [`run`](Self::run) with `player` in place of the plain replay.
    pub fn replay(
        &self,
        player: TracePlayer,
        configure: impl FnOnce(IcashConfigBuilder) -> IcashConfigBuilder,
        driver: &DriverConfig,
    ) -> (RunSummary, Icash) {
        self.replay_traced(player, configure, driver, Tracer::disabled())
    }

    /// [`run`](Self::run) with a [`TraceProfile`] folding every event the
    /// controller emits; returns the summary, the controller and the
    /// profile.
    pub fn run_profiled(
        &self,
        configure: impl FnOnce(IcashConfigBuilder) -> IcashConfigBuilder,
        driver: &DriverConfig,
    ) -> (RunSummary, Icash, TraceProfile) {
        let profile = Arc::new(Mutex::new(TraceProfile::default()));
        let tracer = Tracer::to_sink(profile.clone());
        let (summary, system) = self.replay_traced(self.player(), configure, driver, tracer);
        let profile = std::mem::take(&mut *profile.lock().expect("profile sink"));
        (summary, system, profile)
    }

    fn replay_traced(
        &self,
        mut player: TracePlayer,
        configure: impl FnOnce(IcashConfigBuilder) -> IcashConfigBuilder,
        driver: &DriverConfig,
        tracer: Tracer,
    ) -> (RunSummary, Icash) {
        let spec = &self.spec;
        let builder = IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes);
        let mut system = Icash::new(configure(builder).build());
        system.set_tracer(tracer);
        let mut model = ContentModel::new(1, spec.profile.clone());
        let summary = run_benchmark(&mut system, &mut player, &mut model, driver);
        (summary, system)
    }
}

// ----------------------------------------------------------------------
// Trace capture
// ----------------------------------------------------------------------

/// Installs a fresh [`JsonlSink`]-backed tracer on `system` and returns a
/// handle to the sink so the caller can collect the document after the run.
pub fn attach_jsonl(system: &mut dyn StorageSystem) -> Arc<Mutex<JsonlSink>> {
    let sink = Arc::new(Mutex::new(JsonlSink::new()));
    system.set_tracer(Tracer::to_sink(
        sink.clone() as Arc<Mutex<dyn TraceSink + Send>>
    ));
    sink
}

/// Per plan in order: the scaled spec and, per system in
/// [`SystemKind::ALL`] order, the summary with the cell's JSONL events.
pub type TracedResults = Vec<(WorkloadSpec, Vec<(RunSummary, String)>)>;

/// Appends one cell to a multi-cell JSONL document: a `{"cell":{...}}`
/// header line naming `workload` and `system`, then the cell's `events`.
pub fn push_cell(doc: &mut String, workload: &str, system: &str, events: &str) {
    doc.push_str(&format!(
        "{{\"cell\":{{\"workload\":\"{workload}\",\"system\":\"{system}\"}}}}\n"
    ));
    doc.push_str(events);
}

/// Writes a trace artifact to `path`, reporting the outcome on stderr.
pub fn write_artifact(path: &Path, doc: &str) {
    match std::fs::write(path, doc) {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(err) => eprintln!("failed to write trace {}: {err}", path.display()),
    }
}

/// Runs every planned workload against all five systems, with all
/// (system × workload) cells sharing one worker pool — so a slow cell in
/// one workload overlaps with cells of every other workload. Returns, per
/// plan in order, the scaled spec and the five summaries in
/// [`SystemKind::ALL`] order, and writes the trace artifact when
/// `cfg.trace` names one.
pub fn run_plan(
    cfg: &RunConfig,
    plans: &[PlannedWorkload],
) -> Vec<(WorkloadSpec, Vec<RunSummary>)> {
    let results = run_cells(cfg, plans, cfg.trace.is_some());
    if let Some(path) = &cfg.trace {
        let mut doc = String::new();
        for (spec, cells) in &results {
            for (summary, text) in cells {
                push_cell(&mut doc, &spec.name, &summary.system, text);
            }
        }
        write_artifact(path, &doc);
    }
    results
        .into_iter()
        .map(|(spec, cells)| (spec, cells.into_iter().map(|(s, _)| s).collect()))
        .collect()
}

/// [`run_plan`] with tracing forced on and no artifact written: every cell
/// additionally returns its JSONL event document. The determinism and
/// oracle suites diff these across thread counts and against the summaries.
pub fn run_plan_traced(cfg: &RunConfig, plans: &[PlannedWorkload]) -> TracedResults {
    run_cells(cfg, plans, true)
}

fn run_cells(cfg: &RunConfig, plans: &[PlannedWorkload], traced: bool) -> TracedResults {
    let prepared: Vec<PreparedWorkload> = plans
        .iter()
        .map(|plan| PreparedWorkload::record(cfg, plan))
        .collect();
    let jobs: Vec<_> = prepared
        .iter()
        .flat_map(|prep| SystemKind::ALL.iter().map(move |&kind| (kind, prep)))
        .map(|(kind, prep)| move || run_cell(cfg, kind, prep, traced))
        .collect();
    let mut results = run_jobs(cfg.workers(), jobs).into_iter();
    let per_plan = SystemKind::ALL.len();
    prepared
        .into_iter()
        .map(|prep| (prep.spec, results.by_ref().take(per_plan).collect()))
        .collect()
}

/// Formats the per-cell instrumentation table: ops replayed, virtual time
/// advanced, host wall time, and replay throughput for every
/// (workload × system) cell, plus a totals row naming the pool size.
pub fn cell_table(results: &[(WorkloadSpec, Vec<RunSummary>)], workers: usize) -> String {
    let mut out = String::from(
        "| Workload | System | Ops replayed | Virtual time | Wall time | Replay rate |\n\
         |---|---|---:|---:|---:|---:|\n",
    );
    let mut total_ops = 0u64;
    let mut total_wall_ns = 0u64;
    for (spec, summaries) in results {
        for s in summaries {
            let wall_s = s.wall_ns as f64 / 1e9;
            let rate = if s.wall_ns == 0 {
                0.0
            } else {
                s.ops as f64 / wall_s
            };
            out.push_str(&format!(
                "| {} | {} | {} | {:.2} s | {:.3} s | {:.0} ops/s |\n",
                spec.name,
                s.system,
                s.ops,
                s.elapsed.as_secs_f64(),
                wall_s,
                rate
            ));
            total_ops += s.ops;
            total_wall_ns += s.wall_ns;
        }
    }
    out.push_str(&format!(
        "\n{} cells, {} ops replayed, {:.3} s of cell wall time ({workers} workers)\n",
        results.iter().map(|(_, s)| s.len()).sum::<usize>(),
        total_ops,
        total_wall_ns as f64 / 1e9,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use icash_baselines::{DedupCache, LruCache, PureSsd, Raid0};
    use icash_workloads::sysbench;

    fn small_plan() -> [PlannedWorkload; 1] {
        let mut spec = sysbench::spec();
        spec.data_bytes = 32 << 20;
        spec.ssd_bytes = 4 << 20;
        spec.ram_bytes = 1 << 20;
        spec.clients = 8;
        [PlannedWorkload::Standard(spec)]
    }

    #[test]
    fn five_systems_run_one_small_workload() {
        let cfg = RunConfig {
            ops: Some(2_000),
            ..RunConfig::default()
        };
        let (_, summaries) = run_plan(&cfg, &small_plan()).pop().expect("one plan");
        let names: Vec<&str> = summaries.iter().map(|s| s.system.as_str()).collect();
        assert_eq!(names, vec!["FusionIO", "RAID0", "Dedup", "LRU", "I-CASH"]);
        for s in &summaries {
            assert_eq!(s.ops, 2_000);
            assert!(s.elapsed.as_ns() > 0, "{} did not advance time", s.system);
            assert!(s.wall_ns > 0, "{} cell was not wall-timed", s.system);
        }
    }

    #[test]
    fn five_systems_run_sharded() {
        let cfg = RunConfig {
            ops: Some(1_000),
            shards: 4,
            ..RunConfig::default()
        };
        let (_, summaries) = run_plan(&cfg, &small_plan()).pop().expect("one plan");
        assert_eq!(summaries.len(), 5);
        for s in &summaries {
            assert_eq!(s.ops, 1_000);
            assert!(s.elapsed.as_ns() > 0, "{} did not advance time", s.system);
        }
    }

    /// One slicing rule for every architecture. At 4 shards the harness's
    /// I-CASH shards run `IcashConfig::shard_slice(4)` of the unsharded
    /// controller (log and dirty threshold divided, not replicated), and
    /// every baseline shard takes that slice's SSD and data bytes: each
    /// sharded cell replays exactly like a router built by hand from the
    /// slice, summary and event stream alike.
    #[test]
    fn sharded_cells_are_sized_from_the_icash_slice() {
        // The spec of a 300-op cell, replayed long enough to fill the
        // baseline caches, so a wrong SSD share shows in their hits.
        let spec = sysbench::spec().scaled_to_ops(300);
        let ops = 4_000;
        let whole = IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes).build();
        let slice = whole.shard_slice(4);
        assert_eq!(slice.log_blocks, whole.log_blocks / 4);
        assert_eq!(slice.flush_dirty_bytes, whole.flush_dirty_bytes / 4);
        let (ssd, data) = (slice.ssd_bytes, slice.data_bytes);
        let by_hand = |kind: SystemKind| -> Box<dyn StorageSystem> {
            match kind {
                SystemKind::FusionIo => Box::new(PureSsd::new(data).timing_only()),
                SystemKind::Raid0 => Box::new(Raid0::new(data, 4).timing_only()),
                SystemKind::Dedup => Box::new(DedupCache::new(ssd, data).timing_only()),
                SystemKind::Lru => Box::new(LruCache::new(ssd, data).timing_only()),
                SystemKind::Icash => Box::new(Icash::new(slice.clone())),
            }
        };
        let trace = Trace::record(&mut MixedWorkload::new(spec.clone(), SEED), ops);
        let replay = |mut system: Box<dyn StorageSystem>| {
            let sink = attach_jsonl(system.as_mut());
            let mut player = TracePlayer::new(spec.clone(), trace.clone());
            let mut model = ContentModel::new(SEED, spec.profile.clone());
            let driver = cell_driver(ops, spec.clients);
            let summary = run_benchmark(system.as_mut(), &mut player, &mut model, &driver);
            let events = sink.lock().expect("trace sink").take_text();
            (summary.to_json(), events)
        };
        let unsliced: Vec<SystemKind> = SystemKind::ALL
            .into_iter()
            .filter(|&kind| {
                let router = ShardRouter::new((0..4).map(|_| by_hand(kind)).collect());
                replay(kind.build(&spec, 4)) != replay(Box::new(router))
            })
            .collect();
        assert!(
            unsliced.is_empty(),
            "not four slices of the unsharded cell: {unsliced:?}"
        );
    }

    #[test]
    fn pool_preserves_job_order_and_clamps_workers() {
        for workers in [0, 1, 4, 64] {
            let jobs: Vec<_> = (0..37).map(|i| move || i * i).collect();
            let results = run_jobs(workers, jobs);
            assert_eq!(results, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_jobs(8, Vec::<fn() -> u8>::new()).is_empty());
    }
}
