//! The run protocol: one workload, one process, one thread.
//!
//! 1. Untraced cells, back to back until `--seconds` of cell time have
//!    been measured (never fewer than two): record the trace, build
//!    `Icash`, and hand it to the real `run_benchmark` behind [`Forward`].
//!    Same seed, same work every time, so every summary must render to
//!    the same bytes, replay time takes the fastest cell, and set-up time
//!    the median.
//! 2. Peak RSS, read before anything traced allocates.
//! 3. The LRU baseline, once, through the same call.
//! 4. With `--trace 1`: the traced mirror pass, then the probes.
//!
//! Two clocks, always labelled: **host** is `std::time::Instant`, **sim**
//! is the simulator's virtual `Ns`.

use crate::forward::Forward;
use crate::metrics::{ratio, Values, END_TO_END, PER_LAYER};
use crate::mirror::{self, Checks};
use crate::probes;
use crate::spans::{self, Recorder, NONE, SAMPLE_EVERY};
use crate::workloads::BenchWorkload;
use icash_baselines::LruCache;
use icash_core::{Icash, IcashConfig, IcashStats};
use icash_metrics::summary::RunSummary;
use icash_storage::cpu::CpuModel;
use icash_storage::request::Request;
use icash_storage::system::{IoCtx, StorageSystem};
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceSink, TraceStats, Tracer};
use icash_workloads::content::ContentModel;
use icash_workloads::driver::{run_benchmark, DriverConfig};
use icash_workloads::spec::WorkloadSpec;
use icash_workloads::trace::{Trace, TracePlayer};
use icash_workloads::workload::MixedWorkload;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The harness's seed (`ExperimentConfig::quick`).
pub const DEFAULT_SEED: u64 = 0x1CA5_4001;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 10;
/// Requests read back after each untraced cell.
const READBACK_REQUESTS: usize = 256;

/// What to run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: &'static BenchWorkload,
    /// Seed of the op stream and the content model.
    pub seed: u64,
    /// Cell time to measure before the untraced cells stop repeating.
    pub seconds: u64,
    /// Whether to run the traced pass and the probes.
    pub trace: bool,
    /// Divides length and footprint (smoke runs); 1 = the benchmark's size.
    pub scale_div: u64,
}

/// Host seconds of one untraced cell, split where the benchmark needs it.
#[derive(Debug, Clone, Copy)]
struct CellTimes {
    record: f64,
    build: f64,
    preload: f64,
    /// `preload` returned → `run_benchmark` returned (shutdown flush and
    /// report included).
    replay: f64,
}

impl CellTimes {
    fn setup(&self) -> f64 {
        self.record + self.build + self.preload
    }
}

/// One untraced cell through the real driver. Returns the system and the
/// final content model so the caller can read counters and data back.
fn untraced_cell<S: StorageSystem>(
    spec: &WorkloadSpec,
    ops: u64,
    seed: u64,
    make: impl FnOnce() -> S,
) -> (CellTimes, RunSummary, S, ContentModel, Trace) {
    let t0 = Instant::now();
    let trace = Trace::record(&mut MixedWorkload::new(spec.clone(), seed), ops);
    let t1 = Instant::now();
    let mut system = Forward::new(make());
    let mut player = TracePlayer::new(spec.clone(), trace.clone());
    let mut model = ContentModel::new(seed, spec.profile.clone());
    let cfg = driver_config(spec, ops);
    let t2 = Instant::now();
    let summary = run_benchmark(&mut system, &mut player, &mut model, &cfg);
    let t3 = Instant::now();
    let seam = system.preload_done.expect("run_benchmark preloads");
    let times = CellTimes {
        record: (t1 - t0).as_secs_f64(),
        build: (t2 - t1).as_secs_f64(),
        preload: (seam - t2).as_secs_f64(),
        replay: (t3 - seam).as_secs_f64(),
    };
    (times, summary, system.inner, model, trace)
}

/// The harness's driver settings (`run_cell_inner`).
fn driver_config(spec: &WorkloadSpec, ops: u64) -> DriverConfig {
    DriverConfig {
        clients: spec.clients,
        ops,
        warmup_ops: ops / 4,
        verify: false,
        guest_cache: false,
        cpu: None,
    }
}

fn build_icash(spec: &WorkloadSpec) -> Icash {
    Icash::new(IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes).build())
}

/// Reads an even sample of the trace's requests back from a system that
/// has finished its run and compares every block with what the content
/// model says it now holds. Outside every timed region. Returns (blocks
/// checked, blocks wrong or failed).
fn readback(
    system: &mut dyn StorageSystem,
    model: &ContentModel,
    trace: &Trace,
    at: Ns,
) -> (u64, u64) {
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(model, &mut cpu);
    let step = (trace.len() / READBACK_REQUESTS).max(1);
    let (mut checked, mut wrong) = (0, 0);
    for op in trace.ops().iter().step_by(step) {
        let req = Request::read_span(op.lba, op.blocks, at);
        let completion = system.submit(&req, &mut ctx);
        for (i, lba) in req.lbas().enumerate() {
            checked += 1;
            if completion.failed(lba) || completion.data.get(i) != Some(&model.current_content(lba))
            {
                wrong += 1;
            }
        }
    }
    (checked, wrong)
}

/// Blocks the controller itself reported failed or refused.
fn failed_in(stats: &IcashStats) -> u64 {
    stats.unrecoverable_reads + stats.failed_fast_writes + stats.busy_rejections
}

/// A [`TraceStats`] that also counts events, so events per op is measured
/// where the events are made.
#[derive(Debug, Default, Clone)]
struct Counting {
    stats: TraceStats,
    events: u64,
}

impl TraceSink for Counting {
    fn record(&mut self, event: TraceEvent) {
        self.events += 1;
        self.stats.record(event);
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// (min, (max − min) ÷ min) of a non-empty series.
fn min_and_spread(values: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let lo = values.clone().fold(f64::INFINITY, f64::min);
    let hi = values.fold(0.0, f64::max);
    (lo, (hi - lo) / lo)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// FNV-1a, 64 bit.
fn fingerprint(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// What was run.
    pub args: Args,
    /// Operations per cell.
    pub ops: u64,
    /// Untraced cells run.
    pub cells: usize,
    /// Whether every correctness check held.
    pub correct: bool,
    /// Operations issued to I-CASH over all cells.
    pub attempted: u64,
    /// Blocks that failed, were refused or came back with wrong data.
    pub failed: u64,
    /// Hash of the untraced summary: a host-speed change must not move it.
    pub fingerprint: u64,
    /// End-to-end values.
    pub end_to_end: Values,
    /// Per-layer values (`--trace 1` only).
    pub per_layer: Option<Values>,
    /// Within-run relative range of the repeated host measurements, by
    /// end-to-end metric name (what `compare.py` calls unresolved).
    pub spreads: Vec<(&'static str, f64)>,
    /// Human-readable notes printed above the metrics.
    pub notes: String,
    /// The spans file (`--trace 1` only).
    pub spans_jsonl: Option<String>,
}

/// Runs the protocol in the module docs.
pub fn run(args: Args) -> Outcome {
    let w = args.workload;
    let (spec, ops) = w.cell(args.scale_div);
    let mut notes = String::new();
    let mut correct = true;
    let mut failed = 0u64;

    // 1. Untraced cells.
    let started = Instant::now();
    let mut times = Vec::new();
    let mut first: Option<(RunSummary, String)> = None;
    while times.len() < 2 || started.elapsed().as_secs() < args.seconds {
        let (t, summary, mut system, model, trace) =
            untraced_cell(&spec, ops, args.seed, || build_icash(&spec));
        let (checked, wrong) = readback(&mut system, &model, &trace, summary.elapsed);
        failed += failed_in(&system.stats()) + wrong;
        let _ = writeln!(
            notes,
            "# cell {}: host record {:.3} s, build {:.3} s, preload {:.3} s, replay {:.3} s; \
             read back {checked} blocks, {wrong} wrong",
            times.len(),
            t.record,
            t.build,
            t.preload,
            t.replay
        );
        times.push(t);
        let json = summary.to_json();
        match &first {
            None => first = Some((summary, json)),
            Some((_, want)) => {
                if *want != json {
                    correct = false;
                    let _ = writeln!(notes, "# ERROR: untraced summaries differ");
                }
            }
        }
    }
    let (summary, summary_json) = first.expect("at least two cells");
    let cells = times.len();
    let mut attempted = ops * cells as u64;
    let (replay_min, repeat_spread) = min_and_spread(times.iter().map(|t| t.replay));
    let (_, setup_spread) = min_and_spread(times.iter().map(CellTimes::setup));
    let mut setups: Vec<f64> = times.iter().map(CellTimes::setup).collect();

    // 2. Peak RSS, before the traced pass allocates span buffers.
    let rss = peak_rss_mb();

    // 3. LRU baseline on the same trace through the same call.
    let (lru_times, lru, ..) = untraced_cell(&spec, ops, args.seed, || {
        LruCache::new(spec.ssd_bytes, spec.data_bytes).timing_only()
    });

    let mut e = Values::new(&END_TO_END);
    let kops = ops as f64 / 1000.0;
    e.set("host_ops_per_s", ops as f64 / replay_min);
    e.set("setup_s", median(&mut setups));
    e.set("peak_rss_mb", rss);
    e.set("sim_tx_per_s", summary.transactions_per_sec());
    e.set("sim_energy_mwh_per_kop", summary.energy_wh * 1000.0 / kops);
    let speedup = ratio(summary.transactions_per_sec(), lru.transactions_per_sec());
    e.set("sim_speedup_vs_lru", speedup);

    let paper = w.paper_ratio.0 / w.paper_ratio.1;
    let _ = writeln!(
        notes,
        "# sim latency samples (steady state): {} reads, {} writes",
        summary.read_latency.count(),
        summary.write_latency.count()
    );
    let _ = writeln!(
        notes,
        "# sim_speedup_vs_lru {speedup:.4} vs paper {} {}/{} = {paper:.4}; ln(measured/paper) = {:+.4} (shape only, not gated)",
        w.paper_exhibit,
        w.paper_ratio.0,
        w.paper_ratio.1,
        (speedup / paper).ln()
    );

    // 4. Traced pass and probes.
    let mut per_layer = None;
    let mut spans_jsonl = None;
    if args.trace {
        let untraced = Untraced {
            replay_median: median(&mut times.iter().map(|t| t.replay).collect::<Vec<_>>()),
            repeat_spread,
            summary_json: &summary_json,
            lru_host_ops_per_s: ops as f64 / lru_times.replay,
            lru_sim_tx_per_s: lru.transactions_per_sec(),
        };
        let (p, text, checks) = traced(&args, &spec, ops, &untraced);
        if p.get("bench.mirror_match") != 1.0 {
            correct = false;
            let _ = writeln!(
                notes,
                "# ERROR: traced summary differs from the untraced one"
            );
        }
        attempted += ops;
        failed += checks.wrong_blocks + checks.failed_blocks;
        let _ = writeln!(
            notes,
            "# traced pass: {} reads verified in-loop, {} blocks wrong, {} blocks reported failed",
            checks.verified_reads, checks.wrong_blocks, checks.failed_blocks
        );
        per_layer = Some(p);
        spans_jsonl = Some(text);
    }
    let _ = writeln!(
        notes,
        "# failed_ops_share {} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted as f64
    );
    correct &= failed == 0;

    Outcome {
        args,
        ops,
        cells,
        correct,
        attempted,
        failed,
        fingerprint: fingerprint(&summary_json),
        end_to_end: e,
        per_layer,
        spreads: vec![("host_ops_per_s", repeat_spread), ("setup_s", setup_spread)],
        notes,
        spans_jsonl,
    }
}

/// What the traced pass needs from the untraced ones.
struct Untraced<'a> {
    replay_median: f64,
    repeat_spread: f64,
    summary_json: &'a str,
    lru_host_ops_per_s: f64,
    lru_sim_tx_per_s: f64,
}

/// The traced cell plus the probes: every per-layer value, the spans
/// file, and what the in-loop verification saw.
fn traced(
    args: &Args,
    spec: &WorkloadSpec,
    ops: u64,
    untraced: &Untraced<'_>,
) -> (Values, String, Checks) {
    let id = spans::id;
    let rec = Recorder::new((ops / SAMPLE_EVERY) as usize * 16 + 1024);
    let sink = Arc::new(Mutex::new(Counting::default()));

    let t0 = rec.now();
    let cell = rec.open(id("cell"), t0, NONE);
    let trace = Trace::record(&mut MixedWorkload::new(spec.clone(), args.seed), ops);
    let t1 = rec.now();
    rec.leaf(id("record"), t0, t1, cell);
    let mut system = build_icash(spec);
    system.set_tracer(Tracer::to_sink(sink.clone()));
    let mut player = TracePlayer::new(spec.clone(), trace.clone());
    let mut model = ContentModel::new(args.seed, spec.profile.clone());
    let cfg = driver_config(spec, ops);
    let t2 = rec.now();
    rec.leaf(id("build"), t1, t2, cell);
    // Counters as they stood when `preload` returned: per-op counts below
    // are of the replay alone.
    let mut at_seam = Counting::default();
    let (summary, checks, marks) = mirror::run_traced(
        &mut system,
        &mut player,
        &mut model,
        &cfg,
        &rec,
        cell,
        &mut || at_seam = sink.lock().expect("trace sink").clone(),
    );
    rec.close(cell, marks.done);

    let stats = system.stats();
    let end = sink.lock().expect("trace sink").clone();
    let (c, c0) = (&end.stats, &at_seam.stats);
    let costs = probes::run(spec, &trace, args.seed);

    let totals = rec.totals();
    let own = rec.self_ns();
    let ns = |name: &str| totals[id(name)].ns as f64;
    let count = |name: &str| totals[id(name)].count as f64;
    // Same interval as the untraced replay time: `preload` returned →
    // summary assembled.
    let replay_ns = (marks.done - marks.preload_done) as f64;
    let share = |v: f64| v / replay_ns;
    let kops = ops as f64 / 1000.0;
    let per_kop = |now: u64, seam: u64| (now - seam) as f64 / kops;

    let mut p = Values::new(&PER_LAYER);
    let us = |h: &icash_metrics::histogram::LatencyHistogram, q| h.percentile(q).as_us_f64();
    p.set("sim.read_mean_us", summary.read_mean_us());
    p.set("sim.write_mean_us", summary.write_mean_us());
    p.set("sim.read_p50_us", us(&summary.read_latency, 0.5));
    p.set("sim.read_p99_us", us(&summary.read_latency, 0.99));
    p.set("sim.write_p50_us", us(&summary.write_latency, 0.5));
    p.set("sim.write_p99_us", us(&summary.write_latency, 0.99));
    p.set("sim.ssd_writes_per_kop", summary.ssd_writes as f64 / kops);
    p.set("workloads.record_s", ns("record") / 1e9);
    p.set("workloads.next_op_ns", costs.next_op_ns);
    // What is left of the replay once every named call is taken out: the
    // driver's own accounting, client min-scan and request assembly.
    let named = [
        "payload",
        "submit_read",
        "submit_write",
        "verify",
        "flush",
        "report",
    ];
    p.set(
        "workloads.driver_self_share",
        1.0 - named.iter().map(|n| share(ns(n))).sum::<f64>(),
    );
    p.set(
        "workloads.payload_ns_per_block",
        ratio(ns("payload"), checks.written_blocks as f64),
    );
    p.set("workloads.payload_share", share(ns("payload")));
    let backing = [
        "preload.backing",
        "submit_read.backing",
        "submit_write.backing",
        "flush.backing",
    ];
    p.set(
        "workloads.backing_ns_per_block",
        ratio(
            backing.iter().map(|n| ns(n)).sum(),
            backing.iter().map(|n| count(n)).sum(),
        ),
    );
    p.set(
        "workloads.backing_calls_per_op",
        backing[1..].iter().map(|n| count(n)).sum::<f64>() / ops as f64,
    );

    p.set("core.preload_s", ns("preload") / 1e9);
    p.set("core.preload_self_s", own[id("preload")] as f64 / 1e9);
    p.set(
        "core.submit_read_ns_per_block",
        ratio(ns("submit_read"), checks.read_blocks as f64),
    );
    p.set("core.submit_read_share", share(ns("submit_read")));
    p.set(
        "core.submit_write_ns_per_block",
        ratio(ns("submit_write"), checks.written_blocks as f64),
    );
    p.set("core.submit_write_share", share(ns("submit_write")));
    p.set("core.flush_s", ns("flush") / 1e9);
    p.set(
        "core.ram_hit_ratio",
        ratio(stats.ram_hits as f64, stats.reads as f64),
    );
    p.set(
        "core.hdd_free_read_fraction",
        stats.hdd_free_read_fraction(),
    );
    p.set("core.delta_write_fraction", stats.delta_write_fraction());
    p.set(
        "core.ssd_direct_per_kop",
        stats.ssd_direct_writes as f64 / kops,
    );
    p.set(
        "core.independent_per_kop",
        stats.independent_writes as f64 / kops,
    );
    p.set("core.log_fetches_per_kop", stats.log_fetches as f64 / kops);
    p.set("core.home_reads_per_kop", stats.home_reads as f64 / kops);
    p.set("core.scans", stats.scans as f64);
    p.set("core.flushes", stats.flushes as f64);
    p.set("core.log_blocks_written", stats.log_blocks_written as f64);
    p.set("core.ref_installs", stats.ref_installs as f64);
    p.set("core.binds", stats.binds as f64);
    let (refs, assoc, indep) = stats.role_fractions();
    p.set("core.role_ref_frac", refs);
    p.set("core.role_assoc_frac", assoc);
    p.set("core.role_indep_frac", indep);

    let encodes = (c.delta_encodes - c0.delta_encodes) as f64;
    let cache_hits = (c.ref_cache_hits - c0.ref_cache_hits) as f64;
    let cache_misses = (c.ref_cache_misses - c0.ref_cache_misses) as f64;
    let decodes = (c.delta_decodes - c0.delta_decodes) as f64;
    let probes_made = (c.sig_probes - c0.sig_probes) as f64;
    p.set("delta.encodes_per_kop", encodes / kops);
    p.set("delta.decodes_per_kop", decodes / kops);
    p.set("delta.sig_probes_per_kop", probes_made / kops);
    p.set(
        "delta.sig_bind_ratio",
        ratio((c.sig_binds - c0.sig_binds) as f64, probes_made),
    );
    p.set(
        "delta.mean_delta_bytes",
        ratio((c.delta_bytes - c0.delta_bytes) as f64, encodes),
    );
    p.set(
        "delta.encodes_per_delta_write",
        ratio(encodes, stats.delta_writes as f64),
    );
    p.set(
        "delta.ref_cache_hit_ratio",
        ratio(cache_hits, cache_hits + cache_misses),
    );
    p.set("delta.encode_ns_per_block", costs.encode_ns);
    p.set("delta.encode_cached_ns_per_block", costs.encode_cached_ns);
    p.set("delta.decode_ns_per_block", costs.decode_ns);
    p.set("delta.signature_ns_per_block", costs.signature_ns);
    // Estimates: replay counts times probe unit costs. The controller's
    // own inputs differ from the probes', so these are marked `est`.
    let delta_est = share(
        cache_misses * costs.encode_ns
            + cache_hits * costs.encode_cached_ns
            + decodes * costs.decode_ns
            + checks.written_blocks as f64 * costs.signature_ns,
    );
    p.set("delta.est_share", delta_est);

    let ssd_reads = (c.ssd_reads - c0.ssd_reads) as f64;
    let ssd_programs = (c.ssd_programs - c0.ssd_programs) as f64;
    let hdd_ops = (c.hdd_reads - c0.hdd_reads + c.hdd_writes - c0.hdd_writes) as f64;
    p.set("storage.ssd_reads_per_kop", ssd_reads / kops);
    p.set("storage.ssd_programs_per_kop", ssd_programs / kops);
    p.set(
        "storage.ssd_gc_programs_per_kop",
        per_kop(c.ssd_gc_programs, c0.ssd_gc_programs),
    );
    p.set("storage.ssd_erases", (c.ssd_erases - c0.ssd_erases) as f64);
    p.set(
        "storage.hdd_reads_per_kop",
        per_kop(c.hdd_reads, c0.hdd_reads),
    );
    p.set(
        "storage.hdd_writes_per_kop",
        per_kop(c.hdd_writes, c0.hdd_writes),
    );
    let elapsed = summary.elapsed.as_ns() as f64;
    let busy = |d: &Option<icash_storage::stats::DeviceStats>| {
        d.as_ref().map_or(0.0, |d| d.busy.as_ns() as f64 / elapsed)
    };
    p.set("storage.ssd_busy_frac", busy(&summary.report.ssd));
    p.set("storage.hdd_busy_frac", busy(&summary.report.hdd));
    p.set(
        "storage.hdd_queued_frac",
        summary
            .report
            .hdd
            .as_ref()
            .map_or(0.0, |d| d.queued.as_ns() as f64 / elapsed),
    );
    p.set(
        "storage.ssd_life_used",
        summary.report.ssd_life_used.unwrap_or(0.0),
    );
    p.set("storage.hdd_ns_per_op", costs.hdd_ns);
    p.set("storage.ssd_read_ns_per_op", costs.ssd_read_ns);
    p.set("storage.ssd_program_ns_per_op", costs.ssd_program_ns);
    let storage_est = share(
        hdd_ops * costs.hdd_ns
            + ssd_reads * costs.ssd_read_ns
            + ssd_programs * costs.ssd_program_ns,
    );
    p.set("storage.est_share", storage_est);
    p.set(
        "storage.trace_events_per_op",
        (end.events - at_seam.events) as f64 / ops as f64,
    );
    let submit_self = share((own[id("submit_read")] + own[id("submit_write")]) as f64);
    p.set("core.self_share_est", submit_self - delta_est - storage_est);

    p.set("metrics.hist_record_ns", costs.hist_ns);
    p.set("metrics.jsonl_ns_per_event", costs.jsonl_ns);
    p.set("baselines.lru_host_ops_per_s", untraced.lru_host_ops_per_s);
    p.set("baselines.lru_sim_tx_per_s", untraced.lru_sim_tx_per_s);
    // Verification is checking, not tracing: its time is taken out before
    // the traced replay is held against the untraced one. One traced pass
    // against the *median* untraced pass: like with like, where the
    // fastest of several would read as overhead what is only noise.
    p.set(
        "bench.trace_overhead_ratio",
        (replay_ns - ns("verify")) / (untraced.replay_median * 1e9),
    );
    p.set("bench.repeat_spread", untraced.repeat_spread);
    p.set("bench.calib_ns", costs.calib_ns);
    p.set(
        "bench.mirror_match",
        (summary.to_json() == untraced.summary_json) as u8 as f64,
    );
    (p, rec.to_jsonl(), checks)
}
