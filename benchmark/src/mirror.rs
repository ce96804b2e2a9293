//! The traced pass: the benchmark's own mirror of
//! `icash_workloads::driver::run_benchmark`, with a span around every call
//! into a layer's public function that lasts longer than a clock read.
//!
//! Tracing inside the program is a later issue, so the only way to time
//! the layers today is from outside: this file repeats the driver's loop
//! statement for statement and reads the clock at each boundary. What
//! keeps the copy honest is that its [`RunSummary::to_json`] must equal
//! the real driver's byte for byte (`bench.mirror_match`, and the
//! `mirror_equals_run_benchmark` test).
//!
//! Differences from the driver, none of which may reach the summary: the
//! guest page cache and custom CPU model are not mirrored (the benchmark
//! never enables them); the `ContentSource` handed to the system is a
//! timing wrapper; and every [`VERIFY_EVERY`]th read asks for its data and
//! checks it against the content model.

use crate::spans::{self, Recorder, NONE, SAMPLE_EVERY};
use icash_metrics::histogram::LatencyHistogram;
use icash_metrics::summary::RunSummary;
use icash_storage::block::{BlockBuf, Lba};
use icash_storage::cpu::CpuModel;
use icash_storage::request::{Op, Request};
use icash_storage::system::{ContentSource, IoCtx, StorageSystem};
use icash_storage::time::Ns;
use icash_workloads::content::ContentModel;
use icash_workloads::driver::DriverConfig;
use icash_workloads::workload::Workload;

/// One read in this many is submitted with `collect_data` and verified.
pub const VERIFY_EVERY: u64 = 16;

/// The `ContentSource` the mirror passes in `IoCtx`: forwards to the
/// content model and records each callback as a `backing` span.
struct TimedBacking<'a> {
    model: &'a ContentModel,
    rec: &'a Recorder,
}

impl ContentSource for TimedBacking<'_> {
    fn initial_content(&self, lba: Lba) -> BlockBuf {
        let start = self.rec.now();
        let content = self.model.initial_content(lba);
        self.rec.callback(start, self.rec.now());
        content
    }
}

/// What the traced pass saw besides the summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Reads submitted with `collect_data` and compared.
    pub verified_reads: u64,
    /// Blocks of those reads whose data was wrong.
    pub wrong_blocks: u64,
    /// Blocks any completion reported failed.
    pub failed_blocks: u64,
    /// Blocks read.
    pub read_blocks: u64,
    /// Blocks written.
    pub written_blocks: u64,
}

/// Host instants (recorder nanoseconds) the caller derives times from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Marks {
    /// `preload` returned: set-up ends, replay time starts.
    pub preload_done: u64,
    /// The summary was assembled: replay time ends.
    pub done: u64,
}

/// Runs `workload` against `system` exactly as `run_benchmark` would,
/// recording spans into `rec` under the kept span `cell`. `after_preload`
/// runs once between `preload` and the first request (outside both
/// spans), so the caller can tell set-up counts from replay counts.
pub fn run_traced(
    system: &mut dyn StorageSystem,
    workload: &mut dyn Workload,
    model: &mut ContentModel,
    cfg: &DriverConfig,
    rec: &Recorder,
    cell: u32,
    after_preload: &mut dyn FnMut(),
) -> (RunSummary, Checks, Marks) {
    let [preload_id, preload_backing, replay_id, request_id, driver_id, payload_id, read_id, read_backing, write_id, write_backing, verify_id, flush_id, flush_backing, report_id] =
        [
            "preload",
            "preload.backing",
            "replay",
            "request",
            "driver",
            "payload",
            "submit_read",
            "submit_read.backing",
            "submit_write",
            "submit_write.backing",
            "verify",
            "flush",
            "flush.backing",
            "report",
        ]
        .map(spans::id);

    let mut cpu = CpuModel::xeon();
    let mut ready = vec![Ns::ZERO; cfg.clients.max(1) as usize];
    let mut read_latency = LatencyHistogram::new();
    let mut write_latency = LatencyHistogram::new();
    let mut end = Ns::ZERO;
    let mut steady_start = Ns::ZERO;
    let mut checks = Checks::default();
    let mut marks = Marks::default();

    {
        let universe = workload.address_universe();
        let span = rec.open(preload_id, rec.now(), cell);
        // Millions of callbacks: totals only, never kept one by one.
        rec.set_scope(preload_backing, NONE);
        let backing = TimedBacking {
            model: &*model,
            rec,
        };
        let mut ctx = IoCtx {
            backing: &backing,
            cpu: &mut cpu,
            collect_data: false,
        };
        system.preload(&universe, &mut ctx);
        rec.close(span, rec.now());
    }
    after_preload();
    marks.preload_done = rec.now();

    // One request runs from the previous submit's return to this one's:
    // a closed loop's client accounts for its completion, then issues.
    // `driver` is that accounting plus the client min-scan, `next_op` and
    // request assembly. The histogram record and `next_op` each take less
    // than one clock read, so they are not timed here; `probes` has their
    // unit costs.
    let replay = rec.open(replay_id, marks.preload_done, cell);
    let mut t_request = marks.preload_done;
    for n in 0..cfg.ops {
        let kept = n % SAMPLE_EVERY == 0;
        let request = if kept {
            rec.set_request(n as u32);
            rec.open(request_id, t_request, replay)
        } else {
            NONE
        };

        let client = (0..ready.len())
            .min_by_key(|&i| ready[i])
            .expect("at least one client");
        let at = ready[client];
        let wop = workload.next_op();
        let t_driver = rec.now();
        rec.leaf(driver_id, t_request, t_driver, request);

        let (req, t_submit) = match wop.op {
            Op::Read => (Request::read_span(wop.lba, wop.blocks, at), t_driver),
            Op::Write => {
                let payload: Vec<BlockBuf> = (0..wop.blocks as u64)
                    .map(|i| model.write_payload(wop.lba.plus(i)))
                    .collect();
                let t = rec.now();
                rec.leaf(payload_id, t_driver, t, request);
                (Request::write_span(wop.lba, at, payload), t)
            }
        };

        let (submit_id, backing_id) = match wop.op {
            Op::Read => (read_id, read_backing),
            Op::Write => (write_id, write_backing),
        };
        let verify = wop.op == Op::Read && n % VERIFY_EVERY == 0;
        let submit = if kept {
            rec.open(submit_id, t_submit, request)
        } else {
            NONE
        };
        rec.set_scope(backing_id, submit);
        let completion = {
            let backing = TimedBacking {
                model: &*model,
                rec,
            };
            let mut ctx = IoCtx {
                backing: &backing,
                cpu: &mut cpu,
                collect_data: verify,
            };
            system.submit(&req, &mut ctx)
        };
        let t_done = rec.now();
        if kept {
            rec.close(submit, t_done);
        } else {
            rec.count(submit_id, t_submit, t_done);
        }

        match wop.op {
            Op::Read => checks.read_blocks += wop.blocks as u64,
            Op::Write => checks.written_blocks += wop.blocks as u64,
        }
        checks.failed_blocks += completion.errors.len() as u64;
        let t_end = if verify {
            checks.verified_reads += 1;
            for (i, lba) in req.lbas().enumerate() {
                if !completion.failed(lba)
                    && completion.data.get(i) != Some(&model.current_content(lba))
                {
                    checks.wrong_blocks += 1;
                }
            }
            let t = rec.now();
            rec.leaf(verify_id, t_done, t, request);
            t
        } else {
            t_done
        };
        if kept {
            rec.close(request, t_end);
        } else {
            rec.count(request_id, t_request, t_end);
        }
        t_request = t_end;

        let latency = completion.latency(&req);
        if n == cfg.warmup_ops {
            steady_start = at;
        }
        if n >= cfg.warmup_ops {
            match wop.op {
                Op::Read => read_latency.record(latency),
                Op::Write => write_latency.record(latency),
            }
        }

        cpu.charge_app(wop.app_cpu);
        ready[client] = completion.finished + wop.app_cpu + wop.think;
        end = end.max(ready[client]);
    }
    rec.set_request(NONE);
    rec.close(replay, t_request);

    let end = {
        let span = rec.open(flush_id, t_request, cell);
        rec.set_scope(flush_backing, span);
        let backing = TimedBacking {
            model: &*model,
            rec,
        };
        let mut ctx = IoCtx {
            backing: &backing,
            cpu: &mut cpu,
            collect_data: false,
        };
        let flushed = system.flush(end, &mut ctx).max(end);
        rec.close(span, rec.now());
        flushed
    };

    let span = rec.open(report_id, rec.now(), cell);
    let report = system.report(end);
    let spec = workload.spec();
    let device_energy = report.device_energy;
    let cpu_energy = cpu.energy(end);
    let summary = RunSummary {
        system: report.name.clone(),
        workload: spec.name.clone(),
        ops: cfg.ops,
        transactions: cfg.ops / spec.ops_per_transaction.max(1),
        elapsed: end,
        steady_ops: cfg.ops.saturating_sub(cfg.warmup_ops),
        steady_elapsed: end.saturating_sub(steady_start),
        read_latency,
        write_latency,
        cpu_utilization: cpu.utilization(end),
        storage_cpu_utilization: if end == Ns::ZERO {
            0.0
        } else {
            (cpu.storage_busy().as_ns() as f64 / end.as_ns() as f64).min(1.0)
        },
        ssd_writes: report.ssd.as_ref().map(|s| s.writes).unwrap_or(0),
        energy_wh: (device_energy + cpu_energy).as_watt_hours(),
        report,
        wall_ns: 0,
    };
    marks.done = rec.now();
    rec.close(span, marks.done);
    (summary, checks, marks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;
    use icash_baselines::LruCache;
    use icash_core::{Icash, IcashConfig};
    use icash_workloads::driver::run_benchmark;
    use icash_workloads::trace::{Trace, TracePlayer};
    use icash_workloads::workload::MixedWorkload;

    /// Runs one tiny cell through the real driver and through the mirror
    /// and returns both summaries.
    fn both(
        make: &dyn Fn() -> Box<dyn StorageSystem>,
        workload: usize,
    ) -> (String, String, Checks) {
        let (spec, ops) = ALL[workload].cell(100);
        let seed = 7;
        let trace = Trace::record(&mut MixedWorkload::new(spec.clone(), seed), ops);
        let cfg = DriverConfig {
            clients: spec.clients,
            ops,
            warmup_ops: ops / 4,
            verify: false,
            guest_cache: false,
            cpu: None,
        };

        let mut system = make();
        let mut player = TracePlayer::new(spec.clone(), trace.clone());
        let mut model = ContentModel::new(seed, spec.profile.clone());
        let real = run_benchmark(system.as_mut(), &mut player, &mut model, &cfg);

        let mut system = make();
        let mut player = TracePlayer::new(spec.clone(), trace);
        let mut model = ContentModel::new(seed, spec.profile.clone());
        let rec = Recorder::new(1 << 16);
        let cell = rec.open(spans::id("cell"), 0, NONE);
        let (mirrored, checks, marks) = run_traced(
            system.as_mut(),
            &mut player,
            &mut model,
            &cfg,
            &rec,
            cell,
            &mut || {},
        );
        rec.close(cell, marks.done);
        assert!(marks.preload_done <= marks.done);
        assert_eq!(rec.totals()[spans::id("request")].count, ops);
        (real.to_json(), mirrored.to_json(), checks)
    }

    #[test]
    fn mirror_equals_run_benchmark() {
        // A mixed and a span-write workload, so both submit paths and the
        // stream-write branch are crossed.
        for workload in [0, 1] {
            let (spec, _) = ALL[workload].cell(100);
            let icash = || -> Box<dyn StorageSystem> {
                Box::new(Icash::new(
                    IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes).build(),
                ))
            };
            let (real, mirrored, checks) = both(&icash, workload);
            assert_eq!(real, mirrored, "I-CASH on {}", ALL[workload].name);
            assert_eq!(checks.wrong_blocks, 0);
            assert_eq!(checks.failed_blocks, 0);

            let lru = || -> Box<dyn StorageSystem> {
                Box::new(LruCache::new(spec.ssd_bytes, spec.data_bytes))
            };
            let (real, mirrored, _) = both(&lru, workload);
            assert_eq!(real, mirrored, "LRU on {}", ALL[workload].name);
        }
    }

    #[test]
    fn mirror_verifies_reads_against_the_content_model() {
        let (spec, _) = ALL[0].cell(100);
        let icash = || -> Box<dyn StorageSystem> {
            Box::new(Icash::new(
                IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes).build(),
            ))
        };
        let (_, _, checks) = both(&icash, 0);
        assert!(checks.verified_reads > 50, "{checks:?}");
        assert!(checks.read_blocks > 0 && checks.written_blocks > 0);
    }
}
