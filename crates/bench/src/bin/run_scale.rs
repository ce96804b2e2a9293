//! The shard-scaling campaign: SysBench replayed across a grid of shard
//! counts × per-shard client counts, thread-per-shard.
//!
//! Usage: `run_scale [output.txt]`
//!
//! * stdout (and the optional output file) receive the **deterministic**
//!   campaign document: a schema header plus one JSON line per cell with
//!   the shard-clock finish order and the merged summary. No wall-clock
//!   quantity appears, so the bytes are independent of `ICASH_THREADS`.
//! * stderr gets the human table with the wall-clock replay throughput and
//!   speedup over the one-shard cell — the measurement this campaign
//!   exists for.
//!
//! Environment: `ICASH_OPS` (outer ops, default 6,000),
//! `ICASH_SCALE_SHARDS` / `ICASH_SCALE_CLIENTS` (comma-separated sweep
//! overrides), `ICASH_THREADS` (worker pool), `ICASH_QUEUE_DEPTH` /
//! `ICASH_HDD_SCHED` (device command queues for every cell),
//! `ICASH_SCALE_ASSERT=MINx` (e.g. `4x`) to fail the run unless the
//! 8-vs-1-shard wall speedup reaches the bound — CI enables this only on
//! hosts with at least 8 workers, where the sharded engine must deliver —
//! and `ICASH_QUEUE_ASSERT=1` to fail the run unless queueing delivers
//! higher aggregate *virtual* throughput than queue-off at 16 shards (a
//! deterministic comparison, so CI can gate on it at any worker count).

use icash_bench::scale;
use icash_bench::RunConfig;
use icash_workloads::sysbench;

fn main() {
    let cfg = RunConfig::from_env();
    let ops = cfg.ops.unwrap_or(6_000);
    let shard_sweep = cfg.scale_shards.as_deref().unwrap_or(&scale::SHARD_SWEEP);
    let client_sweep = cfg.scale_clients.as_deref().unwrap_or(&scale::CLIENT_SWEEP);
    let queue = cfg.features.queue;
    let spec = sysbench::spec().scaled_to_ops(ops);
    eprintln!(
        "run_scale: SysBench, {} ops, shards {:?} x clients {:?}, {} workers, queue {:?}",
        ops,
        shard_sweep,
        client_sweep,
        cfg.workers(),
        queue,
    );

    let cells = scale::run_campaign(&cfg, &spec, ops, shard_sweep, client_sweep);

    let doc = scale::document(&spec, ops, &cells);
    print!("{doc}");
    if let Some(path) = cfg.args.first() {
        match std::fs::write(path, &doc) {
            Ok(()) => eprintln!("campaign document written to {path}"),
            Err(err) => {
                eprintln!("failed to write {path}: {err}");
                std::process::exit(2);
            }
        }
    }

    eprintln!("\n{}", scale::wall_table(&cells));

    let clients = *client_sweep.last().expect("sweep is never empty");
    if let Some(min) = cfg.scale_assert {
        let speedup = scale::wall_speedup(&cells, 8, 1, clients)
            .expect("ICASH_SCALE_ASSERT needs shards 1 and 8 in the sweep");
        eprintln!("run_scale: 8-vs-1-shard wall speedup at {clients} clients: {speedup:.2}x");
        assert!(
            speedup >= min,
            "sharded engine scaled only {speedup:.2}x at 8 shards (required {min}x)"
        );
    }

    if cfg.queue_assert {
        let q = queue.unwrap_or_default();
        eprintln!("run_scale: queue-on vs queue-off at 16 shards ({q:?}, {clients} clients)");
        // The comparison cells run the HDD-pressure SysBench variant under
        // a tight RAM budget: stock SysBench touches the mechanical disk a
        // handful of times per shard (it is an SSD-friendly workload by
        // design), which leaves the device queue nothing to schedule and
        // the comparison a tie.
        let mut pspec = sysbench::pressure_spec().scaled_to_ops(ops);
        pspec.ram_bytes = (pspec.ram_bytes / 64).max(1 << 20);
        pspec.ssd_bytes = (pspec.ssd_bytes / 4).max(1 << 20);
        let rate = |queue| {
            let mut arm = cfg.clone();
            arm.features.queue = queue;
            scale::run_campaign(&arm, &pspec, ops, &[16], &[clients])[0]
                .merged
                .ops_per_sec()
        };
        let (on_rate, off_rate) = (rate(Some(q)), rate(None));
        eprintln!(
            "run_scale: aggregate virtual throughput {on_rate:.0} ops/s queued vs {off_rate:.0} ops/s unqueued"
        );
        assert!(
            on_rate > off_rate,
            "device queueing must raise aggregate virtual throughput at 16 shards: \
             {on_rate:.0} ops/s queued vs {off_rate:.0} ops/s unqueued"
        );
    }
}
