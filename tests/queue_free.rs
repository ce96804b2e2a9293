//! Differential guard for the device command-queue layer: absent (the
//! default), it must be invisible — zero queue counters, no queue trace
//! events, byte-identical behaviour to the pre-queue controller (the CI
//! gate additionally diffs `run_all`/`run_faults` artifacts against pinned
//! goldens). Present on a fault-free run, it may only *reschedule* device
//! time: every host read returns the same bytes, the same data reaches
//! stable media once a durability barrier lands, and the whole event
//! stream stays deterministic.

mod common;

use common::Stream;
use icash::core::{Icash, IcashConfig};
use icash::storage::queue::QueueConfig;
use icash::storage::{BlockBuf, Ns, StorageSystem};

/// Every fifth read is widened to a 4-block span so the batched home-read
/// prefetch path runs.
const STREAM: Stream = Stream {
    seed: 0x0C17_AD00,
    salt: 0x0C17,
    fill: 0xA5,
    span_reads: true,
};

fn config(queue: Option<QueueConfig>) -> IcashConfig {
    let mut cfg = common::config();
    cfg.queue = queue;
    cfg
}

/// Runs the fixed workload, ending with a full durability flush; returns
/// (per-op data payloads, traced JSONL, the flushed controller).
fn run(sys: Icash) -> (Vec<Vec<BlockBuf>>, Vec<String>, Icash) {
    let mut payloads = Vec::new();
    let (_, jsonl, sys) = STREAM.run(sys, true, |_, _, data| payloads.push(data));
    (payloads, jsonl, sys)
}

#[test]
fn queue_off_counts_nothing_and_traces_nothing() {
    let (_, trace, sys) = run(Icash::new(config(None)));
    let report = sys.report(Ns::from_secs(1));
    let hdd = report.hdd.expect("hdd stats");
    let ssd = report.ssd.expect("ssd stats");
    assert_eq!(
        hdd.queue_admits + hdd.queue_reorders + hdd.queue_coalesced,
        0
    );
    assert_eq!(
        ssd.queue_admits + ssd.queue_reorders + ssd.queue_coalesced,
        0
    );
    assert!(
        !trace.iter().any(|line| line.contains("\"queue_admit\"")
            || line.contains("\"queue_reorder\"")
            || line.contains("\"coalesce\"")),
        "a queue-free build must emit no queue trace events"
    );
}

#[test]
fn queued_run_returns_identical_data_and_media_state() {
    let (plain, _, off) = run(Icash::new(config(None)));
    let (queued, _, on) = run(Icash::new(config(Some(QueueConfig::depth(8)))));
    assert_eq!(
        plain.len(),
        queued.len(),
        "same op count on both sides of the differential"
    );
    for (op, (a, b)) in plain.iter().zip(queued.iter()).enumerate() {
        assert_eq!(a, b, "op {op}: queueing changed the bytes a read returned");
    }
    // The queue reschedules device time; it must not change what reaches
    // the media. After the final barrier both controllers have written the
    // same log/home byte volume — just in fewer, larger bursts.
    let hdd_off = off.report(Ns::from_secs(1)).hdd.expect("hdd stats");
    let hdd_on = on.report(Ns::from_secs(1)).hdd.expect("hdd stats");
    assert_eq!(
        hdd_off.write_bytes, hdd_on.write_bytes,
        "queueing changed the bytes written to the HDD"
    );
    assert!(
        hdd_on.writes <= hdd_off.writes,
        "coalescing can only merge write commands, never mint new ones"
    );
    assert!(
        hdd_on.queue_admits > 0,
        "the flush cadence must have parked log appends in the write cache"
    );
}

#[test]
fn queued_run_is_deterministic() {
    let (data_a, trace_a, _) = run(Icash::new(config(Some(QueueConfig::depth(8)))));
    let (data_b, trace_b, _) = run(Icash::new(config(Some(QueueConfig::depth(8)))));
    assert_eq!(data_a, data_b);
    assert_eq!(
        trace_a, trace_b,
        "two identical queued runs must trace identically"
    );
}

#[test]
fn barrier_drains_the_write_cache() {
    // Durability contract: after `flush` returns, nothing sits parked in
    // the drive's volatile cache — the device is idle at or before the
    // returned instant and every accepted write's bytes are on media.
    let (_, trace, sys) = run(Icash::new(config(Some(QueueConfig::depth(8)))));
    assert!(
        trace.iter().any(|l| l.contains("\"queue_admit\"")),
        "the run must actually have exercised the write cache"
    );
    let hdd = sys.report(Ns::from_secs(1)).hdd.expect("hdd stats");
    assert!(hdd.write_bytes > 0, "log appends reached the platter");
    assert_eq!(
        sys.hdd().cached_writes(),
        0,
        "the final flush left writes parked in the volatile cache"
    );
}
