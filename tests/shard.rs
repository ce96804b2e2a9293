//! Sharded-engine gate: the [`ShardRouter`] facade must be invisible at
//! one shard and correct at many.
//!
//! * **One-shard differential**: the same pinned scenario driven through a
//!   bare I-CASH controller and through a one-shard router produces
//!   byte-identical JSONL event streams and identical device reports —
//!   the router's fast path, shard-0 trace tagging, and ticket facade all
//!   serialize to nothing.
//! * **Multi-shard readback**: spans written across shard boundaries read
//!   back exactly, against an in-test oracle, with barriers (`sync`)
//!   interleaved — the router's split/reassemble arithmetic and ticket
//!   fan-out never lose a block.
//! * **Per-shard trace oracle**: a sharded run's JSONL splits cleanly by
//!   shard tag; every tag is in range, every per-shard stream parses, and
//!   the deterministic min-heap merge ([`merge_streams`]) over the
//!   time-sorted shard streams reassembles one globally time-ordered
//!   timeline with nothing lost.
//! * **Per-shard health**: one shard's device death drives only that
//!   shard's monitor, and the merged report surfaces the worst state.

mod common;

use common::Stream;
use icash::core::{Icash, IcashConfig, IcashConfigBuilder};
use icash::metrics::trace::{parse_jsonl, split_by_shard, JsonlSink};
use icash::storage::block::{BlockBuf, Lba};
use icash::storage::cpu::CpuModel;
use icash::storage::fault::{FaultPlan, HealthPolicy, HealthState};
use icash::storage::model::VersionModel;
use icash::storage::request::Request;
use icash::storage::shard::{merge_streams, ShardRouter};
use icash::storage::system::{IoCtx, StorageSystem, ZeroSource};
use icash::storage::time::Ns;
use icash::storage::trace::{TraceSink, Tracer};
use std::sync::{Arc, Mutex};

const OPS: u64 = 400;
const SPAN: u64 = 48;

fn config_builder() -> IcashConfigBuilder {
    IcashConfig::builder(1 << 20, 128 << 10, 8 << 20)
        .scan_interval(16)
        .scan_window(32)
        .flush_interval(8)
        .log_blocks(2048)
}

/// The pinned content for write `op` to outer `lba`: similar blocks so the
/// controller forms references and codes deltas.
fn payload(lba: u64, op: u64) -> BlockBuf {
    let mut v = vec![0xB7u8; 4096];
    v[..8].copy_from_slice(&((lba << 20) | op).to_le_bytes());
    v[1024] = (op % 239) as u8;
    BlockBuf::from_vec(v)
}

/// Drives the pinned single-block scenario (writes, verified reads, and
/// periodic barriers) and returns the JSONL event stream plus a rendering
/// of the final device report.
fn record(sys: &mut dyn StorageSystem) -> (String, String) {
    let sink = Arc::new(Mutex::new(JsonlSink::new()));
    sys.set_tracer(Tracer::to_sink(
        sink.clone() as Arc<Mutex<dyn TraceSink + Send>>
    ));
    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let mut model = VersionModel::new();
    let mut t = Ns::ZERO;
    for op in 0..OPS {
        let lba = (op * 13) % SPAN;
        match op % 6 {
            4 => {
                let c = sys.submit(&Request::read(Lba::new(lba), t), &mut ctx);
                t = c.finished;
                assert_eq!(
                    c.data[0],
                    *model.latest(lba),
                    "op {op}: lba {lba} read a stale version"
                );
            }
            5 => {
                t = sys.sync(t, &mut ctx);
                assert_eq!(
                    sys.flushed_ticket(),
                    sys.write_ticket(),
                    "op {op}: barrier left tickets in flight"
                );
            }
            _ => {
                let content = payload(lba, op);
                let w = Request::write(Lba::new(lba), t, content.clone());
                t = sys.submit(&w, &mut ctx).finished;
                model.ack(lba, content);
            }
        }
    }
    t = sys.flush(t, &mut ctx);
    let report = format!("{:?}", sys.report(t));
    let text = sink.lock().expect("sink").take_text();
    (text, report)
}

#[test]
fn one_shard_router_is_byte_identical_to_bare() {
    let mut bare = Icash::new(config_builder().build());
    let (bare_trace, bare_report) = record(&mut bare);

    let mut routed = ShardRouter::new(vec![Icash::new(config_builder().build())]);
    let (routed_trace, routed_report) = record(&mut routed);

    assert!(!bare_trace.is_empty(), "the scenario must trace something");
    assert_eq!(
        bare_trace, routed_trace,
        "a one-shard router must serialize to nothing"
    );
    assert_eq!(bare_report, routed_report);
}

/// A width-`n` router over I-CASH shards, each built from the shard slice
/// of the pinned config — the same construction the scale campaign uses.
fn sharded(n: u32) -> ShardRouter<Icash> {
    let slice = config_builder().build().shard_slice(n);
    ShardRouter::new((0..n).map(|_| Icash::new(slice.clone())).collect())
}

#[test]
fn multi_shard_spans_read_back_exactly() {
    let mut sys = sharded(3);
    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let mut model = VersionModel::new();
    let mut t = Ns::ZERO;
    for op in 0..300u64 {
        let base = (op * 7) % SPAN;
        let blocks = 1 + (op % 5) as u32; // spans cross shard boundaries
        if op % 3 == 2 {
            let c = sys.submit(&Request::read_span(Lba::new(base), blocks, t), &mut ctx);
            t = c.finished;
            assert_eq!(c.data.len(), blocks as usize);
            for (i, got) in c.data.iter().enumerate() {
                let lba = base + i as u64;
                assert_eq!(got, model.latest(lba), "op {op}: outer lba {lba} stale");
            }
        } else {
            let content: Vec<BlockBuf> = (base..base + blocks as u64)
                .map(|lba| payload(lba, op))
                .collect();
            let w = Request::write_span(Lba::new(base), t, content.clone());
            t = sys.submit(&w, &mut ctx).finished;
            for (lba, content) in (base..).zip(content) {
                model.ack(lba, content);
            }
        }
        if op % 37 == 36 {
            t = sys.sync(t, &mut ctx);
            assert_eq!(
                sys.flushed_ticket(),
                sys.write_ticket(),
                "op {op}: cross-shard barrier left tickets in flight"
            );
        }
    }
    // The merged report sees every shard's devices.
    let report = sys.report(t);
    let ssd = report.ssd.expect("sharded I-CASH has SSD stats");
    assert!(ssd.reads + ssd.writes > 0);
}

#[test]
fn sharded_trace_splits_cleanly_and_merges_in_time_order() {
    let width = 3u32;
    let mut sys = sharded(width);
    let (text, _report) = record(&mut sys);

    let shards = split_by_shard(&text).expect("sharded JSONL must validate");
    assert!(
        shards.len() >= 2,
        "a {width}-shard run must touch several shards, got {}",
        shards.len()
    );
    let mut streams = Vec::new();
    let mut total = 0usize;
    for (shard, doc) in &shards {
        assert!(*shard < width, "shard tag {shard} out of range");
        let events = parse_jsonl(doc).expect("per-shard stream parses");
        assert!(!events.is_empty());
        total += events.len();
        // Emission order is not timestamp order even unsharded (a device
        // completion can be stamped past a later-emitted host event), so
        // sort each shard's stream by its clock — stably, preserving the
        // emission order of equal-time events — before the merge.
        let mut stream: Vec<(Ns, ())> = events.into_iter().map(|e| (e.at, ())).collect();
        stream.sort_by_key(|&(at, _)| at);
        streams.push(stream);
    }
    // The deterministic shard-clock merge rebuilds one global timeline.
    let merged = merge_streams(streams);
    assert_eq!(merged.len(), total);
    for pair in merged.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "merged stream must be time-sorted");
    }
}

#[test]
fn shard_health_is_isolated() {
    // Only shard 0's SSD is armed to die: its monitor must walk to
    // `Failed` while shard 1 stays `Healthy` with zero transitions, and
    // the merged array report surfaces the worst state.
    const SEED: u64 = 0x4EA1_7500;
    let mut cfg = common::config();
    cfg.health = HealthPolicy::standard();
    let shards: Vec<Icash> = (0..2u64)
        .map(|s| {
            let plan = FaultPlan::seeded(SEED + s);
            let plan = if s == 0 { plan.ssd_dies_at(40) } else { plan };
            Icash::new(cfg.shard_slice(2)).with_fault_plan(plan)
        })
        .collect();
    let mut sys = ShardRouter::new(shards);
    let stream = Stream {
        seed: SEED,
        salt: 0x4EA1,
        fill: 0x5A,
        span_reads: false,
    };
    let t = stream.drive(&mut sys, false, |_, _, _| {});
    let sick = sys.shards()[0].report(t).health.expect("shard 0 health");
    let well = sys.shards()[1].report(t).health.expect("shard 1 health");
    assert_eq!(
        sick.ssd,
        HealthState::Failed,
        "shard 0's armed SSD death must drive its monitor to Failed"
    );
    assert_eq!(well.ssd, HealthState::Healthy);
    assert_eq!(well.hdd, HealthState::Healthy);
    assert_eq!(
        well.transitions, 0,
        "a healthy shard must not inherit its neighbour's transitions"
    );
    let merged = sys.report(t).health.expect("merged health");
    assert_eq!(
        merged.ssd,
        HealthState::Failed,
        "the array-wide report surfaces the worst shard"
    );
}
