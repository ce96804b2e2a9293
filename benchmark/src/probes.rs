//! Probes: short direct calls into `icash-delta`, `icash-storage` and
//! `icash-metrics`, for the host unit costs the controller hides inside
//! `submit`.
//!
//! Inputs come from the workload's own trace and content model, so the
//! unit costs belong to this workload (a log-text delta is not a database
//! delta). Each probe repeats [`ROUNDS`] times and keeps the fastest
//! round: the work is identical every round, so noise only ever adds.

use icash_delta::codec::{ChunkIndex, DeltaCodec};
use icash_delta::signature::BlockSignature;
use icash_metrics::histogram::LatencyHistogram;
use icash_metrics::trace::JsonlSink;
use icash_storage::block::Lba;
use icash_storage::hdd::{Hdd, HddConfig};
use icash_storage::request::Op;
use icash_storage::ssd::{Ssd, SsdConfig};
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceKind, TraceSink};
use icash_workloads::content::ContentModel;
use icash_workloads::spec::WorkloadSpec;
use icash_workloads::trace::{Trace, TracePlayer};
use icash_workloads::workload::Workload;
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 5;
/// Block pairs the codec probes run over.
const PAIRS: usize = 256;
/// Trace operations the device probes replay.
const DEVICE_OPS: usize = 50_000;
/// Steps of the calibration loop.
const CALIB_STEPS: u64 = 20_000_000;

/// Host unit costs in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    /// `DeltaCodec::encode`, reference index built inside the call.
    pub encode_ns: f64,
    /// `DeltaCodec::encode_cached` with the reference index already built.
    pub encode_cached_ns: f64,
    /// `DeltaCodec::decode`.
    pub decode_ns: f64,
    /// `BlockSignature::of`.
    pub signature_ns: f64,
    /// One `Hdd::read`/`write` of the trace's address sequence.
    pub hdd_ns: f64,
    /// One `Ssd::read`.
    pub ssd_read_ns: f64,
    /// One `Ssd::write` (garbage collection included as it falls).
    pub ssd_program_ns: f64,
    /// One `TracePlayer::next_op`.
    pub next_op_ns: f64,
    /// One `LatencyHistogram::record`.
    pub hist_ns: f64,
    /// One event through `JsonlSink`.
    pub jsonl_ns: f64,
    /// 1000 steps of the calibration loop.
    pub calib_ns: f64,
}

/// Fastest of [`ROUNDS`] runs of `round`, in nanoseconds per `per` items.
fn fastest(per: usize, mut round: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        round();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best / per.max(1) as f64
}

/// A fixed xorshift loop: the same arithmetic on every host, so its time
/// says how fast (and, across runs, how steady) this host is.
fn calibrate() -> f64 {
    fastest((CALIB_STEPS / 1000) as usize, || {
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..CALIB_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
    })
}

/// Runs every probe for one workload.
pub fn run(spec: &WorkloadSpec, trace: &Trace, seed: u64) -> UnitCosts {
    let mut costs = UnitCosts {
        calib_ns: calibrate(),
        ..UnitCosts::default()
    };

    // The first write of each block is what the controller encodes most:
    // version 1 against the initial image. Read-only traces fall back to
    // the addresses they read.
    let model = ContentModel::new(seed, spec.profile.clone());
    let mut lbas: Vec<Lba> = Vec::with_capacity(PAIRS);
    for wanted in [Some(Op::Write), None] {
        for op in trace.ops() {
            if lbas.len() == PAIRS {
                break;
            }
            if wanted.is_none_or(|w| op.op == w) && !lbas.contains(&op.lba) {
                lbas.push(op.lba);
            }
        }
    }
    let pairs: Vec<_> = lbas
        .iter()
        .map(|&lba| (model.content_at(lba, 0), model.content_at(lba, 1)))
        .collect();
    let codec = DeltaCodec::default();
    costs.encode_ns = fastest(pairs.len(), || {
        for (reference, target) in &pairs {
            black_box(codec.encode(black_box(reference.as_slice()), target.as_slice()));
        }
    });
    let mut indexes: Vec<Option<ChunkIndex>> = pairs
        .iter()
        .map(|(reference, _)| Some(ChunkIndex::build(reference.as_slice())))
        .collect();
    costs.encode_cached_ns = fastest(pairs.len(), || {
        for ((reference, target), index) in pairs.iter().zip(indexes.iter_mut()) {
            black_box(codec.encode_cached(
                black_box(reference.as_slice()),
                target.as_slice(),
                index,
            ));
        }
    });
    let deltas: Vec<_> = pairs
        .iter()
        .map(|(reference, target)| codec.encode(reference.as_slice(), target.as_slice()))
        .collect();
    costs.decode_ns = fastest(pairs.len(), || {
        for ((reference, _), delta) in pairs.iter().zip(&deltas) {
            black_box(
                codec
                    .decode(black_box(reference.as_slice()), delta)
                    .expect("own delta"),
            );
        }
    });
    costs.signature_ns = fastest(pairs.len(), || {
        for (_, target) in &pairs {
            black_box(BlockSignature::of(black_box(target.as_slice())));
        }
    });

    // The trace's own address sequence into fresh devices, each request
    // arriving when the previous one completed.
    let ops = &trace.ops()[..trace.len().min(DEVICE_OPS)];
    costs.hdd_ns = fastest(ops.len(), || {
        let mut hdd = Hdd::new(HddConfig::seagate_sata(spec.data_blocks()));
        let mut at = Ns::ZERO;
        for op in ops {
            let done = match op.op {
                Op::Read => hdd.read(at, op.lba.offset(), op.blocks),
                Op::Write => hdd.write(at, op.lba.offset(), op.blocks),
            };
            at = done.expect("no fault plan is armed");
        }
        black_box(at);
    });
    let mut ssd = Ssd::new(SsdConfig::fusion_io(spec.ssd_bytes));
    let pages = ssd.capacity_pages();
    let mut at = Ns::ZERO;
    // Not `fastest`: each pass over the same pages meets a differently
    // worn FTL, so rounds are not the same work. One pass, as it falls.
    let start = Instant::now();
    for op in ops {
        at = ssd
            .write(at, op.lba.offset() % pages)
            .expect("rewrites of a mapped page always find room");
    }
    costs.ssd_program_ns = start.elapsed().as_nanos() as f64 / ops.len().max(1) as f64;
    costs.ssd_read_ns = fastest(ops.len(), || {
        for op in ops {
            at = ssd
                .read(at, op.lba.offset() % pages)
                .expect("programmed above");
        }
        black_box(at);
    });

    // The two calls the driver makes per request that take less than a
    // clock read, so the traced loop cannot time them in place.
    costs.next_op_ns = fastest(trace.len(), || {
        let mut player = TracePlayer::new(spec.clone(), trace.clone());
        for _ in 0..trace.len() {
            black_box(player.next_op());
        }
    });
    let latencies: Vec<Ns> = {
        // Log-uniform over 1 us .. 16 ms, the range the devices answer in.
        let mut x = seed | 1;
        (0..100_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Ns::from_ns((1_000 << (x % 15)) + x % 1_000)
            })
            .collect()
    };
    costs.hist_ns = fastest(latencies.len(), || {
        let mut hist = LatencyHistogram::new();
        for &latency in &latencies {
            hist.record(black_box(latency));
        }
        black_box(hist.count());
    });

    // What `--trace` costs per event: a canned mix of the event kinds a
    // request typically emits, rendered to JSONL.
    let mix = [
        TraceKind::RequestStart {
            op: Op::Read,
            lba: 123_456,
            blocks: 2,
        },
        TraceKind::SsdRead {
            lpn: 9_876,
            queued: Ns::from_ns(120),
            service: Ns::from_us(25),
            ok: true,
        },
        TraceKind::HddRead {
            disk: 0,
            lba: 1_234_567,
            blocks: 1,
            queued: Ns::from_us(300),
            service: Ns::from_ms(6),
            ok: true,
        },
        TraceKind::DeltaEncode {
            lba: 123_456,
            reference: 77,
            bytes: 188,
        },
        TraceKind::RamHit { lba: 123_457 },
        TraceKind::RequestEnd,
    ];
    let events = 60_000;
    costs.jsonl_ns = fastest(events, || {
        let mut sink = JsonlSink::new();
        for i in 0..events {
            sink.record(TraceEvent {
                at: Ns::from_ns(i as u64 * 1_000),
                kind: mix[i % mix.len()].clone(),
            });
        }
        black_box(sink.len());
    });
    costs
}
