//! Write-pipeline differential gate: the staged, group-committed flush
//! path at `group_commit_depth = 1` must be **byte-identical** to the
//! pre-pipeline controller — same JSONL event stream, same counters, same
//! virtual completion times — across a scenario that exercises several
//! flush cycles, log fetches, eviction pressure, and explicit barriers.
//! The fixture was recorded before the pipeline refactor landed, so any
//! depth-1 drift (an extra trace event, a reordered generation stamp, a
//! changed flush timing) fails here.
//!
//! Regenerate intentionally with
//! `ICASH_BLESS=1 cargo test -p icash --test pipeline`.

use icash::core::{Icash, IcashConfig, IcashConfigBuilder, IcashStats};
use icash::metrics::trace::{parse_jsonl, JsonlSink, TraceProfile};
use icash::storage::block::{BlockBuf, Lba};
use icash::storage::cpu::CpuModel;
use icash::storage::fault::{FaultPlan, HealthPolicy};
use icash::storage::model::{Allow, VersionModel};
use icash::storage::request::{IoErrorKind, Request};
use icash::storage::system::{ContentSource, IoCtx, StorageSystem, ZeroSource};
use icash::storage::time::Ns;
use icash::storage::trace::{TraceSink, TraceStats, Tracer};
use std::sync::{Arc, Mutex};

const GOLDEN: &str = include_str!("golden/pipeline_depth1.txt");
const OPS: u64 = 512;
const SPAN: u64 = 40;

fn config_builder() -> IcashConfigBuilder {
    IcashConfig::builder(1 << 20, 128 << 10, 8 << 20)
        .scan_interval(16)
        .scan_window(32)
        .flush_interval(8)
        .log_blocks(2048)
}

fn config() -> IcashConfig {
    config_builder().build()
}

/// `sys` with a counting sink attached, and the sink: the one count
/// of the pipeline's events (staging, commits, barriers, log cleans).
fn counted(mut sys: Icash) -> (Icash, Arc<Mutex<TraceStats>>) {
    let (tracer, counts) = Tracer::counting();
    sys.set_tracer(tracer);
    (sys, counts)
}

/// What a counting sink has seen so far.
fn seen(counts: &Mutex<TraceStats>) -> TraceStats {
    counts.lock().expect("counting sink").clone()
}

/// The pinned content for write `op` to `lba`: a shared base with a tiny
/// per-version tag, similar enough that the scanner forms references and
/// the codec produces small deltas.
fn payload(lba: u64, op: u64) -> BlockBuf {
    let mut v = vec![0xC3u8; 4096];
    v[..8].copy_from_slice(&((lba << 16) | op).to_le_bytes());
    v[2048] = (op % 251) as u8;
    BlockBuf::from_vec(v)
}

/// Drives the pinned scenario against one controller and returns the JSONL
/// event stream followed by a line of the stable controller counters.
/// Reads are verified against an in-test oracle, so the run also proves
/// content correctness, not just event-stream stability.
fn record(mut sys: Icash) -> String {
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
        let lba = (op * 11) % SPAN;
        match op % 5 {
            4 => {
                let r = Request::read(Lba::new(lba), t);
                let c = sys.submit(&r, &mut ctx);
                t = c.finished;
                assert_eq!(
                    c.data[0],
                    *model.latest(lba),
                    "op {op}: lba {lba} read a stale version"
                );
            }
            _ => {
                let content = payload(lba, op);
                let w = Request::write(Lba::new(lba), t, content.clone());
                t = sys.submit(&w, &mut ctx).finished;
                model.ack(lba, content);
            }
        }
        if op % 97 == 96 {
            t = sys.flush(t, &mut ctx);
        }
    }
    t = sys.flush(t, &mut ctx);
    let st = sys.stats();
    drop(sys);
    let mut text = sink.lock().expect("trace sink").take_text();
    let events = parse_jsonl(&text).expect("the sink wrote valid JSONL");
    let log_cleans = TraceProfile::from_events(&events).stats.log_cleans;
    text.push_str(&format!(
        "stats flushes={} log_blocks={} log_cleans={} writes={} reads={} \
         ram_hits={} delta_hits={} log_fetches={} delta_writes={} binds={} final_ns={}\n",
        st.flushes,
        st.log_blocks_written,
        log_cleans,
        st.writes,
        st.reads,
        st.ram_hits,
        st.delta_hits,
        st.log_fetches,
        st.delta_writes,
        st.binds,
        t.as_ns(),
    ));
    text
}

/// `group_commit_depth = 1` (the default) replays to the pre-pipeline
/// fixture byte for byte: trace stream, counters, and final virtual time.
#[test]
fn depth1_is_byte_identical_to_pre_pipeline_outputs() {
    let text = record(Icash::new(config()));
    if std::env::var("ICASH_BLESS").as_deref() == Ok("1") {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/pipeline_depth1.txt"
        );
        std::fs::write(path, &text).expect("regenerate golden fixture");
        eprintln!("regenerated {path}");
        return;
    }
    assert!(!text.is_empty(), "the scenario recorded no events");
    assert_eq!(
        text, GOLDEN,
        "depth=1 outputs drifted from the pre-pipeline fixture; the staged \
         pipeline must be byte-identical at depth 1 (regenerate only for an \
         intentional format change: ICASH_BLESS=1)"
    );
}

/// Runs the same pinned scenario at an arbitrary depth and returns the
/// final stats and event counts (content is verified against the oracle
/// as in `record`, so every depth proves read-your-writes on the way).
fn run_at_depth(depth: u64) -> (IcashStats, TraceStats) {
    let cfg = config_builder().group_commit_depth(depth).build();
    let (mut sys, counts) = counted(Icash::new(cfg));
    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let mut model = VersionModel::new();
    let mut t = Ns::ZERO;
    for op in 0..OPS {
        let lba = (op * 11) % SPAN;
        match op % 5 {
            4 => {
                let r = Request::read(Lba::new(lba), t);
                let c = sys.submit(&r, &mut ctx);
                t = c.finished;
                assert_eq!(
                    c.data[0],
                    *model.latest(lba),
                    "depth {depth}, op {op}: stale read"
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
    sys.flush(t, &mut ctx);
    sys.debug_validate();
    (sys.stats(), seen(&counts))
}

/// Deeper group commits amortize the sequential log appends: fewer flushes
/// reach the HDD for the same write stream, and each commit carries more
/// entries.
#[test]
fn deeper_commits_amortize_log_appends() {
    let (d1, c1) = run_at_depth(1);
    let (d16, c16) = run_at_depth(16);
    assert_eq!(c1.group_commits, 0, "depth 1 must never group-commit");
    assert_eq!(c1.stage_enters, 0, "depth 1 must never stage");
    assert!(c16.group_commits > 0, "depth 16 must group-commit");
    assert!(
        d16.flushes < d1.flushes,
        "group commit must reduce log appends: {} vs {}",
        d16.flushes,
        d1.flushes
    );
    assert!(
        c16.entries_per_commit() > 1.0,
        "commits must carry batched entries, got {}",
        c16.entries_per_commit()
    );
    assert!(d16.staging_high_water > 0);
}

/// A staged-but-uncommitted block must be readable from the staging buffer
/// (read-your-writes) without touching the HDD log.
#[test]
fn staged_blocks_serve_read_your_writes() {
    let (mut sys, counts) = counted(Icash::new(config_builder().group_commit_depth(64).build()));
    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);

    // Write a span, then force one staging pass without a commit (depth 64
    // means the triggered flushes only stage).
    let mut t = Ns::ZERO;
    for lba in 0..24u64 {
        let w = Request::write(Lba::new(lba), t, payload(lba, 1));
        t = sys.submit(&w, &mut ctx).finished;
    }
    let c = seen(&counts);
    assert!(c.stage_enters > 0, "flush triggers must stage at depth 64");
    assert_eq!(c.group_commits, 0, "nothing must commit below the depth");
    let fetches_before = sys.stats().log_fetches;

    // Every block still reads back its latest content, with zero log
    // fetches: staged deltas are served from RAM.
    for lba in 0..24u64 {
        let r = Request::read(Lba::new(lba), t);
        let c = sys.submit(&r, &mut ctx);
        t = c.finished;
        assert_eq!(c.data[0], payload(lba, 1), "staged lba {lba} unreadable");
    }
    assert_eq!(
        sys.stats().log_fetches,
        fetches_before,
        "read-your-writes must not touch the HDD log"
    );
}

/// Admission control covers every write: with staging capped at two
/// entries, 8-block (streamed) spans are refused block by block with
/// `Busy`, each refusal traced once, and every block reads back its last
/// accepted version.
#[test]
fn span_writes_pass_admission_control() {
    let health = HealthPolicy {
        staging_cap: 2,
        ..HealthPolicy::inert()
    };
    let cfg = config_builder().flush_interval(1).group_commit_depth(8);
    let (mut sys, counts) = counted(Icash::new(cfg.health(health).build()));
    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let mut latest = vec![BlockBuf::zeroed(); SPAN as usize];
    let (mut refused, mut t) = (0, Ns::ZERO);
    for op in 0..32u64 {
        let first = op * 8 % SPAN;
        let blocks: Vec<_> = (first..first + 8).map(|lba| payload(lba, op)).collect();
        let c = sys.submit(
            &Request::write_span(Lba::new(first), t, blocks.clone()),
            &mut ctx,
        );
        t = c.finished;
        assert!(c.errors.iter().all(|e| e.kind == IoErrorKind::Busy));
        refused += c.errors.len() as u64;
        for (lba, buf) in (first..).zip(blocks) {
            if c.errors.iter().all(|e| e.lba != Lba::new(lba)) {
                latest[lba as usize] = buf;
            }
        }
    }
    assert!(refused > 0, "no span block was refused at the cap");
    assert_eq!(seen(&counts).backpressure_rejects, refused);
    assert_eq!(sys.stats().busy_rejections, refused);
    sys.debug_validate();
    for (lba, want) in (0..).zip(&latest) {
        let c = sys.submit(&Request::read(Lba::new(lba), t), &mut ctx);
        t = c.finished;
        assert!(c.errors.is_empty() && c.data[0] == *want, "lba {lba}");
    }
}

/// 1400 seeded noise bytes at the front of a zero block: a zero-based delta
/// that two of share a log block.
fn noisy(lba: u64, op: u64) -> BlockBuf {
    let mut v = vec![0u8; 4096];
    let mut state = (lba << 16 | op << 1 | 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for byte in &mut v[16..1416] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *byte = state as u8;
    }
    v[8..16].copy_from_slice(&lba.to_le_bytes());
    BlockBuf::from_vec(v)
}

/// The clean after each commit keeps a tenth of the log free; four staged
/// flush triggers of large deltas are more than that on a 100-block log.
/// The commit cleans first instead of overflowing the log ("delta log
/// overflow: 104 blocks > capacity 100" before it did), and every block
/// reads back its last write.
#[test]
fn a_group_commit_larger_than_the_log_headroom_cleans_first() {
    const BLOCKS: u64 = 48;
    const ROUNDS: u64 = 42;
    let cfg = IcashConfig::builder(1 << 20, 1 << 20, 4 << 20)
        .scan_interval(1_000_000)
        .flush_interval(8)
        .log_blocks(100)
        .group_commit_depth(4)
        .build();
    let (mut sys, counts) = counted(Icash::new(cfg));
    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let mut t = Ns::ZERO;
    for op in 0..ROUNDS * BLOCKS {
        let lba = op % BLOCKS;
        let w = Request::write(Lba::new(lba), t, noisy(lba, op));
        t = sys.submit(&w, &mut ctx).finished;
    }
    assert!(seen(&counts).log_cleans > 0);
    sys.debug_validate();
    for lba in 0..BLOCKS {
        let last = (ROUNDS - 1) * BLOCKS + lba;
        let c = sys.submit(&Request::read(Lba::new(lba), t), &mut ctx);
        t = c.finished;
        assert!(c.data[0] == noisy(lba, last), "lba {lba} read back stale");
    }
}

/// A block of noise: its delta is the block itself, one to a log block.
fn incompressible(lba: u64, op: u64) -> BlockBuf {
    let mut v = noisy(lba, op).as_slice().to_vec();
    let mut state = (op << 20 | lba).wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    for byte in &mut v[1416..] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *byte = state as u8;
    }
    BlockBuf::from_vec(v)
}

/// A 64-block log — `IcashConfig::shard_slice`'s floor — holding more live
/// incompressible blocks than it has room for: a commit that still does not
/// fit once the log is cleaned writes the blocks it cannot take home
/// (DESIGN.md §12) instead of overflowing the log ("delta log overflow: 65
/// blocks > capacity 64" before it did). Every block reads back its last
/// write, before a crash and after recovery.
#[test]
fn a_commit_a_cleaned_64_block_log_cannot_take_goes_home() {
    const BLOCKS: u64 = 96;
    for depth in [1, 4] {
        let cfg = IcashConfig::builder(1 << 20, 1 << 20, 4 << 20)
            .scan_interval(1_000_000)
            .flush_interval(8)
            .log_blocks(64)
            .group_commit_depth(depth)
            .build();
        let (mut sys, counts) = counted(Icash::new(cfg));
        let backing = ZeroSource;
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        let mut t = Ns::ZERO;
        for op in 0..2 * BLOCKS {
            let lba = op % BLOCKS;
            let w = Request::write(Lba::new(lba), t, incompressible(lba, op));
            t = sys.submit(&w, &mut ctx).finished;
        }
        t = sys.sync(t, &mut ctx);
        assert!(seen(&counts).log_cleans > 0, "depth {depth}");
        sys.debug_validate();
        let mut check = |sys: &mut Icash, t: &mut Ns| {
            for lba in 0..BLOCKS {
                let c = sys.submit(&Request::read(Lba::new(lba), *t), &mut ctx);
                *t = c.finished;
                let last = incompressible(lba, BLOCKS + lba);
                assert!(
                    c.data[0] == last,
                    "depth {depth}: lba {lba} read back stale"
                );
            }
        };
        check(&mut sys, &mut t);
        let mut recovered = sys.crash_and_recover();
        recovered.debug_validate();
        check(&mut recovered, &mut t);
    }
}

/// A preloaded image of 80 pairs: each pair's first block is a reference
/// and its second an associate of it, evicted, its delta in the log.
struct Pairs;

impl ContentSource for Pairs {
    fn initial_content(&self, lba: Lba) -> BlockBuf {
        let mut state = (lba.offset() / 2 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut v: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        v[0] = lba.offset() as u8;
        BlockBuf::from_vec(v)
    }
}

/// Written references that still have associates, whose own deltas alone
/// overflow a cleaned 64-block log: the commit sends each one's associate
/// home first, then the reference (DESIGN.md §12) — before, the append
/// panicked ("delta log overflow: 81 blocks > capacity 64"). Every block
/// reads back its last write or its image, before a crash and after
/// recovery.
#[test]
fn a_commit_of_written_references_with_associates_goes_home() {
    const PAIRS: u64 = 80;
    for depth in [1, 4] {
        let cfg = IcashConfig::builder(1 << 20, 4 << 20, 4 << 20)
            .scan_interval(1_000_000)
            .flush_interval(1_000_000)
            .log_blocks(64)
            .group_commit_depth(depth)
            .build();
        let (mut sys, counts) = counted(Icash::new(cfg));
        let backing = Pairs;
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        sys.preload(&[(0, 2 * PAIRS)], &mut ctx);
        assert_eq!(sys.stats().ref_installs, PAIRS, "depth {depth}");
        let mut t = Ns::ZERO;
        for pair in 0..PAIRS {
            let lba = 2 * pair;
            let w = Request::write(Lba::new(lba), t, incompressible(lba, 1));
            t = sys.submit(&w, &mut ctx).finished;
        }
        t = sys.sync(t, &mut ctx);
        assert!(seen(&counts).log_cleans > 0, "depth {depth}");
        sys.debug_validate();
        let mut check = |sys: &mut Icash, t: &mut Ns| {
            for lba in 0..2 * PAIRS {
                let c = sys.submit(&Request::read(Lba::new(lba), *t), &mut ctx);
                *t = c.finished;
                let want = if lba % 2 == 0 {
                    incompressible(lba, 1)
                } else {
                    Pairs.initial_content(Lba::new(lba))
                };
                assert!(
                    c.data[0] == want,
                    "depth {depth}: lba {lba} read back wrong"
                );
            }
        };
        check(&mut sys, &mut t);
        let mut recovered = sys.crash_and_recover();
        recovered.debug_validate();
        check(&mut recovered, &mut t);
    }
}

/// The ticket barrier: `await_flush` forces staged writes to stable media,
/// a second barrier on the same ticket is free, and `sync` covers the
/// whole pipeline.
#[test]
fn barriers_complete_tickets() {
    let (mut sys, counts) = counted(Icash::new(config_builder().group_commit_depth(32).build()));
    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);

    let mut t = Ns::ZERO;
    for lba in 0..16u64 {
        let w = Request::write(Lba::new(lba), t, payload(lba, 2));
        t = sys.submit(&w, &mut ctx).finished;
    }
    let ticket = sys.write_ticket();
    assert!(
        sys.flushed_ticket() < ticket,
        "writes must be pending before the barrier"
    );
    t = Icash::await_flush(&mut sys, ticket, t, &mut ctx);
    assert!(
        sys.flushed_ticket() >= ticket,
        "barrier must complete the ticket"
    );
    assert_eq!(seen(&counts).barrier_waits, 1);

    // Re-awaiting the same ticket (and a full sync with nothing pending)
    // is free: no flush, no device work.
    let t2 = Icash::await_flush(&mut sys, ticket, t, &mut ctx);
    assert_eq!(t2, t, "a completed ticket must not flush again");
    let t3 = Icash::sync(&mut sys, t2, &mut ctx);
    assert_eq!(t3, t2, "sync with nothing pending must be free");
    assert_eq!(seen(&counts).barrier_noops, 2);

    // Barrier-ed writes survive a crash.
    let mut recovered = sys.crash_and_recover();
    for lba in 0..16u64 {
        let r = Request::read(Lba::new(lba), t3);
        let c = recovered.submit(&r, &mut ctx);
        assert_eq!(
            c.data[0],
            payload(lba, 2),
            "barrier-ed lba {lba} lost in the crash"
        );
    }
}

/// Writes `content` to `lba` at `*t`, advancing the clock, and acknowledges
/// it to `model`.
fn write_acked(
    sys: &mut Icash,
    model: &mut VersionModel,
    ctx: &mut IoCtx<'_>,
    t: &mut Ns,
    lba: u64,
    content: BlockBuf,
) {
    *t = sys
        .submit(&Request::write(Lba::new(lba), *t, content.clone()), ctx)
        .finished;
    model.ack(lba, content);
}

/// Crashes `sys` with its torn write armed and reads every written block
/// back: each must hold a version the model still allows — never one older
/// than the last barrier that returned.
fn assert_floor_after_torn_crash(sys: Icash, model: &VersionModel, ctx: &mut IoCtx<'_>, t: Ns) {
    let mut recovered = sys.crash_and_recover();
    recovered.debug_validate();
    for lba in model.written() {
        let c = recovered.submit(&Request::read(Lba::new(lba), t), ctx);
        assert!(
            model.allows(lba, &c.data[0], Allow::Held),
            "lba {lba}: the torn crash rolled it back behind its barrier"
        );
    }
}

/// A returned `sync` seals the append it made: the torn write a crash
/// simulates lands only on an append no barrier covered, so no synced
/// block comes back a version old (DESIGN §10).
#[test]
fn a_torn_crash_after_sync_keeps_the_synced_version() {
    for depth in [1, 16] {
        let cfg = config_builder().group_commit_depth(depth).build();
        let mut sys = Icash::new(cfg).with_fault_plan(FaultPlan::seeded(31).torn_writes());
        let backing = ZeroSource;
        let mut cpu = CpuModel::xeon();
        let mut ctx = IoCtx::verifying(&backing, &mut cpu);
        let mut model = VersionModel::new();
        let mut t = Ns::ZERO;
        for round in 0..3 {
            for lba in 0..SPAN {
                let content = payload(lba, round);
                write_acked(&mut sys, &mut model, &mut ctx, &mut t, lba, content);
            }
            t = sys.sync(t, &mut ctx);
            model.barrier();
        }
        assert_floor_after_torn_crash(sys, &model, &mut ctx, t);
    }
}

/// A log clean is copy-then-switch: a crash in the middle leaves the old
/// log, so the clean leaves no append to tear — its compacted image holds
/// entries a barrier already covered. Synced rounds of large deltas on a
/// 256-block log until a commit cleans it, then the crash.
#[test]
fn a_torn_crash_after_a_clean_keeps_every_synced_version() {
    const BLOCKS: u64 = 48;
    let cfg = IcashConfig::builder(1 << 20, 1 << 20, 4 << 20)
        .scan_interval(1_000_000)
        .flush_interval(8)
        .log_blocks(256)
        .build();
    let (mut sys, counts) =
        counted(Icash::new(cfg).with_fault_plan(FaultPlan::seeded(3).torn_writes()));
    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let mut model = VersionModel::new();
    let mut t = Ns::ZERO;
    let mut op = 0;
    while seen(&counts).log_cleans == 0 {
        let lba = op % BLOCKS;
        write_acked(&mut sys, &mut model, &mut ctx, &mut t, lba, noisy(lba, op));
        op += 1;
        if op % 12 == 0 {
            t = sys.sync(t, &mut ctx);
            model.barrier();
        }
    }
    assert_floor_after_torn_crash(sys, &model, &mut ctx, t);
}
