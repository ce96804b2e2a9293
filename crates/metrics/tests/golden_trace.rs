//! Golden trace: a pinned 64-operation I-CASH run whose JSONL event stream
//! must never drift. The fixture locks three things at once:
//!
//! 1. **Simulation determinism** — the controller replays the same ops to
//!    the same virtual-time event stream, byte for byte, forever.
//! 2. **Wire-format stability** — the JSON rendering of every event kind
//!    is part of the fixture, so an accidental field rename or reorder
//!    fails here instead of silently invalidating saved artifacts.
//! 3. **Round-trip fidelity** — each line parses back to an event that
//!    re-serializes to the identical line.
//!
//! Regenerate intentionally with
//! `ICASH_BLESS=1 cargo test -p icash-metrics --test golden_trace`.

use icash_core::{Icash, IcashConfig};
use icash_metrics::trace::{parse_jsonl, JsonlSink, TraceProfile};
use icash_storage::block::{BlockBuf, Lba};
use icash_storage::cpu::CpuModel;
use icash_storage::request::Request;
use icash_storage::system::{IoCtx, StorageSystem, ZeroSource};
use icash_storage::time::Ns;
use icash_storage::trace::{TraceEvent, TraceSink, Tracer};
use std::sync::{Arc, Mutex};

const GOLDEN: &str = include_str!("golden/icash_trace_64.jsonl");
const GOLDEN_PROFILE: &str = include_str!("golden/icash_trace_64.profile.txt");

/// Replays the pinned 64-op scenario and returns the recorded JSONL. The
/// op stream mixes fresh writes, rewrites of similar content (delta
/// encodes), and reads of both cached and evicted blocks, then flushes —
/// touching every hot-path event kind without any fault injection.
fn record_trace() -> String {
    let mut sys = Icash::new(
        IcashConfig::builder(1 << 20, 128 << 10, 8 << 20)
            .scan_interval(16)
            .scan_window(32)
            .flush_interval(8)
            .log_blocks(1024)
            .build(),
    );
    let sink = Arc::new(Mutex::new(JsonlSink::new()));
    sys.set_tracer(Tracer::to_sink(
        sink.clone() as Arc<Mutex<dyn TraceSink + Send>>
    ));

    let backing = ZeroSource;
    let mut cpu = CpuModel::xeon();
    let mut ctx = IoCtx::verifying(&backing, &mut cpu);
    let mut t = Ns::ZERO;
    for op in 0..64u64 {
        let lba = (op * 7) % 24;
        if op % 4 == 3 {
            let r = Request::read(Lba::new(lba), t);
            t = sys.submit(&r, &mut ctx).finished;
        } else {
            // A shared 0xB5 base with a tiny per-(lba, op) tag: similar
            // enough that the scanner forms references and the codec
            // produces small deltas.
            let mut v = vec![0xB5u8; 4096];
            v[..8].copy_from_slice(&(lba << 8 | op).to_le_bytes());
            let w = Request::write(Lba::new(lba), t, BlockBuf::from_vec(v));
            t = sys.submit(&w, &mut ctx).finished;
        }
    }
    sys.flush(t, &mut ctx);
    drop(sys);
    let text = sink.lock().expect("trace sink").take_text();
    text
}

#[test]
fn golden_icash_trace_is_stable() {
    let text = record_trace();
    if std::env::var("ICASH_BLESS").as_deref() == Ok("1") {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/icash_trace_64.jsonl"
        );
        std::fs::write(path, &text).expect("bless golden fixture");
        eprintln!("blessed {path}");
        return;
    }
    assert!(!text.is_empty(), "the scenario recorded no events");
    assert_eq!(
        text, GOLDEN,
        "the I-CASH event stream drifted from the golden fixture; if the \
         change is intentional, regenerate with ICASH_BLESS=1"
    );
}

#[test]
fn golden_trace_round_trips_line_by_line() {
    let mut lines = 0usize;
    for (i, line) in GOLDEN.lines().enumerate() {
        let event = TraceEvent::from_json(line)
            .unwrap_or_else(|| panic!("golden line {}: unparsable: {line}", i + 1));
        assert_eq!(
            event.to_json(),
            line,
            "golden line {}: lossy round-trip",
            i + 1
        );
        lines += 1;
    }
    assert!(lines > 64, "fixture must hold the full event stream");
}

#[test]
fn golden_trace_profiles_the_pinned_run() {
    let events = parse_jsonl(GOLDEN).expect("golden parses");
    let profile = TraceProfile::from_events(&events);
    let rendered = profile.render();
    if std::env::var("ICASH_BLESS").as_deref() == Ok("1") {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/icash_trace_64.profile.txt"
        );
        std::fs::write(path, &rendered).expect("bless golden profile");
        return;
    }
    assert_eq!(
        rendered, GOLDEN_PROFILE,
        "the pinned stream's profile table drifted (64 spans; the writes \
         reached the SSD, formed deltas, and the flush interval fired)"
    );
}

/// A [`TraceProfile`] attached as a live sink folds the pinned stream, fed
/// to it event by event, into the same profile [`TraceProfile::from_events`]
/// builds from the parsed file, and renders the pinned table.
#[test]
fn a_profile_sink_folds_the_pinned_stream_like_the_file() {
    let events = parse_jsonl(GOLDEN).expect("golden parses");
    let sink = Arc::new(Mutex::new(TraceProfile::default()));
    let tracer = Tracer::to_sink(sink.clone());
    for event in &events {
        tracer.emit(|| event.clone());
    }
    let live = std::mem::take(&mut *sink.lock().expect("profile sink"));
    assert_eq!(live, TraceProfile::from_events(&events));
    if std::env::var("ICASH_BLESS").as_deref() != Ok("1") {
        assert_eq!(live.render(), GOLDEN_PROFILE);
    }
}
