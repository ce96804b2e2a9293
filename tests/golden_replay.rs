//! Golden replay: the in-repo MSR-style fixture driven through I-CASH,
//! with the resulting JSONL event stream pinned byte-for-byte. The
//! fixture locks the whole replay path at once — CSV parsing, LBA
//! folding, think-time pacing from the trace's own timestamps, content
//! synthesis for writes, and the controller's virtual-time schedule.
//!
//! Regenerate intentionally with
//! `ICASH_BLESS=1 cargo test --test golden_replay`.

use std::sync::{Arc, Mutex};

use icash::core::{Icash, IcashConfig};
use icash::metrics::trace::{parse_jsonl, JsonlSink, TraceProfile};
use icash::storage::trace::{TraceSink, Tracer};
use icash::storage::StorageSystem;
use icash::workloads::content::ContentModel;
use icash::workloads::driver::{run_benchmark, DriverConfig};
use icash::workloads::replay::ReplayWorkload;
use icash::workloads::WorkloadSpec;

const FIXTURE: &str = include_str!("../crates/workloads/tests/golden/msr_sample.csv");
const GOLDEN: &str = include_str!("golden/msr_replay_64.jsonl");
const SEED: u64 = 0x5CE2_601D;

/// A shrunk TPC-C spec: the replay folds the trace's LBAs into this
/// data set and synthesizes database-profile content for its writes.
fn spec() -> WorkloadSpec {
    let mut spec = icash::workloads::tpcc::spec();
    spec.data_bytes = 16 << 20;
    spec
}

/// Replays every fixture row once through I-CASH with a single client
/// (so the event order is the trace order) and returns the JSONL.
fn record_replay() -> String {
    let spec = spec();
    let mut sys = Icash::new(
        IcashConfig::builder(1 << 20, 256 << 10, spec.data_bytes)
            .scan_interval(16)
            .scan_window(32)
            .flush_interval(8)
            .build(),
    );
    let sink = Arc::new(Mutex::new(JsonlSink::new()));
    sys.set_tracer(Tracer::to_sink(
        sink.clone() as Arc<Mutex<dyn TraceSink + Send>>
    ));
    let mut wl = ReplayWorkload::from_csv(spec.clone(), FIXTURE).expect("fixture parses");
    let ops = wl.records().len() as u64;
    let mut model = ContentModel::new(SEED, spec.profile.clone());
    let cfg = DriverConfig {
        clients: 1,
        ops,
        warmup_ops: 0,
        verify: false,
        guest_cache: false,
        cpu: None,
    };
    let summary = run_benchmark(&mut sys, &mut wl, &mut model, &cfg);
    assert_eq!(summary.ops, ops, "every fixture row must replay");
    drop(sys);
    let mut sink = sink.lock().expect("trace sink");
    sink.take_text()
}

#[test]
fn golden_msr_replay_is_stable() {
    let text = record_replay();
    if std::env::var("ICASH_BLESS").as_deref() == Ok("1") {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/msr_replay_64.jsonl"
        );
        std::fs::write(path, &text).expect("bless golden fixture");
        eprintln!("blessed {path}");
        return;
    }
    assert!(!text.is_empty(), "the replay recorded no events");
    assert_eq!(
        text, GOLDEN,
        "the MSR replay event stream drifted from the golden fixture; if \
         the change is intentional, regenerate with ICASH_BLESS=1"
    );
}

#[test]
fn golden_replay_profiles_the_pinned_run() {
    let events = parse_jsonl(GOLDEN).expect("golden parses");
    let profile = TraceProfile::from_events(&events);
    let rendered = profile.render();
    if std::env::var("ICASH_BLESS").as_deref() == Ok("1") {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/msr_replay_64.profile.txt"
        );
        std::fs::write(path, &rendered).expect("bless golden profile");
        return;
    }
    assert_eq!(
        rendered,
        include_str!("golden/msr_replay_64.profile.txt"),
        "the pinned replay's profile table drifted (one span per fixture \
         row; replay is closed-loop, so no open-loop row: its pacing lives \
         in think time, not arrivals)"
    );
}

#[test]
fn fixture_is_sixty_four_well_formed_rows() {
    let wl = ReplayWorkload::from_csv(spec(), FIXTURE).expect("fixture parses");
    assert_eq!(wl.records().len(), 64);
    let records = wl.records();
    for w in records.windows(2) {
        assert!(w[0].at <= w[1].at, "fixture timestamps are non-decreasing");
    }
    assert!(records.iter().any(|r| r.write) && records.iter().any(|r| !r.write));
}
