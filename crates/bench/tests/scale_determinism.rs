//! Shard-scaling determinism gate: the scale campaign's document must
//! be byte-identical no matter how many worker threads replayed the
//! shards.
//!
//! Each shard of a cell is a complete self-contained simulation on its own
//! virtual clock, and the deterministic document ([`scale::document`])
//! deliberately contains no wall-clock quantity — so one worker and three
//! (the count `ICASH_THREADS` sets, passed here in the configuration) must
//! render the same bytes.

use icash_bench::scale;
use icash_bench::RunConfig;
use icash_workloads::spec::WorkloadSpec;
use icash_workloads::sysbench;

fn small_spec() -> WorkloadSpec {
    let mut spec = sysbench::spec();
    spec.data_bytes = 16 << 20;
    spec.ssd_bytes = 2 << 20;
    spec.ram_bytes = 1 << 20;
    spec
}

const OPS: u64 = 600;

fn campaign_with_threads(threads: usize) -> String {
    let cfg = RunConfig {
        threads: Some(threads),
        ..RunConfig::default()
    };
    let spec = small_spec();
    let cells = scale::run_campaign(&cfg, &spec, None, OPS, &[1, 2, 8], &[2, 4]);
    let mut doc = scale::document(&spec, OPS, &cells);
    // The queued engine must be exactly as deterministic as the bare one.
    let queue = Some(icash_storage::queue::QueueConfig::depth(8));
    let queued = scale::run_campaign(&cfg, &spec, queue, OPS, &[1, 8], &[4]);
    doc.push_str(&scale::document(&spec, OPS, &queued));
    doc
}

#[test]
fn campaign_document_is_independent_of_worker_count() {
    let sequential = campaign_with_threads(1);
    let parallel = campaign_with_threads(3);
    assert!(
        sequential.contains("\"shards\":8"),
        "the sweep actually ran its widest cell"
    );
    assert_eq!(
        sequential, parallel,
        "worker count changed the campaign document"
    );
    // Six cells plus the schema header, then the queued campaign's two
    // cells plus its header.
    assert_eq!(sequential.lines().count(), 10);
}
