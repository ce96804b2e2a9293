//! The five benchmark workloads and their fixed sizes.
//!
//! Each is one of the paper's Table 3 benchmarks, chosen because it loads a
//! different layer of the simulator (see `README.md` for the measured host
//! shares behind each `why`). Sizes are fixed here, not taken from the
//! environment: a later change is compared against numbers measured at
//! exactly these sizes.

use icash_workloads::spec::WorkloadSpec;
use icash_workloads::{hadoop, loadsim, rubis, specsfs, sysbench};

/// One benchmark workload: a paper spec at a fixed length and footprint.
#[derive(Debug, Clone, Copy)]
pub struct BenchWorkload {
    /// Name used on the command line, in `BENCHMARK.json` and in file names.
    pub name: &'static str,
    /// One line: which layer it loads and which it bypasses.
    pub why: &'static str,
    spec: fn() -> WorkloadSpec,
    /// Operations replayed per cell.
    pub ops: u64,
    /// The op count the spec's footprint is scaled to
    /// ([`WorkloadSpec::scaled_to_ops`]). Differs from `ops` only on
    /// `hit_read`, whose `preload` grows super-linearly with footprint.
    pub scale_ops: u64,
    /// The paper exhibit the I-CASH ÷ LRU ratio is read from.
    pub paper_exhibit: &'static str,
    /// That exhibit's I-CASH-over-LRU speed-up as (numerator, denominator).
    pub paper_ratio: (f64, f64),
}

/// All workloads, in reporting order.
pub const ALL: [BenchWorkload; 5] = [
    BenchWorkload {
        name: "oltp_mixed",
        why: "SysBench: 72% 2-block reads, Zipf 1.8 hot set fits RAM+SSD; read and write paths both do real work",
        spec: sysbench::spec,
        ops: 250_000,
        scale_ops: 250_000,
        paper_exhibit: "Fig 6a",
        paper_ratio: (190.0, 175.0),
    },
    BenchWorkload {
        name: "span_write",
        why: "Hadoop: 25-block delta-friendly writes; codec and core write path do nearly all the work, read path idles",
        spec: hadoop::spec,
        ops: 20_000,
        scale_ops: 20_000,
        paper_exhibit: "Fig 8a",
        paper_ratio: (25.0, 18.0),
    },
    BenchWorkload {
        name: "fs_write",
        why: "SPECsfs: 92% writes that overflow the delta threshold; bind/probe/FTL-program side of the write layer",
        spec: specsfs::spec,
        ops: 30_000,
        scale_ops: 30_000,
        paper_exhibit: "Fig 13",
        paper_ratio: (2.1, 1.5),
    },
    BenchWorkload {
        name: "miss_read",
        why: "LoadSim: 86% reads, Zipf 0.6 over data far larger than RAM+SSD; HDD model and core miss path, codec idles",
        spec: loadsim::spec,
        ops: 80_000,
        scale_ops: 80_000,
        paper_exhibit: "Fig 12",
        paper_ratio: (3002.0, 2263.0),
    },
    BenchWorkload {
        name: "hit_read",
        why: "RUBiS: 99% reads served from RAM/SSD so per-op driver overheads surface; bypasses codec and write path",
        spec: rubis::spec,
        ops: 600_000,
        scale_ops: 150_000,
        paper_exhibit: "Fig 14",
        paper_ratio: (76.0, 73.0),
    },
];

impl BenchWorkload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static BenchWorkload> {
        ALL.iter().find(|w| w.name == name)
    }

    /// The scaled spec and op count of one cell. `scale_div` shrinks both
    /// length and footprint (the smoke test runs at 1/50); 1 is the
    /// benchmark's own size.
    pub fn cell(&self, scale_div: u64) -> (WorkloadSpec, u64) {
        let div = scale_div.max(1);
        let spec = (self.spec)().scaled_to_ops((self.scale_ops / div).max(1));
        (spec, (self.ops / div).max(1))
    }
}
