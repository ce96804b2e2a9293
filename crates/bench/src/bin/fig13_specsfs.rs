//! Figure 13: SPECsfs (NFS server) response time.
//!
//! Paper results being reproduced (shape): I-CASH (1.5 ms) matches
//! FusionIO (1.4 ms) while using one-tenth of the flash; the write-heavy
//! stream punishes Dedup's copy-on-write (2.1 ms, 28 % worse than I-CASH)
//! and the LRU cache equally (2.1 ms); RAID0 lands between (1.8 ms)
//! because four spindles absorb the write flood better than one.
//!
//! Reported times are NFS-op response = 1.2 ms server component + storage
//! response, matching the benchmark's client-side measurement.

fn main() {
    icash_bench::exhibits::print_figures(env!("CARGO_BIN_NAME"));
}
