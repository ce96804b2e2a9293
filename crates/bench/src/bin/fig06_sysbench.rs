//! Figures 6(a), 6(b) and 7: SysBench on the five storage architectures.
//!
//! Paper results being reproduced (shape, not absolute values):
//! * Fig 6(a) transactions/s — I-CASH best (190), 2.24× RAID0 (85),
//!   ahead of FusionIO (180), LRU (175), Dedup (161).
//! * Fig 6(b) CPU utilization — all five within ~4 % of each other.
//! * Fig 7 response times (µs) — I-CASH reads ~half of FusionIO's, I-CASH
//!   writes ~10× faster than FusionIO's; RAID0 writes slowest by far.

fn main() {
    icash_bench::exhibits::print_figures(env!("CARGO_BIN_NAME"));
}
