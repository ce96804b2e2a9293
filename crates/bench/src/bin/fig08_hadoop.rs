//! Figures 8(a), 8(b) and 9: Hadoop WordCount on the five architectures.
//!
//! Paper results being reproduced (shape): I-CASH finishes the job fastest
//! (18 s vs FusionIO 24, LRU 25, Dedup 26, RAID 32 — speedups 1.3–1.8×);
//! CPU utilization is high everywhere except RAID (Fig 8b); and I-CASH's
//! write response is an order of magnitude below the SSD-writing systems
//! (Fig 9: 586 µs vs 7301 µs for FusionIO).

fn main() {
    icash_bench::exhibits::print_figures(env!("CARGO_BIN_NAME"));
}
