//! Figure 14: RUBiS (auction site) request rate.
//!
//! Paper results being reproduced (shape): over 99 % reads caps the
//! delta-write advantage, so FusionIO wins by ~10 % (84 vs 76 req/s);
//! I-CASH still beats RAID0 1.5×, LRU 1.04× and Dedup 1.29× — the online
//! similarity detection stretching the same 128 MB flash budget further.

fn main() {
    icash_bench::exhibits::print_figures(env!("CARGO_BIN_NAME"));
}
