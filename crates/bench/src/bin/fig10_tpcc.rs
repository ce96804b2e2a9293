//! Figures 10(a), 10(b) and 11: TPC-C on the five architectures.
//!
//! Paper results being reproduced (shape): I-CASH processes the most
//! transactions per second (58, +14 % over FusionIO's 51, +45 % over
//! RAID0's 40) and cuts the application-level response time to 2.6 ms vs
//! FusionIO's 6.6 ms and RAID0's 14 ms — the benchmark where the fast
//! delta-write path matters most.

fn main() {
    icash_bench::exhibits::print_figures(env!("CARGO_BIN_NAME"));
}
