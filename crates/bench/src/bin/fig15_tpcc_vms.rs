//! Figure 15: five TPC-C virtual machines, normalized transaction rate.
//!
//! Paper results being reproduced (shape): with five VMs multiplying the
//! write pressure, pure flash hits its garbage-collection wall while
//! I-CASH absorbs the writes as deltas — 2.8× FusionIO and 5–6× the other
//! three baselines, I-CASH's biggest win in the paper.

fn main() {
    icash_bench::exhibits::print_figures(env!("CARGO_BIN_NAME"));
}
