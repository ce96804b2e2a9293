//! Figure 16: five RUBiS virtual machines, normalized request rate.
//!
//! Paper results being reproduced (shape): the read-heavy multi-VM case —
//! FusionIO holds up well (RUBiS is read-intensive), I-CASH still edges it
//! out (1.2×) by serving five near-identical images from one set of
//! reference blocks, and the address-keyed caches trail 3–6× (they cache
//! five copies of the same content).

fn main() {
    icash_bench::exhibits::print_figures(env!("CARGO_BIN_NAME"));
}
