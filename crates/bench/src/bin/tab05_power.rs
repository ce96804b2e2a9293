//! Table 5: energy consumption in Watt-hours for Hadoop and TPC-C.
//!
//! Paper results being reproduced (shape): RAID0's four 15 W spindles burn
//! 2.4–3.4× the energy of I-CASH's one SSD + one disk (24 vs 7 Wh for
//! Hadoop, 28 vs 11 for TPC-C); the SSD-based systems cluster together,
//! with I-CASH lowest on Hadoop because it finishes first and writes the
//! flash least (9.5 µJ per 4 KB read vs 76.1 µJ per write).

fn main() {
    icash_bench::exhibits::print_table(
        env!("CARGO_BIN_NAME"),
        "Table 5. Power consumption in Watt-hours.",
        3,
    );
}
