//! Table 6: number of write requests reaching the SSD.
//!
//! Paper results being reproduced (shape): I-CASH performs a small
//! fraction of the SSD writes of every other flash-bearing system on
//! SysBench (232 K vs 894 K–1.5 M), Hadoop and TPC-C, because writes are
//! absorbed as HDD-logged deltas; on the write-flood SPECsfs the counts
//! converge (5.1 M vs 5.5–5.8 M). Fewer flash writes = fewer erases =
//! longer device life (§5.3).

fn main() {
    icash_bench::exhibits::print_table(
        env!("CARGO_BIN_NAME"),
        "Table 6. Number of write requests on SSD.",
        0,
    );
}
