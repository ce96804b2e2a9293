//! Figure 12: LoadSim (Exchange mail server) scores, lower is better.
//!
//! Paper results being reproduced (shape): the one benchmark FusionIO wins
//! (1803) — LoadSim is almost 100 % random over 17.5 GB, so a 1 GB cache
//! cannot hide the working set. I-CASH (2263) still lands 2.4× ahead of
//! RAID0 (5340) and clearly ahead of the LRU (3002) and Dedup (3259)
//! caches by catching content locality.
//!
//! LoadSim scores weight client-observed response times, which include
//! Exchange server processing; the score here maps mean response the same
//! way: `score = (4 ms server component + mean storage response) × 420`.

fn main() {
    icash_bench::exhibits::print_figures(env!("CARGO_BIN_NAME"));
}
