//! One exhibit of the paper's evaluation or one ablation of its design:
//! `exhibit <name>` runs the workloads it needs and prints its figures or
//! its table. The names — one per figure group, table or ablation — are
//! [`exhibits::exhibit_names`]; `run_all` renders every figure and table
//! into EXPERIMENTS.md.

use icash_bench::{exhibits, RunConfig};

fn main() {
    let cfg = RunConfig::from_env();
    let name = cfg.args.first().map(String::as_str);
    if !name.is_some_and(|name| exhibits::print_exhibit(&cfg, name)) {
        eprintln!(
            "usage: exhibit <name>; names: {}",
            exhibits::exhibit_names().join(", ")
        );
        std::process::exit(2);
    }
}
