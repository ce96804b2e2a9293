//! Compares a fresh benchmark run against the committed hot-path baseline.
//!
//! Usage: `bench_diff <baseline.json> <current.json>...`
//!
//! The baseline (`BENCH_codec.json` at the repo root) records, per
//! benchmark, the seed-era cost (`before_ns`) and the cost at the time the
//! baseline was last regenerated (`after_ns`). Each `current` file is the
//! `CRITERION_JSON` output of a bench binary (`{"results": [{"name": ...,
//! "ns_per_iter": ...}]}`). A benchmark regresses when its fresh cost
//! exceeds `after_ns` by more than the tolerance factor (`BENCH_TOLERANCE`,
//! default 4.0 — wall-clock benches on shared CI machines are noisy, so the
//! band is wide: this gate catches order-of-magnitude regressions like an
//! accidentally quadratic scan, not single-digit-percent drift).
//!
//! Exit status: 0 when every matched benchmark is within tolerance, 1
//! otherwise. Benchmarks present on only one side are reported but do not
//! fail the gate (the baseline intentionally pins only the hot-path set).

use std::process::ExitCode;

/// One `{...}` record's worth of scalar fields, extracted textually. The
/// JSON involved is machine-written by this repo (flat objects, no nesting,
/// no escapes in practice), so a field scanner is enough and keeps the
/// vendored-dependency surface at zero.
fn field_str(record: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let at = record.find(&pat)? + pat.len();
    let rest = record[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn field_num(record: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = record.find(&pat)? + pat.len();
    let rest = record[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Splits a flat JSON document into its `{...}` object bodies.
fn records(doc: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, b) in doc.bytes().enumerate() {
        match b {
            b'{' => {
                depth += 1;
                if depth == 2 {
                    start = i;
                }
            }
            b'}' => {
                if depth == 2 {
                    out.push(&doc[start..=i]);
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
    }
    out
}

fn load(path: &str) -> Vec<(String, f64)> {
    let doc = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_diff: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    records(&doc)
        .into_iter()
        .filter_map(|r| {
            let name = field_str(r, "name")?;
            // Baseline records carry `after_ns`; fresh runs `ns_per_iter`.
            let ns = field_num(r, "after_ns").or_else(|| field_num(r, "ns_per_iter"))?;
            Some((name, ns))
        })
        .collect()
}

fn main() -> ExitCode {
    let cfg = icash_bench::RunConfig::from_env();
    let args = &cfg.args;
    if args.len() < 2 {
        eprintln!("usage: bench_diff <baseline.json> <current.json>...");
        return ExitCode::FAILURE;
    }
    let tolerance = cfg.bench_tolerance.unwrap_or(4.0);

    let baseline = load(&args[0]);
    let current: Vec<(String, f64)> = args[1..].iter().flat_map(|p| load(p)).collect();

    let mut failed = false;
    let mut matched = 0usize;
    println!(
        "{:<44} {:>12} {:>12} {:>8}",
        "benchmark", "baseline", "current", "ratio"
    );
    for (name, base_ns) in &baseline {
        let Some((_, cur_ns)) = current.iter().find(|(n, _)| n == name) else {
            println!("{name:<44} {base_ns:>12.0} {:>12} {:>8}", "-", "absent");
            continue;
        };
        matched += 1;
        let ratio = cur_ns / base_ns.max(1e-9);
        let verdict = if ratio > tolerance {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        println!("{name:<44} {base_ns:>12.0} {cur_ns:>12.0} {ratio:>7.2}x {verdict}");
    }
    for (name, _) in &current {
        if !baseline.iter().any(|(n, _)| n == name) {
            println!("{name:<44} (not in baseline)");
        }
    }
    if matched == 0 {
        eprintln!("bench_diff: no benchmark matched the baseline — name drift?");
        return ExitCode::FAILURE;
    }
    println!(
        "bench_diff: {matched} matched, tolerance {tolerance}x: {}",
        if failed { "REGRESSION" } else { "within band" }
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
