//! Command line of the repo benchmark. `run.sh` builds this and passes
//! its arguments through; see `README.md`.

use icash_benchmark::metrics::{self, Metric, Values};
use icash_benchmark::run::{self, Args, Outcome, DEFAULT_SECONDS, DEFAULT_SEED};
use icash_benchmark::workloads::{BenchWorkload, ALL};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: icash-benchmark --list
       icash-benchmark --workload <name> [--seed <n>] [--seconds <n>] [--trace 0|1]
                       [--scale-div <n>] [--out <dir>]";

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("{flag} {v:?}: expected a whole number"))
}

fn parse(argv: &[String]) -> Result<Option<(Args, PathBuf)>, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = true;
    let mut scale_div = 1;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(BenchWorkload::by_name(v).ok_or_else(|| {
                    let names: Vec<_> = ALL.iter().map(|w| w.name).collect();
                    format!("unknown workload {v:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = parse_u64(flag, v)?,
            "--seconds" => seconds = parse_u64(flag, v)?,
            "--scale-div" => scale_div = parse_u64(flag, v)?.max(1),
            "--trace" => {
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {v:?}: expected 0 or 1")),
                }
            }
            "--out" => out = PathBuf::from(v),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some((
        Args {
            workload,
            seed,
            seconds,
            trace,
            scale_div,
        },
        out,
    )))
}

/// `"name": {"value": ..., "unit": ...}` for the driver's result line.
fn result_metrics(values: &Values) -> String {
    let fields: Vec<String> = values
        .rows()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    fields.join(", ")
}

/// The same, with everything `compare.py` needs, for the result file.
fn file_metrics(values: &Values, spreads: &[(&str, f64)]) -> String {
    let field = |m: &Metric, v: f64| {
        let mut s = format!(
            "    \"{}\": {{\"value\": {v}, \"unit\": \"{}\", \"clock\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.clock.label(),
            m.better()
        );
        if let Some(bound) = m.bound {
            let _ = write!(s, ", \"bound\": {bound}");
        }
        if let Some((_, spread)) = spreads.iter().find(|(n, _)| *n == m.name) {
            let _ = write!(s, ", \"spread\": {spread}");
        }
        s.push('}');
        s
    };
    let fields: Vec<String> = values.rows().map(|(m, v)| field(m, v)).collect();
    format!("{{\n{}\n  }}", fields.join(",\n"))
}

fn print_values(values: &Values) {
    for (m, v) in values.rows() {
        println!("{} {v} {} {}", m.name, m.unit, m.clock.label());
    }
}

fn report(o: &Outcome, out: &PathBuf) -> std::io::Result<()> {
    let w = o.args.workload;
    println!(
        "# {}: {} ops x {} untraced cells, seed {:#x}, scale 1/{}, one thread of {}",
        w.name,
        o.ops,
        o.cells,
        o.args.seed,
        o.args.scale_div,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    print!("{}", o.notes);
    println!("sim.fingerprint {:016x}", o.fingerprint);
    print_values(&o.end_to_end);
    if let Some(p) = &o.per_layer {
        print_values(p);
    }

    std::fs::create_dir_all(out)?;
    let per_layer = match &o.per_layer {
        Some(p) => file_metrics(p, &[]),
        None => "null".into(),
    };
    let file = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"ops\": {},\n  \"scale_div\": {},\n  \
         \"cells\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"fingerprint\": \"{:016x}\",\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        w.name,
        o.args.seed,
        o.ops,
        o.args.scale_div,
        o.cells,
        o.correct,
        o.attempted,
        o.failed,
        o.fingerprint,
        file_metrics(&o.end_to_end, &o.spreads),
        per_layer
    );
    std::fs::write(out.join(format!("{}.json", w.name)), file)?;
    if let Some(spans) = &o.spans_jsonl {
        std::fs::write(out.join(format!("{}.spans.jsonl", w.name)), spans)?;
    }

    // The driver's result line: end-to-end metrics untraced, per-layer
    // metrics traced. Last line of stdout.
    let metrics = match &o.per_layer {
        Some(p) if o.args.trace => result_metrics(p),
        _ => result_metrics(&o.end_to_end),
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.correct, o.attempted, o.failed
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, out) = match parse(&argv) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            print!("{}", metrics::list());
            return ExitCode::SUCCESS;
        }
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run::run(args);
    if let Err(err) = report(&outcome, &out) {
        eprintln!("cannot write results under {}: {err}", out.display());
        return ExitCode::from(1);
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
