//! The one run configuration: every environment knob, the `--trace` flag
//! and the positional arguments, parsed and validated in one place.
//!
//! [`KNOBS`] is the harness's whole environment surface — name, accepted
//! values, default and effect of every knob. [`parse`] reads it in one pass
//! over arbitrary `(name, value)` pairs (so tests pass a list, never the
//! process environment) and [`RunConfig::from_env`] is the only function in
//! this crate that touches `std::env`. All parsing is strict: a typo'd
//! override — a bad value, or an `ICASH_*` name that is no knob — is
//! rejected by name instead of silently falling back, because a "full
//! reproduction" run that quietly ran with defaults would invalidate the
//! numbers it claims to reproduce.

use icash_workloads::spec::WorkloadSpec;
use std::path::PathBuf;

/// The campaign seed every exhibit cell draws its trace and content from.
pub const SEED: u64 = 0x1CA5_4001;

/// Everything a harness binary is told from outside: [`KNOBS`] plus the
/// command line. `Default` is the all-knobs-unset configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Operations per cell; `None` = the workload's own count.
    pub ops: Option<u64>,
    /// Run the paper's Table 4 op counts instead of the quick defaults.
    pub full: bool,
    /// Worker-pool size; `None` = available parallelism.
    pub threads: Option<usize>,
    /// Where to write the JSONL trace artifact (`--trace <path>`); `None`
    /// attaches no tracer anywhere.
    pub trace: Option<PathBuf>,
    /// Positional arguments, `--trace` and its value removed.
    pub args: Vec<String>,
    /// Independent controllers every harness cell stripes its block space
    /// across behind a `ShardRouter` (1 = the bare system).
    pub shards: u32,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            ops: None,
            full: false,
            threads: None,
            trace: None,
            args: Vec::new(),
            shards: 1,
        }
    }
}

impl RunConfig {
    /// The configuration of this process: [`parse`] over the real
    /// environment and command line. A rejected knob ends the process with
    /// the message on stderr.
    pub fn from_env() -> Self {
        let vars = std::env::vars_os().map(|(name, value)| {
            (
                name.to_string_lossy().into(),
                value.to_string_lossy().into(),
            )
        });
        parse(vars, std::env::args().skip(1)).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(2);
        })
    }

    /// Operations one cell of `spec` issues: `ICASH_OPS`, else the Table 4
    /// count under `ICASH_FULL=1`, else the workload's quick default.
    pub fn ops_for(&self, spec: &WorkloadSpec) -> u64 {
        self.ops.unwrap_or(if self.full {
            spec.table4_ops()
        } else {
            spec.default_ops
        })
    }

    /// Worker threads the pool may use.
    pub fn workers(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }
}

/// What a knob accepts, paired with the setter that receives the checked
/// value — so a knob cannot be validated as one type and stored as another.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A positive integer no larger than the bound.
    Count(u64, fn(&mut RunConfig, u64)),
    /// `"1"` on; `"0"` or empty off.
    Flag(fn(&mut RunConfig, bool)),
}

/// One environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The environment variable.
    pub name: &'static str,
    /// The unset behaviour, as the README table words it.
    pub default: &'static str,
    /// Accepted values and where they go.
    pub kind: Kind,
}

/// The one `ICASH_*` name that is no knob: the test suites' switch that
/// regenerates their goldens, set around harness runs by `ci.sh bless`.
const NOT_A_KNOB: &str = "ICASH_BLESS";

/// Every knob — name, default, accepted values → field. What each one does
/// is on the [`RunConfig`] field it sets and in the README "Knobs" table.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "ICASH_OPS",
        default: "per workload",
        kind: Kind::Count(u64::MAX, |c, n| c.ops = Some(n)),
    },
    Knob {
        name: "ICASH_FULL",
        default: "0",
        kind: Kind::Flag(|c, on| c.full = on),
    },
    Knob {
        name: "ICASH_THREADS",
        default: "available parallelism",
        kind: Kind::Count(usize::MAX as u64, |c, n| c.threads = Some(n as usize)),
    },
    Knob {
        name: "ICASH_SHARDS",
        default: "1",
        kind: Kind::Count(u32::MAX as u64, |c, n| c.shards = n as u32),
    },
];

impl Kind {
    /// Validates `raw` and hands the typed value to the setter; `None` when
    /// `raw` is not an accepted spelling.
    fn apply(&self, cfg: &mut RunConfig, raw: &str) -> Option<()> {
        match *self {
            Kind::Count(max, set) => {
                let n = raw.parse().ok().filter(|n| (1..=max).contains(n))?;
                set(cfg, n)
            }
            Kind::Flag(set) => set(
                cfg,
                match raw {
                    "1" => true,
                    "0" | "" => false,
                    _ => return None,
                },
            ),
        }
        Some(())
    }

    /// The accepted values in words (error messages and the README table).
    pub fn expects(&self) -> &'static str {
        match self {
            Kind::Count(..) => "a positive integer",
            Kind::Flag(_) => "\"1\" or \"0\"/unset",
        }
    }
}

/// Builds the run configuration from the environment's `(name, value)`
/// pairs and the command-line arguments after the program name. Names
/// outside `ICASH_*` are not the harness's; within it, every name must be a
/// knob (or `NOT_A_KNOB`). Pure: the same inputs give the same result,
/// and every rejection names the variable and the offending value.
pub fn parse(
    vars: impl IntoIterator<Item = (String, String)>,
    args: impl IntoIterator<Item = String>,
) -> Result<RunConfig, String> {
    let mut cfg = RunConfig::default();
    for (name, raw) in vars {
        if !name.starts_with("ICASH_") || name == NOT_A_KNOB {
            continue;
        }
        let Some(knob) = KNOBS.iter().find(|k| k.name == name) else {
            return Err(format!("invalid {name}={raw:?}: no such knob"));
        };
        knob.kind.apply(&mut cfg, &raw).ok_or_else(|| {
            let expects = knob.kind.expects();
            format!("invalid {name}={raw:?}: expected {expects}")
        })?;
    }
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            let path = args.next().ok_or("--trace needs a path: --trace <path>")?;
            cfg.trace = Some(PathBuf::from(path));
        } else if let Some(path) = arg.strip_prefix("--trace=") {
            cfg.trace = Some(PathBuf::from(path));
        } else {
            cfg.args.push(arg);
        }
    }
    Ok(cfg)
}

impl Knob {
    /// The checked part of this knob's README "Knobs" row — name, values
    /// and default; the prose after it is README's own.
    pub fn readme_row(&self) -> String {
        let (name, values) = (self.name, self.kind.expects());
        format!("| `{name}` | {values} | {} |", self.default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn parse_vars(vars: &[(&str, &str)]) -> Result<RunConfig, String> {
        let vars = vars.iter().map(|&(k, v)| (k.to_string(), v.to_string()));
        parse(vars, Vec::new())
    }

    /// For every knob: unset → default, its sample is accepted and moves
    /// the configuration, and `0` and garbage are either the documented
    /// "off" or rejected naming the variable and the value.
    #[test]
    fn every_knob_defaults_accepts_and_rejects() {
        assert_eq!(parse_vars(&[]), Ok(RunConfig::default()));
        let base = RunConfig::default();
        for k in KNOBS {
            // A valid value that is not the default.
            let sample = match k.kind {
                Kind::Count(..) => "3",
                Kind::Flag(_) => "1",
            };
            let sampled = parse_vars(&[(k.name, sample)]).unwrap_or_else(|e| panic!("{e}"));
            assert_ne!(sampled, base, "{}: the sample must change the run", k.name);

            for bad in ["0", "garbage,-1"] {
                let off_spelling = matches!(k.kind, Kind::Flag(_)) && bad == "0";
                match parse_vars(&[(k.name, bad)]) {
                    Ok(cfg) => {
                        assert!(off_spelling, "{}={bad} must be rejected", k.name);
                        assert_eq!(cfg, base, "{}={bad} must mean off", k.name);
                    }
                    Err(e) => {
                        assert!(!off_spelling, "{}={bad} must be accepted: {e}", k.name);
                        assert!(
                            e.contains(k.name) && e.contains(&format!("{bad:?}")),
                            "{}={bad}: the message must name both, got: {e}",
                            k.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn values_land_in_the_typed_fields() {
        let cfg = parse_vars(&[("ICASH_OPS", "1234"), ("ICASH_SHARDS", "8")]).expect("all valid");
        assert_eq!((cfg.ops, cfg.shards), (Some(1234), 8));
        // A u32 knob rejects what a u32 cannot hold instead of truncating.
        let e = parse_vars(&[("ICASH_SHARDS", "4294967296")]).expect_err("too wide");
        assert!(e.contains("ICASH_SHARDS=\"4294967296\""), "got: {e}");
    }

    /// A misspelt or retired `ICASH_*` name is refused by name, not ignored;
    /// the one name that is no knob passes, and so does the rest of the
    /// environment.
    #[test]
    fn unknown_icash_names_are_rejected() {
        for name in ["ICASH_OPSS", "ICASH_QUEUE_DEPTH"] {
            let e = parse_vars(&[(name, "5")]).expect_err(name);
            assert!(e.contains(&format!("{name}=\"5\"")), "got: {e}");
        }
        let vars = [(NOT_A_KNOB, "1"), ("PATH", "/bin"), ("ICASH_OPS", "7")];
        assert_eq!(parse_vars(&vars).map(|c| c.ops), Ok(Some(7)));
    }

    #[test]
    fn ops_resolution_prefers_the_override_then_full_then_quick() {
        let spec = icash_workloads::sysbench::spec();
        let quick = RunConfig::default();
        assert_eq!(quick.ops_for(&spec), spec.default_ops);
        let full = parse_vars(&[("ICASH_FULL", "1")]).expect("valid");
        assert_eq!(full.ops_for(&spec), spec.table4_ops());
        let pinned = parse_vars(&[("ICASH_FULL", "1"), ("ICASH_OPS", "77")]).expect("valid");
        assert_eq!(pinned.ops_for(&spec), 77);
        assert_eq!(
            RunConfig {
                threads: Some(3),
                ..quick
            }
            .workers(),
            3
        );
    }

    #[test]
    fn trace_flag_is_extracted_and_a_dangling_one_rejected() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for form in [
            &["a", "--trace", "t.jsonl", "b"][..],
            &["a", "--trace=t.jsonl", "b"],
        ] {
            let cfg = parse([], args(form)).expect("valid");
            assert_eq!(cfg.trace, Some(PathBuf::from("t.jsonl")));
            assert_eq!(cfg.args, vec!["a", "b"]);
        }
        let e = parse([], args(&["out.md", "--trace"])).expect_err("no path");
        assert!(e.contains("--trace"), "got: {e}");
    }

    /// Doc drift: the `ICASH_*` names README.md, ci.sh, DESIGN.md and the
    /// verify recipe mention are exactly the knob table's plus
    /// [`NOT_A_KNOB`], and README's "Knobs" table has every knob's name,
    /// values and default.
    #[test]
    fn docs_name_exactly_the_knob_table() {
        const DOCS: [&str; 3] = ["ci.sh", "DESIGN.md", ".claude/skills/verify/SKILL.md"];
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        let read = |file: &str| std::fs::read_to_string(format!("{root}{file}")).expect(file);
        let readme = read("README.md");
        let docs: String = DOCS.iter().map(|file| read(file)).collect();
        let mentioned: BTreeSet<String> = format!("{readme}{docs}")
            .split(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .filter(|token| token.starts_with("ICASH_"))
            .map(str::to_string)
            .collect();
        let known: BTreeSet<String> = KNOBS
            .iter()
            .map(|k| k.name)
            .chain([NOT_A_KNOB])
            .map(str::to_string)
            .collect();
        assert_eq!(mentioned, known, "README.md + {DOCS:?} vs config::KNOBS");
        for k in KNOBS {
            let row = k.readme_row();
            assert!(
                readme.contains(&row),
                "README.md's Knobs table needs a row starting: {row}"
            );
        }
    }
}
