//! The one run configuration: every environment knob, the `--trace` flag
//! and the positional arguments, parsed and validated in one place.
//!
//! [`KNOBS`] is the harness's whole environment surface — name, accepted
//! values, default, dependency and effect of every knob, in the order they
//! are applied. [`parse`] walks it once over an arbitrary lookup function
//! (so tests pass a map, never the process environment) and
//! [`RunConfig::from_env`] is the only function in this crate that touches
//! `std::env`. All parsing is strict: a typo'd override is rejected by name
//! instead of silently falling back, because a "full reproduction" run that
//! quietly ran with defaults would invalidate the numbers it claims to
//! reproduce; likewise a tuning knob whose parent feature is off.

use icash_storage::fault::HealthPolicy;
use icash_storage::queue::{QueueConfig, QueuePolicy};
use icash_workloads::scenario::{ArrivalShape, ScenarioKind, ScenarioSpec};
use icash_workloads::spec::WorkloadSpec;
use std::path::PathBuf;

/// The campaign seed every exhibit cell draws its trace and content from.
pub const SEED: u64 = 0x1CA5_4001;

/// The optional machinery a system is built with ([`SystemKind::build`]).
/// The default is the plain unsharded, queue-free engine under the inert
/// health policy, whose outputs the pinned goldens hold byte-identical.
///
/// [`SystemKind::build`]: crate::harness::SystemKind::build
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Features {
    /// Group-commit depth of I-CASH's write pipeline (1 = the classic
    /// synchronous cycle; the baselines are write-through and ignore it).
    pub group_commit_depth: u64,
    /// Independent controllers the block space is striped across behind a
    /// `ShardRouter` (1 = the bare system).
    pub shards: u32,
    /// Device-health policy for I-CASH (inert: none of it engages).
    pub health: HealthPolicy,
    /// Device command queues for I-CASH (`None` = strict submission order).
    pub queue: Option<QueueConfig>,
}

impl Default for Features {
    fn default() -> Self {
        Features {
            group_commit_depth: 1,
            shards: 1,
            health: HealthPolicy::inert(),
            queue: None,
        }
    }
}

/// Everything a harness binary is told from outside: [`KNOBS`] plus the
/// command line. `Default` is the all-knobs-unset configuration.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// What every cell's system is built with.
    pub features: Features,
    /// Scenario driver for every cell; `None` = the plain closed loop.
    pub scenario: Option<ScenarioSpec>,
    /// `run_scale` shard-count sweep override.
    pub scale_shards: Option<Vec<u32>>,
    /// `run_scale` clients-per-shard sweep override.
    pub scale_clients: Option<Vec<u32>>,
    /// `run_scale` minimum 8-vs-1-shard wall speedup.
    pub scale_assert: Option<f64>,
    /// `run_scale` queue-on > queue-off virtual-throughput assert.
    pub queue_assert: bool,
}

impl RunConfig {
    /// The configuration of this process: [`parse`] over the real
    /// environment and command line. A rejected knob ends the process with
    /// the message on stderr.
    pub fn from_env() -> Self {
        parse(|name| std::env::var(name).ok(), std::env::args().skip(1)).unwrap_or_else(|err| {
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
    /// One of the listed spellings.
    Choice(&'static [&'static str], fn(&mut RunConfig, &str)),
    /// Comma-separated positive integers.
    CountList(fn(&mut RunConfig, Vec<u32>)),
    /// A positive number, optionally suffixed `x` (`4x`).
    Factor(fn(&mut RunConfig, f64)),
}

/// "Rejected unless `parent` is on": a tuning knob that would otherwise be
/// silently ignored.
#[derive(Debug, Clone, Copy)]
pub struct Requires {
    /// The knob that must be on.
    pub parent: &'static str,
    /// A parent value that switches it on (error messages suggest it).
    pub enable: &'static str,
    on: fn(&RunConfig) -> bool,
}

/// One environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// The environment variable.
    pub name: &'static str,
    /// The unset behaviour, as the README table words it.
    pub default: &'static str,
    /// The parent knob this one is rejected without.
    pub requires: Option<Requires>,
    /// Accepted values and where they go.
    pub kind: Kind,
}

const HEALTH: Option<Requires> = Some(Requires {
    parent: "ICASH_HEALTH",
    enable: "1",
    on: |c| c.features.health != HealthPolicy::inert(),
});
const QUEUE: Option<Requires> = Some(Requires {
    parent: "ICASH_QUEUE_DEPTH",
    enable: "8",
    on: |c| c.features.queue.is_some(),
});
const OPEN_LOOP: Option<Requires> = Some(Requires {
    parent: "ICASH_SCENARIO",
    enable: "open-loop",
    on: |c| matches!(c.scenario, Some(sc) if sc.kind == ScenarioKind::OpenLoop),
});

const U32: u64 = u32::MAX as u64;
const SCENARIOS: &[&str] = &[
    "0",
    "",
    "replay",
    "open-loop",
    "openloop",
    "open_loop",
    "churn",
];

/// Every knob — name, default, parent, accepted values → field — with
/// parents before the knobs that require them. What each one does is on the
/// [`RunConfig`] field it sets and in the README "Knobs" table.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "ICASH_OPS",
        default: "per workload",
        requires: None,
        kind: Kind::Count(u64::MAX, |c, n| c.ops = Some(n)),
    },
    Knob {
        name: "ICASH_FULL",
        default: "0",
        requires: None,
        kind: Kind::Flag(|c, on| c.full = on),
    },
    Knob {
        name: "ICASH_THREADS",
        default: "available parallelism",
        requires: None,
        kind: Kind::Count(usize::MAX as u64, |c, n| c.threads = Some(n as usize)),
    },
    Knob {
        name: "ICASH_GROUP_COMMIT",
        default: "1",
        requires: None,
        kind: Kind::Count(u64::MAX, |c, n| c.features.group_commit_depth = n),
    },
    Knob {
        name: "ICASH_SHARDS",
        default: "1",
        requires: None,
        kind: Kind::Count(U32, |c, n| c.features.shards = n as u32),
    },
    Knob {
        name: "ICASH_HEALTH",
        default: "0",
        requires: None,
        kind: Kind::Flag(|c, on| {
            c.features.health = on
                .then(HealthPolicy::standard)
                .unwrap_or_else(HealthPolicy::inert)
        }),
    },
    Knob {
        name: "ICASH_STAGING_CAP",
        default: "unbounded",
        requires: HEALTH,
        kind: Kind::Count(u64::MAX, |c, n| c.features.health.staging_cap = n),
    },
    Knob {
        name: "ICASH_QUEUE_DEPTH",
        default: "off",
        requires: None,
        kind: Kind::Count(U32, |c, n| {
            c.features.queue = Some(QueueConfig::depth(n as u32))
        }),
    },
    Knob {
        name: "ICASH_HDD_SCHED",
        default: "sptf",
        requires: QUEUE,
        kind: Kind::Choice(&["sptf", "fifo"], |c, v| {
            let queue = c.features.queue.as_mut().expect("ICASH_QUEUE_DEPTH is set");
            queue.sched = QueuePolicy::parse(v).expect("listed spelling");
        }),
    },
    Knob {
        name: "ICASH_SCENARIO",
        default: "0",
        requires: None,
        kind: Kind::Choice(SCENARIOS, |c, v| {
            let arrival = ArrivalShape::Diurnal;
            c.scenario = ScenarioKind::parse(v).map(|kind| ScenarioSpec { kind, arrival });
        }),
    },
    Knob {
        name: "ICASH_ARRIVAL",
        default: "diurnal",
        requires: OPEN_LOOP,
        kind: Kind::Choice(&["stationary", "diurnal", "burst"], |c, v| {
            let scenario = c.scenario.as_mut().expect("ICASH_SCENARIO is open-loop");
            scenario.arrival = ArrivalShape::parse(v).expect("listed spelling");
        }),
    },
    Knob {
        name: "ICASH_SCALE_SHARDS",
        default: "1,2,4,8,16,32,64",
        requires: None,
        kind: Kind::CountList(|c, v| c.scale_shards = Some(v)),
    },
    Knob {
        name: "ICASH_SCALE_CLIENTS",
        default: "4,16",
        requires: None,
        kind: Kind::CountList(|c, v| c.scale_clients = Some(v)),
    },
    Knob {
        name: "ICASH_SCALE_ASSERT",
        default: "off",
        requires: None,
        kind: Kind::Factor(|c, f| c.scale_assert = Some(f)),
    },
    Knob {
        name: "ICASH_QUEUE_ASSERT",
        default: "0",
        requires: None,
        kind: Kind::Flag(|c, on| c.queue_assert = on),
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
            Kind::Choice(options, set) => set(cfg, options.iter().find(|o| **o == raw)?),
            Kind::CountList(set) => {
                let items = raw.split(',').map(|i| i.trim().parse::<u32>().ok());
                set(
                    cfg,
                    items.map(|n| n.filter(|&n| n > 0)).collect::<Option<_>>()?,
                )
            }
            Kind::Factor(set) => {
                let parsed = raw.trim_end_matches('x').parse().ok();
                set(cfg, parsed.filter(|f: &f64| f.is_finite() && *f > 0.0)?)
            }
        }
        Some(())
    }

    /// The accepted values in words (error messages and the README table).
    pub fn expects(&self) -> String {
        match self {
            Kind::Count(..) => "a positive integer".into(),
            Kind::Flag(_) => "\"1\" or \"0\"/unset".into(),
            Kind::Choice(options, _) => {
                let shown: Vec<String> = options
                    .iter()
                    .filter(|o| !o.is_empty())
                    .map(|o| format!("{o:?}"))
                    .collect();
                shown.join(" | ")
            }
            Kind::CountList(_) => "a comma-separated list of positive integers".into(),
            Kind::Factor(_) => "a positive number such as \"4x\"".into(),
        }
    }
}

/// Builds the run configuration from `lookup` (environment variable name →
/// value, `None` when unset) and the command-line arguments after the
/// program name. Pure: the same inputs give the same result, and every
/// rejection names the variable and the offending value.
pub fn parse(
    lookup: impl Fn(&str) -> Option<String>,
    args: impl IntoIterator<Item = String>,
) -> Result<RunConfig, String> {
    let mut cfg = RunConfig::default();
    for knob in KNOBS {
        let Some(raw) = lookup(knob.name) else {
            continue;
        };
        if let Some(req) = knob.requires.filter(|req| !(req.on)(&cfg)) {
            return Err(format!(
                "{} is set without {p}={}: the knob would be silently ignored",
                knob.name,
                req.enable,
                p = req.parent
            ));
        }
        knob.kind.apply(&mut cfg, &raw).ok_or_else(|| {
            let expects = knob.kind.expects();
            format!("invalid {}={raw:?}: expected {expects}", knob.name)
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
    /// The checked part of this knob's README "Knobs" row — name, values,
    /// default and parent; the prose after it is README's own.
    pub fn readme_row(&self) -> String {
        let values = self.kind.expects().replace(" | ", ", ");
        let needs = self
            .requires
            .map_or(String::new(), |req| format!(" (needs `{}`)", req.parent));
        format!("| `{}`{needs} | {values} | {} |", self.name, self.default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashMap};

    fn parse_vars(vars: &[(&str, &str)]) -> Result<RunConfig, String> {
        let map: HashMap<&str, &str> = vars.iter().copied().collect();
        parse(|name| map.get(name).map(|v| v.to_string()), Vec::new())
    }

    /// For every knob: unset → default, its sample is accepted and moves
    /// the configuration, `0` and garbage are either the documented "off"
    /// or rejected naming the variable and the value, and a dependent knob
    /// without its parent is rejected naming both.
    #[test]
    fn every_knob_defaults_accepts_and_rejects() {
        assert_eq!(parse_vars(&[]), Ok(RunConfig::default()));
        for k in KNOBS {
            // The parent (switched on by its own sample) a dependent knob
            // needs; `base` is the configuration with only that set.
            let parent: Vec<(&str, &str)> = k
                .requires
                .map(|req| (req.parent, req.enable))
                .into_iter()
                .collect();
            let with = |value: &'static str| {
                let mut vars = parent.clone();
                vars.push((k.name, value));
                parse_vars(&vars)
            };
            let base = parse_vars(&parent).expect("parent sample parses");

            // A valid value that is not the default.
            let sample = match k.kind {
                Kind::Count(..) => "3",
                Kind::Flag(_) => "1",
                Kind::Choice(options, _) => options[options.len() - 1],
                Kind::CountList(_) => "1, 8",
                Kind::Factor(_) => "1.5x",
            };
            let sampled = with(sample).unwrap_or_else(|e| panic!("{}: {e}", k.name));
            assert_ne!(sampled, base, "{}: the sample must change the run", k.name);

            // Every listed spelling is one its setter understands.
            if let Kind::Choice(options, _) = k.kind {
                for option in options {
                    with(option).unwrap_or_else(|e| panic!("{}={option}: {e}", k.name));
                }
            }

            for bad in ["0", "garbage,-1"] {
                let off_spelling = match k.kind {
                    Kind::Flag(_) => bad == "0",
                    Kind::Choice(options, _) => options.contains(&bad),
                    _ => false,
                };
                match with(bad) {
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

            if let Some(req) = k.requires {
                let e = parse_vars(&[(k.name, sample)]).expect_err("orphan knob");
                assert!(
                    e.contains(k.name) && e.contains(req.parent) && e.contains("silently ignored"),
                    "{}: got: {e}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn values_land_in_the_typed_fields() {
        let cfg = parse_vars(&[
            ("ICASH_OPS", "1234"),
            ("ICASH_SHARDS", "8"),
            ("ICASH_HEALTH", "1"),
            ("ICASH_STAGING_CAP", "64"),
            ("ICASH_QUEUE_DEPTH", "4"),
            ("ICASH_HDD_SCHED", "fifo"),
            ("ICASH_SCENARIO", "openloop"),
            ("ICASH_ARRIVAL", "burst"),
            ("ICASH_SCALE_SHARDS", "1, 2,4"),
            ("ICASH_SCALE_ASSERT", "4x"),
        ])
        .expect("all valid");
        assert_eq!(cfg.ops, Some(1234));
        assert_eq!(cfg.features.shards, 8);
        assert_eq!(cfg.features.health.staging_cap, 64);
        let queue = cfg.features.queue.expect("on");
        assert_eq!((queue.depth, queue.sched), (4, QueuePolicy::Fifo));
        let scenario = cfg.scenario.expect("on");
        assert_eq!(scenario.kind, ScenarioKind::OpenLoop);
        assert_eq!(scenario.arrival, ArrivalShape::Burst);
        assert_eq!(cfg.scale_shards, Some(vec![1, 2, 4]));
        assert_eq!(cfg.scale_assert, Some(4.0));
        // A u32 knob rejects what a u32 cannot hold instead of truncating.
        let e = parse_vars(&[("ICASH_SHARDS", "4294967296")]).expect_err("too wide");
        assert!(e.contains("ICASH_SHARDS=\"4294967296\""), "got: {e}");
        // Arrival shapes belong to the open loop only.
        let e = parse_vars(&[("ICASH_SCENARIO", "replay"), ("ICASH_ARRIVAL", "burst")])
            .expect_err("replay has no arrivals");
        assert!(
            e.contains("ICASH_ARRIVAL") && e.contains("open-loop"),
            "{e}"
        );
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
            let cfg = parse(|_| None, args(form)).expect("valid");
            assert_eq!(cfg.trace, Some(PathBuf::from("t.jsonl")));
            assert_eq!(cfg.args, vec!["a", "b"]);
        }
        let e = parse(|_| None, args(&["out.md", "--trace"])).expect_err("no path");
        assert!(e.contains("--trace"), "got: {e}");
    }

    /// Doc drift: the `ICASH_*` names README.md and ci.sh mention are
    /// exactly the knob table's plus the test-only ones, and README's
    /// "Knobs" table has every knob's name, values, default and parent.
    #[test]
    fn docs_name_exactly_the_knob_table() {
        const TEST_ONLY: [&str; 1] = ["ICASH_BLESS"];
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        let read = |file: &str| std::fs::read_to_string(format!("{root}{file}")).expect(file);
        let readme = read("README.md");
        let mentioned: BTreeSet<String> = format!("{readme}{}", read("ci.sh"))
            .split(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .filter(|token| token.starts_with("ICASH_"))
            .map(str::to_string)
            .collect();
        let known: BTreeSet<String> = KNOBS
            .iter()
            .map(|k| k.name)
            .filter(|name| name.starts_with("ICASH_"))
            .chain(TEST_ONLY)
            .map(str::to_string)
            .collect();
        assert_eq!(mentioned, known, "README.md + ci.sh vs config::KNOBS");
        for k in KNOBS {
            let row = k.readme_row();
            assert!(
                readme.contains(&row),
                "README.md's Knobs table needs a row starting: {row}"
            );
        }
    }
}
