//! The metric registry: every name the benchmark prints, with its unit,
//! clock, direction and — for end-to-end metrics — its regression bound.
//!
//! `BENCHMARK.json` repeats this table for the driver; the
//! `registry_matches_benchmark_json` test holds the two together.

use std::collections::BTreeMap;

/// Which clock (or none) a value comes from. Decides how two result sets
/// are compared: host values within a bound, everything else exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// `std::time::Instant` (or `/proc`): noisy, bounded.
    Host,
    /// Virtual `Ns` or a value derived from it: repeats exactly per seed.
    Sim,
    /// An exact count or a ratio of exact counts: repeats exactly per seed.
    Count,
}

impl Clock {
    /// The label printed beside every value.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Printed name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// Clock the value is read from.
    pub clock: Clock,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// End-to-end only: the share of the parent's value by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

impl Metric {
    /// `"higher"` or `"lower"`, as `BENCHMARK.json` spells it.
    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }

    /// This metric's object in `BENCHMARK.json`, formatted as that file
    /// formats it.
    pub fn benchmark_json(&self) -> String {
        match self.bound {
            Some(bound) => format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                self.name,
                self.unit,
                self.better(),
                bound
            ),
            None => format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                self.name,
                self.unit,
                self.better()
            ),
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_is_better: bool,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        higher_is_better,
        bound: Some(bound),
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_is_better: bool,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        higher_is_better,
        bound: None,
    }
}

use Clock::{Count, Host, Sim};

/// What a user of the simulator sees: what a result costs to produce
/// (host) and the headline results themselves (sim).
///
/// Only metrics that are never 0, never constant and steady across
/// *different* seeds can be bounded here, because that is how the driver
/// checks a bound (README, "Bounds"). The other simulated results the
/// paper reports — latencies, percentiles, SSD writes — swing by more
/// than any allowed bound from seed to seed, so they are `sim.*` rows of
/// [`PER_LAYER`]; at one seed every sim value must repeat exactly, which
/// `compare.py` enforces for all of them alike.
pub const END_TO_END: [Metric; 6] = [
    e2e("host_ops_per_s", "ops/s", Host, true, 0.25),
    e2e("setup_s", "s", Host, false, 0.25),
    e2e("peak_rss_mb", "MB", Host, false, 0.10),
    e2e("sim_tx_per_s", "tx/s", Sim, true, 0.2),
    e2e("sim_energy_mwh_per_kop", "mWh/kop", Sim, false, 0.15),
    e2e("sim_speedup_vs_lru", "x", Sim, true, 0.2),
];

/// The remaining simulated results, then one group per layer (layer =
/// crate). No bounds: these explain, they do not gate.
pub const PER_LAYER: [Metric; 72] = [
    layer("sim.read_mean_us", "sim_us", Sim, false),
    layer("sim.write_mean_us", "sim_us", Sim, false),
    layer("sim.read_p50_us", "sim_us", Sim, false),
    layer("sim.read_p99_us", "sim_us", Sim, false),
    layer("sim.write_p50_us", "sim_us", Sim, false),
    layer("sim.write_p99_us", "sim_us", Sim, false),
    layer("sim.ssd_writes_per_kop", "writes/kop", Sim, false),
    layer("workloads.record_s", "s", Host, false),
    layer("workloads.next_op_ns", "ns", Host, false),
    layer("workloads.driver_self_share", "fraction", Host, false),
    layer("workloads.payload_ns_per_block", "ns", Host, false),
    layer("workloads.payload_share", "fraction", Host, false),
    layer("workloads.backing_ns_per_block", "ns", Host, false),
    layer("workloads.backing_calls_per_op", "1/op", Count, false),
    layer("core.preload_s", "s", Host, false),
    layer("core.preload_self_s", "s", Host, false),
    layer("core.submit_read_ns_per_block", "ns", Host, false),
    layer("core.submit_read_share", "fraction", Host, false),
    layer("core.submit_write_ns_per_block", "ns", Host, false),
    layer("core.submit_write_share", "fraction", Host, false),
    layer("core.flush_s", "s", Host, false),
    layer("core.self_share_est", "fraction", Host, false),
    layer("core.ram_hit_ratio", "fraction", Count, true),
    layer("core.hdd_free_read_fraction", "fraction", Count, true),
    layer("core.delta_write_fraction", "fraction", Count, true),
    layer("core.ssd_direct_per_kop", "1/kop", Count, false),
    layer("core.independent_per_kop", "1/kop", Count, false),
    layer("core.log_fetches_per_kop", "1/kop", Count, false),
    layer("core.home_reads_per_kop", "1/kop", Count, false),
    layer("core.scans", "count", Count, false),
    layer("core.flushes", "count", Count, false),
    layer("core.log_blocks_written", "count", Count, false),
    layer("core.ref_installs", "count", Count, false),
    layer("core.binds", "count", Count, true),
    layer("core.role_ref_frac", "fraction", Count, false),
    layer("core.role_assoc_frac", "fraction", Count, true),
    layer("core.role_indep_frac", "fraction", Count, false),
    layer("delta.encodes_per_kop", "1/kop", Count, false),
    layer("delta.decodes_per_kop", "1/kop", Count, false),
    layer("delta.sig_probes_per_kop", "1/kop", Count, false),
    layer("delta.sig_bind_ratio", "fraction", Count, true),
    layer("delta.mean_delta_bytes", "B", Count, false),
    layer("delta.encodes_per_delta_write", "ratio", Count, false),
    layer("delta.ref_cache_hit_ratio", "fraction", Count, true),
    layer("delta.encode_ns_per_block", "ns", Host, false),
    layer("delta.encode_cached_ns_per_block", "ns", Host, false),
    layer("delta.decode_ns_per_block", "ns", Host, false),
    layer("delta.signature_ns_per_block", "ns", Host, false),
    layer("delta.est_share", "fraction", Host, false),
    layer("storage.ssd_reads_per_kop", "1/kop", Count, false),
    layer("storage.ssd_programs_per_kop", "1/kop", Count, false),
    layer("storage.ssd_gc_programs_per_kop", "1/kop", Count, false),
    layer("storage.ssd_erases", "count", Count, false),
    layer("storage.hdd_reads_per_kop", "1/kop", Count, false),
    layer("storage.hdd_writes_per_kop", "1/kop", Count, false),
    layer("storage.ssd_busy_frac", "fraction", Sim, false),
    layer("storage.hdd_busy_frac", "fraction", Sim, false),
    layer("storage.hdd_queued_frac", "fraction", Sim, false),
    layer("storage.ssd_life_used", "fraction", Sim, false),
    layer("storage.hdd_ns_per_op", "ns", Host, false),
    layer("storage.ssd_read_ns_per_op", "ns", Host, false),
    layer("storage.ssd_program_ns_per_op", "ns", Host, false),
    layer("storage.est_share", "fraction", Host, false),
    layer("storage.trace_events_per_op", "1/op", Count, false),
    layer("metrics.hist_record_ns", "ns", Host, false),
    layer("metrics.jsonl_ns_per_event", "ns", Host, false),
    layer("baselines.lru_host_ops_per_s", "ops/s", Host, true),
    layer("baselines.lru_sim_tx_per_s", "tx/s", Sim, true),
    layer("bench.trace_overhead_ratio", "ratio", Host, false),
    layer("bench.repeat_spread", "fraction", Host, false),
    layer("bench.calib_ns", "ns", Host, false),
    layer("bench.mirror_match", "count", Count, true),
];

/// What `--list` prints: every workload and metric name, one per line,
/// each after the `BENCHMARK.json` section it belongs to.
pub fn list() -> String {
    let mut out = String::new();
    for w in &crate::workloads::ALL {
        out += &format!("workload {}\n", w.name);
    }
    for m in &END_TO_END {
        out += &format!("end_to_end {}\n", m.name);
    }
    for m in &PER_LAYER {
        out += &format!("per_layer {}\n", m.name);
    }
    out
}

/// Measured values by metric name. Setting a name that is not in `table`
/// or a value that is not finite is a bug in the benchmark and panics.
#[derive(Debug)]
pub struct Values {
    table: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// An empty set of values for `table`.
    pub fn new(table: &'static [Metric]) -> Self {
        Values {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Records `value` for `name`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name or a non-finite value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|m| m.name == name),
            "{name} is not a registered metric"
        );
        assert!(value.is_finite(), "{name} = {value} is not a number");
        self.values.insert(name, value);
    }

    /// The value recorded for `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was never set.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("{name} was never measured"))
    }

    /// Every metric of the table with its value, in table order.
    ///
    /// # Panics
    ///
    /// Panics if any metric of the table was never set: every name prints,
    /// every time.
    pub fn rows(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        self.table.iter().map(|m| (m, self.get(m.name)))
    }
}

/// `a / b`, or 0 when there was nothing to divide by (a workload that
/// never took the path the ratio describes).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    fn valid(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid(m.name, "_.-", 64), "bad name {:?}", m.name);
            assert!(
                m.name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{}",
                m.name
            );
            assert!(valid(m.unit, "_/%.-", 16), "bad unit {:?}", m.unit);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        for w in &ALL {
            assert!(valid(w.name, "_.-", 64));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(seen.insert(w.name), "{} is used twice", w.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.higher_is_better), ("s", false));
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(bound <= setup.bound.unwrap(), "setup_s has the largest");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let want = m.benchmark_json();
            assert!(text.contains(&want), "BENCHMARK.json lacks {want}");
        }
        for w in &ALL {
            let want = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(text.contains(&want), "BENCHMARK.json lacks {want}");
        }
        let want = format!("\"run_seconds\": {},", crate::run::DEFAULT_SECONDS);
        assert!(text.contains(&want), "BENCHMARK.json lacks {want}");
    }

    #[test]
    fn list_prints_exactly_the_names_in_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let mut declared: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote"))
            .collect();
        let listed = list();
        let mut listed: Vec<&str> = listed
            .lines()
            .map(|l| l.split(' ').nth(1).expect("section and name"))
            .collect();
        declared.sort_unstable();
        listed.sort_unstable();
        assert_eq!(listed, declared);
    }
}
