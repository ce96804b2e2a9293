//! Calibration diagnostics: runs one benchmark across the five systems and
//! dumps every metric the figures use plus hit-ratio internals.
//!
//! Usage: `diag [sysbench|hadoop|tpcc|loadsim|specsfs|rubis|tpcc5|rubis5|pressure]`

use icash_bench::config::SEED;
use icash_bench::exhibits::workload_named;
use icash_bench::harness::{cell_driver, PreparedWorkload};
use icash_bench::{Features, RunConfig, SystemKind};
use icash_core::Icash;
use icash_core::IcashConfig;
use icash_workloads::content::ContentModel;
use icash_workloads::driver::run_benchmark;

fn main() {
    let cfg = RunConfig::from_env();
    let which = cfg.args.first().map_or("sysbench", String::as_str);
    let plan = workload_named(which).unwrap_or_else(|| panic!("unknown workload {which}"));
    let prep = PreparedWorkload::record(&cfg, &plan);
    let spec = &prep.spec;
    let driver = cell_driver(prep.ops, spec.clients);

    println!(
        "{:<9} {:>9} {:>9} {:>11} {:>11} {:>7} {:>9} {:>9} {:>8}",
        "system", "tx/s", "ops/s", "read_us", "write_us", "cpu%", "ssd_wr", "hdd_ops", "Wh"
    );
    for kind in SystemKind::ALL {
        let mut system = kind.build(spec, &Features::default());
        let mut model = ContentModel::new(SEED, spec.profile.clone());
        let s = run_benchmark(system.as_mut(), &mut prep.player(), &mut model, &driver);
        let hdd_ops = s.report.hdd.as_ref().map(|h| h.ops()).unwrap_or(0);
        if let Some(h) = &s.report.hdd {
            eprintln!(
                "  {} hdd busy={:.1}% r={} w={} | ssd busy={:.1}%",
                s.system,
                h.utilization(s.elapsed) * 100.0,
                h.reads,
                h.writes,
                s.report
                    .ssd
                    .as_ref()
                    .map(|d| d.utilization(s.elapsed) * 100.0)
                    .unwrap_or(0.0),
            );
        }
        eprintln!(
            "  {} write p50={} p99={} max={} | read p50={} p99={} max={}",
            s.system,
            s.write_latency.percentile(0.5),
            s.write_latency.percentile(0.99),
            s.write_latency.max(),
            s.read_latency.percentile(0.5),
            s.read_latency.percentile(0.99),
            s.read_latency.max(),
        );
        println!(
            "{:<9} {:>9.1} {:>9.1} {:>11.1} {:>11.1} {:>6.1}% {:>9} {:>9} {:>8.3}",
            s.system,
            s.transactions_per_sec(),
            s.ops_per_sec(),
            s.read_mean_us(),
            s.write_mean_us(),
            s.cpu_utilization * 100.0,
            s.ssd_writes,
            hdd_ops,
            s.energy_wh,
        );
        if kind == SystemKind::Icash {
            // Re-run to extract controller internals (cheap at diag scale).
            let mut icash = Icash::new(
                IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes).build(),
            );
            let mut model = ContentModel::new(SEED, spec.profile.clone());
            let _ = run_benchmark(&mut icash, &mut prep.player(), &mut model, &driver);
            let st = icash.stats();
            let (r, a, i) = st.role_fractions();
            println!(
                "  icash: roles ref {:.1}% assoc {:.1}% indep {:.1}% | reads: ram {:.1}% delta {:.1}% log {:.1}% home {:.1}% | writes: delta {:.1}% ssd {:.1}% indep {:.1}% | scans {} flushes {} binds {} installs {}",
                r * 100.0,
                a * 100.0,
                i * 100.0,
                st.ram_hits as f64 / st.reads.max(1) as f64 * 100.0,
                st.delta_hits as f64 / st.reads.max(1) as f64 * 100.0,
                st.log_fetches as f64 / st.reads.max(1) as f64 * 100.0,
                st.home_reads as f64 / st.reads.max(1) as f64 * 100.0,
                st.delta_writes as f64 / st.writes.max(1) as f64 * 100.0,
                st.ssd_direct_writes as f64 / st.writes.max(1) as f64 * 100.0,
                st.independent_writes as f64 / st.writes.max(1) as f64 * 100.0,
                st.scans,
                st.flushes,
                st.binds,
                st.ref_installs,
            );
        }
    }
}
