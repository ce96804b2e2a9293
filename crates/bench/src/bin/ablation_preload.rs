//! Ablation: offline image preparation (paper §3.2) on vs off.
//!
//! The paper's VM-image case derives deltas and installs references when
//! images are *created*; without it, I-CASH discovers similarity online
//! through the periodic scan and pays mechanical reads for every cold
//! block. This ablation runs the same SysBench stream both ways.

use icash_bench::harness::cell_driver;
use icash_core::{Icash, IcashConfig};
use icash_metrics::report::table;
use icash_storage::cpu::CpuModel;
use icash_storage::system::{IoCtx, StorageSystem};
use icash_workloads::content::ContentModel;
use icash_workloads::driver::run_benchmark;
use icash_workloads::sysbench;
use icash_workloads::trace::{Trace, TracePlayer};
use icash_workloads::workload::Workload;

fn main() {
    let ops = icash_bench::RunConfig::from_env().ops.unwrap_or(40_000);
    let spec = sysbench::spec().scaled_to_ops(ops);
    let mut source = icash_workloads::MixedWorkload::new(spec.clone(), 1);
    let universe = source.address_universe();
    let trace = Trace::record(&mut source, ops);

    let mut rows = Vec::new();
    for (name, preload) in [
        ("online-only discovery", false),
        ("preloaded image (§3.2)", true),
    ] {
        let mut system = Icash::new(
            IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes).build(),
        );
        let mut model = ContentModel::new(1, spec.profile.clone());
        if preload {
            let mut cpu = CpuModel::xeon();
            let mut ctx = IoCtx::new(&model, &mut cpu);
            system.preload_image(&universe, &mut ctx);
        }
        let mut player = TracePlayer::new(spec.clone(), trace.clone());
        let cfg = cell_driver(ops, spec.clients);
        // `run_benchmark` preloads any system whose trait impl supports
        // it, which would defeat the ablation: wrap the controller so the
        // driver sees the default no-op preload, and perform the §3.2
        // preparation explicitly (above) for the preloaded arm only.
        struct NoPreload<S>(S);
        impl<S: StorageSystem> StorageSystem for NoPreload<S> {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn submit(
                &mut self,
                req: &icash_storage::Request,
                ctx: &mut IoCtx<'_>,
            ) -> icash_storage::Completion {
                self.0.submit(req, ctx)
            }
            fn flush(&mut self, now: icash_storage::Ns, ctx: &mut IoCtx<'_>) -> icash_storage::Ns {
                self.0.flush(now, ctx)
            }
            fn report(&self, elapsed: icash_storage::Ns) -> icash_storage::SystemReport {
                self.0.report(elapsed)
            }
            // preload: default no-op — the ablation's point.
        }
        let s = {
            let mut wrapped = NoPreload(system);
            let summary = run_benchmark(&mut wrapped, &mut player, &mut model, &cfg);
            system = wrapped.0;
            summary
        };
        let st = system.stats();
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", s.transactions_per_sec()),
            format!("{:.1}", s.read_mean_us()),
            format!(
                "{:.1}%",
                st.home_reads as f64 / st.reads.max(1) as f64 * 100.0
            ),
            format!("{}", s.ssd_writes),
        ]);
    }
    print!(
        "{}",
        table(
            "Ablation: offline image preparation (SysBench)",
            &["mode", "tx/s", "read_us", "home_reads", "ssd_writes"],
            &rows,
        )
    );
}
