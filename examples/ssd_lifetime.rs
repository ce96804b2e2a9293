//! SSD lifetime projection (paper §5.3): fewer random writes means fewer
//! erases means a longer-lived flash device. Runs the same write-heavy
//! stream through I-CASH and through an LRU cache with the identical flash
//! budget, then projects device life from the measured erase rates.
//!
//! Run with: `cargo run --release --example ssd_lifetime`

use icash::baselines::LruCache;
use icash::core::{Icash, IcashConfig};
use icash::workloads::content::ContentModel;
use icash::workloads::driver::{run_benchmark, DriverConfig};
use icash::workloads::specsfs;
use icash::workloads::trace::{Trace, TracePlayer};
use icash::workloads::MixedWorkload;

fn main() {
    // A write-flood: SPECsfs scaled down, its write-intensive mix intact.
    let mut spec = specsfs::spec().scaled_to_ops(20_000);
    spec.data_bytes = 128 << 20;
    spec.ssd_bytes = 8 << 20;
    spec.ram_bytes = 4 << 20;

    let mut source = MixedWorkload::new(spec.clone(), 5);
    let trace = Trace::record(&mut source, 20_000);

    let report = |name: &str, writes: u64, erases: u64, life: f64, hours: f64| {
        println!(
            "  {name:<8} {writes:>8} flash writes, {erases:>6} erases, \
             {life:.4}% of endurance in {hours:.2} simulated hours"
        );
    };

    println!("write-flood (SPECsfs mix) through the same 8 MB of flash:");

    let mut icash =
        Icash::new(IcashConfig::builder(spec.ssd_bytes, spec.ram_bytes, spec.data_bytes).build());
    let mut player = TracePlayer::new(spec.clone(), trace.clone());
    let mut model = ContentModel::new(5, spec.profile.clone());
    let cfg = DriverConfig::new(20_000).clients(32);
    let s1 = run_benchmark(&mut icash, &mut player, &mut model, &cfg);
    report(
        "I-CASH",
        icash.ssd().stats().writes,
        icash.ssd().wear().total_erases(),
        icash.ssd().wear().life_used() * 100.0,
        s1.elapsed.as_secs_f64() / 3600.0,
    );
    let icash_rate = icash.ssd().wear().life_used() / s1.elapsed.as_secs_f64().max(1e-9);

    let mut lru = LruCache::new(spec.ssd_bytes, spec.data_bytes);
    let mut player = TracePlayer::new(spec.clone(), trace.clone());
    let mut model = ContentModel::new(5, spec.profile.clone());
    let s2 = run_benchmark(&mut lru, &mut player, &mut model, &cfg);
    report(
        "LRU",
        lru.ssd().stats().writes,
        lru.ssd().wear().total_erases(),
        lru.ssd().wear().life_used() * 100.0,
        s2.elapsed.as_secs_f64() / 3600.0,
    );
    let lru_rate = lru.ssd().wear().life_used() / s2.elapsed.as_secs_f64().max(1e-9);

    if icash_rate > 0.0 {
        println!(
            "\nprojected device life: I-CASH wears the flash {:.1}x slower than the\n\
             LRU cache under the identical stream — the paper's §5.3 argument.",
            lru_rate / icash_rate
        );
    } else {
        println!("\nI-CASH produced no measurable wear on this run.");
    }
}
