//! Multi-VM integration: five tagged virtual machines over one storage
//! element — data isolation between VMs, cross-VM content sharing in
//! I-CASH, and oracle-verified reads throughout.

use icash::core::{Icash, IcashConfig};
use icash::workloads::content::{ContentModel, ContentProfile};
use icash::workloads::driver::{run_benchmark, DriverConfig};
use icash::workloads::vm::MultiVm;
use icash::workloads::{tpcc, Workload};

fn small_vms(seed: u64) -> MultiVm {
    MultiVm::homogeneous(5, seed, |i| {
        let mut spec = tpcc::spec();
        spec.data_bytes = 16 << 20;
        spec.profile = ContentProfile::vm_images();
        (spec, i as u64)
    })
}

#[test]
fn five_vms_verify_against_the_oracle() {
    let mut workload = small_vms(3);
    let spec = workload.spec().clone();
    let mut system = Icash::new(
        IcashConfig::builder(4 << 20, 2 << 20, spec.data_bytes)
            .scan_interval(200)
            .scan_window(256)
            .flush_interval(100)
            .build(),
    );
    let mut model = ContentModel::new(3, ContentProfile::vm_images());
    let cfg = DriverConfig::new(3_000).clients(8).verify();
    // Verification asserts per-read correctness, including VM isolation:
    // vm2's block at offset X must never return vm1's version.
    let summary = run_benchmark(&mut system, &mut workload, &mut model, &cfg);
    assert_eq!(summary.ops, 3_000);
}

#[test]
fn icash_shares_references_across_cloned_vms() {
    let mut workload = small_vms(9);
    let spec = workload.spec().clone();
    let mut system = Icash::new(
        IcashConfig::builder(4 << 20, 2 << 20, spec.data_bytes)
            .scan_interval(200)
            .scan_window(256)
            .build(),
    );
    let mut model = ContentModel::new(9, ContentProfile::vm_images());
    let cfg = DriverConfig::new(4_000).clients(8);
    let _ = run_benchmark(&mut system, &mut workload, &mut model, &cfg);

    let stats = system.stats();
    let (refs, assocs, _) = stats.role_fractions();
    // Cloned images: far more associates than references — one reference
    // serves its siblings across every VM.
    assert!(
        assocs > refs,
        "expected reference sharing, got refs={refs:.2} assocs={assocs:.2}"
    );
    assert!(
        stats.delta_write_fraction() > 0.5,
        "most writes should be absorbed as deltas, got {:.2}",
        stats.delta_write_fraction()
    );
}

#[test]
fn vm_universe_covers_all_machines() {
    let workload = small_vms(1);
    let universe = workload.address_universe();
    assert_eq!(universe.len(), 5);
    let vms: Vec<u8> = universe.iter().map(|(vm, _)| *vm).collect();
    assert_eq!(vms, vec![1, 2, 3, 4, 5]);
    for (_, blocks) in universe {
        assert_eq!(blocks, (16 << 20) / 4096);
    }
}
