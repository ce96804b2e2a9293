//! Property-based tests of the device substrate: whatever the op sequence,
//! devices keep time monotonic, account every operation, and the FTL never
//! loses or aliases a mapping.

use icash_storage::hdd::{Hdd, HddConfig};
use icash_storage::ssd::flash::FlashConfig;
use icash_storage::ssd::ftl::Ftl;
use icash_storage::ssd::{Ssd, SsdConfig};
use icash_storage::time::Ns;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum DevOp {
    Read { lba: u64, blocks: u8 },
    Write { lba: u64, blocks: u8 },
}

fn dev_ops(span: u64) -> impl Strategy<Value = Vec<DevOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..span, 1u8..8).prop_map(|(lba, blocks)| DevOp::Read { lba, blocks }),
            (0..span, 1u8..8).prop_map(|(lba, blocks)| DevOp::Write { lba, blocks }),
        ],
        1..150,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// HDD completions never run backwards and each op costs at least its
    /// media transfer time.
    #[test]
    fn hdd_time_is_monotonic_and_positive(ops in dev_ops(10_000)) {
        let mut disk = Hdd::new(HddConfig::seagate_sata(16_384));
        let transfer = disk.config().block_transfer();
        let mut t = Ns::ZERO;
        for op in &ops {
            let done = match op {
                DevOp::Read { lba, blocks } => disk.read(t, *lba, *blocks as u32).unwrap(),
                DevOp::Write { lba, blocks } => disk.write(t, *lba, *blocks as u32).unwrap(),
            };
            let blocks = match op {
                DevOp::Read { blocks, .. } | DevOp::Write { blocks, .. } => *blocks as u64,
            };
            prop_assert!(done >= t + transfer * blocks, "service too cheap");
            t = done;
        }
        prop_assert_eq!(disk.stats().ops(), ops.len() as u64);
    }

    /// HDD service time for the same access pattern is deterministic.
    #[test]
    fn hdd_is_deterministic(ops in dev_ops(10_000)) {
        let run = |ops: &[DevOp]| {
            let mut disk = Hdd::new(HddConfig::seagate_sata(16_384));
            let mut t = Ns::ZERO;
            for op in ops {
                t = match op {
                    DevOp::Read { lba, blocks } => disk.read(t, *lba, *blocks as u32).unwrap(),
                    DevOp::Write { lba, blocks } => disk.write(t, *lba, *blocks as u32).unwrap(),
                };
            }
            t
        };
        prop_assert_eq!(run(&ops), run(&ops));
    }

    /// The FTL keeps the logical→physical map a bijection over mapped pages
    /// under arbitrary write/trim churn, and host-program accounting is
    /// exact.
    #[test]
    fn ftl_mapping_stays_bijective(ops in prop::collection::vec((0u64..96, any::<bool>()), 1..400)) {
        let cfg = FlashConfig {
            channels: 4,
            pages_per_block: 8,
            blocks: 24,
            endurance: 100_000,
            ..FlashConfig::slc(1, 0.0)
        };
        let mut ftl = Ftl::new(cfg, 96);
        let mut mapped: HashMap<u64, ()> = HashMap::new();
        let mut host_writes = 0u64;
        for (lpn, write) in ops {
            if write {
                ftl.write(lpn).expect("space must suffice at 50% fill");
                mapped.insert(lpn, ());
                host_writes += 1;
            } else {
                ftl.trim(lpn);
                mapped.remove(&lpn);
            }
            // Bijection check: every mapped lpn has a distinct ppn.
            let mut seen = std::collections::HashSet::new();
            for &l in mapped.keys() {
                let ppn = ftl.map_read(l).expect("mapped lpn lost");
                prop_assert!(seen.insert(ppn), "ppn aliased");
            }
            prop_assert_eq!(ftl.mapped_pages(), mapped.len() as u64);
        }
        prop_assert_eq!(ftl.gc_stats().host_programs, host_writes);
    }

    /// SSD reads of written pages always succeed and time stays monotonic
    /// per channel stream.
    #[test]
    fn ssd_reads_what_it_wrote(ops in prop::collection::vec(0u64..128, 1..200)) {
        let mut ssd = Ssd::new(SsdConfig::fusion_io(1 << 20));
        let mut written = std::collections::HashSet::new();
        let mut t = Ns::ZERO;
        for (i, lpn) in ops.iter().enumerate() {
            if i % 3 == 0 || !written.contains(lpn) {
                t = t.max(ssd.write(t, *lpn).expect("write"));
                written.insert(*lpn);
            } else {
                t = t.max(ssd.read(t, *lpn).expect("read of written page"));
            }
        }
        prop_assert_eq!(
            ssd.stats().ops(),
            ops.len() as u64
        );
    }
}
