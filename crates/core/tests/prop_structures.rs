//! Model-checked property tests of the controller's data structures: the
//! block table's map/LRU coherence and its residency index, the segment
//! pool's conservation law, and the delta log's pack/locate invariants.
//! (The stamp line itself is checked against a `VecDeque` model in
//! `icash-storage`'s `prop_lru.rs`.)

use icash_core::delta_log::{DeltaLog, LogEntry};
use icash_core::segment::SegmentPool;
use icash_core::table::{BlockTable, Resident};
use icash_core::virtual_block::VirtualBlock;
use icash_delta::codec::DeltaCodec;
use icash_delta::signature::BlockSignature;
use icash_storage::block::Lba;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Table lookups stay coherent with inserts/removes/touches.
    #[test]
    fn table_map_and_lru_stay_coherent(ops in prop::collection::vec((0u64..32, 0u8..3), 1..200)) {
        let mut table = BlockTable::new();
        let mut present: std::collections::HashSet<u64> = Default::default();
        for (lba, kind) in ops {
            let key = Lba::new(lba);
            match kind {
                0 => {
                    if !present.contains(&lba) {
                        table.insert(VirtualBlock::independent(
                            key,
                            BlockSignature::from_raw([0; 8]),
                        ));
                        present.insert(lba);
                    }
                }
                1 => {
                    if let Some(id) = table.lookup(key) {
                        table.touch(id);
                    }
                }
                _ => {
                    if let Some(id) = table.lookup(key) {
                        table.remove(id);
                        present.remove(&lba);
                    }
                }
            }
            table.validate();
            prop_assert_eq!(table.len(), present.len());
            for &l in &present {
                let id = table.lookup(Lba::new(l)).expect("present lba must resolve");
                prop_assert_eq!(table.get(id).lba, Lba::new(l));
            }
        }
    }

    /// The residency index enumerates each class's holders exactly as a
    /// full LRU walk filtered by who holds what would — through touches of
    /// holders, gains on blocks far from the head, slot reuse, and walks
    /// that drop some victims and skip others. (Too few stamps to renumber:
    /// `table.rs`'s own proptest covers that.)
    #[test]
    fn residency_index_matches_a_filtered_lru_walk(
        ops in prop::collection::vec((0u64..24, 0u8..10, any::<u16>()), 1..300),
    ) {
        const CLASSES: [Resident; 2] = [Resident::Data, Resident::Delta];
        let mut table = BlockTable::new();
        let mut holds: std::collections::HashSet<(u64, usize)> = Default::default();
        // Tail → head holders of class `c`, from the kept full walk.
        let oracle = |table: &BlockTable, holds: &std::collections::HashSet<(u64, usize)>, c| {
            let mut ids = table.head_ids(usize::MAX);
            ids.reverse();
            ids.retain(|&id| holds.contains(&(table.get(id).lba.raw(), c)));
            ids
        };
        for (lba, kind, bits) in ops {
            let c = (bits & 1) as usize;
            let id = table.lookup(Lba::new(lba));
            match (kind, id) {
                (0, None) => {
                    let sig = BlockSignature::from_raw([0; 8]);
                    table.insert(VirtualBlock::independent(Lba::new(lba), sig));
                }
                (1, Some(id)) => {
                    table.remove(id);
                    holds.retain(|&(l, _)| l != lba);
                }
                (2..=3, Some(id)) => table.touch(id),
                (4..=5, Some(id)) => {
                    table.set_resident(id, CLASSES[c], true);
                    holds.insert((lba, c));
                }
                (6, Some(id)) => {
                    table.set_resident(id, CLASSES[c], false);
                    holds.remove(&(lba, c));
                }
                (7, _) => {
                    // A replacement pass: visit every holder in order, drop
                    // the ones `bits` picks, leave the rest where they are.
                    let want = oracle(&table, &holds, c);
                    let mut got = Vec::new();
                    let mut last = None;
                    while let Some(id) = table.next_resident(CLASSES[c], last) {
                        if bits >> (got.len() % 15 + 1) & 1 == 1 {
                            table.set_resident(id, CLASSES[c], false);
                            holds.remove(&(table.get(id).lba.raw(), c));
                        }
                        got.push(id);
                        last = Some(id);
                    }
                    prop_assert_eq!(got, want);
                }
                _ => {}
            }
            table.validate();
            for (c, &class) in CLASSES.iter().enumerate() {
                for id in table.head_ids(usize::MAX) {
                    let held = holds.contains(&(table.get(id).lba.raw(), c));
                    prop_assert_eq!(table.is_resident(id, class), held);
                }
            }
        }
        for (c, &class) in CLASSES.iter().enumerate() {
            let want = oracle(&table, &holds, c);
            let got: Vec<_> = std::iter::successors(table.next_resident(class, None), |&id| {
                table.next_resident(class, Some(id))
            })
            .collect();
            prop_assert_eq!(got, want);
        }
    }

    /// Segment-pool conservation: used never exceeds capacity, frees return
    /// exactly what allocation charged.
    #[test]
    fn segment_pool_conserves_bytes(lens in prop::collection::vec(0usize..5000, 1..64)) {
        let mut pool = SegmentPool::new(1 << 20, 64);
        let mut charges = Vec::new();
        for len in &lens {
            if pool.fits_delta(*len) {
                charges.push(pool.alloc_delta(*len));
            }
        }
        let total: usize = charges.iter().sum();
        prop_assert_eq!(pool.used(), total);
        prop_assert!(pool.used() <= pool.capacity());
        for c in charges {
            pool.free(c);
        }
        prop_assert_eq!(pool.used(), 0);
    }

    /// Every appended log entry is locatable at its reported block, and
    /// blocks never exceed 4 KB.
    #[test]
    fn delta_log_locates_every_entry(tags in prop::collection::vec((0u64..500, 0usize..1500), 1..100)) {
        let codec = DeltaCodec::default();
        let reference = vec![0u8; 4096];
        let mut log = DeltaLog::new(4096);
        let entries: Vec<LogEntry> = tags
            .iter()
            .map(|(lba, changed)| {
                let mut target = reference.clone();
                for i in 0..*changed {
                    target[i % 4096] = (i % 251) as u8 + 1;
                }
                LogEntry::new(
                    Lba::new(*lba),
                    Lba::new(lba + 10_000),
                    *lba + 1,
                    codec.encode(&reference, &target),
                )
            })
            .collect();
        let lbas: Vec<Lba> = entries.iter().map(|e| e.lba).collect();
        let report = log.append(entries);
        prop_assert_eq!(report.entry_locs.len(), lbas.len());
        for (lba, loc) in lbas.iter().zip(report.entry_locs.iter()) {
            let packed = log.fetch(*loc);
            prop_assert!(packed.bytes <= 4096);
            prop_assert!(
                packed.entries.iter().any(|e| e.lba == *lba),
                "entry not in its reported block"
            );
        }
    }
}
