//! The family-base memo is invisible.
//!
//! `ContentModel` remembers the family bases it has generated in a small
//! direct-mapped table. Whatever the table holds — empty, warm, or just
//! overwritten by a colliding family — a long-lived model must return, call
//! for call, what a model created for that one call returns.

use icash_storage::block::{BlockBuf, Lba};
use icash_storage::system::ContentSource;
use icash_workloads::content::{ContentModel, ContentProfile};
use proptest::prelude::*;
use std::collections::HashMap;

const SEED: u64 = 0x5EED_0003;

/// Twelve blocks over four families whose ids are 1024 apart — the same
/// slot of any power-of-two table up to that size — two members each, plus
/// a VM-tagged clone of each first member.
fn lbas(profile: &ContentProfile) -> Vec<Lba> {
    (0..4u64)
        .flat_map(|k| {
            let first = Lba::new((3 + 1024 * k) * profile.family_blocks);
            [first, first.plus(5), first.with_vm(2)]
        })
        .collect()
}

/// A model under test beside the versions it ought to be at.
#[derive(Clone)]
struct Tracked {
    model: ContentModel,
    versions: HashMap<Lba, u32>,
}

impl Tracked {
    fn new(profile: &ContentProfile) -> Self {
        Tracked {
            model: ContentModel::new(SEED, profile.clone()),
            versions: HashMap::new(),
        }
    }

    /// Runs one call on the long-lived model; returns what it returned and
    /// what a model with nothing memoised returns for the same block.
    fn step(&mut self, (call, lba, version): (u8, Lba, u32)) -> (BlockBuf, BlockBuf) {
        let current = self.versions.entry(lba).or_insert(0);
        let (got, version) = match call {
            0 => (self.model.content_at(lba, version), version),
            1 => (self.model.current_content(lba), *current),
            2 => (self.model.initial_content(lba), 0),
            _ => {
                *current += 1;
                (self.model.write_payload(lba), *current)
            }
        };
        let fresh = ContentModel::new(SEED, self.model.profile().clone());
        (got, fresh.content_at(lba, version))
    }
}

fn profile() -> impl Strategy<Value = ContentProfile> {
    prop_oneof![
        Just(ContentProfile::database()),
        Just(ContentProfile::file_server()),
        Just(ContentProfile::log_text()),
        Just(ContentProfile::vm_images()),
    ]
}

/// `(call, block index, version)` triples; the index is reduced modulo the
/// block list.
fn calls() -> impl Strategy<Value = Vec<(u8, usize, u32)>> {
    prop::collection::vec((0u8..4, 0usize..12, 0u32..4), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_interleaving_matches_a_fresh_model(profile in profile(), calls in calls()) {
        let lbas = lbas(&profile);
        let mut tracked = Tracked::new(&profile);
        for (call, i, version) in calls {
            let (got, expected) = tracked.step((call, lbas[i % lbas.len()], version));
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn a_clone_diverges_independently(
        profile in profile(),
        shared in calls(),
        ours in calls(),
        theirs in calls(),
    ) {
        let lbas = lbas(&profile);
        let at = |(call, i, version): (u8, usize, u32)| (call, lbas[i % lbas.len()], version);
        let mut source = Tracked::new(&profile);
        for call in shared {
            source.step(at(call));
        }
        let mut clone = source.clone();
        // Interleave the two histories: neither model's writes, nor what
        // either leaves in its memo, may show in the other.
        let mut theirs = theirs.into_iter();
        for call in ours {
            let (got, expected) = source.step(at(call));
            prop_assert_eq!(got, expected);
            if let Some(call) = theirs.next() {
                let (got, expected) = clone.step(at(call));
                prop_assert_eq!(got, expected);
            }
        }
        for &lba in &lbas {
            let version = clone.versions.get(&lba).copied().unwrap_or(0);
            prop_assert_eq!(clone.model.version_of(lba), version);
        }
    }
}
