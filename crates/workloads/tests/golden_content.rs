//! Pinned block content.
//!
//! Every simulated result depends on the bytes `ContentModel` generates
//! (deltas are content dependent, paper §4.4), so how a block is
//! *materialised* may change but what it holds may not. The digests below
//! were recorded at commit `00ac964`, before family bases were memoised and
//! blocks were built in place; `actual()` printed them.

use icash_storage::block::Lba;
use icash_workloads::content::{ContentModel, ContentProfile};

const SEED: u64 = 0x5EED_0001;
const VERSIONS: [u32; 3] = [0, 1, 7];

fn profiles() -> [(&'static str, ContentProfile); 7] {
    [
        ("database", ContentProfile::database()),
        ("file_server", ContentProfile::file_server()),
        ("log_text", ContentProfile::log_text()),
        ("mail_store", ContentProfile::mail_store()),
        ("web_content", ContentProfile::web_content()),
        ("vm_images", ContentProfile::vm_images()),
        ("incompressible", ContentProfile::incompressible()),
    ]
}

/// The first block at or after offset 1000 that `wanted` accepts.
fn first(wanted: impl Fn(Lba) -> bool) -> Option<Lba> {
    (1000..200_000).map(Lba::new).find(|&lba| wanted(lba))
}

/// The probed blocks of one profile: the first and a middle member of a
/// family, a unique block, and a VM-tagged clone of the middle member.
/// The incompressible profile has only unique blocks.
fn cases(model: &ContentModel) -> Vec<(&'static str, Lba)> {
    let family = model.profile().family_blocks;
    let shared_at = |slot: u64| {
        first(|lba| !model.is_unique(lba) && family > 1 && lba.offset() % family == slot)
    };
    let mid = shared_at(family / 2);
    [
        ("family-first", shared_at(0)),
        ("mid-family", mid),
        ("unique", first(|lba| model.is_unique(lba))),
        ("vm-tagged", mid.map(|lba| lba.with_vm(3))),
    ]
    .into_iter()
    .filter_map(|(name, lba)| Some((name, lba?)))
    .collect()
}

/// One line per (profile, case, version): `profile case lba version digest`.
fn actual() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, profile) in profiles() {
        let model = ContentModel::new(SEED, profile);
        for (case, lba) in cases(&model) {
            for version in VERSIONS {
                let digest = model.content_at(lba, version).digest();
                lines.push(format!(
                    "{name} {case} {:#x} {version} {digest:#018x}",
                    lba.raw()
                ));
            }
        }
    }
    lines
}

#[test]
fn content_digests_are_pinned() {
    let golden = include_str!("golden/content_digests.txt");
    let actual = actual().join("\n") + "\n";
    assert_eq!(
        actual, golden,
        "generated block content changed; every simulated result depends on it"
    );
}
