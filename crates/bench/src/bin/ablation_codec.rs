//! Ablation: signature scheme and codec (paper §4.2 argues cheap
//! sampled-byte sums beat hashing for *similarity* detection, and §3.1
//! relies on fast delta coding).
//!
//! Measures, over the evaluation's content regimes: the delta size the
//! sparse codec produces for a block against its family sibling, how many
//! of those deltas fit the bind threshold, and what full-block hashing
//! would have missed (any single-byte change defeats an identity hash).

use icash_delta::codec::{sparse, DeltaCodec};
use icash_delta::signature::BlockSignature;
use icash_metrics::report::table;
use icash_storage::block::Lba;
use icash_workloads::content::{ContentModel, ContentProfile};

fn main() {
    let profiles: Vec<(&str, ContentProfile)> = vec![
        ("database", ContentProfile::database()),
        ("file_server", ContentProfile::file_server()),
        ("log_text", ContentProfile::log_text()),
        ("mail_store", ContentProfile::mail_store()),
        ("vm_images", ContentProfile::vm_images()),
        ("incompressible", ContentProfile::incompressible()),
    ];
    let codec = DeltaCodec::default();
    let mut rows = Vec::new();
    for (name, profile) in profiles {
        let model = ContentModel::new(99, profile);
        let mut sparse_sum = 0usize;
        let mut identical = 0usize;
        let mut sig_close = 0usize;
        let mut bindable = 0usize;
        let pairs = 400usize;
        for i in 0..pairs {
            // A block and its family sibling — the pairing the scanner makes.
            let a = model.content_at(Lba::new(i as u64 * 2), 1);
            let b = model.content_at(Lba::new(i as u64 * 2 + 1), 1);
            let s = sparse::encode(a.as_slice(), b.as_slice());
            sparse_sum += s.len();
            if a == b {
                identical += 1;
            }
            if BlockSignature::of(a.as_slice()).distance(&BlockSignature::of(b.as_slice())) <= 5 {
                sig_close += 1;
            }
            if codec.encode(a.as_slice(), b.as_slice()).len() <= 2_048 {
                bindable += 1;
            }
        }
        rows.push(vec![
            name.to_string(),
            format!("{}", sparse_sum / pairs),
            format!("{:.0}%", bindable as f64 / pairs as f64 * 100.0),
            format!("{:.0}%", sig_close as f64 / pairs as f64 * 100.0),
            format!("{:.0}%", identical as f64 / pairs as f64 * 100.0),
        ]);
    }
    print!(
        "{}",
        table(
            "Ablation: codec + signature over sibling-block pairs",
            &[
                "profile",
                "sparse_B",
                "bindable",
                "sig<=5",
                "identical(hash-visible)",
            ],
            &rows,
        )
    );
    println!(
        "\n'identical' is all a full-block hash (dedup) can exploit; 'bindable'\n\
         is what delta coding exploits — the gap is the paper's similarity\n\
         argument (§4.2)."
    );
}
