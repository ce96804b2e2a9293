//! A materialised block is one allocation.
//!
//! Every write the harness issues carries 4 KB of generated content and
//! every delta read decodes into 4 KB, so a constructor that allocates
//! twice (a `Vec`, then the shared buffer it is copied into) is paid per
//! block. These tests pin, through the counting allocator the codec's
//! allocation test uses, that the in-place constructors and the paths built
//! on them ask for exactly one block-sized allocation, and that what they
//! build is what `BlockBuf::from_vec` would have built.

#[path = "../crates/delta/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocated_by;
use icash::delta::codec::{DecodeError, DeltaCodec};
use icash::storage::block::{BlockBuf, Lba, BLOCK_SIZE};
use icash::workloads::content::{ContentModel, ContentProfile};

/// One shared 4 KB buffer: the bytes plus the two reference counts in front.
const ONE_BLOCK: (usize, usize) = (1, BLOCK_SIZE + 2 * std::mem::size_of::<usize>());

fn patterned() -> Vec<u8> {
    (0..BLOCK_SIZE)
        .map(|i| ((i * 31 + i / 7) % 256) as u8)
        .collect()
}

#[test]
fn in_place_constructors_equal_from_vec_in_one_allocation() {
    let src = patterned();
    let mut edited = src.clone();
    edited[100..200].fill(0xEE);

    let (block, calls, bytes) =
        allocated_by(|| BlockBuf::edit_copy(&src, |buf| buf[100..200].fill(0xEE)));
    assert_eq!(block, BlockBuf::from_vec(edited.clone()));
    assert_eq!((calls, bytes), ONE_BLOCK, "edit_copy");

    let (block, calls, bytes) = allocated_by(|| {
        BlockBuf::try_edit_copy(&src, |buf| {
            buf[100..200].fill(0xEE);
            Ok::<(), ()>(())
        })
    });
    assert_eq!(block, Ok(BlockBuf::from_vec(edited)));
    assert_eq!((calls, bytes), ONE_BLOCK, "try_edit_copy");

    let (block, calls, bytes) = allocated_by(|| BlockBuf::filled(0xAB));
    assert_eq!(block, BlockBuf::from_vec(vec![0xAB; BLOCK_SIZE]));
    assert_eq!((calls, bytes), ONE_BLOCK, "filled");
}

#[test]
fn a_refused_edit_hands_out_no_block() {
    let built = BlockBuf::try_edit_copy(&patterned(), |buf| {
        buf[..100].fill(1); // half-edited when the failure is noticed
        Err("refused")
    });
    assert_eq!(built, Err("refused"));
}

#[test]
#[should_panic(expected = "4096")]
fn edit_copy_rejects_a_wrong_sized_source() {
    let _ = BlockBuf::edit_copy(&[0; 100], |_| {});
}

#[test]
fn generated_content_is_one_allocation_per_block() {
    let model = ContentModel::new(7, ContentProfile::database());
    let shared = (0..64)
        .map(Lba::new)
        .find(|&lba| !model.is_unique(lba))
        .unwrap();
    let unique = (0..2000)
        .map(Lba::new)
        .find(|&lba| model.is_unique(lba))
        .unwrap();
    // The first shared block allocates the memo and generates the base.
    model.content_at(shared, 0);
    for (lba, version) in [(shared, 0), (shared, 3), (shared.plus(1), 1), (unique, 2)] {
        let (_, calls, bytes) = allocated_by(|| model.content_at(lba, version));
        assert_eq!((calls, bytes), ONE_BLOCK, "{lba} v{version}");
    }
}

#[test]
fn a_decoded_block_is_one_allocation() {
    let reference = patterned();
    let mut target = reference.clone();
    target[300..420].fill(0x11);
    let codec = DeltaCodec::default();
    let delta = codec.encode(&reference, &target);
    let (block, calls, bytes) = allocated_by(|| {
        BlockBuf::try_edit_copy(&reference, |out| codec.decode_into(&reference, &delta, out))
    });
    assert_eq!(block, Ok::<_, DecodeError>(BlockBuf::from_vec(target)));
    assert_eq!((calls, bytes), ONE_BLOCK);
}
