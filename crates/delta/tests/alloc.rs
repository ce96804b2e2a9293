//! A stored delta owns exactly its payload.
//!
//! Deltas sit in the controller's RAM buffer, so a payload allocation with
//! slack in it is RAM the buffer's accounting does not see; and an encode
//! that grows, shrinks and copies its output before storing it pays the
//! allocator several times per block. These tests count, through a counting
//! global allocator, what one warm encode asks for.

mod counting_alloc;

use counting_alloc::allocated_by;
use icash_delta::codec::{DeltaCodec, Encoding};

#[test]
fn a_stored_payload_is_one_exact_size_allocation() {
    let reference: Vec<u8> = (0..4096).map(|i| ((i * 31 + i / 7) % 256) as u8).collect();
    let mut clustered = reference.clone();
    for cluster in 0..4usize {
        for b in &mut clustered[cluster * 1000 + 100..][..50] {
            *b = b.wrapping_add(13);
        }
    }
    let mut scattered = reference.clone();
    for b in scattered.iter_mut().step_by(6) {
        *b ^= 0x5A;
    }

    let codec = DeltaCodec::default();
    // A short payload, and one longer than an eighth of a block.
    for (target, longer_than) in [(&clustered, 0), (&scattered, 512)] {
        // The first encode sizes the codec's scratch.
        codec.encode(&reference, target);
        let (delta, calls, bytes) = allocated_by(|| codec.encode(&reference, target));
        assert_eq!(delta.encoding(), Encoding::Sparse);
        assert!(delta.len() > longer_than, "payload of {}", delta.len());
        assert_eq!(calls, 1, "one allocation, the payload's");
        // The shared buffer's two reference counts ride in front of it, and
        // the whole is padded to their alignment.
        let word = std::mem::size_of::<usize>();
        assert_eq!(
            bytes,
            (delta.len() + 2 * word).next_multiple_of(word),
            "payload of {}",
            delta.len()
        );
    }
}

proptest::proptest! {
    /// An identity delta has no payload to own: encoding a block against
    /// itself, whatever it holds and whatever the codec encoded before,
    /// asks the allocator for nothing.
    #[test]
    fn an_identity_encode_allocates_nothing(
        seed in proptest::strategy::any::<u64>(),
        kind in 0u8..3,
        warm in proptest::strategy::any::<bool>(),
    ) {
        let mut state = seed | 1;
        let block: Vec<u8> = (0..4096usize)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match kind {
                    0 => 0,
                    1 => (i / 64) as u8,
                    _ => state as u8,
                }
            })
            .collect();
        let codec = DeltaCodec::default();
        if warm {
            let unrelated: Vec<u8> = block.iter().map(|b| b.wrapping_mul(31) ^ 0x5A).collect();
            codec.encode(&block, &unrelated);
        }
        let same = block.clone();
        // The one empty buffer every identity payload is a clone of.
        let _ = icash_delta::Delta::identity();
        let (delta, calls, bytes) = allocated_by(|| codec.encode(&block, &same));
        proptest::prop_assert_eq!(delta.encoding(), Encoding::Identity);
        proptest::prop_assert_eq!((calls, bytes), (0, 0));
    }
}
