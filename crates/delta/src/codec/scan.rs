//! Word-at-a-time byte scanning primitives for the codec hot paths.
//!
//! The sparse codec spends its time finding where two blocks start and stop
//! differing, which reduces to "find the first position where two slices
//! agree/disagree". These helpers answer that eight bytes per step: load
//! `u64` words, XOR them, and locate the interesting byte with bit tricks
//! instead of a byte-by-byte loop.
//!
//! All results are position-exact and independent of host endianness:
//! `u64::from_le_bytes` maps memory byte `j` to bits `8j..8j+8`, so
//! `trailing_zeros() / 8` is the in-memory offset of the first differing
//! (or first equal) byte on both little- and big-endian targets.

/// Length of the longest common prefix of `a` and `b`.
///
/// Equivalent to `zip(a, b).take_while(|(x, y)| x == y).count()`.
#[inline]
pub(crate) fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n {
        let wa = u64::from_le_bytes(a[i..i + 8].try_into().expect("8-byte window"));
        let wb = u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte window"));
        let x = wa ^ wb;
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// First index `>= from` where `a` and `b` differ, or `n` if they agree to
/// the end. `a` and `b` must have equal length.
#[inline]
pub(crate) fn mismatch_from(a: &[u8], b: &[u8], from: usize) -> usize {
    debug_assert_eq!(a.len(), b.len());
    from + common_prefix_len(&a[from..], &b[from..])
}

/// First index `>= from` where `a` and `b` agree, or `n` if they differ to
/// the end. `a` and `b` must have equal length.
///
/// Uses the SWAR zero-byte test (`haszero` from the bit-twiddling
/// literature): for `x = wa ^ wb`, the expression
/// `x.wrapping_sub(LOW_ONES) & !x & HIGH_BITS` has its *lowest* set bit in
/// the lane of the first zero byte of `x`; higher lanes may carry spurious
/// bits, but `trailing_zeros` only looks at the lowest, so the answer is
/// exact.
#[inline]
pub(crate) fn match_from(a: &[u8], b: &[u8], from: usize) -> usize {
    debug_assert_eq!(a.len(), b.len());
    const LOW_ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
    let n = a.len();
    let mut i = from;
    while i + 8 <= n {
        let wa = u64::from_le_bytes(a[i..i + 8].try_into().expect("8-byte window"));
        let wb = u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte window"));
        let x = wa ^ wb;
        let zeros = x.wrapping_sub(LOW_ONES) & !x & HIGH_BITS;
        if zeros != 0 {
            return i + (zeros.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] != b[i] {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_common_prefix(a: &[u8], b: &[u8]) -> usize {
        a.iter().zip(b).take_while(|(x, y)| x == y).count()
    }

    fn naive_match_from(a: &[u8], b: &[u8], from: usize) -> usize {
        (from..a.len()).find(|&i| a[i] == b[i]).unwrap_or(a.len())
    }

    #[test]
    fn prefix_matches_naive_on_crafted_cases() {
        let cases: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (vec![], vec![]),
            (vec![1], vec![1]),
            (vec![1], vec![2]),
            (vec![0; 64], vec![0; 64]),
            (
                b"hello world, hello world".to_vec(),
                b"hello world, hallo world".to_vec(),
            ),
            // Difference in every lane position of the first word.
            (vec![9; 16], {
                let mut v = vec![9; 16];
                v[7] = 1;
                v
            }),
        ];
        for (a, b) in &cases {
            assert_eq!(common_prefix_len(a, b), naive_common_prefix(a, b));
        }
    }

    #[test]
    fn prefix_handles_every_offset() {
        // Put the first difference at every position of a 40-byte buffer so
        // both the word loop and the byte tail are exercised.
        let a = vec![0xA5u8; 40];
        for diff in 0..40 {
            let mut b = a.clone();
            b[diff] ^= 0xFF;
            assert_eq!(common_prefix_len(&a, &b), diff);
            assert_eq!(mismatch_from(&a, &b, 0), diff);
        }
        assert_eq!(common_prefix_len(&a, &a.clone()), 40);
    }

    #[test]
    fn match_from_handles_every_offset() {
        // All-different buffers with the first equal byte at each position.
        let a = vec![0x00u8; 40];
        let base = vec![0xFFu8; 40];
        for eq in 0..40 {
            let mut b = base.clone();
            b[eq] = 0x00;
            assert_eq!(match_from(&a, &b, 0), naive_match_from(&a, &b, 0));
            assert_eq!(match_from(&a, &b, 0), eq);
        }
        assert_eq!(match_from(&a, &base, 0), 40);
    }

    #[test]
    fn match_from_is_exact_despite_swar_carries() {
        // 0x80 and 0x01 lanes are the classic false-positive candidates for
        // the haszero trick; verify lanes before the true zero don't trigger.
        let a = vec![0x80u8, 0x01, 0x80, 0x01, 0x42, 0x80, 0x01, 0x80, 0x99];
        let b = vec![0x00u8, 0x80, 0x01, 0x80, 0x42, 0x01, 0x80, 0x00, 0x98];
        assert_eq!(match_from(&a, &b, 0), naive_match_from(&a, &b, 0));
        assert_eq!(match_from(&a, &b, 0), 4);
    }

    #[test]
    fn from_offsets_respected() {
        let a = b"aaaaXaaaaXaaaa".to_vec();
        let b = b"aaaaYaaaaYaaaa".to_vec();
        assert_eq!(mismatch_from(&a, &b, 0), 4);
        assert_eq!(mismatch_from(&a, &b, 5), 9);
        assert_eq!(match_from(&a, &b, 4), 5);
        assert_eq!(mismatch_from(&a, &b, 10), 14);
    }
}
