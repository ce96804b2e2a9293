//! Test configuration and the deterministic per-test RNG.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::OnceLock;

/// How many cases `proptest!` runs per property.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated input cases.
    pub cases: u32,
}

/// `PROPTEST_CASES` when it is set, read once per process.
///
/// # Panics
///
/// Panics if it is set to something other than a case count.
fn cases_from_env() -> Option<u32> {
    static CASES: OnceLock<Option<u32>> = OnceLock::new();
    *CASES.get_or_init(|| {
        let value = std::env::var("PROPTEST_CASES").ok()?;
        let cases = value.parse();
        Some(cases.unwrap_or_else(|_| panic!("PROPTEST_CASES={value:?} is not a case count")))
    })
}

impl ProptestConfig {
    /// A config running `cases` cases per property, or `PROPTEST_CASES` of
    /// them when that is set.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: cases_from_env().unwrap_or(cases),
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self::with_cases(256)
    }
}

/// The RNG strategies draw from. Seeded from the test's full path so every
/// run of a given test sees the same input sequence.
#[derive(Debug, Clone)]
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// A deterministic RNG for the named test.
    pub fn for_test(name: &str) -> Self {
        // FNV-1a over the test path: stable across runs and platforms.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            inner: StdRng::seed_from_u64(h),
        }
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}
