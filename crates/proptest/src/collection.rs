//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;
use std::ops::Range;

/// A strategy for vectors whose elements come from `element` and whose
/// length is uniform over `len`.
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "vec length range must be non-empty");
    VecStrategy { element, len }
}

/// The result of [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = rng.random_range(self.len.clone());
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}
