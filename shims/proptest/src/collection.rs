//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use rand::Rng;
use std::ops::{Range, RangeInclusive};

/// Length specifications accepted by [`vec()`].
pub trait SizeRange {
    /// Draws a length.
    fn pick(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for Range<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl SizeRange for usize {
    fn pick(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

/// Strategy producing vectors of `element` values with lengths drawn
/// from `size`.
pub struct VecStrategy<S, R> {
    element: S,
    size: R,
}

impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Vectors of `element` with length in `size` (`vec(any::<u8>(), 0..6)`).
pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
    VecStrategy { element, size }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::any;

    #[test]
    fn vec_lengths_in_range() {
        let mut rng = TestRng::for_test("vec_lengths_in_range");
        let s = vec(any::<u8>(), 2..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    #[test]
    fn fixed_size() {
        let mut rng = TestRng::for_test("fixed_size");
        assert_eq!(vec(any::<u8>(), 7usize).generate(&mut rng).len(), 7);
    }
}
