//! Per-element output check against the golden kernel.
//!
//! An element passes when it is bitwise equal to the golden value, or when
//! both are finite and they differ by no more than the standard bound on
//! floating-point summation error: `4 (k + 1) u S`, where `k` is the
//! number of products summed into the element, `u` the f32 unit roundoff
//! and `S` the sum of the products' absolute values (or `|golden|`, if
//! larger). Both the simulated and the golden sum may reassociate, so each
//! side gets `2 (k + 1) u S`. A NaN or an infinity fails against any value
//! it is not bitwise equal to, and a tolerance is never shared across
//! elements, so one large element cannot hide an error in a small one.

use crate::adapter::Reference;

const UNIT_ROUNDOFF: f64 = f32::EPSILON as f64 / 2.0;

/// Whether one simulated element matches its golden value.
pub fn element_ok(got: f32, want: f32, abs_sum: f64, terms: u32) -> bool {
    if got.to_bits() == want.to_bits() {
        return true;
    }
    if !got.is_finite() || !want.is_finite() {
        return false;
    }
    let scale = abs_sum.max(f64::from(want.abs()));
    let tol = 4.0 * (f64::from(terms) + 1.0) * UNIT_ROUNDOFF * scale;
    (f64::from(got) - f64::from(want)).abs() <= tol
}

/// Check a whole output vector; the error names the first bad element.
pub fn check(y: &[f32], r: &Reference) -> Result<(), String> {
    if y.len() != r.y.len() {
        return Err(format!("output has {} elements, golden has {}", y.len(), r.y.len()));
    }
    for (i, (&got, &want)) in y.iter().zip(&r.y).enumerate() {
        if !element_ok(got, want, r.abs_sum[i], r.terms[i]) {
            return Err(format!("y[{i}] = {got:e}, golden {want:e}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(y: Vec<f32>, abs_sum: f64, terms: u32) -> Reference {
        let n = y.len();
        Reference { y, abs_sum: vec![abs_sum; n], terms: vec![terms; n] }
    }

    #[test]
    fn nan_never_passes_against_a_different_value() {
        assert!(!element_ok(f32::NAN, 1.0, 1.0, 10));
        assert!(!element_ok(1.0, f32::NAN, 1.0, 10));
        assert!(!element_ok(f32::NAN, 0.0, 0.0, 0));
        // Two NaNs with different payloads are not the same result.
        assert!(!element_ok(f32::NAN, f32::from_bits(f32::NAN.to_bits() ^ 1), 1.0, 10));
        // The identical NaN bit pattern is bitwise equal.
        assert!(element_ok(f32::NAN, f32::NAN, 1.0, 10));
    }

    #[test]
    fn infinities_fail_against_finite_and_opposite_values() {
        assert!(!element_ok(f32::INFINITY, 1.0, 1.0, 10));
        assert!(!element_ok(1.0, f32::INFINITY, f64::INFINITY, 10));
        assert!(!element_ok(f32::NEG_INFINITY, f32::INFINITY, f64::INFINITY, 10));
        assert!(!element_ok(f32::MAX, f32::INFINITY, f64::INFINITY, 10));
        assert!(element_ok(f32::INFINITY, f32::INFINITY, f64::INFINITY, 10));
    }

    #[test]
    fn one_infinite_golden_element_does_not_loosen_the_others() {
        let r = Reference {
            y: vec![f32::INFINITY, 1.0],
            abs_sum: vec![f64::INFINITY, 1.0],
            terms: vec![3, 3],
        };
        assert!(check(&[f32::INFINITY, 1.0], &r).is_ok());
        assert!(check(&[f32::INFINITY, 2.0], &r).is_err());
        assert!(check(&[f32::INFINITY, f32::NAN], &r).is_err());
    }

    #[test]
    fn signed_zeros_are_equal() {
        assert!(element_ok(-0.0, 0.0, 0.0, 0));
        assert!(element_ok(0.0, -0.0, 0.0, 0));
        // A non-zero result against an empty row's zero fails.
        assert!(!element_ok(f32::MIN_POSITIVE, 0.0, 0.0, 0));
    }

    #[test]
    fn subnormals_are_held_to_their_own_scale() {
        let tiny = f32::from_bits(1); // smallest subnormal
        assert!(element_ok(tiny, tiny, 1e-45, 1));
        // A subnormal result against a zero golden with no products fails.
        assert!(!element_ok(tiny, 0.0, 0.0, 0));
        // ...but is within rounding of a row whose products are large.
        assert!(element_ok(tiny, 0.0, 1.0, 2));
        // A subnormal golden does not excuse a normal-sized error.
        assert!(!element_ok(1e-30, tiny, 1e-38, 4));
    }

    #[test]
    fn tolerance_grows_with_terms_and_scale_only() {
        // 100 products summing in magnitude to 25: bound is ~6e-4.
        assert!(element_ok(1.0 + 5e-4, 1.0, 25.0, 100));
        assert!(!element_ok(1.0 + 1e-3, 1.0, 25.0, 100));
        // A dropped product of typical size fails.
        assert!(!element_ok(0.75, 1.0, 25.0, 100));
    }

    #[test]
    fn length_mismatch_fails() {
        let r = reference(vec![1.0, 2.0], 2.0, 1);
        assert!(check(&[1.0], &r).is_err());
        assert!(check(&[1.0, 2.0], &r).is_ok());
    }
}
