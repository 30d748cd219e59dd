/// Normalizes an angle in degrees to `[0, 360)`.
///
/// Compass headings are usually in range already; those return as they
/// are (what `deg % 360.0` gives them, -0.0 included) without the `fmod`.
#[inline]
pub fn normalize_deg(deg: f64) -> f64 {
    if (0.0..360.0).contains(&deg) {
        return deg;
    }
    let d = deg % 360.0;
    if d < 0.0 {
        d + 360.0
    } else {
        d
    }
}

/// Smallest absolute difference between two compass headings, in `[0, 180]`.
///
/// Used by the incremental map-matcher's orientation score and by the
/// O-D "thick geometry" crossing-angle filter of §IV-D.
#[inline]
pub fn heading_diff_deg(a: f64, b: f64) -> f64 {
    let d = (normalize_deg(a) - normalize_deg(b)).abs();
    if d > 180.0 {
        360.0 - d
    } else {
        d
    }
}

/// Acute angle between two *undirected* lines given by their headings,
/// in `[0, 90]`.
///
/// The paper filters trips that intersect a thick O-D road "on an angle
/// within a predefined range"; a route crossing a road is agnostic to which
/// way either is digitised, hence the undirected form.
#[inline]
pub fn angle_between_deg(a: f64, b: f64) -> f64 {
    let d = heading_diff_deg(a, b);
    if d > 90.0 {
        180.0 - d
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_wraps() {
        assert_eq!(normalize_deg(0.0), 0.0);
        assert_eq!(normalize_deg(360.0), 0.0);
        assert_eq!(normalize_deg(-90.0), 270.0);
        assert_eq!(normalize_deg(725.0), 5.0);
    }

    #[test]
    fn heading_diff_takes_short_way() {
        assert_eq!(heading_diff_deg(10.0, 350.0), 20.0);
        assert_eq!(heading_diff_deg(0.0, 180.0), 180.0);
        assert_eq!(heading_diff_deg(90.0, 90.0), 0.0);
        assert_eq!(heading_diff_deg(-10.0, 10.0), 20.0);
    }

    #[test]
    fn undirected_angle_folds_at_90() {
        assert_eq!(angle_between_deg(0.0, 180.0), 0.0); // same line
        assert_eq!(angle_between_deg(0.0, 90.0), 90.0);
        assert_eq!(angle_between_deg(10.0, 170.0), 20.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The `%` form the in-range fast path short-cuts.
    fn normalize_reference(deg: f64) -> f64 {
        let d = deg % 360.0;
        if d < 0.0 {
            d + 360.0
        } else {
            d
        }
    }

    #[test]
    fn normalize_matches_the_fmod_form_on_edge_inputs() {
        let edges = [
            0.0,
            -0.0,
            360.0,
            -360.0,
            359.99999999999994,
            -1e-300,
            1e-300,
            720.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        for d in edges {
            assert_eq!(
                normalize_deg(d).to_bits(),
                normalize_reference(d).to_bits(),
                "normalize_deg({d:e})"
            );
        }
    }

    proptest! {
        #[test]
        fn normalized_in_range(a in -10_000f64..10_000.0) {
            let n = normalize_deg(a);
            prop_assert!((0.0..360.0).contains(&n));
        }

        /// Bit-identical to the `%` form across and around `[0, 360)`.
        #[test]
        fn normalize_matches_the_fmod_form(a in -1_000f64..1_000.0) {
            prop_assert_eq!(normalize_deg(a).to_bits(), normalize_reference(a).to_bits());
        }

        #[test]
        fn heading_diff_symmetric_and_bounded(a in -720f64..720.0, b in -720f64..720.0) {
            let d = heading_diff_deg(a, b);
            prop_assert!((0.0..=180.0).contains(&d));
            prop_assert!((d - heading_diff_deg(b, a)).abs() < 1e-9);
        }

        #[test]
        fn undirected_invariant_to_reversal(a in 0f64..360.0, b in 0f64..360.0) {
            let d1 = angle_between_deg(a, b);
            let d2 = angle_between_deg(a + 180.0, b);
            prop_assert!((d1 - d2).abs() < 1e-9);
            prop_assert!((0.0..=90.0 + 1e-9).contains(&d1));
        }
    }
}
