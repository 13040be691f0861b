//! Proxy circles (Section II-C of the paper).
//!
//! The far-field interaction of a box `B` is compressed against a small
//! ring of "proxy" points on a circle of radius `2.5 L` around the box
//! center (`L` = box side). The circle lies inside the distance-2 ring
//! `M(B)`, so together `[A_{M,B}; K_{proxy,B}]` captures all of `A_{F,B}`
//! up to the compression tolerance. The point count is `O(1)` for smooth
//! kernels and scales with `kappa * radius` for oscillatory ones (the
//! circle must resolve the kernel's wavelength).

use crate::point::Point;

/// Equispaced directions on the unit circle (radius 1 around the origin,
/// first point on the +x axis).
///
/// All boxes of a tree level share radius and point count, so the
/// factorization evaluates the trigonometry once per level and shifts the
/// result per box with [`proxy_circle_from_unit`] instead of rebuilding
/// the circle for every skeletonization.
pub fn unit_circle(n: usize) -> Vec<Point> {
    assert!(n >= 1);
    (0..n)
        .map(|k| {
            let ang = 2.0 * core::f64::consts::PI * k as f64 / n as f64;
            Point::new(ang.cos(), ang.sin())
        })
        .collect()
}

/// Scale a precomputed [`unit_circle`] by `radius` and translate it to
/// `center`.
pub fn proxy_circle_from_unit(center: Point, radius: f64, unit: &[Point]) -> Vec<Point> {
    assert!(radius > 0.0);
    unit.iter()
        .map(|u| Point::new(center.x + radius * u.x, center.y + radius * u.y))
        .collect()
}

/// Equispaced points on the circle of given `center` and `radius`.
#[doc(hidden)]
// ORACLE: proxy_circle_from_unit's unit test, column_contract, symmetric_contract
pub fn proxy_circle(center: Point, radius: f64, n: usize) -> Vec<Point> {
    proxy_circle_from_unit(center, radius, &unit_circle(n))
}

/// Proxy point count rule: `max(n_min, ceil(osc_factor * kappa * radius) + 32)`.
///
/// For `kappa = 0` (Laplace) this is just `n_min`; for Helmholtz it keeps a
/// fixed number of points per wavelength along the circle.
pub fn proxy_count(n_min: usize, osc_factor: f64, kappa: f64, radius: f64) -> usize {
    let osc = (osc_factor * kappa * radius).ceil() as usize + 32;
    n_min.max(osc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circle_points_on_circle() {
        let c = Point::new(0.3, -0.2);
        let pts = proxy_circle(c, 2.0, 17);
        assert_eq!(pts.len(), 17);
        for p in &pts {
            assert!((p.dist(&c) - 2.0).abs() < 1e-12);
        }
        // distinct points
        for i in 1..pts.len() {
            assert!(pts[i].dist(&pts[0]) > 1e-9);
        }
    }

    #[test]
    fn first_point_on_positive_x_axis() {
        let pts = proxy_circle(Point::new(0.0, 0.0), 1.5, 8);
        assert!((pts[0].x - 1.5).abs() < 1e-15);
        assert!(pts[0].y.abs() < 1e-15);
    }

    #[test]
    fn translated_unit_circle_matches_direct_circle() {
        let unit = unit_circle(23);
        let c = Point::new(-0.4, 1.7);
        let direct = proxy_circle(c, 3.25, 23);
        let shifted = proxy_circle_from_unit(c, 3.25, &unit);
        assert_eq!(direct.len(), shifted.len());
        for (a, b) in direct.iter().zip(shifted.iter()) {
            // Bitwise: the cached path must not perturb skeleton selection.
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
        }
    }

    #[test]
    fn count_rule() {
        // Laplace: kappa = 0 -> minimum.
        assert_eq!(proxy_count(64, 2.0, 0.0, 0.3), 64);
        // Oscillatory: grows linearly with kappa * radius.
        let n1 = proxy_count(64, 2.0, 100.0, 0.5);
        let n2 = proxy_count(64, 2.0, 200.0, 0.5);
        assert!(n1 >= 132);
        assert!(n2 >= 2 * n1 - 64 - 40);
    }
}
