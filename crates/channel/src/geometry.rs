//! Planar geometry for node placement, beam angles and obstacle tests.
//!
//! The interweave paradigm (paper Section 5) is stated entirely in planar
//! geometry: the phase delay uses `α = ∠Pr·St1·St2` and the received-side
//! analysis uses `β = ∠St1·St2·B`; the testbed experiments place nodes in
//! triangles, corridors and semicircles. Everything here is exact `f64`
//! vector algebra.

use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul, Neg, Sub};

/// A point (or free vector) in the plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// x-coordinate (m).
    pub x: f64,
    /// y-coordinate (m).
    pub y: f64,
}

impl Point {
    /// Builds a point from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin.
    pub const fn origin() -> Self {
        Self { x: 0.0, y: 0.0 }
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Self) -> f64 {
        (self - other).norm()
    }

    /// Vector norm.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared norm (avoids the square root).
    pub fn norm_sqr(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    pub fn dot(self, other: Self) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    pub fn cross(self, other: Self) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Bearing of the vector `self → to`, in radians in `(-π, π]`,
    /// measured from the +x axis.
    pub fn bearing_to(self, to: Self) -> f64 {
        let d = to - self;
        d.y.atan2(d.x)
    }

    /// Midpoint of `self` and `other`.
    pub fn midpoint(self, other: Self) -> Self {
        Self::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }
}

impl Add for Point {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Self;
    fn mul(self, k: f64) -> Self {
        Self::new(self.x * k, self.y * k)
    }
}

impl Neg for Point {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y)
    }
}

/// Interior angle at vertex `b` of the polyline `a—b—c`, i.e. `∠abc`,
/// in `[0, π]`.
///
/// This is exactly the paper's `α = ∠Pr·St1·St2` (angle at `St1`) and
/// `β = ∠St1·St2·B` (angle at `St2`) from Section 5, with the vertex given
/// as the middle argument.
pub fn angle_at_vertex(a: Point, b: Point, c: Point) -> f64 {
    let u = a - b;
    let v = c - b;
    let nu = u.norm();
    let nv = v.norm();
    assert!(nu > 0.0 && nv > 0.0, "degenerate angle: coincident points");
    let cosine = (u.dot(v) / (nu * nv)).clamp(-1.0, 1.0);
    cosine.acos()
}

/// How far triple `(a, b, c)` deviates from collinearity, as the sine of
/// the angle at `b` (0 = collinear, 1 = right angle).
///
/// The interweave PU-selection heuristic (paper Algorithm 3, Step 1) prefers
/// primary receivers that are "not as collinear as possible" with the
/// secondary pair; this is the score it maximises.
pub fn collinearity_deviation(a: Point, b: Point, c: Point) -> f64 {
    let u = a - b;
    let v = c - b;
    let denom = u.norm() * v.norm();
    if denom == 0.0 {
        return 0.0;
    }
    (u.cross(v) / denom).abs()
}

/// A closed segment between two points.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

impl Segment {
    /// Builds a segment.
    pub const fn new(a: Point, b: Point) -> Self {
        Self { a, b }
    }

    /// Segment length.
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Proper-or-touching intersection test between two segments.
    pub fn intersects(&self, other: &Segment) -> bool {
        let d1 = direction(other.a, other.b, self.a);
        let d2 = direction(other.a, other.b, self.b);
        let d3 = direction(self.a, self.b, other.a);
        let d4 = direction(self.a, self.b, other.b);
        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            return true;
        }
        (d1 == 0.0 && on_segment(other.a, other.b, self.a))
            || (d2 == 0.0 && on_segment(other.a, other.b, self.b))
            || (d3 == 0.0 && on_segment(self.a, self.b, other.a))
            || (d4 == 0.0 && on_segment(self.a, self.b, other.b))
    }
}

fn direction(a: Point, b: Point, c: Point) -> f64 {
    (b - a).cross(c - a)
}

fn on_segment(a: Point, b: Point, c: Point) -> bool {
    c.x >= a.x.min(b.x) && c.x <= a.x.max(b.x) && c.y >= a.y.min(b.y) && c.y <= a.y.max(b.y)
}

/// Vertices of an equilateral triangle with side `side`, centred so that the
/// base is horizontal with its left vertex at `anchor` — the layout of the
/// paper's single-relay testbed ("located in the corners of an equilateral
/// triangle", Section 6.4).
pub fn equilateral_triangle(anchor: Point, side: f64) -> [Point; 3] {
    [
        anchor,
        Point::new(anchor.x + side, anchor.y),
        Point::new(anchor.x + side / 2.0, anchor.y + side * 3f64.sqrt() / 2.0),
    ]
}

/// `n` points uniformly spaced on a semicircle of given `radius` centred at
/// `center`, from angle 0 to π inclusive — the receiver scan locations of
/// the paper's interweave experiment (Figure 8: "moved between 0 degree and
/// 180 degree with 20 degree increment").
pub fn semicircle_scan(center: Point, radius: f64, n: usize) -> Vec<(f64, Point)> {
    assert!(n >= 2, "need at least the two endpoints");
    (0..n)
        .map(|i| {
            let theta = std::f64::consts::PI * i as f64 / (n - 1) as f64;
            (
                theta.to_degrees(),
                center + Point::new(radius * theta.cos(), radius * theta.sin()),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_3, PI};

    #[test]
    fn distance_345() {
        assert!((Point::new(0.0, 0.0).distance(Point::new(3.0, 4.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn angle_right() {
        let a = Point::new(1.0, 0.0);
        let b = Point::origin();
        let c = Point::new(0.0, 2.0);
        assert!((angle_at_vertex(a, b, c) - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn angle_straight_line() {
        let a = Point::new(-1.0, 0.0);
        let b = Point::origin();
        let c = Point::new(5.0, 0.0);
        assert!((angle_at_vertex(a, b, c) - PI).abs() < 1e-12);
        assert!(collinearity_deviation(a, b, c) < 1e-12);
    }

    #[test]
    fn collinearity_score_max_at_right_angle() {
        let a = Point::new(1.0, 0.0);
        let b = Point::origin();
        let c = Point::new(0.0, 1.0);
        assert!((collinearity_deviation(a, b, c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn segment_intersection_cross() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let s2 = Segment::new(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn segment_no_intersection_parallel() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        let s2 = Segment::new(Point::new(0.0, 1.0), Point::new(2.0, 1.0));
        assert!(!s1.intersects(&s2));
    }

    #[test]
    fn segment_touching_endpoint_counts() {
        let s1 = Segment::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let s2 = Segment::new(Point::new(1.0, 1.0), Point::new(2.0, 0.0));
        assert!(s1.intersects(&s2));
    }

    #[test]
    fn equilateral_has_equal_sides_and_60_degrees() {
        let t = equilateral_triangle(Point::new(1.0, 2.0), 2.0);
        for i in 0..3 {
            let d = t[i].distance(t[(i + 1) % 3]);
            assert!((d - 2.0).abs() < 1e-12);
            let ang = angle_at_vertex(t[(i + 2) % 3], t[i], t[(i + 1) % 3]);
            assert!((ang - FRAC_PI_3).abs() < 1e-12);
        }
    }

    #[test]
    fn semicircle_scan_layout() {
        // 0..180 in 20-degree steps = 10 points, as in paper Figure 8
        let pts = semicircle_scan(Point::origin(), 1.0, 10);
        assert_eq!(pts.len(), 10);
        assert!((pts[0].0 - 0.0).abs() < 1e-12);
        assert!((pts[9].0 - 180.0).abs() < 1e-12);
        for (_, p) in &pts {
            assert!((p.norm() - 1.0).abs() < 1e-12);
            assert!(p.y >= -1e-12);
        }
        // consecutive spacing 20 degrees
        assert!((pts[1].0 - pts[0].0 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn bearing_quadrants() {
        let o = Point::origin();
        assert!((o.bearing_to(Point::new(1.0, 0.0)) - 0.0).abs() < 1e-12);
        assert!((o.bearing_to(Point::new(0.0, 1.0)) - FRAC_PI_2).abs() < 1e-12);
        assert!((o.bearing_to(Point::new(-1.0, 0.0)) - PI).abs() < 1e-12);
    }
}
