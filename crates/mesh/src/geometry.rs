//! Planar geometry primitives.
//!
//! Everything in Canopus' refactoring path reduces to a handful of exact-ish
//! planar predicates: signed triangle area (orientation), point-in-triangle
//! membership, and barycentric coordinates used by the `Estimate(·)`
//! function of the paper (Eq. 2). We keep these in one module so the
//! tolerance policy is consistent across decimation, mapping and
//! restoration.

use serde::{Deserialize, Serialize};

/// Relative tolerance used by containment tests. Point location in Canopus
/// only has to agree with itself (the mapping is computed once at refactor
/// time and stored), so a small epsilon margin is enough.
pub const GEOM_EPS: f64 = 1e-12;

/// A point (or vector) in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    pub x: f64,
    pub y: f64,
}

impl Point2 {
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Midpoint of two points — the paper's `NewVertex(Vi, Vj) = (Vi+Vj)/2`.
    #[inline]
    pub fn midpoint(self, other: Self) -> Self {
        Self::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    #[inline]
    pub fn distance(self, other: Self) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared distance; preferred for priority comparisons because it
    /// avoids the `sqrt` without changing the ordering.
    #[inline]
    pub fn distance_sq(self, other: Self) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Componentwise sum. Named methods (not `std::ops`) keep the hot
    /// geometry kernels explicit about copies; the name clash with the
    /// trait is intentional.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, other: Self) -> Self {
        Self::new(self.x + other.x, self.y + other.y)
    }

    /// Componentwise difference (see [`Point2::add`] for the naming note).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn sub(self, other: Self) -> Self {
        Self::new(self.x - other.x, self.y - other.y)
    }

    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self::new(self.x * s, self.y * s)
    }

    /// 2-D cross product (z-component of the 3-D cross of the two vectors).
    #[inline]
    pub fn cross(self, other: Self) -> f64 {
        self.x * other.y - self.y * other.x
    }

    #[inline]
    pub fn dot(self, other: Self) -> f64 {
        self.x * other.x + self.y * other.y
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }
}

/// Twice the signed area of triangle `(a, b, c)`.
///
/// Positive for counter-clockwise orientation. This is the orientation
/// predicate every containment test is built on.
#[inline]
pub fn signed_area2(a: Point2, b: Point2, c: Point2) -> f64 {
    (b.sub(a)).cross(c.sub(a))
}

/// Unsigned area of triangle `(a, b, c)`.
#[inline]
pub fn area(a: Point2, b: Point2, c: Point2) -> f64 {
    0.5 * signed_area2(a, b, c).abs()
}

/// A triangle given by three corner positions (not indices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    pub a: Point2,
    pub b: Point2,
    pub c: Point2,
}

impl Triangle {
    #[inline]
    pub const fn new(a: Point2, b: Point2, c: Point2) -> Self {
        Self { a, b, c }
    }

    #[inline]
    pub fn area(&self) -> f64 {
        area(self.a, self.b, self.c)
    }

    #[inline]
    pub fn signed_area2(&self) -> f64 {
        signed_area2(self.a, self.b, self.c)
    }

    #[inline]
    pub fn centroid(&self) -> Point2 {
        Point2::new(
            (self.a.x + self.b.x + self.c.x) / 3.0,
            (self.a.y + self.b.y + self.c.y) / 3.0,
        )
    }

    /// Barycentric coordinates `(wa, wb, wc)` of `p` with respect to this
    /// triangle. The weights sum to 1; any weight is negative iff `p` lies
    /// strictly outside the corresponding edge.
    ///
    /// Degenerate (zero-area) triangles return `None`.
    #[inline]
    pub fn barycentric(&self, p: Point2) -> Option<[f64; 3]> {
        let denom = signed_area2(self.a, self.b, self.c);
        if denom.abs() < GEOM_EPS {
            return None;
        }
        let wa = signed_area2(p, self.b, self.c) / denom;
        let wb = signed_area2(self.a, p, self.c) / denom;
        let wc = 1.0 - wa - wb;
        Some([wa, wb, wc])
    }

    /// Whether `p` lies inside or on the boundary of the triangle, with an
    /// epsilon margin so vertices sitting exactly on shared edges are
    /// accepted by at least one incident triangle.
    pub fn contains(&self, p: Point2) -> bool {
        self.inside_weights(p).is_some()
    }

    /// The barycentric coordinates of `p` when [`Self::contains`] accepts
    /// it, so a caller that interpolates need not compute them twice.
    #[inline]
    pub fn inside_weights(&self, p: Point2) -> Option<[f64; 3]> {
        let eps = 1e-9;
        self.barycentric(p)
            .filter(|&[wa, wb, wc]| wa >= -eps && wb >= -eps && wc >= -eps)
    }

    /// Distance from `p` to the closest point of the triangle. Zero when
    /// `p` is inside. Used to clamp boundary vertices to the nearest coarse
    /// triangle when decimation shrank the domain hull.
    pub fn distance_to(&self, p: Point2) -> f64 {
        if self.contains(p) {
            return 0.0;
        }
        self.boundary_distance(p)
    }

    /// Distance from `p` to the triangle's edges: [`Self::distance_to`]
    /// for a point the caller already knows `contains` rejects.
    pub fn boundary_distance(&self, p: Point2) -> f64 {
        segment_distance(p, self.a, self.b)
            .min(segment_distance(p, self.b, self.c))
            .min(segment_distance(p, self.c, self.a))
    }

    pub fn aabb(&self) -> Aabb {
        let mut bb = Aabb::empty();
        bb.extend(self.a);
        bb.extend(self.b);
        bb.extend(self.c);
        bb
    }
}

/// Distance from point `p` to segment `(a, b)`.
pub fn segment_distance(p: Point2, a: Point2, b: Point2) -> f64 {
    let ab = b.sub(a);
    let len_sq = ab.dot(ab);
    if len_sq < GEOM_EPS {
        return p.distance(a);
    }
    let t = (p.sub(a).dot(ab) / len_sq).clamp(0.0, 1.0);
    p.distance(a.add(ab.scale(t)))
}

/// Axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    pub min: Point2,
    pub max: Point2,
}

impl Aabb {
    /// An "inverted" box that `extend` will correct on first use.
    pub fn empty() -> Self {
        Self {
            min: Point2::new(f64::INFINITY, f64::INFINITY),
            max: Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    pub fn from_points<I: IntoIterator<Item = Point2>>(pts: I) -> Self {
        let mut bb = Self::empty();
        for p in pts {
            bb.extend(p);
        }
        bb
    }

    pub fn extend(&mut self, p: Point2) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether two boxes overlap (closed intervals).
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// Grow the box by `margin` on every side.
    pub fn inflate(&self, margin: f64) -> Self {
        Self {
            min: Point2::new(self.min.x - margin, self.min.y - margin),
            max: Point2::new(self.max.x + margin, self.max.y + margin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri() -> Triangle {
        Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        )
    }

    #[test]
    fn midpoint_is_mean() {
        let m = Point2::new(2.0, 4.0).midpoint(Point2::new(4.0, 0.0));
        assert_eq!(m, Point2::new(3.0, 2.0));
    }

    #[test]
    fn signed_area_orientation() {
        let t = tri();
        assert!(t.signed_area2() > 0.0, "ccw triangle has positive area");
        let flipped = Triangle::new(t.a, t.c, t.b);
        assert!(flipped.signed_area2() < 0.0);
        assert!((t.area() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn barycentric_weights_sum_to_one() {
        let t = tri();
        let p = Point2::new(0.25, 0.25);
        let w = t.barycentric(p).unwrap();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Reconstruct p from the weights.
        let rx = w[0] * t.a.x + w[1] * t.b.x + w[2] * t.c.x;
        let ry = w[0] * t.a.y + w[1] * t.b.y + w[2] * t.c.y;
        assert!((rx - p.x).abs() < 1e-12 && (ry - p.y).abs() < 1e-12);
    }

    #[test]
    fn barycentric_degenerate_is_none() {
        let t = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(2.0, 2.0),
        );
        assert!(t.barycentric(Point2::new(0.5, 0.5)).is_none());
    }

    #[test]
    fn contains_interior_boundary_exterior() {
        let t = tri();
        assert!(t.contains(Point2::new(0.2, 0.2)));
        assert!(t.contains(Point2::new(0.5, 0.5))); // on hypotenuse
        assert!(t.contains(t.a)); // corner
        assert!(!t.contains(Point2::new(0.8, 0.8)));
        assert!(!t.contains(Point2::new(-0.1, 0.5)));
    }

    #[test]
    fn distance_to_triangle() {
        let t = tri();
        assert_eq!(t.distance_to(Point2::new(0.2, 0.2)), 0.0);
        let d = t.distance_to(Point2::new(-1.0, 0.0));
        assert!((d - 1.0).abs() < 1e-12);
        let d = t.distance_to(Point2::new(1.0, 1.0));
        assert!((d - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn segment_distance_cases() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(2.0, 0.0);
        // Projection inside the segment.
        assert!((segment_distance(Point2::new(1.0, 3.0), a, b) - 3.0).abs() < 1e-12);
        // Clamped to endpoint.
        assert!((segment_distance(Point2::new(-3.0, 4.0), a, b) - 5.0).abs() < 1e-12);
        // Degenerate segment.
        assert!((segment_distance(Point2::new(3.0, 4.0), a, a) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn aabb_extend_contains() {
        let bb = Aabb::from_points([Point2::new(1.0, 2.0), Point2::new(-1.0, 0.5)]);
        assert!(bb.contains(Point2::new(0.0, 1.0)));
        assert!(!bb.contains(Point2::new(0.0, 3.0)));
        assert!((bb.width() - 2.0).abs() < 1e-15);
        assert!((bb.height() - 1.5).abs() < 1e-15);
        assert!(Aabb::empty().is_empty());
        assert!(!bb.is_empty());
    }

    #[test]
    fn aabb_intersects() {
        let a = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]);
        let b = Aabb::from_points([Point2::new(0.5, 0.5), Point2::new(2.0, 2.0)]);
        let c = Aabb::from_points([Point2::new(1.5, 1.5), Point2::new(2.0, 2.0)]);
        assert!(a.intersects(&b) && b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(b.intersects(&c)); // touching at the corner counts
    }

    #[test]
    fn aabb_inflate() {
        let bb = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]).inflate(0.5);
        assert!(bb.contains(Point2::new(-0.4, 1.4)));
    }
}
