//! Grid-accelerated point location.
//!
//! Canopus' delta calculation must find, for every fine-level vertex, the
//! coarse-level triangle containing it (paper Alg. 2), and the paper notes
//! that the brute-force scan "can be expensive due to the potentially large
//! number of vertices". We bucket triangles into a uniform grid keyed by
//! their bounding boxes; a query tests only the triangles overlapping the
//! query point's cell. Vertices that fall outside the coarse hull (edge
//! collapsing shrinks the boundary slightly) are clamped to the *nearest*
//! triangle, searched in expanding cell rings.
//!
//! The ring search can be bounded by the distance the caller will accept
//! ([`GridLocator::locate_within`]). A triangle first met in ring `r + 1`
//! lies at least `r` cell sides from the query point, so once `r - 1`
//! cell sides exceed the bound (one ring of margin against float fuzz in
//! cell assignment) and no candidate within the bound has been seen, no
//! acceptable triangle can still appear and the search stops. The bounded
//! search walks the same cells in the same order as the unbounded one, so
//! whenever [`GridLocator::locate`] answers `Inside`, or `Clamped` within
//! the bound, `locate_within` returns that very triangle. A rasterizer
//! that discards far-away clamps therefore gets bit-identical pixels for
//! a fraction of the work on pixels in holes or outside the hull. Within
//! the rings, a triangle whose bounding box lies farther than the best
//! distance so far (by a rounding margin) can neither contain the point
//! nor beat that distance, so its exact tests are skipped.
//!
//! A rasterizer need not run the fast path pixel by pixel either.
//! [`GridLocator::sample_grid`] groups a pixel grid by cell and
//! [`GridLocator::candidates`] names the pixels whose cell lists a given
//! triangle; scan-converting the triangles in ascending id over those
//! pixels gives every pixel the fast path's answer, and
//! [`GridLocator::search_rings`] finishes the pixels no triangle claimed.

use crate::geometry::{Aabb, Point2};
use crate::mesh::{TriId, TriMesh};
use std::ops::Range;

/// A uniform-grid spatial index over the triangles of one mesh.
#[derive(Debug, Clone)]
pub struct GridLocator {
    bounds: Aabb,
    nx: usize,
    ny: usize,
    inv_cell_w: f64,
    inv_cell_h: f64,
    /// Largest coordinate magnitude of the indexed mesh.
    scale: f64,
    /// CSR: cell -> triangle ids.
    offsets: Vec<u32>,
    items: Vec<TriId>,
}

/// Result of a location query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Location {
    /// The point lies inside (or on the boundary of) this triangle.
    Inside(TriId),
    /// The point lies outside the mesh hull; this is the nearest triangle
    /// and the distance to it.
    Clamped(TriId, f64),
}

impl Location {
    /// The located triangle regardless of containment.
    pub fn triangle(&self) -> TriId {
        match *self {
            Location::Inside(t) | Location::Clamped(t, _) => t,
        }
    }

    pub fn is_inside(&self) -> bool {
        matches!(self, Location::Inside(_))
    }
}

impl GridLocator {
    /// Build an index sized so the average cell holds O(1) triangles.
    pub fn build(mesh: &TriMesh) -> Self {
        let ntri = mesh.num_triangles();
        let bounds = mesh.aabb().inflate(1e-9);
        // Aim for ~1 triangle per cell; clamp the grid to something sane.
        let target = (ntri.max(1) as f64).sqrt().ceil() as usize;
        let nx = target.clamp(1, 4096);
        let ny = target.clamp(1, 4096);
        let w = bounds.width().max(f64::MIN_POSITIVE);
        let h = bounds.height().max(f64::MIN_POSITIVE);
        let inv_cell_w = nx as f64 / w;
        let inv_cell_h = ny as f64 / h;

        let mut locator = Self {
            bounds,
            nx,
            ny,
            inv_cell_w,
            inv_cell_h,
            scale: [bounds.min.x, bounds.min.y, bounds.max.x, bounds.max.y]
                .iter()
                .fold(0.0, |m: f64, v| m.max(v.abs())),
            offsets: Vec::new(),
            items: Vec::new(),
        };

        // Each triangle's cell range once, then a count pass and a fill
        // pass over them (CSR construction) in ascending id, so every cell
        // lists its triangles in ascending id. The grid is at most 4096
        // cells a side, so a cell coordinate fits a `u16`.
        let ranges: Vec<[u16; 4]> = (0..ntri)
            .map(|t| {
                let ((cx0, cy0), (cx1, cy1)) =
                    locator.cell_range(&mesh.triangle(t as TriId).aabb());
                [cx0 as u16, cy0 as u16, cx1 as u16, cy1 as u16]
            })
            .collect();
        let ncells = nx * ny;
        let mut counts = vec![0u32; ncells + 1];
        for &[cx0, cy0, cx1, cy1] in &ranges {
            for cy in cy0 as usize..=cy1 as usize {
                for cx in cx0 as usize..=cx1 as usize {
                    counts[cy * nx + cx + 1] += 1;
                }
            }
        }
        for i in 0..ncells {
            counts[i + 1] += counts[i];
        }
        let mut cursor = counts.clone();
        let mut items = vec![0 as TriId; counts[ncells] as usize];
        for (t, &[cx0, cy0, cx1, cy1]) in ranges.iter().enumerate() {
            for cy in cy0 as usize..=cy1 as usize {
                for cx in cx0 as usize..=cx1 as usize {
                    let cell = cy * nx + cx;
                    items[cursor[cell] as usize] = t as TriId;
                    cursor[cell] += 1;
                }
            }
        }
        locator.offsets = counts;
        locator.items = items;
        locator
    }

    #[inline]
    fn cell_x(&self, x: f64) -> usize {
        (((x - self.bounds.min.x) * self.inv_cell_w) as isize).clamp(0, self.nx as isize - 1)
            as usize
    }

    #[inline]
    fn cell_y(&self, y: f64) -> usize {
        (((y - self.bounds.min.y) * self.inv_cell_h) as isize).clamp(0, self.ny as isize - 1)
            as usize
    }

    /// The inclusive cell range `(min corner, max corner)` a bounding
    /// box is listed in.
    #[inline]
    fn cell_range(&self, bb: &Aabb) -> ((usize, usize), (usize, usize)) {
        (self.cell_of(bb.min), self.cell_of(bb.max))
    }

    #[inline]
    fn cell_of(&self, p: Point2) -> (usize, usize) {
        (self.cell_x(p.x), self.cell_y(p.y))
    }

    #[inline]
    fn cell_items(&self, cx: usize, cy: usize) -> &[TriId] {
        let cell = cy * self.nx + cx;
        let lo = self.offsets[cell] as usize;
        let hi = self.offsets[cell + 1] as usize;
        &self.items[lo..hi]
    }

    /// Locate `p` in `mesh` (which must be the mesh this index was built
    /// from). Always returns a triangle: interior points get
    /// [`Location::Inside`], exterior points are clamped to the nearest
    /// triangle found in expanding rings of grid cells.
    pub fn locate(&self, mesh: &TriMesh, p: Point2) -> Option<Location> {
        self.locate_within(mesh, p, f64::INFINITY)
    }

    /// [`Self::locate`] restricted to answers within `max_dist` of `p`:
    /// returns what `locate` would whenever that is `Inside` or
    /// `Clamped(_, d)` with `d <= max_dist`, and `None` otherwise (or for
    /// an empty mesh). The ring search stops as soon as no triangle within
    /// `max_dist` can still appear. `max_dist` must be non-negative.
    pub fn locate_within(&self, mesh: &TriMesh, p: Point2, max_dist: f64) -> Option<Location> {
        debug_assert!(max_dist >= 0.0, "max_dist must be non-negative");
        if mesh.num_triangles() == 0 {
            return None;
        }
        let (cx, cy) = self.cell_of(p);

        // Fast path: containment test within the point's own cell.
        for &t in self.cell_items(cx, cy) {
            if mesh.triangle(t).contains(p) {
                return Some(Location::Inside(t));
            }
        }
        self.search_rings(mesh, p, max_dist)
    }

    /// The rest of [`Self::locate_within`] for a point that no triangle
    /// listed in its own cell contains (the caller knows, for example
    /// from scan conversion over [`Self::candidates`]): the expanding ring
    /// search alone, with the same answer.
    pub fn search_rings(&self, mesh: &TriMesh, p: Point2, max_dist: f64) -> Option<Location> {
        debug_assert!(max_dist >= 0.0, "max_dist must be non-negative");
        if mesh.num_triangles() == 0 {
            return None;
        }
        let (cx, cy) = self.cell_of(p);
        let (cx, cy) = (cx as isize, cy as isize);

        // Expanding rings. Track the nearest triangle seen so we can clamp
        // if nothing contains the point.
        let clamp = |(t, d): (TriId, f64)| (d <= max_dist).then_some(Location::Clamped(t, d));
        let cell_size = 1.0 / self.inv_cell_w.min(self.inv_cell_h);
        let min_cell_side = 1.0 / self.inv_cell_w.max(self.inv_cell_h);
        let mut best: Option<(TriId, f64)> = None;
        let max_ring = self.nx.max(self.ny) as isize;
        for ring in 0..=max_ring {
            let mut any_cell = false;
            for (ccx, ccy) in ring_cells(cx, cy, ring, self.nx as isize, self.ny as isize) {
                any_cell = true;
                for &t in self.cell_items(ccx, ccy) {
                    let tri = mesh.triangle(t);
                    // A triangle whose box lies beyond the best distance
                    // by more than rounding can neither contain p nor
                    // come closer: skip the exact tests.
                    if best.is_some_and(|(_, bd)| box_distance(&tri.aabb(), p) > bd + self.tol(bd))
                    {
                        continue;
                    }
                    // Ring 0 is the fast path's cell: nothing there contains
                    // p. Elsewhere it was just tested, so `distance_to` is
                    // the distance to the edges.
                    if ring > 0 && tri.contains(p) {
                        return Some(Location::Inside(t));
                    }
                    let d = tri.boundary_distance(p);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((t, d));
                    }
                }
            }
            // Once we have a candidate, one extra ring guards against a
            // closer triangle straddling the ring boundary; after that the
            // candidate can only be beaten by triangles farther away.
            if let Some((t, d)) = best {
                if d < ring as f64 * cell_size {
                    return clamp((t, d));
                }
            }
            // A triangle first met in a later ring lies at least `ring`
            // short cell sides away; with one ring of margin for float
            // fuzz, no unseen triangle can come within `max_dist`.
            if best.is_none_or(|(_, bd)| bd > max_dist)
                && (ring - 1) as f64 * min_cell_side > max_dist
            {
                return None;
            }
            if !any_cell && ring > 0 {
                break;
            }
        }
        best.and_then(clamp)
    }

    /// Group the sample points of a rectilinear grid, `xs[col]` by
    /// `ys[row]`, by this index's cells. Both coordinate lists must be
    /// non-decreasing, which makes the samples of each cell column and
    /// row contiguous.
    pub fn sample_grid(&self, xs: Vec<f64>, ys: Vec<f64>) -> SampleGrid {
        let spans = |cells: Vec<usize>, n: usize| -> Vec<usize> {
            assert!(
                cells.windows(2).all(|w| w[0] <= w[1]),
                "sample coordinates must be non-decreasing"
            );
            (0..=n).map(|c| cells.partition_point(|&k| k < c)).collect()
        };
        let cols = spans(xs.iter().map(|&x| self.cell_x(x)).collect(), self.nx);
        let rows = spans(ys.iter().map(|&y| self.cell_y(y)).collect(), self.ny);
        SampleGrid { xs, ys, cols, rows }
    }

    /// The samples of `grid` that [`Self::locate`]'s fast path tests
    /// against a triangle with bounding box `bb` and that the triangle can
    /// contain, as (column range, row range).
    ///
    /// The fast path tests a triangle at every sample whose cell lists it.
    /// Of those, only samples within `bb` grown by 1e-6 of its extent are
    /// kept: [`contains`](crate::geometry::Triangle::contains) accepts points at most its 1e-9
    /// barycentric margin, that is 3e-9 of the extent, outside the
    /// triangle. Taking the triangles in ascending id and letting the
    /// first that contains a sample claim it gives each sample the fast
    /// path's answer, because every cell lists its triangles in ascending
    /// id.
    pub fn candidates(&self, grid: &SampleGrid, bb: &Aabb) -> (Range<usize>, Range<usize>) {
        let ((cx0, cy0), (cx1, cy1)) = self.cell_range(bb);
        let grown = bb.inflate(1e-6 * (bb.width() + bb.height()));
        (
            within(
                &grid.xs,
                grid.cols[cx0]..grid.cols[cx1 + 1],
                grown.min.x,
                grown.max.x,
            ),
            within(
                &grid.ys,
                grid.rows[cy0]..grid.rows[cy1 + 1],
                grown.min.y,
                grown.max.y,
            ),
        )
    }

    /// How far beyond distance `d` a triangle's box must lie for the
    /// triangle to be safely farther than `d`: 1e-7 of the coordinate
    /// magnitude and of `d`. That is far above the rounding of a computed
    /// distance, and above `contains`' margin (at most 3e-9 of a
    /// triangle's extent, itself at most 4x the coordinate magnitude).
    #[inline]
    fn tol(&self, d: f64) -> f64 {
        1e-7 * (self.scale + d)
    }

    /// Whether the bounding box of some triangle of `mesh` meets the
    /// square of half-side `dist` around `p`. Only the cells the square
    /// overlaps are looked at: a box that meets the square is listed in
    /// one of them.
    pub fn boxes_near(&self, mesh: &TriMesh, p: Point2, dist: f64) -> bool {
        let square = Aabb::from_points([p, p]).inflate(dist);
        let ((cx0, cy0), (cx1, cy1)) = self.cell_range(&square);
        (cy0..=cy1).any(|cy| {
            (cx0..=cx1).any(|cx| {
                self.cell_items(cx, cy)
                    .iter()
                    .any(|&t| mesh.triangle(t).aabb().intersects(&square))
            })
        })
    }

    /// Number of grid cells (for diagnostics/tests).
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny
    }
}

/// Cells at Chebyshev distance exactly `ring` from `(cx, cy)`, clipped to
/// the grid: the top and bottom rows column by column (alternating), then
/// the left and right columns row by row. The order is fixed because ties
/// on the nearest distance resolve to the first triangle met.
fn ring_cells(
    cx: isize,
    cy: isize,
    ring: isize,
    nx: isize,
    ny: isize,
) -> impl Iterator<Item = (usize, usize)> {
    let rows = 2 * (2 * ring + 1);
    let count = if ring == 0 { 1 } else { 8 * ring };
    (0..count).filter_map(move |k| {
        let side = if k % 2 == 0 { -ring } else { ring };
        let (dx, dy) = if ring == 0 {
            (0, 0)
        } else if k < rows {
            (-ring + k / 2, side)
        } else {
            (side, -ring + 1 + (k - rows) / 2)
        };
        let (x, y) = (cx + dx, cy + dy);
        (x >= 0 && x < nx && y >= 0 && y < ny).then_some((x as usize, y as usize))
    })
}

/// The sample points of a rectilinear grid grouped by the cells of one
/// [`GridLocator`]; see [`GridLocator::sample_grid`]. The samples of cell
/// column `c` are columns `cols[c]..cols[c + 1]`, and likewise for rows.
#[derive(Debug, Clone)]
pub struct SampleGrid {
    xs: Vec<f64>,
    ys: Vec<f64>,
    cols: Vec<usize>,
    rows: Vec<usize>,
}

impl SampleGrid {
    /// Sample x coordinates, by column.
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// Sample y coordinates, by row.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }
}

/// Euclidean distance from `p` to the box `bb` (zero inside).
#[inline]
fn box_distance(bb: &Aabb, p: Point2) -> f64 {
    let dx = (bb.min.x - p.x).max(p.x - bb.max.x).max(0.0);
    let dy = (bb.min.y - p.y).max(p.y - bb.max.y).max(0.0);
    (dx * dx + dy * dy).sqrt()
}

/// The part of `span` whose (non-decreasing) coordinates lie in
/// `[lo, hi]`.
fn within(coords: &[f64], span: Range<usize>, lo: f64, hi: f64) -> Range<usize> {
    let (mut a, mut b) = (span.start, span.end);
    while a < b && coords[a] < lo {
        a += 1;
    }
    while b > a && coords[b - 1] > hi {
        b -= 1;
    }
    a..b
}

/// Blend the corner values of triangle `t` at barycentric weights `w`
/// (from [`barycentric`](crate::geometry::Triangle::barycentric) at some
/// point). Negative weights, for a
/// point outside the triangle, are clamped to zero and the rest
/// renormalised, so the value stays within the corner range. A
/// degenerate triangle (`None`) gets the corner mean.
#[inline]
pub fn blend(mesh: &TriMesh, data: &[f64], t: TriId, w: Option<[f64; 3]>) -> f64 {
    let [a, b, c] = mesh.triangle_vertices(t);
    let (va, vb, vc) = (data[a as usize], data[b as usize], data[c as usize]);
    match w {
        Some([wa, wb, wc]) => {
            // The weights sum to 1, so the clamped ones sum to about 1 or
            // more and the divisor cannot vanish.
            let (wa, wb, wc) = (wa.max(0.0), wb.max(0.0), wc.max(0.0));
            (wa * va + wb * vb + wc * vc) / (wa + wb + wc)
        }
        None => (va + vb + vc) / 3.0,
    }
}

/// [`blend`] at the barycentric weights of `p` in triangle `t`.
pub fn interpolate(mesh: &TriMesh, data: &[f64], t: TriId, p: Point2) -> f64 {
    blend(mesh, data, t, mesh.triangle(t).barycentric(p))
}

/// Interpolate a vertex field at an arbitrary point: locate the
/// containing (or nearest) triangle, then [`interpolate`] there.
/// Returns `None` only for an empty mesh.
pub fn interpolate_at(
    mesh: &TriMesh,
    locator: &GridLocator,
    data: &[f64],
    p: Point2,
) -> Option<f64> {
    assert_eq!(data.len(), mesh.num_vertices(), "one value per vertex");
    let loc = locator.locate(mesh, p)?;
    Some(interpolate(mesh, data, loc.triangle(), p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rectangle_mesh;

    #[test]
    fn locates_interior_points() {
        let mesh = rectangle_mesh(
            8,
            8,
            Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]),
        );
        let loc = GridLocator::build(&mesh);
        for &(x, y) in &[(0.1, 0.1), (0.5, 0.5), (0.93, 0.21), (0.999, 0.999)] {
            let p = Point2::new(x, y);
            let r = loc.locate(&mesh, p).expect("must locate");
            assert!(r.is_inside(), "point {p:?} should be inside");
            assert!(mesh.triangle(r.triangle()).contains(p));
        }
    }

    #[test]
    fn locates_all_vertices_of_own_mesh() {
        let mesh = rectangle_mesh(
            13,
            7,
            Aabb::from_points([Point2::new(-2.0, 1.0), Point2::new(3.0, 2.0)]),
        );
        let loc = GridLocator::build(&mesh);
        for &p in mesh.points() {
            let r = loc.locate(&mesh, p).unwrap();
            assert!(
                r.is_inside(),
                "mesh vertex {p:?} must be inside some triangle"
            );
        }
    }

    #[test]
    fn clamps_exterior_points() {
        let mesh = rectangle_mesh(
            4,
            4,
            Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]),
        );
        let loc = GridLocator::build(&mesh);
        let r = loc.locate(&mesh, Point2::new(2.0, 0.5)).unwrap();
        match r {
            Location::Clamped(t, d) => {
                assert!((d - 1.0).abs() < 1e-9, "distance should be ~1, got {d}");
                assert!((t as usize) < mesh.num_triangles());
            }
            Location::Inside(_) => panic!("exterior point reported inside"),
        }
    }

    #[test]
    fn interpolation_is_exact_for_linear_fields() {
        let mesh = rectangle_mesh(
            7,
            9,
            Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(2.0, 1.0)]),
        );
        let data: Vec<f64> = mesh
            .points()
            .iter()
            .map(|p| 3.0 * p.x - 2.0 * p.y + 1.0)
            .collect();
        let loc = GridLocator::build(&mesh);
        for &(x, y) in &[(0.3, 0.4), (1.7, 0.05), (0.01, 0.99), (1.0, 0.5)] {
            let v = interpolate_at(&mesh, &loc, &data, Point2::new(x, y)).unwrap();
            let expect = 3.0 * x - 2.0 * y + 1.0;
            assert!((v - expect).abs() < 1e-9, "({x},{y}): {v} vs {expect}");
        }
    }

    #[test]
    fn interpolation_clamps_outside_the_hull() {
        let mesh = rectangle_mesh(
            4,
            4,
            Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]),
        );
        let data: Vec<f64> = mesh.points().iter().map(|p| p.x).collect();
        let loc = GridLocator::build(&mesh);
        // Far outside: the clamped value stays within the field's range.
        let v = interpolate_at(&mesh, &loc, &data, Point2::new(5.0, 0.5)).unwrap();
        assert!((0.0..=1.0).contains(&v), "clamped value {v}");
        assert!(interpolate_at(
            &TriMesh::default(),
            &GridLocator::build(&TriMesh::default()),
            &[],
            Point2::new(0.0, 0.0)
        )
        .is_none());
    }

    #[test]
    fn ring_cells_keep_row_then_column_order() {
        // Reference order: top/bottom rows by column, then the side
        // columns by row, each clipped to the grid.
        fn reference(
            cx: isize,
            cy: isize,
            ring: isize,
            nx: isize,
            ny: isize,
        ) -> Vec<(usize, usize)> {
            let inside = |x: isize, y: isize| x >= 0 && x < nx && y >= 0 && y < ny;
            if ring == 0 {
                return vec![(cx as usize, cy as usize)];
            }
            let mut v = Vec::new();
            for dx in -ring..=ring {
                for dy in [-ring, ring] {
                    if inside(cx + dx, cy + dy) {
                        v.push(((cx + dx) as usize, (cy + dy) as usize));
                    }
                }
            }
            for dy in (-ring + 1)..ring {
                for dx in [-ring, ring] {
                    if inside(cx + dx, cy + dy) {
                        v.push(((cx + dx) as usize, (cy + dy) as usize));
                    }
                }
            }
            v
        }
        for &(cx, cy) in &[(0, 0), (3, 2), (6, 4), (1, 4)] {
            for ring in 0..9 {
                assert_eq!(
                    ring_cells(cx, cy, ring, 7, 5).collect::<Vec<_>>(),
                    reference(cx, cy, ring, 7, 5),
                    "cell ({cx},{cy}) ring {ring}"
                );
            }
        }
    }

    #[test]
    fn empty_mesh_returns_none() {
        let mesh = TriMesh::default();
        let loc = GridLocator::build(&mesh);
        assert!(loc.locate(&mesh, Point2::new(0.0, 0.0)).is_none());
    }

    /// The ring search as it was before box pruning and the skipped
    /// second containment test: every listed triangle gets the full
    /// `distance_to`.
    fn reference_locate(loc: &GridLocator, mesh: &TriMesh, p: Point2) -> Option<Location> {
        let (cx, cy) = loc.cell_of(p);
        for &t in loc.cell_items(cx, cy) {
            if mesh.triangle(t).contains(p) {
                return Some(Location::Inside(t));
            }
        }
        let cell_size = 1.0 / loc.inv_cell_w.min(loc.inv_cell_h);
        let mut best: Option<(TriId, f64)> = None;
        for ring in 0..=loc.nx.max(loc.ny) as isize {
            let mut any_cell = false;
            let (nx, ny) = (loc.nx as isize, loc.ny as isize);
            for (ccx, ccy) in ring_cells(cx as isize, cy as isize, ring, nx, ny) {
                any_cell = true;
                for &t in loc.cell_items(ccx, ccy) {
                    let tri = mesh.triangle(t);
                    if ring > 0 && tri.contains(p) {
                        return Some(Location::Inside(t));
                    }
                    let d = tri.distance_to(p);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((t, d));
                    }
                }
            }
            if let Some((t, d)) = best {
                if d < ring as f64 * cell_size {
                    return Some(Location::Clamped(t, d));
                }
            }
            if !any_cell && ring > 0 {
                break;
            }
        }
        best.map(|(t, d)| Location::Clamped(t, d))
    }

    #[test]
    fn locate_equals_unpruned_reference() {
        use crate::generators::{annulus_mesh, jitter_interior};
        let rect = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(2.0, 1.0)]);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for seed in 0..12 {
            let mesh = if seed % 2 == 0 {
                jitter_interior(
                    &annulus_mesh(3 + seed as usize % 4, 24, 0.45, 1.0),
                    0.3,
                    seed,
                )
            } else {
                jitter_interior(&rectangle_mesh(9, 5, rect), 0.3, seed)
            };
            let loc = GridLocator::build(&mesh);
            let frame = mesh.aabb().inflate(0.4);
            for _ in 0..2000 {
                let p = Point2::new(
                    frame.min.x + unit() * frame.width(),
                    frame.min.y + unit() * frame.height(),
                );
                assert_eq!(
                    loc.locate(&mesh, p),
                    reference_locate(&loc, &mesh, p),
                    "seed {seed}, p {p:?}"
                );
            }
        }
    }

    #[test]
    fn single_triangle_mesh() {
        let mesh = TriMesh::new(
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                Point2::new(0.0, 1.0),
            ],
            vec![[0, 1, 2]],
        );
        let loc = GridLocator::build(&mesh);
        assert_eq!(
            loc.locate(&mesh, Point2::new(0.2, 0.2)),
            Some(Location::Inside(0))
        );
        let far = loc.locate(&mesh, Point2::new(10.0, 10.0)).unwrap();
        assert!(!far.is_inside());
        assert_eq!(far.triangle(), 0);
    }
}
