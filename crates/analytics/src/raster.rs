//! Mesh-field rasterization.
//!
//! Blob detection is an image algorithm; the mesh field must first become
//! a pixel grid. Each pixel center is located in the mesh and the field is
//! barycentrically interpolated there; pixels outside the mesh become NaN
//! (and render as background). All accuracy levels of one dataset are
//! rasterized over the *same* bounds and normalization range so the
//! paper's pixel-unit metrics compare level to level.
//!
//! The pixels are not located one by one. The triangles are scan-converted
//! in ascending id: each tests the pixels whose locator cell lists it
//! ([`GridLocator::candidates`]), and the first that contains a pixel
//! claims it and interpolates at the weights of that containment test.
//! Every cell lists its triangles in ascending id, so this is exactly the
//! answer [`GridLocator::locate`]'s fast path gives, and the claim rule
//! makes the result independent of how the rows are split into parallel
//! bands.
//!
//! Pixels within a small slack of the hull still sample their nearest
//! triangle. A pixel that no triangle claims takes the locator's ring
//! search, bounded by that slack ([`GridLocator::search_rings`]), unless
//! it lies outside every triangle's bounding box grown by the slack: then
//! no triangle can contain it or lie within the slack, and it is NaN
//! without a search. So a pixel in a hole (the XGC1 annulus) or far
//! outside the hull costs nothing, and rasters are bit-identical to
//! locating every pixel with the unbounded [`GridLocator::locate`].

use canopus_mesh::geometry::{Aabb, Point2};
use canopus_mesh::locate::{blend, interpolate, GridLocator, SampleGrid};
use canopus_mesh::mesh::TriId;
use canopus_mesh::TriMesh;
use rayon::prelude::*;
use std::ops::Range;

/// A rasterized scalar field.
#[derive(Debug, Clone, PartialEq)]
pub struct Raster {
    width: usize,
    height: usize,
    bounds: Aabb,
    /// Row-major samples; NaN = outside the mesh.
    pixels: Vec<f64>,
}

impl Raster {
    /// Rasterize `data` over `mesh` into a `width x height` grid covering
    /// `bounds`. Pixels whose centers fall outside the mesh (beyond a
    /// small clamping slack) are NaN.
    ///
    /// # Panics
    /// Panics on a zero-sized grid, an empty bounds box, or a data/mesh
    /// length mismatch.
    pub fn from_mesh(
        mesh: &TriMesh,
        data: &[f64],
        width: usize,
        height: usize,
        bounds: Aabb,
    ) -> Self {
        assert!(width > 0 && height > 0, "raster must have pixels");
        assert!(!bounds.is_empty(), "raster bounds must be non-empty");
        assert_eq!(data.len(), mesh.num_vertices());

        // Pixel centres.
        let xs: Vec<f64> = (0..width)
            .map(|col| bounds.min.x + bounds.width() * (col as f64 + 0.5) / width as f64)
            .collect();
        let ys: Vec<f64> = (0..height)
            .map(|row| bounds.min.y + bounds.height() * (row as f64 + 0.5) / height as f64)
            .collect();
        // Clamping slack: pixels this close to the hull still sample the
        // nearest triangle (hides hull shrink from decimation).
        let slack = 1.5 * (bounds.width() / width as f64).max(bounds.height() / height as f64);
        let mut pixels = vec![f64::NAN; width * height];
        if mesh.num_triangles() > 0 {
            let locator = GridLocator::build(mesh);
            let hull = mesh.aabb();
            let scan = Scan {
                mesh,
                data,
                grid: locator.sample_grid(xs, ys),
                locator,
                slack,
                pad: slack + 1e-6 * (slack + hull.width() + hull.height()),
            };
            // One band of rows per worker.
            let bands = std::thread::available_parallelism().map_or(1, |n| n.get());
            let band_rows = height.div_ceil(bands);
            pixels
                .par_chunks_mut(band_rows * width)
                .enumerate()
                .for_each(|(b, out)| {
                    scan.band(b * band_rows..b * band_rows + out.len() / width, out);
                });
        }

        Self {
            width,
            height,
            bounds,
            pixels,
        }
    }

    /// Build directly from pixel data (for tests and synthetic images).
    pub fn from_pixels(width: usize, height: usize, bounds: Aabb, pixels: Vec<f64>) -> Self {
        assert_eq!(pixels.len(), width * height);
        Self {
            width,
            height,
            bounds,
            pixels,
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    pub fn pixels(&self) -> &[f64] {
        &self.pixels
    }

    #[inline]
    pub fn get(&self, col: usize, row: usize) -> f64 {
        self.pixels[row * self.width + col]
    }

    /// Fraction of pixels inside the mesh.
    pub fn coverage(&self) -> f64 {
        let inside = self.pixels.iter().filter(|p| !p.is_nan()).count();
        inside as f64 / self.pixels.len() as f64
    }

    /// Min/max over inside pixels (None when fully outside).
    pub fn value_range(&self) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &p in &self.pixels {
            if !p.is_nan() {
                lo = lo.min(p);
                hi = hi.max(p);
            }
        }
        (lo <= hi).then_some((lo, hi))
    }

    /// OpenCV-style 8-bit grayscale: map `[lo, hi]` → 0..=255 (clamping),
    /// NaN → 0. `lo/hi` should come from the *full accuracy* raster so
    /// the same physical threshold means the same gray level at every
    /// decimation ratio.
    pub fn to_gray(&self, lo: f64, hi: f64) -> GrayImage {
        assert!(hi > lo, "invalid normalization range [{lo}, {hi}]");
        let scale = 255.0 / (hi - lo);
        let data = self
            .pixels
            .iter()
            .map(|&p| {
                if p.is_nan() {
                    0u8
                } else {
                    ((p - lo) * scale).clamp(0.0, 255.0) as u8
                }
            })
            .collect();
        GrayImage {
            width: self.width,
            height: self.height,
            data,
        }
    }
}

/// Scan conversion of one mesh field onto one pixel grid.
struct Scan<'a> {
    mesh: &'a TriMesh,
    data: &'a [f64],
    locator: GridLocator,
    grid: SampleGrid,
    slack: f64,
    /// The slack plus a margin that covers `contains`' barycentric margin,
    /// rounding in `distance_to` and [`GridLocator::candidates`]' margin.
    pad: f64,
}

impl Scan<'_> {
    /// Fill `out`, the pixels of `rows` (NaN on entry).
    fn band(&self, rows: Range<usize>, out: &mut [f64]) {
        let (xs, ys) = (self.grid.xs(), self.grid.ys());
        let width = xs.len();
        let (top, bottom) = (ys[rows.start], ys[rows.end - 1]);
        let mut claimed = vec![false; out.len()];
        for t in 0..self.mesh.num_triangles() as TriId {
            let tri = self.mesh.triangle(t);
            let bb = tri.aabb();
            if bb.max.y + self.pad < top || bb.min.y - self.pad > bottom {
                continue;
            }
            let (cols, claim_rows) = self.locator.candidates(&self.grid, &bb);
            let cols_x = &xs[cols.clone()];
            let first = claim_rows.start.max(rows.start);
            let end = claim_rows.end.min(rows.end).max(first);
            for (row, &y) in (first..end).zip(&ys[first..end]) {
                let line = (row - rows.start) * width;
                let span = line + cols.start..line + cols.end;
                let pixels = cols_x.iter().zip(&mut claimed[span.clone()]);
                for ((&x, claimed), value) in pixels.zip(&mut out[span]) {
                    if *claimed {
                        continue;
                    }
                    if let Some(w) = tri.inside_weights(Point2::new(x, y)) {
                        *value = blend(self.mesh, self.data, t, Some(w));
                        *claimed = true;
                    }
                }
            }
        }
        for (i, _) in claimed.iter().enumerate().filter(|(_, &c)| !c) {
            let p = Point2::new(xs[i % width], ys[rows.start + i / width]);
            if !self.locator.boxes_near(self.mesh, p, self.pad) {
                continue;
            }
            if let Some(loc) = self.locator.search_rings(self.mesh, p, self.slack) {
                out[i] = interpolate(self.mesh, self.data, loc.triangle(), p);
            }
        }
    }
}

/// An 8-bit grayscale image (what the blob detector thresholds).
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    pub width: usize,
    pub height: usize,
    pub data: Vec<u8>,
}

impl GrayImage {
    #[inline]
    pub fn get(&self, col: usize, row: usize) -> u8 {
        self.data[row * self.width + col]
    }

    /// Binary mask of pixels `>= threshold` (bright-blob polarity, which
    /// is what high-potential fusion blobs are).
    pub fn threshold(&self, threshold: u8) -> Vec<bool> {
        self.data.iter().map(|&v| v >= threshold).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_mesh::generators::rectangle_mesh;

    fn unit_bounds() -> Aabb {
        Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)])
    }

    #[test]
    fn rasterizes_linear_field_exactly() {
        let mesh = rectangle_mesh(8, 8, unit_bounds());
        let data: Vec<f64> = mesh.points().iter().map(|p| 2.0 * p.x + p.y).collect();
        let r = Raster::from_mesh(&mesh, &data, 32, 32, unit_bounds());
        assert_eq!(r.coverage(), 1.0);
        // Barycentric interpolation is exact for linear fields.
        for row in 0..32 {
            for col in 0..32 {
                let x = (col as f64 + 0.5) / 32.0;
                let y = (row as f64 + 0.5) / 32.0;
                assert!(
                    (r.get(col, row) - (2.0 * x + y)).abs() < 1e-9,
                    "pixel ({col},{row})"
                );
            }
        }
    }

    #[test]
    fn outside_pixels_are_nan() {
        let mesh = rectangle_mesh(4, 4, unit_bounds());
        let data = vec![1.0; mesh.num_vertices()];
        let wide = Aabb::from_points([Point2::new(-1.0, -1.0), Point2::new(2.0, 2.0)]);
        let r = Raster::from_mesh(&mesh, &data, 30, 30, wide);
        assert!(r.coverage() < 0.5, "coverage {}", r.coverage());
        assert!(r.get(0, 0).is_nan());
        assert!((r.get(15, 15) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn value_range_and_gray() {
        let bounds = unit_bounds();
        let r = Raster::from_pixels(2, 2, bounds, vec![0.0, 5.0, 10.0, f64::NAN]);
        assert_eq!(r.value_range(), Some((0.0, 10.0)));
        let g = r.to_gray(0.0, 10.0);
        assert_eq!(g.data, vec![0, 127, 255, 0]);
        let mask = g.threshold(100);
        assert_eq!(mask, vec![false, true, true, false]);
    }

    #[test]
    fn gray_clamps_out_of_range() {
        let r = Raster::from_pixels(1, 3, unit_bounds(), vec![-5.0, 0.5, 99.0]);
        let g = r.to_gray(0.0, 1.0);
        assert_eq!(g.data, vec![0, 127, 255]);
    }

    #[test]
    fn raster_is_deterministic() {
        let mesh = rectangle_mesh(6, 6, unit_bounds());
        let data: Vec<f64> = mesh.points().iter().map(|p| (p.x * 9.0).sin()).collect();
        let a = Raster::from_mesh(&mesh, &data, 40, 40, unit_bounds());
        let b = Raster::from_mesh(&mesh, &data, 40, 40, unit_bounds());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "invalid normalization")]
    fn gray_rejects_bad_range() {
        Raster::from_pixels(1, 1, unit_bounds(), vec![0.0]).to_gray(1.0, 1.0);
    }

    #[test]
    fn empty_range_when_all_outside() {
        let r = Raster::from_pixels(2, 1, unit_bounds(), vec![f64::NAN, f64::NAN]);
        assert_eq!(r.value_range(), None);
        assert_eq!(r.coverage(), 0.0);
    }
}
