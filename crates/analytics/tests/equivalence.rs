//! The Fig. 9 analysis path against plain reference implementations.
//!
//! `Raster::from_mesh` bounds its locator search by the clamping slack and
//! `BlobDetector::detect` labels thresholds in parallel. Neither may change
//! a result: rasters must be bitwise equal to locating every pixel without
//! a bound, and blob lists equal to a serial fold over the thresholds.

use canopus_analytics::blob::{Blob, BlobDetector, BlobParams};
use canopus_analytics::components::label_components;
use canopus_analytics::raster::{GrayImage, Raster};
use canopus_data::xgc1_dataset_sized;
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_mesh::locate::{GridLocator, Location};
use canopus_mesh::TriMesh;
use canopus_refactor::levels::{LevelHierarchy, RefactorConfig};

/// Per-pixel reference: unbounded `locate`, then keep pixels inside the
/// mesh or clamped within 1.5 pixel sides of it.
fn reference_raster(
    mesh: &TriMesh,
    data: &[f64],
    width: usize,
    height: usize,
    bounds: Aabb,
) -> Vec<f64> {
    let locator = GridLocator::build(mesh);
    let slack = 1.5 * (bounds.width() / width as f64).max(bounds.height() / height as f64);
    let mut out = Vec::with_capacity(width * height);
    for row in 0..height {
        for col in 0..width {
            let p = Point2::new(
                bounds.min.x + bounds.width() * (col as f64 + 0.5) / width as f64,
                bounds.min.y + bounds.height() * (row as f64 + 0.5) / height as f64,
            );
            let t = match locator.locate(mesh, p) {
                Some(Location::Inside(t)) => t,
                Some(Location::Clamped(t, d)) if d <= slack => t,
                _ => {
                    out.push(f64::NAN);
                    continue;
                }
            };
            let [a, b, c] = mesh.triangle_vertices(t);
            let v = match mesh.triangle(t).barycentric(p) {
                Some([wa, wb, wc]) => {
                    let (wa, wb, wc) = (wa.max(0.0), wb.max(0.0), wc.max(0.0));
                    let sum = wa + wb + wc;
                    (wa * data[a as usize] + wb * data[b as usize] + wc * data[c as usize]) / sum
                }
                None => (data[a as usize] + data[b as usize] + data[c as usize]) / 3.0,
            };
            out.push(v);
        }
    }
    out
}

fn bits(pixels: &[f64]) -> Vec<u64> {
    pixels.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn raster_is_bitwise_equal_to_unbounded_reference() {
    for seed in 1..=3 {
        let ds = xgc1_dataset_sized(16, 80, seed);
        let hier = LevelHierarchy::build(
            &ds.mesh,
            &ds.data,
            RefactorConfig {
                num_levels: 3,
                ..Default::default()
            },
        );
        let full = ds.mesh.aabb();
        // The paper's framing, a window off the hull, and a wide frame
        // where most pixels lie outside.
        let off_hull = Aabb::from_points([
            Point2::new(full.min.x - 0.3 * full.width(), full.min.y),
            Point2::new(full.max.x, full.max.y + 0.2 * full.height()),
        ]);
        let wide = full.inflate(0.25 * full.width());
        for level in &hier.levels {
            for (bounds, size) in [(full, 96), (off_hull, 80), (wide, 48), (full, 33)] {
                let got = Raster::from_mesh(&level.mesh, &level.data, size, size, bounds);
                let want = reference_raster(&level.mesh, &level.data, size, size, bounds);
                assert_eq!(
                    bits(got.pixels()),
                    bits(&want),
                    "seed {seed}, {} vertices, {size}^2 over {bounds:?}",
                    level.mesh.num_vertices()
                );
            }
        }
    }
}

#[test]
fn reference_covers_hole_hull_and_clamped_pixels() {
    // The equality above is only meaningful if the reference sees all
    // three pixel kinds: inside, clamped within the slack, and NaN.
    let ds = xgc1_dataset_sized(16, 80, 1);
    let bounds = ds.mesh.aabb();
    let (w, h) = (96, 96);
    let locator = GridLocator::build(&ds.mesh);
    let slack = 1.5 * (bounds.width() / w as f64).max(bounds.height() / h as f64);
    let (mut inside, mut clamped, mut outside) = (0, 0, 0);
    for row in 0..h {
        for col in 0..w {
            let p = Point2::new(
                bounds.min.x + bounds.width() * (col as f64 + 0.5) / w as f64,
                bounds.min.y + bounds.height() * (row as f64 + 0.5) / h as f64,
            );
            match locator.locate(&ds.mesh, p) {
                Some(Location::Inside(_)) => inside += 1,
                Some(Location::Clamped(_, d)) if d <= slack => clamped += 1,
                _ => outside += 1,
            }
        }
    }
    assert!(
        inside > 0 && clamped > 0 && outside > 0,
        "{inside}/{clamped}/{outside}"
    );
}

/// Serial reference detector: label every threshold in order and group
/// as the detector documents.
fn reference_detect(image: &GrayImage, p: &BlobParams) -> Vec<Blob> {
    let mut groups: Vec<Vec<(f64, f64, f64, f64)>> = Vec::new();
    let mut t = p.min_threshold as u32;
    while t <= p.max_threshold as u32 {
        let mask = image.threshold(t as u8);
        for c in label_components(&mask, image.width, image.height) {
            if c.area < p.min_area || c.area > p.max_area {
                continue;
            }
            let obs = (c.centroid.0, c.centroid.1, c.radius(), c.area as f64);
            let mut best: Option<(usize, f64)> = None;
            for (gi, g) in groups.iter().enumerate() {
                let last = g.last().unwrap();
                let d = ((last.0 - obs.0).powi(2) + (last.1 - obs.1).powi(2)).sqrt();
                if d < p.min_dist_between_blobs && best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((gi, d));
                }
            }
            match best {
                Some((gi, _)) => groups[gi].push(obs),
                None => groups.push(vec![obs]),
            }
        }
        t += p.threshold_step as u32;
    }
    let mut blobs: Vec<Blob> = groups
        .into_iter()
        .filter(|g| g.len() >= p.min_repeatability)
        .map(|g| {
            let n = g.len() as f64;
            Blob {
                center: (
                    g.iter().map(|o| o.0).sum::<f64>() / n,
                    g.iter().map(|o| o.1).sum::<f64>() / n,
                ),
                radius: g.iter().map(|o| o.2).sum::<f64>() / n,
                area: g.iter().map(|o| o.3).sum::<f64>() / n,
                repeatability: g.len(),
            }
        })
        .collect();
    blobs.sort_by(|a, b| {
        (a.center.1, a.center.0)
            .partial_cmp(&(b.center.1, b.center.0))
            .unwrap()
    });
    blobs
}

#[test]
fn detect_equals_serial_fold_for_any_threshold_count() {
    let mut seen = 0;
    for seed in 1..=3 {
        let ds = xgc1_dataset_sized(16, 80, seed);
        let raster = Raster::from_mesh(&ds.mesh, &ds.data, 128, 128, ds.mesh.aabb());
        let (lo, hi) = raster.value_range().unwrap();
        let gray = raster.to_gray(lo, hi);
        // 1, 2, 7 and 20 thresholds; 20 is the paper's Config1.
        for (min_t, max_t, step) in [(60, 60, 10), (40, 50, 10), (20, 140, 20), (10, 200, 10)] {
            for (min_area, min_repeatability) in [(5, 1), (30, 2)] {
                let params = BlobParams {
                    threshold_step: step,
                    min_repeatability,
                    ..BlobParams::paper_config(min_t, max_t, min_area)
                };
                let got = BlobDetector::new(params).detect(&gray);
                assert_eq!(
                    got,
                    reference_detect(&gray, &params),
                    "seed {seed}, thresholds {min_t}..={max_t} step {step}, area {min_area}"
                );
                seen += got.len();
            }
        }
    }
    assert!(seen > 0, "the fixtures must produce blobs");
}
