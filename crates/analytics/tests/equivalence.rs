//! The Fig. 9 analysis path against plain reference implementations.
//!
//! `Raster::from_mesh` scan-converts triangles in ascending id instead of
//! locating every pixel, and `BlobDetector::detect` labels all thresholds
//! in one union-find sweep instead of one BFS per threshold. Neither may
//! change a result: rasters must be bitwise equal to locating every pixel
//! with the unbounded locator, components equal to a scan-order BFS of
//! each mask, and blob lists equal to a serial fold over the thresholds of
//! those BFS components.

use canopus_analytics::blob::{Blob, BlobDetector, BlobParams};
use canopus_analytics::components::{label_components, label_thresholds, Component};
use canopus_analytics::raster::{GrayImage, Raster};
use canopus_data::xgc1_dataset_sized;
use canopus_mesh::generators::{annulus_mesh, jitter_interior, rectangle_mesh};
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_mesh::locate::{GridLocator, Location};
use canopus_mesh::TriMesh;
use canopus_refactor::levels::{LevelHierarchy, RefactorConfig};
use proptest::prelude::*;

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

/// Scan-order BFS labeling of one mask: components in the order a
/// raster scan first meets them, coordinates summed in f64.
fn bfs_components(mask: &[bool], width: usize, height: usize) -> Vec<Component> {
    let mut visited = vec![false; mask.len()];
    let mut out = Vec::new();
    let mut queue = Vec::new();
    for start in 0..mask.len() {
        if !mask[start] || visited[start] {
            continue;
        }
        visited[start] = true;
        queue.push(start);
        let (mut area, mut sum_x, mut sum_y) = (0usize, 0.0f64, 0.0f64);
        let (mut min_x, mut min_y, mut max_x, mut max_y) = (usize::MAX, usize::MAX, 0, 0);
        while let Some(idx) = queue.pop() {
            let (x, y) = (idx % width, idx / width);
            area += 1;
            sum_x += x as f64;
            sum_y += y as f64;
            (min_x, min_y) = (min_x.min(x), min_y.min(y));
            (max_x, max_y) = (max_x.max(x), max_y.max(y));
            for ny in y.saturating_sub(1)..=(y + 1).min(height - 1) {
                for nx in x.saturating_sub(1)..=(x + 1).min(width - 1) {
                    let n = ny * width + nx;
                    if mask[n] && !visited[n] {
                        visited[n] = true;
                        queue.push(n);
                    }
                }
            }
        }
        out.push(Component {
            area,
            centroid: (sum_x / area as f64, sum_y / area as f64),
            bbox: (min_x, min_y, max_x, max_y),
        });
    }
    out
}

/// Serial reference detector: BFS-label every threshold in order and
/// group as the detector documents.
fn reference_detect(image: &GrayImage, p: &BlobParams) -> Vec<Blob> {
    let mut groups: Vec<Vec<(f64, f64, f64, f64)>> = Vec::new();
    let mut t = p.min_threshold as u32;
    while t <= p.max_threshold as u32 {
        let mask = image.threshold(t as u8);
        for c in bfs_components(&mask, image.width, image.height) {
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

/// A random gray image: `width` in 1..=40, any height the length allows,
/// values quantized to multiples of `quant` so that coarse quantizations
/// give large plateaus and fine ones speckle.
fn arb_gray() -> impl Strategy<Value = GrayImage> {
    (
        proptest::collection::vec(any::<u8>(), 1..700),
        1usize..41,
        1u8..255,
    )
        .prop_map(|(data, width, quant)| {
            let width = width.min(data.len());
            let height = data.len() / width;
            let data = data[..width * height]
                .iter()
                .map(|&v| v / quant * quant)
                .collect();
            GrayImage {
                width,
                height,
                data,
            }
        })
}

/// A threshold range and step: `edge` pins the range to start at 0, to
/// end at 255, or both, or leaves it random.
fn arb_thresholds() -> impl Strategy<Value = (u8, u8, u8)> {
    (0u8..4, any::<u8>(), any::<u8>(), 1u8..51).prop_map(|(edge, a, b, step)| {
        let (lo, hi) = (a.min(b), a.max(b));
        match edge {
            0 => (0, hi, step),
            1 => (lo, 255, step),
            2 => (0, 255, step),
            _ => (lo, hi, step),
        }
    })
}

proptest! {
    /// The sweep's components at every threshold are the BFS components
    /// of that threshold's mask, in the same order and to the bit
    /// (centroids are finite and non-negative, so `==` compares bits).
    #[test]
    fn sweep_equals_bfs_at_every_threshold(
        gray in arb_gray(),
        (min_t, max_t, step) in arb_thresholds(),
    ) {
        let levels: Vec<u8> = (min_t as u32..=max_t as u32)
            .step_by(step as usize)
            .map(|t| t as u8)
            .collect();
        let swept = label_thresholds(&gray.data, gray.width, gray.height, &levels);
        prop_assert_eq!(swept.len(), levels.len());
        for (&t, comps) in levels.iter().zip(&swept) {
            let mask = gray.threshold(t);
            prop_assert_eq!(
                comps,
                &bfs_components(&mask, gray.width, gray.height),
                "threshold {} of {}x{}", t, gray.width, gray.height
            );
        }
        let mask = gray.threshold(min_t);
        prop_assert_eq!(
            label_components(&mask, gray.width, gray.height),
            bfs_components(&mask, gray.width, gray.height)
        );
    }

    /// The detector equals the serial BFS fold for any threshold range,
    /// step, area bound and repeatability.
    #[test]
    fn detect_equals_bfs_fold_on_random_images(
        gray in arb_gray(),
        (min_t, max_t, step) in arb_thresholds(),
        min_area in 1usize..12,
        min_repeatability in 1usize..4,
    ) {
        let params = BlobParams {
            min_threshold: min_t,
            max_threshold: max_t,
            threshold_step: step,
            min_area,
            min_dist_between_blobs: 3.0,
            min_repeatability,
            ..Default::default()
        };
        prop_assert_eq!(BlobDetector::new(params).detect(&gray), reference_detect(&gray, &params));
    }

    /// Scan conversion equals the per-pixel reference on jittered
    /// rectangles and annuli with shuffled triangle ids, for grids of any
    /// shape over the hull, windows inside it, and frames partly or wholly
    /// off it.
    #[test]
    fn scan_conversion_equals_per_pixel_reference(
        (annulus, n, m, seed) in (any::<bool>(), 2usize..7, 6usize..20, 0u64..1000),
        jitter in 0u8..3,
        frame in (0u8..4, -1.0f64..1.0, -1.0f64..1.0, 0.1f64..1.6),
        (width, height) in (1usize..48, 1usize..48),
        shuffle in any::<u64>(),
    ) {
        let base = if annulus {
            annulus_mesh(n, m, 0.4, 1.0)
        } else {
            rectangle_mesh(m, n, Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(2.0, 1.0)]))
        };
        // No jitter puts pixel centres exactly on shared edges.
        let amount = [0.0, 0.1, 0.3][jitter as usize];
        let jittered = if amount > 0.0 { jitter_interior(&base, amount, seed) } else { base };
        let mut tris = jittered.triangles().to_vec();
        let mut state = shuffle | 1;
        for i in (1..tris.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            tris.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mesh = TriMesh::new(jittered.points().to_vec(), tris);
        let data: Vec<f64> = mesh.points().iter().map(|p| (3.0 * p.x).sin() + p.y * p.y).collect();

        let hull = mesh.aabb();
        let (kind, dx, dy, scale) = frame;
        let (w, h) = (hull.width() * scale, hull.height() * scale);
        let corner = Point2::new(hull.min.x + dx * hull.width(), hull.min.y + dy * hull.height());
        let bounds = match kind {
            0 => hull,
            1 => hull.inflate(0.3 * hull.width()),
            _ => Aabb::from_points([corner, Point2::new(corner.x + w, corner.y + h)]),
        };
        let got = Raster::from_mesh(&mesh, &data, width, height, bounds);
        let want = reference_raster(&mesh, &data, width, height, bounds);
        prop_assert_eq!(bits(got.pixels()), bits(&want), "{}x{} over {:?}", width, height, bounds);
    }
}
