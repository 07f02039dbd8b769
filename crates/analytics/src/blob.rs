//! SimpleBlobDetector-style blob detection.
//!
//! The paper: "we use the blob detection function in OpenCV … It uses
//! simple thresholding, grouping, and merging techniques to locate blobs",
//! parameterized by `<minThreshold, maxThreshold, minArea>` (§IV-D,
//! Configs 1–3). The algorithm, as OpenCV documents it:
//!
//! 1. binarize at thresholds `minThreshold, minThreshold + step, …,
//!    maxThreshold`;
//! 2. per threshold, extract connected components ("contours"), filter by
//!    area, record centers and radii;
//! 3. group centers across thresholds that lie within
//!    `minDistBetweenBlobs` of each other;
//! 4. keep groups seen in at least `minRepeatability` thresholds; report
//!    each as one blob at the averaged center with the averaged radius.
//!
//! We detect *bright* blobs (high electric potential). Step 2 labels all
//! thresholds in one serial sweep that adds each pixel once, brightest
//! first ([`label_thresholds`]), instead of labeling every mask from
//! scratch; its components are those of a per-mask BFS, bit for bit.
//! Step 3 walks the thresholds in ascending order.

use crate::components::label_thresholds;
use crate::raster::GrayImage;

/// Detector parameters. Defaults mirror OpenCV's SimpleBlobDetector
/// (thresholdStep 10, minDistBetweenBlobs 10, minRepeatability 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlobParams {
    pub min_threshold: u8,
    pub max_threshold: u8,
    pub threshold_step: u8,
    /// Minimum component area in pixels² at any threshold.
    pub min_area: usize,
    /// Maximum component area (OpenCV default is effectively unbounded
    /// for our image sizes).
    pub max_area: usize,
    /// Centers closer than this (pixels) across thresholds are one blob.
    pub min_dist_between_blobs: f64,
    /// Minimum number of thresholds a blob must appear at.
    pub min_repeatability: usize,
}

impl Default for BlobParams {
    fn default() -> Self {
        Self {
            min_threshold: 10,
            max_threshold: 200,
            threshold_step: 10,
            min_area: 100,
            max_area: usize::MAX,
            min_dist_between_blobs: 10.0,
            min_repeatability: 2,
        }
    }
}

impl BlobParams {
    /// The paper's `<minThreshold, maxThreshold, minArea>` triple with
    /// OpenCV defaults for the rest — Configs 1–3 of §IV-D.
    pub fn paper_config(min_threshold: u8, max_threshold: u8, min_area: usize) -> Self {
        Self {
            min_threshold,
            max_threshold,
            min_area,
            ..Default::default()
        }
    }
}

/// A detected blob (pixel units, like the paper's Figs. 8b–8c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blob {
    /// Center in pixel coordinates.
    pub center: (f64, f64),
    /// Equivalent-circle radius in pixels.
    pub radius: f64,
    /// Mean component area across the thresholds it appeared at.
    pub area: f64,
    /// Number of thresholds the blob appeared at.
    pub repeatability: usize,
}

impl Blob {
    pub fn diameter(&self) -> f64 {
        2.0 * self.radius
    }

    /// The paper's overlap criterion: "two blobs are defined as overlapped
    /// if the distance between their two centers is less than the sum of
    /// their radius."
    pub fn overlaps(&self, other: &Blob) -> bool {
        let dx = self.center.0 - other.center.0;
        let dy = self.center.1 - other.center.1;
        (dx * dx + dy * dy).sqrt() < self.radius + other.radius
    }
}

/// The detector. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlobDetector {
    pub params: BlobParams,
}

/// A center observed at one threshold, pending grouping.
#[derive(Debug, Clone)]
struct Observation {
    center: (f64, f64),
    radius: f64,
    area: f64,
}

impl BlobDetector {
    pub fn new(params: BlobParams) -> Self {
        Self { params }
    }

    /// Detect blobs in a grayscale image.
    pub fn detect(&self, image: &GrayImage) -> Vec<Blob> {
        let p = &self.params;
        assert!(p.threshold_step > 0, "threshold step must be positive");
        assert!(
            p.min_threshold <= p.max_threshold,
            "threshold range inverted"
        );

        // One sweep labels every threshold (see `components`).
        let levels: Vec<u8> = (p.min_threshold as u32..=p.max_threshold as u32)
            .step_by(p.threshold_step as usize)
            .map(|t| t as u8)
            .collect();
        let labelled = label_thresholds(&image.data, image.width, image.height, &levels);
        let observations = labelled
            .into_iter()
            .flatten()
            .filter(|c| c.area >= p.min_area && c.area <= p.max_area)
            .map(|c| Observation {
                center: c.centroid,
                radius: c.radius(),
                area: c.area as f64,
            });

        // Group observations across thresholds, in threshold order.
        let mut groups: Vec<Vec<Observation>> = Vec::new();
        for obs in observations {
            // Find the nearest existing group (by its latest center).
            let mut best: Option<(usize, f64)> = None;
            for (gi, group) in groups.iter().enumerate() {
                let last = group.last().expect("groups are non-empty");
                let dx = last.center.0 - obs.center.0;
                let dy = last.center.1 - obs.center.1;
                let d = (dx * dx + dy * dy).sqrt();
                if d < p.min_dist_between_blobs && best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((gi, d));
                }
            }
            match best {
                Some((gi, _)) => groups[gi].push(obs),
                None => groups.push(vec![obs]),
            }
        }

        // Merge each group into one blob.
        let mut blobs: Vec<Blob> = groups
            .into_iter()
            .filter(|g| g.len() >= p.min_repeatability)
            .map(|g| {
                let n = g.len() as f64;
                let cx = g.iter().map(|o| o.center.0).sum::<f64>() / n;
                let cy = g.iter().map(|o| o.center.1).sum::<f64>() / n;
                let radius = g.iter().map(|o| o.radius).sum::<f64>() / n;
                let area = g.iter().map(|o| o.area).sum::<f64>() / n;
                Blob {
                    center: (cx, cy),
                    radius,
                    area,
                    repeatability: g.len(),
                }
            })
            .collect();
        // Deterministic output order: left-to-right, top-to-bottom.
        blobs.sort_by(|a, b| {
            (a.center.1, a.center.0)
                .partial_cmp(&(b.center.1, b.center.0))
                .expect("finite centers")
        });
        blobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthesize a grayscale image with Gaussian bumps.
    fn image_with_bumps(w: usize, h: usize, bumps: &[(f64, f64, f64, f64)]) -> GrayImage {
        let mut data = vec![0u8; w * h];
        for row in 0..h {
            for col in 0..w {
                let mut v = 0.0f64;
                for &(cx, cy, sigma, amp) in bumps {
                    let d2 = (col as f64 - cx).powi(2) + (row as f64 - cy).powi(2);
                    v += amp * (-d2 / (2.0 * sigma * sigma)).exp();
                }
                data[row * w + col] = v.clamp(0.0, 255.0) as u8;
            }
        }
        GrayImage {
            width: w,
            height: h,
            data,
        }
    }

    #[test]
    fn detects_two_clear_blobs() {
        let img = image_with_bumps(
            100,
            100,
            &[(25.0, 25.0, 6.0, 220.0), (70.0, 65.0, 8.0, 200.0)],
        );
        let det = BlobDetector::new(BlobParams::paper_config(10, 200, 20));
        let blobs = det.detect(&img);
        assert_eq!(blobs.len(), 2, "expected 2 blobs, got {blobs:?}");
        // Centers near the bump centers (sorted by y then x).
        assert!((blobs[0].center.0 - 25.0).abs() < 3.0);
        assert!((blobs[0].center.1 - 25.0).abs() < 3.0);
        assert!((blobs[1].center.0 - 70.0).abs() < 3.0);
        // The wider bump yields the bigger blob.
        assert!(blobs[1].radius > blobs[0].radius);
    }

    #[test]
    fn min_area_filters_small_blobs() {
        let img = image_with_bumps(
            100,
            100,
            &[(25.0, 25.0, 2.0, 220.0), (70.0, 65.0, 10.0, 220.0)],
        );
        let strict = BlobDetector::new(BlobParams::paper_config(10, 200, 200));
        let blobs = strict.detect(&img);
        assert_eq!(blobs.len(), 1, "small bump must be filtered: {blobs:?}");
        assert!((blobs[0].center.0 - 70.0).abs() < 3.0);
    }

    #[test]
    fn higher_min_threshold_drops_faint_blobs() {
        let img = image_with_bumps(
            100,
            100,
            &[(25.0, 25.0, 8.0, 90.0), (70.0, 65.0, 8.0, 230.0)],
        );
        let lenient = BlobDetector::new(BlobParams::paper_config(10, 200, 20));
        assert_eq!(lenient.detect(&img).len(), 2);
        let strict = BlobDetector::new(BlobParams::paper_config(150, 200, 20));
        let blobs = strict.detect(&img);
        assert_eq!(blobs.len(), 1, "faint blob must vanish: {blobs:?}");
        assert!((blobs[0].center.0 - 70.0).abs() < 3.0);
    }

    #[test]
    fn empty_image_has_no_blobs() {
        let img = GrayImage {
            width: 50,
            height: 50,
            data: vec![0; 2500],
        };
        let det = BlobDetector::default();
        assert!(det.detect(&img).is_empty());
    }

    #[test]
    fn uniform_bright_image_is_one_big_blob() {
        let img = GrayImage {
            width: 50,
            height: 50,
            data: vec![255; 2500],
        };
        let det = BlobDetector::new(BlobParams::paper_config(10, 200, 100));
        let blobs = det.detect(&img);
        assert_eq!(blobs.len(), 1);
        assert!((blobs[0].center.0 - 24.5).abs() < 0.5);
        assert!((blobs[0].area - 2500.0).abs() < 1.0);
    }

    #[test]
    fn overlap_criterion() {
        let a = Blob {
            center: (0.0, 0.0),
            radius: 5.0,
            area: 78.0,
            repeatability: 5,
        };
        let b = Blob {
            center: (8.0, 0.0),
            radius: 4.0,
            area: 50.0,
            repeatability: 5,
        };
        assert!(a.overlaps(&b)); // 8 < 9
        let c = Blob {
            center: (10.0, 0.0),
            radius: 4.0,
            area: 50.0,
            repeatability: 5,
        };
        assert!(!a.overlaps(&c)); // 10 > 9
    }

    #[test]
    fn detection_is_deterministic() {
        let img = image_with_bumps(
            80,
            80,
            &[(20.0, 20.0, 5.0, 200.0), (60.0, 50.0, 7.0, 180.0)],
        );
        let det = BlobDetector::default();
        assert_eq!(det.detect(&img), det.detect(&img));
    }

    #[test]
    fn repeatability_counts_thresholds() {
        let img = image_with_bumps(80, 80, &[(40.0, 40.0, 8.0, 250.0)]);
        let det = BlobDetector::new(BlobParams::paper_config(10, 200, 20));
        let blobs = det.detect(&img);
        assert_eq!(blobs.len(), 1);
        assert!(
            blobs[0].repeatability >= 10,
            "a bright blob persists across many thresholds: {}",
            blobs[0].repeatability
        );
    }
}
