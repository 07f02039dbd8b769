//! What the Fig. 9 analysis kernels must keep fixed: the 384² rasters and
//! the blob lists they produce, bit for bit.
//!
//! The digests below were recorded before the rasterizer moved from
//! locating every pixel to triangle-order scan conversion and before the
//! detector moved from one BFS labeling per threshold to a single
//! descending-gray union-find sweep. Both rewrites had to leave every
//! pixel and every blob unchanged. A raster digest covers the bits of
//! every pixel, NaN background included; a blob digest covers, for each
//! of the paper's Configs 1–3, the number of blobs and each blob's centre,
//! radius and area bits and its repeatability.
//!
//! Each dataset is refactored with the default three levels and analysed
//! at full accuracy (L0) and at the base, both over L0's bounds and with
//! L0's gray normalisation (the Fig. 8 framing), plus the base over its
//! own bounds (the framing of a quick look that has only the base).

use canopus_analytics::{BlobDetector, BlobParams, Raster};
use canopus_bench::setup::{PAPER_CONFIGS, RASTER_SIZE};
use canopus_data::{cfd_dataset, genasis_dataset, xgc1_dataset, Dataset};
use canopus_refactor::levels::{LevelHierarchy, RefactorConfig};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn raster_digest(r: &Raster) -> u64 {
    let mut h = Fnv::new();
    for p in r.pixels() {
        h.word(p.to_bits());
    }
    h.0
}

/// Digest of the Config1–3 blob lists on `r` normalised to `[lo, hi]`,
/// and the total number of blobs found.
fn blobs_digest(r: &Raster, lo: f64, hi: f64) -> (u64, usize) {
    let gray = r.to_gray(lo, hi);
    let mut h = Fnv::new();
    let mut total = 0;
    for (_, min_t, max_t, min_area) in PAPER_CONFIGS {
        let blobs =
            BlobDetector::new(BlobParams::paper_config(min_t, max_t, min_area)).detect(&gray);
        h.word(blobs.len() as u64);
        for b in &blobs {
            h.word(b.center.0.to_bits());
            h.word(b.center.1.to_bits());
            h.word(b.radius.to_bits());
            h.word(b.area.to_bits());
            h.word(b.repeatability as u64);
        }
        total += blobs.len();
    }
    (h.0, total)
}

/// `[L0 raster, base raster, base raster over its own bounds,
/// L0 blobs, base blobs]` digests of one dataset.
fn digests(ds: &Dataset) -> [u64; 5] {
    let hier = LevelHierarchy::build(&ds.mesh, &ds.data, RefactorConfig::default());
    let base = hier.base();
    let bounds = ds.mesh.aabb();
    let full = Raster::from_mesh(&ds.mesh, &ds.data, RASTER_SIZE, RASTER_SIZE, bounds);
    let coarse = Raster::from_mesh(&base.mesh, &base.data, RASTER_SIZE, RASTER_SIZE, bounds);
    let own = Raster::from_mesh(
        &base.mesh,
        &base.data,
        RASTER_SIZE,
        RASTER_SIZE,
        base.mesh.aabb(),
    );
    let (lo, hi) = full.value_range().expect("L0 raster covers the mesh");
    let (full_blobs, n_full) = blobs_digest(&full, lo, hi);
    let (base_blobs, n_base) = blobs_digest(&coarse, lo, hi);
    // The digests pin something only if the fixtures are not degenerate.
    assert!(n_full > 0 && n_base > 0, "{}: no blobs", ds.name);
    for r in [&full, &coarse] {
        let cov = r.coverage();
        assert!(cov > 0.3, "{}: coverage {cov}", ds.name);
    }
    [
        raster_digest(&full),
        raster_digest(&coarse),
        raster_digest(&own),
        full_blobs,
        base_blobs,
    ]
}

fn check(ds: &Dataset, want: [u64; 5]) {
    let got = digests(ds);
    assert_eq!(
        got.map(|d| format!("{d:#018x}")),
        want.map(|d| format!("{d:#018x}")),
        "{}: [L0 raster, base raster, base own-bounds raster, L0 blobs, base blobs]",
        ds.name
    );
}

#[test]
fn xgc1_seed7_products_are_unchanged() {
    check(
        &xgc1_dataset(7),
        [
            0xd890_4eec_a9eb_51f4,
            0x76f0_32a4_7b84_c086,
            0xc55c_3cab_9a48_7916,
            0x8d9f_bbc9_7b36_b17d,
            0x70c6_0451_8585_2336,
        ],
    );
}

#[test]
fn xgc1_seed8_products_are_unchanged() {
    check(
        &xgc1_dataset(8),
        [
            0x8881_a6e6_5cfb_af9c,
            0xf1ab_0148_e933_9e0e,
            0x9d83_7336_e756_3cfe,
            0x6ed1_4e26_3cb3_0dc3,
            0xfa5e_70b8_caa9_113d,
        ],
    );
}

#[test]
fn xgc1_seed9_products_are_unchanged() {
    check(
        &xgc1_dataset(9),
        [
            0x83b2_2795_2edf_96b2,
            0xce29_980a_40d4_dc69,
            0x6d4a_4834_d9e1_6f14,
            0x3487_8a11_3ff9_fa71,
            0x0b39_49dc_5b04_f4e5,
        ],
    );
}

#[test]
fn genasis_products_are_unchanged() {
    check(
        &genasis_dataset(7),
        [
            0x644c_c24e_6e36_00a5,
            0x2fe0_ef21_257e_a32f,
            0x54bf_bce3_e7b2_860a,
            0x3aa7_914a_82ec_8d76,
            0x6e7e_f1ac_45a1_de82,
        ],
    );
}

#[test]
fn cfd_products_are_unchanged() {
    check(
        &cfd_dataset(7),
        [
            0x8beb_1e65_eac1_f8ed,
            0xae6f_3a2b_e83a_2e44,
            0x3791_e120_8975_21d4,
            0xc6c0_578e_a799_e71c,
            0x202d_4088_fb4b_cd7a,
        ],
    );
}
