//! What the decimation kernel must keep fixed, seen through the public
//! write and read paths.
//!
//! The digests below were recorded before the kernel's data structures
//! were last rewritten (flat incidence arena, no live-edge hash set, one
//! shared driver loop). That rewrite had to leave the collapse order, and
//! so every stored product, bit-for-bit unchanged. A digest covers every
//! key on every tier, the tier it lives on and its stored bytes, the
//! `.bpmeta` manifest included. If one of them fails, files written by
//! this build no longer match files written before it.
//!
//! The other tests tie the engine to the kernel: the meshes a reader gets
//! back are the kernel's hierarchy, and the frozen-vertex entry point used
//! by partition-parallel decimation agrees with the plain one.

use canopus::{Canopus, CanopusConfig};
use canopus_data::{
    all_datasets_small, cfd_dataset_sized, genasis_dataset_sized, xgc1_dataset_sized, Dataset,
};
use canopus_mesh::{quality, TriMesh};
use canopus_refactor::decimate::decimate_frozen;
use canopus_refactor::levels::{LevelHierarchy, RefactorConfig};
use canopus_refactor::{decimate, DecimationResult};
use canopus_storage::StorageHierarchy;
use std::sync::Arc;

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Write `ds` with the default configuration over a two-tier hierarchy
/// whose fast tier holds a quarter of the raw bytes.
fn written(ds: &Dataset) -> Canopus {
    let raw = (ds.data.len() * 8) as u64;
    let canopus = Canopus::new(
        Arc::new(StorageHierarchy::titan_two_tier(raw / 4, raw * 64)),
        CanopusConfig::default(),
    );
    canopus
        .write("golden.bp", ds.var, &ds.mesh, &ds.data)
        .expect("write");
    canopus
}

/// `(number of stored keys, digest)` of every key, tier and stored
/// byte, in key order. Reads the devices directly, so the digest itself
/// moves no simulated I/O.
fn products_digest(c: &Canopus) -> (usize, u64) {
    let h = c.hierarchy();
    let mut all = Vec::new();
    for tier in 0..h.num_tiers() {
        let dev = h.tier_device(tier).expect("tier device");
        for key in dev.keys() {
            let bytes = dev.get(&key).expect("stored block").to_vec();
            all.push((key, tier, bytes));
        }
    }
    all.sort();
    assert!(
        all.iter().any(|(k, _, _)| k == "golden.bp/.bpmeta"),
        "manifest missing"
    );
    let mut h = Fnv::new();
    for (key, tier, bytes) in &all {
        h.bytes(key.as_bytes());
        h.word(*tier as u64);
        h.word(bytes.len() as u64);
        h.bytes(bytes);
    }
    (all.len(), h.0)
}

fn mesh_digest(mesh: &TriMesh) -> u64 {
    let mut h = Fnv::new();
    h.word(mesh.num_vertices() as u64);
    for p in mesh.points() {
        h.word(p.x.to_bits());
        h.word(p.y.to_bits());
    }
    h.word(mesh.num_triangles() as u64);
    for t in mesh.triangles() {
        for &v in t {
            h.word(v as u64);
        }
    }
    h.0
}

fn result_digest(r: &DecimationResult) -> u64 {
    let mut h = Fnv::new();
    h.word(mesh_digest(&r.mesh));
    for d in &r.data {
        h.word(d.to_bits());
    }
    for o in &r.original_index {
        h.word(o.map_or(u64::MAX, u64::from));
    }
    h.word(r.collapses as u64);
    h.word(r.rejected as u64);
    h.0
}

#[test]
fn xgc1_write_products_match_recorded_digest() {
    let ds = xgc1_dataset_sized(16, 80, 7);
    assert_eq!(products_digest(&written(&ds)), (7, 0x0617_8856_9e58_014c));
}

#[test]
fn genasis_write_products_match_recorded_digest() {
    let ds = genasis_dataset_sized(24, 72, 7);
    assert_eq!(products_digest(&written(&ds)), (7, 0x8178_c5a6_7510_b40c));
}

#[test]
fn cfd_write_products_match_recorded_digest() {
    let ds = cfd_dataset_sized(30, 24, 7);
    assert_eq!(products_digest(&written(&ds)), (7, 0x5dee_b3cd_94a7_ce38));
}

/// Every level a reader restores sits on exactly the mesh the kernel's
/// hierarchy builds for it: the engine decimates with the same kernel,
/// ratio and order as `LevelHierarchy::build`.
#[test]
fn read_back_level_meshes_are_the_kernel_hierarchy() {
    for ds in all_datasets_small(7) {
        let c = written(&ds);
        let levels = CanopusConfig::default().refactor.num_levels;
        let hierarchy = LevelHierarchy::build(
            &ds.mesh,
            &ds.data,
            RefactorConfig {
                num_levels: levels,
                ..Default::default()
            },
        );
        let reader = c.open("golden.bp").expect("open");
        for level in 0..levels {
            let got = reader.read_level(ds.var, level).expect("read level");
            assert_eq!(got.level, level, "{} level {level}", ds.name);
            assert_eq!(
                mesh_digest(&got.mesh),
                mesh_digest(&hierarchy.levels[level as usize].mesh),
                "{} level {level}: restored mesh is not the kernel's",
                ds.name
            );
        }
    }
}

/// With no vertex flagged, the frozen entry point is the plain kernel:
/// same collapses, same rejections, same output bits, level after level.
#[test]
fn unflagged_frozen_decimation_equals_decimate() {
    for ds in all_datasets_small(7) {
        let (mut mesh, mut data) = (ds.mesh, ds.data);
        for level in 1..=2 {
            let frozen = vec![false; mesh.num_vertices()];
            let plain = decimate(&mesh, &data, 2.0);
            let unflagged = decimate_frozen(&mesh, &data, 2.0, &frozen);
            assert!(plain.collapses > 0, "{} level {level}", ds.name);
            assert_eq!(
                result_digest(&unflagged),
                result_digest(&plain),
                "{} level {level}",
                ds.name
            );
            mesh = plain.mesh;
            data = plain.data;
        }
    }
}

/// Frozen vertices survive with their exact position and value, the
/// rest still decimates, and the result is a valid triangulation.
#[test]
fn frozen_vertices_survive_bit_exact() {
    for ds in all_datasets_small(7) {
        let n = ds.mesh.num_vertices();
        let frozen: Vec<bool> = (0..n).map(|i| i % 5 == 0).collect();
        let r = decimate_frozen(&ds.mesh, &ds.data, 2.0, &frozen);
        assert!(r.collapses > 0, "{}: nothing collapsed", ds.name);
        assert!(r.mesh.num_vertices() < n, "{}: nothing removed", ds.name);

        let mut survived = vec![false; n];
        for (out, orig) in r.original_index.iter().enumerate() {
            if let Some(orig) = *orig {
                let orig = orig as usize;
                survived[orig] = true;
                let (p, q) = (r.mesh.points()[out], ds.mesh.points()[orig]);
                assert_eq!(
                    (p.x.to_bits(), p.y.to_bits()),
                    (q.x.to_bits(), q.y.to_bits()),
                    "{}: vertex {orig} moved",
                    ds.name
                );
                assert_eq!(
                    r.data[out].to_bits(),
                    ds.data[orig].to_bits(),
                    "{}: value of vertex {orig} changed",
                    ds.name
                );
            }
        }
        for (i, &f) in frozen.iter().enumerate() {
            assert!(!f || survived[i], "{}: frozen vertex {i} lost", ds.name);
        }

        let rep = quality::check(&r.mesh);
        assert!(rep.is_manifold, "{}: not manifold: {rep:?}", ds.name);
        assert_eq!(rep.inverted_triangles, 0, "{}", ds.name);
        assert_eq!(rep.degenerate_triangles, 0, "{}", ds.name);
    }
}
