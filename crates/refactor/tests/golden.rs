//! Golden digests of edge-collapse decimation.
//!
//! Every digest below was recorded before the decimation kernel's data
//! structures were last rewritten; the rewrite had to leave the collapse
//! order, and so every output bit, unchanged. A digest covers the output
//! points' bits, the triangles, the data bits, `original_index`, and the
//! collapse and rejection counts. If one of these tests fails, the kernel
//! no longer produces the same hierarchy, and the stored products of
//! every Canopus write change with it.
//!
//! The proptest at the end checks the invariants that do not depend on
//! any recorded value: the output is a manifold with no inverted or
//! degenerate triangle, and the same input always gives the same output.

use canopus_data::{cfd_dataset, genasis_dataset, xgc1_dataset, Dataset};
use canopus_mesh::generators::{annulus_mesh, jitter_interior, rectangle_mesh};
use canopus_mesh::geometry::{Aabb, Point2};
use canopus_mesh::{quality, TriMesh};
use canopus_refactor::decimate::{decimate_data_aware, decimate_random_order};
use canopus_refactor::{decimate, decimate_parallel_morton, DecimationResult};
use proptest::prelude::*;

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

fn digest(r: &DecimationResult) -> u64 {
    let mut h = Fnv::new();
    h.word(r.mesh.num_vertices() as u64);
    for p in r.mesh.points() {
        h.word(p.x.to_bits());
        h.word(p.y.to_bits());
    }
    h.word(r.mesh.num_triangles() as u64);
    for t in r.mesh.triangles() {
        for &v in t {
            h.word(v as u64);
        }
    }
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

/// `(collapses, rejected, digest)` of one decimation step.
type Golden = (usize, usize, u64);

fn summary(r: &DecimationResult) -> Golden {
    (r.collapses, r.rejected, digest(r))
}

/// Two halvings of a paper dataset, L0 -> L1 -> L2.
fn two_halvings(ds: &Dataset) -> [Golden; 2] {
    let l1 = decimate(&ds.mesh, &ds.data, 2.0);
    let l2 = decimate(&l1.mesh, &l1.data, 2.0);
    [summary(&l1), summary(&l2)]
}

fn jittered_grid(n: usize) -> (TriMesh, Vec<f64>) {
    let bb = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]);
    let mesh = jitter_interior(&rectangle_mesh(n, n, bb), 0.2, 42);
    let data = mesh
        .points()
        .iter()
        .map(|p| {
            let d2 = (p.x - 0.5).powi(2) + (p.y - 0.5).powi(2);
            (-d2 / (2.0 * 0.05f64.powi(2))).exp() + 0.1 * p.x
        })
        .collect();
    (mesh, data)
}

#[test]
fn xgc1_two_halvings_match_golden() {
    let got = two_halvings(&xgc1_dataset(7));
    assert_eq!(
        got,
        [
            (10_400, 229, 0x7a80_4d69_2d14_4751),
            (5_200, 104, 0xd8b9_0c75_3bda_0cb3),
        ]
    );
}

#[test]
fn genasis_two_halvings_match_golden() {
    let got = two_halvings(&genasis_dataset(7));
    assert_eq!(
        got,
        [
            (32_625, 144, 0x0307_a4d1_29ea_9d48),
            (16_313, 97, 0x6ba8_53fc_356d_727b),
        ]
    );
}

#[test]
fn cfd_two_halvings_match_golden() {
    let got = two_halvings(&cfd_dataset(7));
    assert_eq!(
        got,
        [
            (3_195, 2, 0x28c3_45c8_d60c_8f99),
            (1_597, 0, 0x6f71_20b8_91a2_ba0c),
        ]
    );
}

#[test]
fn morton_partitioned_matches_golden() {
    let (mesh, data) = jittered_grid(24);
    let got = summary(&decimate_parallel_morton(&mesh, &data, 2.0, 4));
    assert_eq!(got, (342, 157, 0x1272_25e0_25c7_216c));
}

#[test]
fn data_aware_matches_golden() {
    let (mesh, data) = jittered_grid(24);
    let got = summary(&decimate_data_aware(&mesh, &data, 2.0, 8.0));
    assert_eq!(got, (312, 10, 0x5224_8135_7907_f76b));
}

#[test]
fn random_order_matches_golden() {
    let (mesh, data) = jittered_grid(24);
    let got = summary(&decimate_random_order(&mesh, &data, 2.0, 99));
    assert_eq!(got, (312, 46, 0x76af_1c0e_8d88_1046));
}

/// A jittered `[0, 2] x [0, 1]` rectangle or a jittered annulus, with a
/// smooth field plus per-vertex noise.
fn arb_mesh() -> impl Strategy<Value = (TriMesh, Vec<f64>)> {
    (
        any::<bool>(),
        3usize..14,
        6usize..28,
        0.0f64..0.25,
        0u64..1000,
    )
        .prop_map(|(annulus, n, m, jitter, seed)| {
            let mesh = if annulus {
                jitter_interior(&annulus_mesh(n, m, 0.4, 1.0), jitter, seed)
            } else {
                let bb = Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(2.0, 1.0)]);
                jitter_interior(&rectangle_mesh(m, n, bb), jitter, seed)
            };
            let data = mesh
                .points()
                .iter()
                .enumerate()
                .map(|(i, p)| (3.0 * p.x).sin() * p.y + ((i as u64 * seed) % 7) as f64 * 0.01)
                .collect();
            (mesh, data)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two halvings of any jittered rectangle or annulus stay a valid,
    /// deterministic triangulation.
    #[test]
    fn decimation_output_is_manifold_and_deterministic(case in arb_mesh()) {
        let (mut mesh, mut data) = case;
        for level in 1..=2 {
            let r = decimate(&mesh, &data, 2.0);
            let rep = quality::check(&r.mesh);
            prop_assert!(rep.is_manifold, "level {level} not manifold: {rep:?}");
            prop_assert_eq!(rep.inverted_triangles, 0, "level {} folded", level);
            prop_assert_eq!(rep.degenerate_triangles, 0, "level {} degenerate", level);
            prop_assert_eq!(r.data.len(), r.mesh.num_vertices());
            prop_assert_eq!(r.original_index.len(), r.mesh.num_vertices());
            let again = decimate(&mesh, &data, 2.0);
            prop_assert_eq!(digest(&again), digest(&r), "level {} not deterministic", level);
            mesh = r.mesh;
            data = r.data;
        }
    }
}

/// `(queue_pops, stale_pops)` of the seed-7 L0 halving of a dataset.
fn l0_queue_work(ds: &Dataset) -> (usize, usize) {
    let r = decimate(&ds.mesh, &ds.data, 2.0);
    assert_eq!(r.queue_pops, r.collapses + r.rejected + r.stale_pops);
    (r.queue_pops, r.stale_pops)
}

/// The queue's work is a deterministic count: every pop is a collapse, a
/// rejection or a stale entry, and the totals are pinned per dataset.
#[test]
fn l0_queue_pops_match_golden() {
    let got = [
        l0_queue_work(&xgc1_dataset(7)),
        l0_queue_work(&genasis_dataset(7)),
        l0_queue_work(&cfd_dataset(7)),
    ];
    assert_eq!(got, [(26_489, 15_860), (81_203, 48_434), (5_861, 2_664)]);
}
