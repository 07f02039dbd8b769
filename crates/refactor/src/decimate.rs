//! Edge-collapse mesh decimation (paper Alg. 1).
//!
//! The shortest edge is collapsed first: its endpoints `V_i, V_j` are
//! replaced by `V_k = (V_i + V_j) / 2` carrying `L_k = (L_i + L_j) / 2`
//! (the paper's `NewVertex` / `NewData` with the simple mean), incident
//! triangles are rewired, and the process repeats until the level's vertex
//! count has dropped by the decimation ratio (2 per level, so `d^l = 2^l`).
//!
//! Two guards keep every level restorable:
//! * the *link condition* (common neighbors of the endpoints must be
//!   exactly the opposite vertices of the edge's triangles) preserves
//!   manifoldness;
//! * an *orientation check* rejects collapses that would fold any rewired
//!   triangle (restoration's point location assumes an embedded mesh).
//!
//! Rejected edges are simply discarded — their endpoints usually become
//! collapsible via other edges; if the queue drains before the target is
//! met the achieved ratio is reported honestly.
//!
//! Every edge enters the priority queue once: the input edges at the
//! start, and each edge of a collapse's new vertex when it is created.
//! An edge leaves the mesh only when one of its endpoints is collapsed
//! away, so a popped edge is live exactly when both endpoints are alive;
//! the driver checks that and needs no live-edge set (see [`crate::pqueue`]).
//!
//! A collapse costs its one-ring and allocates only when an append-only
//! array outgrows its capacity (amortized, never per call):
//! * Vertex→triangle incidence is one append-only arena with `u32`
//!   offsets: the input vertices' lists are a CSR block filled in
//!   triangle order, and each new vertex appends its rewired triangles at
//!   the end. Lists are never edited; a dead triangle stays listed and is
//!   skipped through `alive_t`.
//! * One pass over each endpoint's list gathers its alive triangles with
//!   their corners; the pass over `u` also finds the edge's own triangles.
//! * No one-ring is ever sorted. Neighbor sets are epoch stamps in a
//!   per-vertex `mark` array: the link condition stamps `u`'s neighbors
//!   and counts the distinct ones `v` shares, and the commit pushes the
//!   new vertex's edges straight from the rewired triangles, each once.
//!   The array is cleared only when the epoch counter would wrap.
//!
//! The per-collapse rings and rewired triangles live in reusable scratch
//! buffers.

use crate::pqueue::{edge, Edge, EdgeQueue};
use canopus_mesh::geometry::{signed_area2, Point2, GEOM_EPS};
use canopus_mesh::TriMesh;
use std::ops::Range;

/// Outcome of one decimation step (level `l` → level `l+1`).
#[derive(Debug, Clone)]
pub struct DecimationResult {
    /// The decimated mesh `G^{l+1}`.
    pub mesh: TriMesh,
    /// The decimated data `L^{l+1}` (same order as `mesh` vertices).
    pub data: Vec<f64>,
    /// Achieved `|V^l| / |V^{l+1}|`.
    pub achieved_ratio: f64,
    /// Number of collapses performed.
    pub collapses: usize,
    /// Number of candidate edges rejected by the guards.
    pub rejected: usize,
    /// Edges popped from the priority queue: collapses, rejections and
    /// stale pops together.
    pub queue_pops: usize,
    /// Popped edges skipped because an endpoint had already been
    /// collapsed away (the edge died with it).
    pub stale_pops: usize,
    /// For each output vertex: `Some(original id)` if it is a surviving
    /// input vertex, `None` if it was created by a collapse. Partition-
    /// parallel decimation uses this to stitch shared vertices.
    pub original_index: Vec<Option<u32>>,
}

/// How the queue orders the input edges.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// Edge length (the paper's default).
    Shortest,
    /// Length scaled up by the data contrast across the edge.
    DataAware(f64),
    /// A seeded hash of the edge.
    Random(u64),
}

/// An alive triangle of an endpoint's ring: id and corners.
type RingTri = (u32, [u32; 3]);

/// Per-collapse buffers, kept across collapses so none allocates.
#[derive(Default)]
struct Scratch {
    /// Alive triangles incident to `u`, in incidence order.
    ring_u: Vec<RingTri>,
    /// Alive triangles incident to `v`, in incidence order.
    ring_v: Vec<RingTri>,
    /// Rewired triangles: id and new corners.
    new_tris: Vec<RingTri>,
    /// The two corners of each of `new_tris` other than the new vertex,
    /// packed low id first, for the duplicate check.
    seen: Vec<u64>,
}

/// Epoch-stamped vertex sets: `x` is in the current set exactly when
/// `mark[x] == epoch`. Starting a new set costs nothing but a bump of the
/// epoch; 0 is never a live epoch, so it marks "in no set".
#[derive(Default)]
struct Stamps {
    mark: Vec<u32>,
    epoch: u32,
}

impl Stamps {
    /// Start a new, empty set. The marks are cleared only when the epoch
    /// counter would wrap.
    fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Add `x`; whether it was not in the set yet.
    #[inline]
    fn insert(&mut self, x: u32) -> bool {
        let m = &mut self.mark[x as usize];
        let added = *m != self.epoch;
        *m = self.epoch;
        added
    }

    /// Remove `x`; whether it was in the set.
    #[inline]
    fn remove(&mut self, x: u32) -> bool {
        let m = &mut self.mark[x as usize];
        let present = *m == self.epoch;
        if present {
            *m = 0;
        }
        present
    }
}

struct Working<'a> {
    points: Vec<Point2>,
    data: Vec<f64>,
    alive_v: Vec<bool>,
    tris: Vec<[u32; 3]>,
    alive_t: Vec<bool>,
    /// Triangles incident to vertex `x`:
    /// `incidence[inc_start[x]..inc_start[x + 1]]`.
    incidence: Vec<u32>,
    inc_start: Vec<u32>,
    /// One stamp per vertex, new vertices included.
    stamps: Stamps,
    alive_count: usize,
    queue: EdgeQueue,
    /// Data-contrast weight in the edge priority (0 = pure shortest-edge,
    /// the paper's default).
    data_weight: f64,
    /// `1 / field_range`, precomputed for the priority formula.
    inv_range: f64,
    /// Input vertices that must survive (partition-shared vertices in the
    /// parallel decimation). Empty = none frozen.
    frozen: &'a [bool],
    scratch: Scratch,
}

impl<'a> Working<'a> {
    fn new(mesh: &TriMesh, data: &[f64], order: Order, frozen: &'a [bool]) -> Self {
        assert_eq!(
            mesh.num_vertices(),
            data.len(),
            "data must have one value per vertex"
        );
        let nv = mesh.num_vertices();
        let tris: Vec<[u32; 3]> = mesh.triangles().to_vec();
        assert!(
            3 * tris.len() <= u32::MAX as usize,
            "incidence arena exceeds u32 offsets"
        );
        let mut inc_start = vec![0u32; nv + 1];
        for t in &tris {
            for &v in t {
                inc_start[v as usize + 1] += 1;
            }
        }
        for v in 0..nv {
            inc_start[v + 1] += inc_start[v];
        }
        let mut fill = inc_start[..nv].to_vec();
        let mut incidence = vec![0u32; inc_start[nv] as usize];
        for (ti, t) in tris.iter().enumerate() {
            for &v in t {
                incidence[fill[v as usize] as usize] = ti as u32;
                fill[v as usize] += 1;
            }
        }
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut w = Self {
            points: mesh.points().to_vec(),
            data: data.to_vec(),
            alive_v: vec![true; nv],
            alive_t: vec![true; tris.len()],
            tris,
            incidence,
            inc_start,
            stamps: Stamps {
                mark: vec![0; nv],
                epoch: 0,
            },
            alive_count: nv,
            queue: EdgeQueue::new(),
            data_weight: match order {
                Order::DataAware(weight) => weight,
                Order::Shortest | Order::Random(_) => 0.0,
            },
            inv_range: 1.0 / (hi - lo).max(f64::MIN_POSITIVE),
            frozen,
            scratch: Scratch::default(),
        };
        // Each edge once, from its lower endpoint's triangles, deduplicated
        // by stamp. The heap's pop order depends only on the keys, not on
        // this listing order.
        let mut entries: Vec<(Edge, f64)> = Vec::with_capacity(w.incidence.len() / 2 + nv);
        for u in 0..nv as u32 {
            w.stamps.clear();
            for &t in &w.incidence[w.incident(u)] {
                for &v in &w.tris[t as usize] {
                    if v > u && w.stamps.insert(v) {
                        let pr = match order {
                            Order::Random(seed) => hash_priority(u, v, seed),
                            Order::Shortest | Order::DataAware(_) => w.priority(u, v),
                        };
                        entries.push(((u, v), pr));
                    }
                }
            }
        }
        w.queue = EdgeQueue::from_entries(entries);
        w
    }

    /// Edge priority: length, optionally scaled up by the data contrast
    /// across the edge so feature-crossing edges collapse last.
    fn priority(&self, u: u32, v: u32) -> f64 {
        let len = self.points[u as usize].distance(self.points[v as usize]);
        if self.data_weight == 0.0 {
            len
        } else {
            let contrast = (self.data[u as usize] - self.data[v as usize]).abs() * self.inv_range;
            len * (1.0 + self.data_weight * contrast)
        }
    }

    /// Where in `incidence` every triangle ever incident to `v` is
    /// listed, dead ones included.
    fn incident(&self, v: u32) -> Range<usize> {
        self.inc_start[v as usize] as usize..self.inc_start[v as usize + 1] as usize
    }

    /// Attempt to collapse edge `(u, v)`. Returns whether it happened.
    fn try_collapse(&mut self, u: u32, v: u32) -> bool {
        let mut scratch = std::mem::take(&mut self.scratch);
        let done = self.collapse_with(u, v, &mut scratch);
        self.scratch = scratch;
        done
    }

    fn collapse_with(&mut self, u: u32, v: u32, s: &mut Scratch) -> bool {
        debug_assert!(self.alive_v[u as usize] && self.alive_v[v as usize]);
        let is_frozen = |x: u32| self.frozen.get(x as usize) == Some(&true);
        if is_frozen(u) || is_frozen(v) {
            return false;
        }

        // Gather u's alive triangles, stamp its one-ring, and find the
        // edge's own triangles: one for a boundary edge, two for an
        // interior one. No collapsible edge of a manifold mesh has any
        // other count.
        self.stamps.clear();
        s.ring_u.clear();
        let mut uv_buf = [0u32; 2];
        let mut uv_len = 0;
        for &t in &self.incidence[self.incident(u)] {
            if !self.alive_t[t as usize] {
                continue;
            }
            let corners = self.tris[t as usize];
            if corners.contains(&v) {
                if uv_len == 2 {
                    return false;
                }
                uv_buf[uv_len] = t;
                uv_len += 1;
            }
            for w in corners {
                if w != u {
                    self.stamps.insert(w);
                }
            }
            s.ring_u.push((t, corners));
        }
        if uv_len == 0 {
            return false;
        }
        let tris_uv = &uv_buf[..uv_len];

        // Link condition: common one-ring neighbors must be exactly the
        // opposite vertices of the edge's triangles. Each common neighbor
        // is unstamped when first met, so it counts once.
        s.ring_v.clear();
        let mut common = 0;
        for &t in &self.incidence[self.incident(v)] {
            if !self.alive_t[t as usize] {
                continue;
            }
            let corners = self.tris[t as usize];
            for w in corners {
                if w != v && self.stamps.remove(w) {
                    common += 1;
                }
            }
            s.ring_v.push((t, corners));
        }
        if common != uv_len {
            return false;
        }

        let k_pos = self.points[u as usize].midpoint(self.points[v as usize]);

        // Simulate the rewired triangles: all must stay positively
        // oriented and mutually distinct.
        let k_id = self.points.len() as u32;
        s.new_tris.clear();
        s.seen.clear();
        for &(t, mut tri) in s.ring_u.iter().chain(&s.ring_v) {
            if tris_uv.contains(&t) {
                continue;
            }
            for slot in &mut tri {
                if *slot == u || *slot == v {
                    *slot = k_id;
                }
            }
            let pos = |id: u32| -> Point2 {
                if id == k_id {
                    k_pos
                } else {
                    self.points[id as usize]
                }
            };
            if signed_area2(pos(tri[0]), pos(tri[1]), pos(tri[2])) <= GEOM_EPS {
                return false; // would fold or degenerate
            }
            // Every rewired triangle has `k` as exactly one corner, so two
            // are equal exactly when their other two corners are.
            let [a, b] = match tri.iter().position(|&x| x == k_id) {
                Some(0) => [tri[1], tri[2]],
                Some(1) => [tri[0], tri[2]],
                _ => [tri[0], tri[1]],
            };
            let other = (a.min(b) as u64) << 32 | a.max(b) as u64;
            if s.seen.contains(&other) {
                return false; // would create a duplicate triangle
            }
            s.seen.push(other);
            s.new_tris.push((t, tri));
        }

        // --- commit ---
        let k_data = (self.data[u as usize] + self.data[v as usize]) * 0.5;
        self.points.push(k_pos);
        self.data.push(k_data);
        self.alive_v.push(true);
        self.stamps.mark.push(0);
        for &t in tris_uv {
            self.alive_t[t as usize] = false;
        }
        // Edges at u and v died with them; the edges at k are new, one per
        // distinct corner of the rewired triangles.
        self.stamps.clear();
        for &(t, tri) in &s.new_tris {
            self.tris[t as usize] = tri;
            self.incidence.push(t);
            for x in tri {
                if x != k_id && self.stamps.insert(x) {
                    let pr = self.priority(k_id, x);
                    self.queue.push(edge(k_id, x), pr);
                }
            }
        }
        let end = u32::try_from(self.incidence.len()).expect("incidence arena exceeds u32 offsets");
        self.inc_start.push(end);
        self.alive_v[u as usize] = false;
        self.alive_v[v as usize] = false;
        // Net vertex change: -2 dead +1 new.
        self.alive_count -= 1;
        true
    }

    /// Pop the best edge, skip it if an endpoint has died (the edge died
    /// with it), else try to collapse it, until at most `|V| / ratio`
    /// vertices are alive or the queue drains.
    fn collapse_to(mut self, ratio: f64) -> DecimationResult {
        let n0 = self.alive_count;
        let target = ((n0 as f64 / ratio).ceil() as usize).max(3);
        let (mut collapses, mut rejected) = (0, 0);
        let (mut queue_pops, mut stale_pops) = (0, 0);
        while self.alive_count > target {
            let Some(((u, v), _)) = self.queue.pop() else {
                break; // no collapsible edges left
            };
            queue_pops += 1;
            if !self.alive_v[u as usize] || !self.alive_v[v as usize] {
                stale_pops += 1;
            } else if self.try_collapse(u, v) {
                collapses += 1;
            } else {
                rejected += 1;
            }
        }

        let (mesh, data, original_index) = self.finish(n0);
        DecimationResult {
            achieved_ratio: n0 as f64 / mesh.num_vertices().max(1) as f64,
            mesh,
            data,
            collapses,
            rejected,
            queue_pops,
            stale_pops,
            original_index,
        }
    }

    /// Compact alive vertices/triangles into a fresh `TriMesh` + data.
    /// Returns the per-output-vertex original index (None for collapse-
    /// created vertices, whose working index is >= the input count).
    fn finish(self, original_count: usize) -> (TriMesh, Vec<f64>, Vec<Option<u32>>) {
        let mut remap = vec![u32::MAX; self.points.len()];
        let mut points = Vec::with_capacity(self.alive_count);
        let mut data = Vec::with_capacity(self.alive_count);
        let mut original_index = Vec::with_capacity(self.alive_count);
        for (i, &alive) in self.alive_v.iter().enumerate() {
            if alive {
                remap[i] = points.len() as u32;
                points.push(self.points[i]);
                data.push(self.data[i]);
                original_index.push((i < original_count).then_some(i as u32));
            }
        }
        let mut tris = Vec::new();
        for (ti, t) in self.tris.iter().enumerate() {
            if self.alive_t[ti] {
                tris.push([
                    remap[t[0] as usize],
                    remap[t[1] as usize],
                    remap[t[2] as usize],
                ]);
            }
        }
        (TriMesh::new(points, tris), data, original_index)
    }
}

/// The one decimation driver behind every public entry point.
fn run(
    mesh: &TriMesh,
    data: &[f64],
    ratio: f64,
    order: Order,
    frozen: &[bool],
) -> DecimationResult {
    assert!(ratio >= 1.0, "decimation ratio must be >= 1, got {ratio}");
    Working::new(mesh, data, order, frozen).collapse_to(ratio)
}

/// Decimate `mesh`/`data` by `ratio` (paper default 2): collapse shortest
/// edges until `|V^{l+1}| <= |V^l| / ratio` or no collapsible edge
/// remains.
///
/// # Panics
/// Panics if `ratio < 1` or `data.len() != mesh.num_vertices()`.
pub fn decimate(mesh: &TriMesh, data: &[f64], ratio: f64) -> DecimationResult {
    run(mesh, data, ratio, Order::Shortest, &[])
}

/// Decimate while *freezing* the flagged vertices (they survive
/// unconditionally and no incident edge collapses). This is the building
/// block of partition-parallel decimation: partition-shared vertices stay
/// fixed so the partition results stitch back into one valid mesh.
pub fn decimate_frozen(
    mesh: &TriMesh,
    data: &[f64],
    ratio: f64,
    frozen: &[bool],
) -> DecimationResult {
    assert_eq!(frozen.len(), mesh.num_vertices(), "one flag per vertex");
    run(mesh, data, ratio, Order::Shortest, frozen)
}

/// Data-aware collapse ordering: prioritize edges by
/// `length * (1 + w * |f_u - f_v| / field_range)`, so edges crossing
/// steep features (blob flanks, shock fronts) collapse *last*. The paper
/// leaves the priority choice "for future study" (§III-C1); this is the
/// natural feature-preserving refinement of its shortest-edge default,
/// ablated in `canopus-bench`.
pub fn decimate_data_aware(
    mesh: &TriMesh,
    data: &[f64],
    ratio: f64,
    weight: f64,
) -> DecimationResult {
    assert!(weight >= 0.0, "weight must be non-negative");
    run(mesh, data, ratio, Order::DataAware(weight), &[])
}

/// Random-order collapse baseline for the ablation bench: identical
/// machinery, but the input edges are keyed by a seeded hash instead of
/// their length. Edges created by collapses are keyed by length, so this
/// randomizes the order of the input edges only. Shows why shortest-edge
/// ordering preserves features.
pub fn decimate_random_order(
    mesh: &TriMesh,
    data: &[f64],
    ratio: f64,
    seed: u64,
) -> DecimationResult {
    run(mesh, data, ratio, Order::Random(seed), &[])
}

fn hash_priority(u: u32, v: u32, seed: u64) -> f64 {
    let mut x = ((u as u64) << 32 | v as u64) ^ seed.wrapping_mul(0x9E3779B97F4A7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51AFD7ED558CCD);
    x ^= x >> 33;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopus_mesh::generators::{annulus_mesh, jitter_interior, rectangle_mesh};
    use canopus_mesh::geometry::Aabb;
    use canopus_mesh::quality;

    fn grid(n: usize) -> TriMesh {
        jitter_interior(
            &rectangle_mesh(
                n,
                n,
                Aabb::from_points([Point2::new(0.0, 0.0), Point2::new(1.0, 1.0)]),
            ),
            0.2,
            42,
        )
    }

    #[test]
    fn halves_vertex_count() {
        let m = grid(16);
        let data: Vec<f64> = (0..m.num_vertices()).map(|i| i as f64).collect();
        let r = decimate(&m, &data, 2.0);
        assert!(
            (r.achieved_ratio - 2.0).abs() < 0.1,
            "achieved ratio {} should be ~2",
            r.achieved_ratio
        );
        assert_eq!(r.mesh.num_vertices(), r.data.len());
    }

    #[test]
    fn decimated_mesh_stays_valid() {
        let m = grid(16);
        let data = vec![0.0; m.num_vertices()];
        let r = decimate(&m, &data, 2.0);
        let rep = quality::check(&r.mesh);
        assert!(
            rep.is_manifold,
            "decimated mesh must stay manifold: {rep:?}"
        );
        assert_eq!(rep.inverted_triangles, 0);
        assert_eq!(rep.degenerate_triangles, 0);
    }

    #[test]
    fn repeated_decimation_builds_a_pyramid() {
        let m = grid(20);
        let mut mesh = m.clone();
        let mut data: Vec<f64> = mesh.points().iter().map(|p| p.x + p.y).collect();
        for level in 1..=4 {
            let r = decimate(&mesh, &data, 2.0);
            let rep = quality::check(&r.mesh);
            assert!(rep.is_manifold, "level {level} must be manifold");
            assert_eq!(rep.inverted_triangles, 0, "level {level} folded");
            assert!(r.mesh.num_vertices() < mesh.num_vertices());
            mesh = r.mesh;
            data = r.data;
        }
        // Total decimation ~16x.
        let total = m.num_vertices() as f64 / mesh.num_vertices() as f64;
        assert!(total > 10.0, "4 levels should reach >10x, got {total:.1}");
    }

    #[test]
    fn annulus_decimation_preserves_topology() {
        let m = jitter_interior(&annulus_mesh(8, 48, 0.4, 1.0), 0.2, 7);
        let data = vec![1.0; m.num_vertices()];
        let r = decimate(&m, &data, 2.0);
        let rep = quality::check(&r.mesh);
        assert!(rep.is_manifold);
        assert_eq!(
            rep.euler_characteristic, 0,
            "annulus must keep genus under decimation"
        );
    }

    #[test]
    fn data_averages_along_collapses() {
        // Constant field stays constant under midpoint/mean collapse.
        let m = grid(10);
        let data = vec![3.5; m.num_vertices()];
        let r = decimate(&m, &data, 2.0);
        for &v in &r.data {
            assert!((v - 3.5).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_field_is_exactly_preserved() {
        // Midpoint collapse of a linear field keeps the field linear:
        // data(k) = (f(i)+f(j))/2 = f((Vi+Vj)/2).
        let m = grid(12);
        let f = |p: Point2| 2.0 * p.x - 3.0 * p.y + 1.0;
        let data: Vec<f64> = m.points().iter().map(|&p| f(p)).collect();
        let r = decimate(&m, &data, 2.0);
        for (i, &v) in r.data.iter().enumerate() {
            let expect = f(r.mesh.point(i as canopus_mesh::VertexId));
            assert!(
                (v - expect).abs() < 1e-9,
                "vertex {i}: {v} vs linear {expect}"
            );
        }
    }

    #[test]
    fn ratio_one_is_identity_sized() {
        let m = grid(6);
        let data = vec![0.0; m.num_vertices()];
        let r = decimate(&m, &data, 1.0);
        assert_eq!(r.mesh.num_vertices(), m.num_vertices());
        assert_eq!(r.collapses, 0);
    }

    #[test]
    fn shortest_edges_collapse_first() {
        // A mesh with one tiny edge: that edge's endpoints must merge in
        // the very first collapse.
        let mut points = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
            Point2::new(0.5, 0.5),
            Point2::new(0.5001, 0.5001), // nearly coincident with 4
        ];
        // Fan around the nearly-coincident pair.
        let tris = vec![
            [0u32, 1, 4],
            [1, 5, 4],
            [1, 2, 5],
            [2, 3, 5],
            [3, 4, 5],
            [3, 0, 4],
        ];
        let m = TriMesh::new(std::mem::take(&mut points), tris);
        let data = vec![0.0, 0.0, 0.0, 0.0, 10.0, 20.0];
        let r = decimate(&m, &data, 6.0 / 5.0);
        assert_eq!(r.collapses, 1);
        // The merged vertex carries the mean of the twins' data.
        assert!(r.data.contains(&15.0));
    }

    #[test]
    fn data_aware_priority_preserves_features_better() {
        // A field with one sharp bump: data-aware ordering should keep
        // the bump's peak value higher after aggressive decimation.
        let m = grid(24);
        let data: Vec<f64> = m
            .points()
            .iter()
            .map(|p| {
                let d2 = (p.x - 0.5).powi(2) + (p.y - 0.5).powi(2);
                (-d2 / (2.0 * 0.03f64.powi(2))).exp()
            })
            .collect();
        let peak = |r: &DecimationResult| r.data.iter().cloned().fold(0.0f64, f64::max);
        let mut mesh = m.clone();
        let mut plain_data = data.clone();
        let mut aware_mesh = m.clone();
        let mut aware_data = data.clone();
        for _ in 0..3 {
            let r = decimate(&mesh, &plain_data, 2.0);
            mesh = r.mesh;
            plain_data = r.data;
            let r = decimate_data_aware(&aware_mesh, &aware_data, 2.0, 8.0);
            aware_mesh = r.mesh;
            aware_data = r.data;
        }
        let plain_peak = plain_data.iter().cloned().fold(0.0f64, f64::max);
        let aware_peak = aware_data.iter().cloned().fold(0.0f64, f64::max);
        let _ = peak;
        assert!(
            aware_peak >= plain_peak,
            "data-aware ({aware_peak}) should preserve the bump at least as well as plain ({plain_peak})"
        );
        assert!(quality::check(&aware_mesh).is_manifold);
    }

    #[test]
    fn data_aware_zero_weight_matches_plain() {
        let m = grid(10);
        let data: Vec<f64> = (0..m.num_vertices())
            .map(|i| (i as f64 * 0.3).sin())
            .collect();
        let a = decimate(&m, &data, 2.0);
        let b = decimate_data_aware(&m, &data, 2.0, 0.0);
        assert_eq!(a.mesh, b.mesh, "weight 0 must reduce to shortest-edge");
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn random_order_baseline_also_halves() {
        let m = grid(12);
        let data: Vec<f64> = (0..m.num_vertices()).map(|i| (i as f64).sin()).collect();
        let r = decimate_random_order(&m, &data, 2.0, 99);
        assert!((r.achieved_ratio - 2.0).abs() < 0.2);
        assert!(quality::check(&r.mesh).is_manifold);
    }

    #[test]
    fn decimation_is_deterministic() {
        let m = grid(10);
        let data: Vec<f64> = (0..m.num_vertices()).map(|i| i as f64 * 0.1).collect();
        let a = decimate(&m, &data, 2.0);
        let b = decimate(&m, &data, 2.0);
        assert_eq!(a.mesh, b.mesh);
        assert_eq!(a.data, b.data);
    }

    #[test]
    fn stamp_epoch_wrap_changes_nothing() {
        let m = grid(16);
        let data: Vec<f64> = m.points().iter().map(|p| (5.0 * p.x).sin() + p.y).collect();
        let fresh = decimate(&m, &data, 2.0);
        // Every collapse takes at least two epochs, so the counter wraps
        // within the first collapses, with the marks of the input-edge
        // listing still in the array.
        let mut w = Working::new(&m, &data, Order::Shortest, &[]);
        w.stamps.epoch = u32::MAX - 2;
        let wrapped = w.collapse_to(2.0);
        assert!(fresh.collapses > 2);
        assert_eq!(
            (wrapped.collapses, wrapped.rejected, wrapped.queue_pops),
            (fresh.collapses, fresh.rejected, fresh.queue_pops)
        );
        assert_eq!(wrapped.mesh, fresh.mesh);
        assert_eq!(wrapped.data, fresh.data);
        assert_eq!(wrapped.original_index, fresh.original_index);
    }

    #[test]
    #[should_panic(expected = "one value per vertex")]
    fn rejects_mismatched_data() {
        let m = grid(4);
        decimate(&m, &[1.0, 2.0], 2.0);
    }
}
