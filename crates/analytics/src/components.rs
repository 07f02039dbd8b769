//! 8-connected component labeling, at many thresholds in one sweep.
//!
//! Blob detection binarizes one gray image at up to ~20 thresholds and
//! needs the connected bright regions of each mask with their centroids
//! and areas. The masks are nested: every pixel at or above `t + step` is
//! also at or above `t`. So the pixels are counting-sorted by gray level
//! and added once, brightest first, into a union-find over the
//! 8-neighbourhood of pixels already added. Once every pixel at or above
//! a threshold is in, the live sets are exactly that mask's components.
//! Each set root carries its area, integer coordinate sums, bounding box
//! and smallest pixel index.
//!
//! The result is what a scan-order BFS of each mask gives, bit for bit.
//! A BFS starts a component at its smallest pixel index, so sorting the
//! sets by that index gives the same order. A BFS sums coordinates in
//! f64, but every partial sum is an integer below 2^53, so its sums equal
//! the integer sums converted to f64 and the centroids agree.
//! [`label_components`] is the single-threshold case of the same sweep.

/// One connected component of a binary mask.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Pixel count.
    pub area: usize,
    /// Centroid in pixel coordinates `(x, y)`.
    pub centroid: (f64, f64),
    /// Inclusive pixel bounding box `(min_x, min_y, max_x, max_y)`.
    pub bbox: (usize, usize, usize, usize),
}

impl Component {
    /// Equivalent circle radius (OpenCV reports blob size this way).
    pub fn radius(&self) -> f64 {
        (self.area as f64 / std::f64::consts::PI).sqrt()
    }

    pub fn diameter(&self) -> f64 {
        2.0 * self.radius()
    }
}

/// Label the 8-connected components of `mask` (row-major,
/// `width * height`). Returns components in deterministic scan order.
///
/// # Panics
/// Panics if `mask.len() != width * height`.
pub fn label_components(mask: &[bool], width: usize, height: usize) -> Vec<Component> {
    assert_eq!(mask.len(), width * height, "mask size mismatch");
    let gray: Vec<u8> = mask.iter().map(|&b| u8::from(b)).collect();
    label_thresholds(&gray, width, height, &[1])
        .pop()
        .expect("one threshold")
}

/// The components of every mask `gray >= t` for `t` in `thresholds`
/// (strictly ascending), each list in scan order like
/// [`label_components`]. `out[k]` belongs to `thresholds[k]`.
///
/// # Panics
/// Panics if `gray.len() != width * height` or the thresholds do not
/// strictly ascend.
pub fn label_thresholds(
    gray: &[u8],
    width: usize,
    height: usize,
    thresholds: &[u8],
) -> Vec<Vec<Component>> {
    assert_eq!(gray.len(), width * height, "mask size mismatch");
    assert!(
        thresholds.windows(2).all(|w| w[0] < w[1]),
        "thresholds must strictly ascend"
    );
    let Some(&lowest) = thresholds.first() else {
        return Vec::new();
    };

    // Counting sort, brightest level first and by index within a level:
    // level `g` fills `order[at_least[g + 1]..at_least[g]]`, so the pixels
    // `>= t` are `order[..at_least[t]]`.
    let mut at_least = [0usize; 257];
    for &g in gray {
        at_least[g as usize] += 1;
    }
    for g in (0..256).rev() {
        at_least[g] += at_least[g + 1];
    }
    let mut next = at_least;
    let mut order = vec![0u32; at_least[lowest as usize]];
    for (i, &g) in gray.iter().enumerate().filter(|&(_, &g)| g >= lowest) {
        let slot = &mut next[g as usize + 1];
        order[*slot] = i as u32;
        *slot += 1;
    }

    let mut sweep = Sweep::new(width, height);
    let mut out = vec![Vec::new(); thresholds.len()];
    let mut added = 0;
    for (k, &t) in thresholds.iter().enumerate().rev() {
        let end = at_least[t as usize];
        for &i in &order[added..end] {
            sweep.add(i);
        }
        added = end;
        out[k] = sweep.components();
    }
    out
}

/// `parent` entry of a pixel not yet added.
const NONE: u32 = u32::MAX;
/// Flags the `parent` entry of a set root, which holds the index of the
/// root's [`Set`] in its low bits.
const ROOT: u32 = 1 << 31;

/// What a set root knows about its component.
#[derive(Clone, Copy)]
struct Set {
    area: u32,
    /// Smallest pixel index: where a scan-order BFS would start.
    first: u32,
    sum_x: u64,
    sum_y: u64,
    min_x: u32,
    min_y: u32,
    max_x: u32,
    max_y: u32,
}

impl Set {
    /// The set of image pixel `i` at `(x, y)` alone.
    fn pixel(i: u32, x: u32, y: u32) -> Self {
        Self {
            area: 1,
            first: i,
            sum_x: x as u64,
            sum_y: y as u64,
            min_x: x,
            min_y: y,
            max_x: x,
            max_y: y,
        }
    }

    fn absorb(&mut self, s: &Set) {
        self.area += s.area;
        self.first = self.first.min(s.first);
        self.sum_x += s.sum_x;
        self.sum_y += s.sum_y;
        self.min_x = self.min_x.min(s.min_x);
        self.min_y = self.min_y.min(s.min_y);
        self.max_x = self.max_x.max(s.max_x);
        self.max_y = self.max_y.max(s.max_y);
    }
}

/// Union-find over the pixels added so far. A pixel that touches no
/// added pixel starts a set; any other joins the set of its first added
/// neighbour, so sets are few and `parent` is the only per-pixel state.
/// `parent` covers the image plus a one-pixel border that is never
/// added, so every pixel has eight neighbour slots.
struct Sweep {
    width: usize,
    /// By bordered index: parent, `NONE`, or `ROOT | set index`.
    parent: Vec<u32>,
    /// Bordered-index offsets of the eight neighbours.
    neighbours: [isize; 8],
    sets: Vec<Set>,
    /// Every root, and pixels that have stopped being one since the last
    /// [`Sweep::components`].
    roots: Vec<u32>,
}

impl Sweep {
    fn new(width: usize, height: usize) -> Self {
        let stride = width + 2;
        assert!(stride * (height + 2) < ROOT as usize, "image too large");
        let s = stride as isize;
        Self {
            width,
            parent: vec![NONE; stride * (height + 2)],
            neighbours: [-s - 1, -s, -s + 1, -1, 1, s - 1, s, s + 1],
            sets: Vec::new(),
            roots: Vec::new(),
        }
    }

    /// The root of added pixel `i`'s set.
    fn find(&mut self, mut i: u32) -> u32 {
        // Path halving.
        loop {
            let up = self.parent[i as usize];
            if up & ROOT != 0 {
                return i;
            }
            let upper = self.parent[up as usize];
            if upper & ROOT != 0 {
                return up;
            }
            self.parent[i as usize] = upper;
            i = upper;
        }
    }

    fn set(&self, root: u32) -> usize {
        (self.parent[root as usize] & !ROOT) as usize
    }

    /// Add image pixel `i` and join it to its added 8-neighbours.
    fn add(&mut self, i: u32) {
        // 32-bit division: much cheaper than 64-bit on common x86 cores.
        let (x, y) = (i % self.width as u32, i / self.width as u32);
        let b = i as usize + 2 * y as usize + self.width + 3;
        let pixel = Set::pixel(i, x, y);
        let mut root = NONE;
        // Neighbours with the same parent are in the same set: skip them.
        let mut last = NONE;
        for off in self.neighbours {
            let n = b.wrapping_add_signed(off);
            let up = self.parent[n];
            if up == NONE || up == last {
                continue;
            }
            last = up;
            let other = self.find(n as u32);
            if root == NONE {
                root = other;
                self.parent[b] = root;
                let s = self.set(root);
                self.sets[s].absorb(&pixel);
            } else if other != root {
                root = self.union(root, other);
            }
        }
        if root == NONE {
            self.parent[b] = ROOT | self.sets.len() as u32;
            self.sets.push(pixel);
            self.roots.push(b as u32);
        }
    }

    /// Join two roots, the smaller set under the larger; returns the new
    /// root.
    fn union(&mut self, a: u32, b: u32) -> u32 {
        let (sa, sb) = (self.set(a), self.set(b));
        let (big, small, keep, gone) = if self.sets[sa].area >= self.sets[sb].area {
            (a, b, sa, sb)
        } else {
            (b, a, sb, sa)
        };
        self.parent[small as usize] = big;
        let merged = self.sets[gone];
        self.sets[keep].absorb(&merged);
        big
    }

    /// The current sets as components, in scan order.
    fn components(&mut self) -> Vec<Component> {
        let parent = &self.parent;
        self.roots.retain(|&r| parent[r as usize] & ROOT != 0);
        let mut live: Vec<Set> = self.roots.iter().map(|&r| self.sets[self.set(r)]).collect();
        live.sort_unstable_by_key(|s| s.first);
        live.into_iter()
            .map(|s| {
                let area = s.area as f64;
                Component {
                    area: s.area as usize,
                    centroid: (s.sum_x as f64 / area, s.sum_y as f64 / area),
                    bbox: (
                        s.min_x as usize,
                        s.min_y as usize,
                        s.max_x as usize,
                        s.max_y as usize,
                    ),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_from(rows: &[&str]) -> (Vec<bool>, usize, usize) {
        let height = rows.len();
        let width = rows[0].len();
        let mask = rows
            .iter()
            .flat_map(|r| r.chars().map(|c| c == '#'))
            .collect();
        (mask, width, height)
    }

    #[test]
    fn single_blob() {
        let (mask, w, h) = mask_from(&[".....", ".##..", ".##..", "....."]);
        let comps = label_components(&mask, w, h);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].area, 4);
        assert_eq!(comps[0].centroid, (1.5, 1.5));
        assert_eq!(comps[0].bbox, (1, 1, 2, 2));
    }

    #[test]
    fn two_separate_blobs() {
        let (mask, w, h) = mask_from(&["##...", "##...", ".....", "...##"]);
        let comps = label_components(&mask, w, h);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].area, 4);
        assert_eq!(comps[1].area, 2);
    }

    #[test]
    fn diagonal_touch_is_one_component() {
        let (mask, w, h) = mask_from(&["#....", ".#...", "..#.."]);
        let comps = label_components(&mask, w, h);
        assert_eq!(comps.len(), 1, "8-connectivity joins diagonals");
        assert_eq!(comps[0].area, 3);
    }

    #[test]
    fn empty_and_full_masks() {
        let (mask, w, h) = mask_from(&["...", "..."]);
        assert!(label_components(&mask, w, h).is_empty());
        let (mask, w, h) = mask_from(&["###", "###"]);
        let comps = label_components(&mask, w, h);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].area, 6);
    }

    #[test]
    fn radius_matches_equivalent_circle() {
        let c = Component {
            area: 314,
            centroid: (0.0, 0.0),
            bbox: (0, 0, 0, 0),
        };
        assert!((c.radius() - 10.0).abs() < 0.02);
        assert!((c.diameter() - 20.0).abs() < 0.04);
    }

    #[test]
    fn scan_order_is_deterministic() {
        let (mask, w, h) = mask_from(&["#.#", "...", "#.#"]);
        let comps = label_components(&mask, w, h);
        assert_eq!(comps.len(), 4);
        // First encountered is top-left, scan order.
        assert_eq!(comps[0].centroid, (0.0, 0.0));
        assert_eq!(comps[1].centroid, (2.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "mask size mismatch")]
    fn rejects_bad_mask_size() {
        label_components(&[true; 5], 2, 2);
    }
}
