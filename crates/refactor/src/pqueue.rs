//! Edge priority queue for decimation.
//!
//! Paper Alg. 1 pops the shortest edge first. The queue is a plain binary
//! min-heap keyed by `(priority, edge)`, with no membership set beside it,
//! because decimation pushes every edge at most once:
//!
//! * the initial edges of a mesh are unique;
//! * every later push is an edge to the vertex a collapse just created,
//!   which no earlier edge can touch.
//!
//! So no key repeats, the pop sequence is fully determined by the keys
//! (the heap's internal layout, and so how it was built, cannot change
//! it), and an edge never needs re-keying: a collapse deletes edges and
//! creates new ones, it never moves a surviving endpoint. An edge leaves
//! the mesh only when one of its endpoints is collapsed away, so an entry
//! is live exactly while both its endpoints are alive. The decimation
//! driver checks that at pop time and skips the rest.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An undirected edge as an ordered vertex pair.
pub type Edge = (u32, u32);

/// Normalize to `(lo, hi)`.
#[inline]
pub fn edge(u: u32, v: u32) -> Edge {
    (u.min(v), u.max(v))
}

/// f64 wrapper with a total order (panics on NaN at construction).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Len(f64);

impl Len {
    fn new(x: f64) -> Self {
        assert!(!x.is_nan(), "edge length cannot be NaN");
        Len(x)
    }
}

impl Eq for Len {}

impl PartialOrd for Len {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Len {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("no NaN by construction")
    }
}

/// Min-heap of edges keyed by priority, ties broken on the vertex ids.
#[derive(Debug, Default)]
pub struct EdgeQueue {
    heap: BinaryHeap<Reverse<(Len, Edge)>>,
}

impl EdgeQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Heapify `(edge, priority)` entries in O(n).
    pub fn from_entries(entries: Vec<(Edge, f64)>) -> Self {
        let keyed: Vec<_> = entries
            .into_iter()
            .map(|(e, pr)| {
                debug_assert!(e.0 < e.1, "edges must be normalized");
                Reverse((Len::new(pr), e))
            })
            .collect();
        Self {
            heap: BinaryHeap::from(keyed),
        }
    }

    /// Insert an edge with its priority. The caller pushes each edge at
    /// most once (see the module docs).
    pub fn push(&mut self, e: Edge, priority: f64) {
        debug_assert!(e.0 < e.1, "edges must be normalized");
        self.heap.push(Reverse((Len::new(priority), e)));
    }

    /// Pop the lowest-priority edge, or `None` when exhausted.
    pub fn pop(&mut self) -> Option<(Edge, f64)> {
        self.heap.pop().map(|Reverse((len, e))| (e, len.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_length_order() {
        let mut q = EdgeQueue::new();
        q.push(edge(0, 1), 3.0);
        q.push(edge(1, 2), 1.0);
        q.push(edge(2, 3), 2.0);
        assert_eq!(q.pop().unwrap().0, (1, 2));
        assert_eq!(q.pop().unwrap().0, (2, 3));
        assert_eq!(q.pop().unwrap().0, (0, 1));
        assert!(q.pop().is_none());
    }

    #[test]
    fn normalization() {
        assert_eq!(edge(5, 2), (2, 5));
        assert_eq!(edge(2, 5), (2, 5));
    }

    #[test]
    fn ties_break_deterministically() {
        let mut q1 = EdgeQueue::new();
        let mut q2 = EdgeQueue::new();
        for (a, b) in [(3, 4), (1, 2), (0, 1), (2, 3)] {
            q1.push(edge(a, b), 1.0);
            q2.push(edge(a, b), 1.0);
        }
        let order1: Vec<Edge> = std::iter::from_fn(|| q1.pop().map(|(e, _)| e)).collect();
        let order2: Vec<Edge> = std::iter::from_fn(|| q2.pop().map(|(e, _)| e)).collect();
        assert_eq!(order1, order2, "equal lengths must pop deterministically");
        assert_eq!(order1[0], (0, 1), "ties break on vertex ids");
    }

    #[test]
    fn heapified_and_pushed_queues_pop_alike() {
        let entries: Vec<(Edge, f64)> = (0..64u32)
            .map(|i| (edge(i, i + 1), ((i * 37) % 11) as f64))
            .collect();
        let mut pushed = EdgeQueue::new();
        for &(e, pr) in &entries {
            pushed.push(e, pr);
        }
        let mut built = EdgeQueue::from_entries(entries);
        let a: Vec<_> = std::iter::from_fn(|| pushed.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| built.pop()).collect();
        assert_eq!(a.len(), 64);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_length() {
        EdgeQueue::new().push(edge(0, 1), f64::NAN);
    }
}
