//! Edge priority queue for decimation.
//!
//! Paper Alg. 1 pops the shortest edge first. The queue is a flat 4-ary
//! min-heap of one `u128` key per edge, `priority_bits << 64 | lo << 32 |
//! hi`, with no membership set beside it. Priorities are non-negative, and
//! the IEEE-754 bits of non-negative doubles order as unsigned integers
//! (`-0.0` is mapped to `0.0` first), so comparing keys as integers is
//! exactly the `(priority, lo, hi)` order: shortest first, ties broken on
//! the vertex ids. A 4-ary heap is half as deep as a binary one, and its
//! four children share a cache line.
//!
//! Decimation pushes every edge at most once:
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

/// An undirected edge as an ordered vertex pair.
pub type Edge = (u32, u32);

/// Normalize to `(lo, hi)`.
#[inline]
pub fn edge(u: u32, v: u32) -> Edge {
    (u.min(v), u.max(v))
}

/// Heap arity.
const ARITY: usize = 4;

/// The heap key of a normalized edge: priority bits, then `lo`, then `hi`.
///
/// # Panics
/// Panics if `priority` is negative or NaN.
#[inline]
fn key(e: Edge, priority: f64) -> u128 {
    debug_assert!(e.0 < e.1, "edges must be normalized");
    assert!(
        priority >= 0.0,
        "edge priority must be non-negative and not NaN, got {priority}"
    );
    // `+ 0.0` turns `-0.0` into `0.0` and leaves every other value alone.
    let bits = (priority + 0.0).to_bits();
    (bits as u128) << 64 | (e.0 as u128) << 32 | e.1 as u128
}

#[inline]
fn unkey(k: u128) -> (Edge, f64) {
    let e = ((k >> 32) as u32, k as u32);
    (e, f64::from_bits((k >> 64) as u64))
}

/// Min-heap of edges keyed by priority, ties broken on the vertex ids.
#[derive(Debug, Default)]
pub struct EdgeQueue {
    heap: Vec<u128>,
}

impl EdgeQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Heapify `(edge, priority)` entries in O(n).
    pub fn from_entries(entries: Vec<(Edge, f64)>) -> Self {
        let mut q = Self {
            heap: entries.into_iter().map(|(e, pr)| key(e, pr)).collect(),
        };
        for i in (0..q.heap.len().div_ceil(ARITY)).rev() {
            q.sift_down(i);
        }
        q
    }

    /// Insert an edge with its priority. The caller pushes each edge at
    /// most once (see the module docs).
    pub fn push(&mut self, e: Edge, priority: f64) {
        self.heap.push(key(e, priority));
        self.sift_up(self.heap.len() - 1);
    }

    /// Pop the lowest-priority edge, or `None` when exhausted.
    pub fn pop(&mut self) -> Option<(Edge, f64)> {
        let last = self.heap.pop()?;
        let top = match self.heap.first_mut() {
            Some(root) => std::mem::replace(root, last),
            None => return Some(unkey(last)),
        };
        self.sift_down(0);
        Some(unkey(top))
    }

    fn sift_up(&mut self, mut i: usize) {
        let k = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent] <= k {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = k;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        let k = self.heap[i];
        loop {
            let first = i * ARITY + 1;
            if first >= n {
                break;
            }
            let mut best = first;
            for c in first + 1..(first + ARITY).min(n) {
                if self.heap[c] < self.heap[best] {
                    best = c;
                }
            }
            if self.heap[best] >= k {
                break;
            }
            self.heap[i] = self.heap[best];
            i = best;
        }
        self.heap[i] = k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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
    fn negative_zero_orders_as_zero() {
        let mut q = EdgeQueue::new();
        q.push(edge(2, 3), 0.0);
        q.push(edge(0, 1), -0.0);
        q.push(edge(1, 2), f64::MIN_POSITIVE);
        assert_eq!(q.pop(), Some(((0, 1), 0.0)));
        assert_eq!(q.pop(), Some(((2, 3), 0.0)));
        assert_eq!(q.pop(), Some(((1, 2), f64::MIN_POSITIVE)));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_length() {
        EdgeQueue::new().push(edge(0, 1), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_priority() {
        EdgeQueue::new().push(edge(0, 1), -1.0);
    }

    /// One queue operation: push an edge with a priority drawn from a few
    /// small values (so ties are common, `0.0` included), or pop.
    #[derive(Debug, Clone)]
    enum Op {
        Push(u32, u32, u8),
        Pop,
    }

    /// Three pushes to every two pops.
    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..5, 0u32..40, 0u32..40, 0u8..6).prop_map(|(kind, a, b, p)| {
            if kind < 3 {
                Op::Push(a, b, p)
            } else {
                Op::Pop
            }
        })
    }

    /// The priority a drawn level stands for: both zeros, a tiny value,
    /// and a few ordinary lengths.
    fn level(p: u8) -> f64 {
        [0.0, -0.0, 1e-300, 0.25, 1.0, 3.0][p as usize]
    }

    /// The oracle's key bits: `-0.0` is the same priority as `0.0`.
    fn oracle_bits(x: f64) -> u64 {
        if x == 0.0 {
            0
        } else {
            x.to_bits()
        }
    }

    proptest! {
        /// Interleaved pushes and pops pop exactly what a `BTreeSet` of
        /// `(priority bits, lo, hi)` would, for any heapified prefix.
        #[test]
        fn matches_a_btreeset_oracle(
            initial in proptest::collection::vec((0u32..40, 0u32..40, 0u8..6), 0..60),
            ops in proptest::collection::vec(arb_op(), 0..200),
        ) {
            let mut oracle = BTreeSet::new();
            let mut entries = Vec::new();
            for (a, b, p) in initial {
                if a != b && oracle.insert((oracle_bits(level(p)), a.min(b), a.max(b))) {
                    entries.push((edge(a, b), level(p)));
                }
            }
            let mut q = EdgeQueue::from_entries(entries);
            for op in ops {
                match op {
                    Op::Push(a, b, p) => {
                        let e = edge(a, b);
                        // Keys in the queue are unique, as in decimation.
                        if a != b && !oracle.iter().any(|&(_, lo, hi)| (lo, hi) == e) {
                            oracle.insert((oracle_bits(level(p)), e.0, e.1));
                            q.push(e, level(p));
                        }
                    }
                    Op::Pop => {
                        let want = oracle
                            .pop_first()
                            .map(|(bits, lo, hi)| ((lo, hi), f64::from_bits(bits)));
                        prop_assert_eq!(q.pop(), want);
                    }
                }
            }
            while let Some((bits, lo, hi)) = oracle.pop_first() {
                prop_assert_eq!(q.pop(), Some(((lo, hi), f64::from_bits(bits))));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }
}
