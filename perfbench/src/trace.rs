//! Spans recorded from the benchmark's own code around each call into a
//! Canopus crate, and the per-layer self-time table built from them.
//!
//! A tracer belongs to one thread. Disabled, `span` is a branch and a
//! direct call. Spans stay in memory and are summarised when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name of the root span under which a replay of an engine step runs.
/// Replays are measurement scaffolding: their wall time is removed from
/// the workload's wall, and their children are charged to the layers
/// inside the engine span they replay.
pub const REPLAY: &str = "replay";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request or operation the span belongs to.
    pub req: u64,
    /// For a replay root: the engine span it replays.
    pub replays: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn open(&self, name: &'static str, req: u64, replays: Option<usize>) -> usize {
        let parent = self.stack.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent,
            req,
            replays,
        });
        let idx = spans.len() - 1;
        self.stack.borrow_mut().push(idx);
        idx
    }

    fn close(&self, idx: usize) {
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.ns(Instant::now());
    }

    /// Run `f` inside a span named `name` (a child of the innermost open
    /// span).
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.open(name, req, None);
        let out = f();
        self.close(idx);
        out
    }

    /// Like [`span`](Self::span), also returning the span's index so a
    /// replay can point at it.
    pub fn span_id<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, usize) {
        if !self.on {
            return (f(), usize::MAX);
        }
        let idx = self.open(name, req, None);
        let out = f();
        self.close(idx);
        (out, idx)
    }

    /// Run a replay of engine span `of` under a [`REPLAY`] root.
    pub fn replay<T>(&self, of: usize, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.open(REPLAY, req, Some(of));
        let out = f();
        self.close(idx);
        out
    }

    /// Nanoseconds since the tracer's epoch (window bounds for
    /// [`LayerTable::build`]).
    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Directory, relative to the working directory, that traced runs write
/// their spans to.
pub const SPAN_DIR: &str = ".bench_trace";

/// Write every span of a traced run as one JSON object per line to
/// `SPAN_DIR/<workload>-seed<seed>.jsonl`.
pub fn write_spans(workload: &str, seed: u64, sets: &[(String, Vec<Span>)]) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = format!("{SPAN_DIR}/{workload}-seed{seed}.jsonl");
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |i| i.to_string());
    for (table, spans) in sets {
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"table\": \"{table}\", \"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}, \"replays\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                s.req,
                opt(s.replays)
            )?;
        }
    }
    f.flush()
}

/// Duration of `span` not covered by any of its children.
fn self_ns(spans: &[Span], children: &[Vec<usize>], i: usize) -> u64 {
    let s = &spans[i];
    let mut iv: Vec<(u64, u64)> = children[i]
        .iter()
        .map(|&c| {
            (
                spans[c].start_ns.max(s.start_ns),
                spans[c].end_ns.min(s.end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    s.dur_ns().saturating_sub(covered)
}

/// Per-layer self times (ms) over a traced window of `window_ns`.
///
/// Every non-replay span contributes its self time to its name's row.
/// Each replay root's children are charged to their own layer rows and
/// taken out of the row of the engine span they replay, which is renamed
/// `<engine>.unattributed`. The replay roots' wall leaves the window.
/// The final `unattributed` row is the window wall minus every other
/// row, so the rows always add up to `wall_ms`.
#[derive(Debug, Clone, Default)]
pub struct LayerTable {
    pub rows: BTreeMap<String, f64>,
    pub wall_ms: f64,
}

impl LayerTable {
    pub fn build(spans: &[Span], window_ns: u64) -> Self {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let replayed: std::collections::BTreeSet<&str> = spans
            .iter()
            .filter_map(|s| s.replays.map(|of| spans[of].name))
            .collect();
        let engine_row = |name: &str| {
            if replayed.contains(name) {
                format!("{name}.unattributed")
            } else {
                name.to_string()
            }
        };
        let in_replay = |mut i: usize| loop {
            if spans[i].replays.is_some() {
                return true;
            }
            match spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut rows: BTreeMap<String, f64> = BTreeMap::new();
        let mut replay_wall_ns = 0u64;
        for (i, s) in spans.iter().enumerate() {
            if let Some(of) = s.replays {
                replay_wall_ns += s.dur_ns();
                let moved: u64 = children[i].iter().map(|&c| spans[c].dur_ns()).sum();
                for &c in &children[i] {
                    *rows.entry(spans[c].name.to_string()).or_default() += ms(spans[c].dur_ns());
                }
                *rows.entry(engine_row(spans[of].name)).or_default() -= ms(moved);
            } else if !in_replay(i) {
                *rows.entry(engine_row(s.name)).or_default() += ms(self_ns(spans, &children, i));
            }
        }
        let wall_ms = ms(window_ns.saturating_sub(replay_wall_ns));
        let attributed: f64 = rows.values().sum();
        rows.insert("unattributed".into(), wall_ms - attributed);
        Self { rows, wall_ms }
    }

    /// Add another table's rows and wall (tables of concurrent threads
    /// sum to thread time).
    pub fn add(&mut self, other: &LayerTable) {
        for (name, v) in &other.rows {
            *self.rows.entry(name.clone()).or_default() += v;
        }
        self.wall_ms += other.wall_ms;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.rows.get(name).copied().unwrap_or(0.0)
    }

    /// Human-readable table; the rows' sum is printed beside the wall so
    /// a reader can see they agree.
    pub fn render(&self, workload: &str, ops: usize) -> String {
        let mut out = format!(
            "per-layer self time, {workload}, traced window {:.1} ms over {ops} ops\n",
            self.wall_ms
        );
        out.push_str(&format!(
            "  {:<36} {:>12} {:>10} {:>7}\n",
            "layer", "total_ms", "ms/op", "share"
        ));
        let per = ops.max(1) as f64;
        for (name, v) in &self.rows {
            out.push_str(&format!(
                "  {:<36} {:>12.3} {:>10.4} {:>6.1}%\n",
                name,
                v,
                v / per,
                100.0 * v / self.wall_ms.max(f64::MIN_POSITIVE)
            ));
        }
        let sum: f64 = self.rows.values().sum();
        out.push_str(&format!(
            "  {:<36} {:>12.3} (wall {:.3})\n",
            "sum of rows", sum, self.wall_ms
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: u64, b: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            req: 0,
            replays: None,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
        ];
        let t = LayerTable::build(&spans, 200);
        assert_eq!(t.get("op"), 50.0 / 1e6);
        assert_eq!(t.get("a"), 30.0 / 1e6);
        assert_eq!(t.get("b"), 30.0 / 1e6);
        let sum: f64 = t.rows.values().sum();
        assert!((sum - t.wall_ms).abs() < 1e-12);
    }

    #[test]
    fn replay_moves_time_out_of_the_engine_row() {
        let mut spans = vec![
            span("core.write", 0, 1000, None),
            span(REPLAY, 1000, 1900, None),
            span("refactor.decimate", 1000, 1600, Some(1)),
            span("compress.encode", 1600, 1800, Some(1)),
        ];
        spans[1].replays = Some(0);
        let t = LayerTable::build(&spans, 2000);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(t.wall_ms, 1100.0 / 1e6));
        assert!(close(t.get("core.write.unattributed"), 200.0 / 1e6));
        assert!(close(t.get("refactor.decimate"), 600.0 / 1e6));
        assert!(!t.rows.contains_key("core.write"));
        let sum: f64 = t.rows.values().sum();
        assert!((sum - t.wall_ms).abs() < 1e-12);
    }
}
