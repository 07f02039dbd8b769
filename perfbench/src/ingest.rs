//! `ingest`: writers stream seeded timesteps of all three paper datasets
//! through `Canopus::write` in a closed loop. Only the write pipeline
//! runs: decimate, map and delta, compress, place.

use crate::trace::{LayerTable, Tracer};
use crate::util::{self, mean, median, mix};
use crate::{replay, Args, Outcome};
use canopus::Canopus;
use canopus_data::Dataset;
use canopus_storage::StorageHierarchy;
use std::time::Instant;

/// Distinct seeded timesteps per dataset. The loop cycles through them
/// and keeps the last `ROUNDS` rounds of files resident, deleting older
/// ones, so the store (and so placement) stays in a steady state.
pub const ROUNDS: usize = 4;

/// Concurrent writers, one per core of the two-core host, like two
/// simulation ranks: each has its own engine and tmpfs slice. Decimation
/// is single-threaded, and one writer's round time followed that one
/// core's speed, which drifted by up to 1.5x from minute to minute there;
/// two writers keep both cores busy.
pub const WRITERS: usize = 2;

/// One round: a timestep of XGC1, GenASiS and CFD.
type Round = [Dataset; 3];

pub fn inputs(seed: u64) -> Vec<Round> {
    (0..ROUNDS as u64)
        .map(|t| {
            let s = mix(seed, t);
            [
                canopus_data::xgc1_dataset(s),
                canopus_data::genasis_dataset(s),
                canopus_data::cfd_dataset(s),
            ]
        })
        .collect()
}

fn raw_bytes(rounds: &[Round]) -> u64 {
    rounds
        .iter()
        .flat_map(|r| r.iter())
        .map(|d| d.len() as u64 * 8)
        .sum()
}

fn setup(seed: u64) -> (Vec<Round>, Vec<Canopus>) {
    let rounds = inputs(seed);
    let engines = (0..WRITERS)
        .map(|_| util::titan_engine(raw_bytes(&rounds)))
        .collect();
    (rounds, engines)
}

fn file_name(ds: &Dataset, writer: usize, round: usize) -> String {
    format!("{}-w{writer}-r{round}.bp", ds.name)
}

#[derive(Default)]
struct LoopStats {
    round_ms: Vec<f64>,
    raw_bytes: u64,
    stored_bytes: u64,
    io_sim_s: Vec<f64>,
    writes: u64,
    failed: u64,
    wall_s: f64,
}

impl LoopStats {
    fn merge(&mut self, other: LoopStats) {
        self.round_ms.extend(other.round_ms);
        self.raw_bytes += other.raw_bytes;
        self.stored_bytes += other.stored_bytes;
        self.io_sim_s.extend(other.io_sim_s);
        self.writes += other.writes;
        self.failed += other.failed;
        self.wall_s = self.wall_s.max(other.wall_s);
    }
}

/// One writer: write rounds until `seconds` have passed, continuing its
/// round counter from `next_round`.
fn write_loop(
    engine: &Canopus,
    rounds: &[Round],
    writer: usize,
    next_round: &mut usize,
    seconds: f64,
    tr: &Tracer,
    scratch: &StorageHierarchy,
) -> LoopStats {
    let mut st = LoopStats::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let r = *next_round;
        *next_round += 1;
        let mut op_s = 0.0;
        let mut io = 0.0;
        for ds in &rounds[r % ROUNDS] {
            let t = Instant::now();
            let (res, span) = tr.span_id("core.write", r as u64, || {
                engine.write(&file_name(ds, writer, r), ds.var, &ds.mesh, &ds.data)
            });
            op_s += t.elapsed().as_secs_f64();
            st.writes += 1;
            match res {
                Ok(report) => {
                    st.raw_bytes += ds.len() as u64 * 8;
                    st.stored_bytes += report.stored_data_bytes();
                    io += report.io_time.seconds();
                }
                Err(e) => {
                    eprintln!("write {} failed: {e}", file_name(ds, writer, r));
                    st.failed += 1;
                }
            }
            if tr.on() {
                replay::write(tr, span, r as u64, scratch, &ds.mesh, &ds.data);
            }
        }
        if r >= ROUNDS {
            tr.span("adios.delete", r as u64, || {
                for ds in &rounds[0] {
                    let _ = engine.store().delete(&file_name(ds, writer, r - ROUNDS));
                }
            });
        }
        st.round_ms.push(op_s * 1e3);
        st.io_sim_s.push(io);
    }
    st.wall_s = start.elapsed().as_secs_f64();
    st
}

/// Run every writer for `seconds`, each on its own thread with its own
/// tracer, and merge their statistics. When traced, the per-layer table
/// is the sum of the writers' tables (thread time), with their spans.
fn write_phase(
    engines: &[Canopus],
    rounds: &[Round],
    next: &mut [usize; WRITERS],
    seconds: f64,
    traced: bool,
) -> (LoopStats, LayerTable, Vec<Vec<crate::trace::Span>>) {
    let per_writer: Vec<(LoopStats, LayerTable, Vec<crate::trace::Span>)> =
        std::thread::scope(|sc| {
            let handles: Vec<_> = next
                .iter_mut()
                .zip(engines)
                .enumerate()
                .map(|(w, (next_round, engine))| {
                    sc.spawn(move || {
                        let tr = Tracer::new(traced);
                        let scratch = StorageHierarchy::titan_two_tier(u64::MAX / 4, u64::MAX / 4);
                        let t0 = tr.now_ns();
                        let st = write_loop(engine, rounds, w, next_round, seconds, &tr, &scratch);
                        let window = tr.now_ns() - t0;
                        let spans = tr.into_spans();
                        let table = LayerTable::build(&spans, window);
                        (st, table, spans)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("writer thread"))
                .collect()
        });
    let mut stats = LoopStats::default();
    let mut table = LayerTable::default();
    let mut spans = Vec::new();
    for (st, t, sp) in per_writer {
        stats.merge(st);
        table.add(&t);
        spans.push(sp);
    }
    (stats, table, spans)
}

/// Every resident file restores at L0 within the codec's range-relative
/// bound. Returns the number of files that did not.
fn check(engines: &[Canopus], rounds: &[Round], written: &[usize; WRITERS]) -> u64 {
    let mut failures = 0;
    for (w, (engine, &written)) in engines.iter().zip(written).enumerate() {
        for r in written.saturating_sub(ROUNDS)..written {
            for ds in &rounds[r % ROUNDS] {
                let file = file_name(ds, w, r);
                let ok = engine
                    .open(&file)
                    .and_then(|reader| {
                        let levels = reader.num_levels();
                        reader.read_level(ds.var, 0).map(|o| (o, levels))
                    })
                    .is_ok_and(|(o, levels)| util::restores_original(&o.data, &ds.data, levels));
                if !ok {
                    eprintln!("check failed: {file} does not restore within bound at L0");
                    failures += 1;
                }
            }
        }
    }
    failures
}

/// Deterministic work counters of writing the first round on a fresh
/// engine.
pub fn counters(rounds: &[Round]) -> Vec<(&'static str, f64)> {
    let engine = util::titan_engine(raw_bytes(rounds));
    let scratch = StorageHierarchy::titan_two_tier(u64::MAX / 4, u64::MAX / 4);
    let off = Tracer::new(false);
    let mut collapses = 0u64;
    let mut stored = 0u64;
    for ds in &rounds[0] {
        let report = engine
            .write(&file_name(ds, 0, 0), ds.var, &ds.mesh, &ds.data)
            .expect("write on a fresh engine");
        stored += report.stored_data_bytes();
        collapses += replay::write(&off, 0, 0, &scratch, &ds.mesh, &ds.data);
    }
    let tier = |i| engine.hierarchy().tier_stats(i).expect("two tiers");
    let (t0, t1) = (tier(0), tier(1));
    vec![
        ("refactor.collapses", collapses as f64),
        ("compress.stored_bytes", stored as f64),
        ("storage.tier0.bytes_written", t0.bytes_written as f64),
        ("storage.tier1.bytes_written", t1.bytes_written as f64),
        ("storage.tier0.bytes_read", t0.bytes_read as f64),
        ("storage.tier1.bytes_read", t1.bytes_read as f64),
    ]
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let ((rounds, engines), setup_s) =
        util::timed_setup(util::setups(args.trace), || setup(args.seed));
    let mut next = [0usize; WRITERS];

    let st = if args.trace {
        let (base, _, _) = write_phase(&engines, &rounds, &mut next, args.seconds / 2.0, false);
        let (st, table, spans) =
            write_phase(&engines, &rounds, &mut next, args.seconds / 2.0, true);
        for (w, sp) in spans.into_iter().enumerate() {
            out.spans.push((format!("ingest.writer{w}"), sp));
        }
        let ops = st.round_ms.len();
        out.notes
            .push(table.render("ingest (thread time of both writers)", ops));
        let per = ops.max(1) as f64;
        for (row, metric) in [
            ("refactor.decimate", "refactor.decimate_ms"),
            ("refactor.map_delta", "refactor.map_delta_ms"),
            ("compress.encode", "compress.encode_ms"),
            ("storage.put", "storage.put_ms"),
            ("adios.delete", "adios.delete_ms"),
            ("core.write.unattributed", "core.write.unattributed_ms"),
            ("unattributed", "bench.unattributed_ms"),
        ] {
            out.layer(metric, table.get(row) / per);
        }
        out.layer("bench.wall_ms", table.wall_ms);
        out.layer("bench.ops", ops as f64);
        let overhead = median(&st.round_ms) / median(&base.round_ms) - 1.0;
        out.layer("bench.trace_overhead_frac", overhead);
        out.notes.push(format!(
            "tracing overhead: round p50 {:.3} ms traced vs {:.3} ms untraced ({:+.2}%)",
            median(&st.round_ms),
            median(&base.round_ms),
            overhead * 100.0
        ));
        for (name, v) in counters(&rounds) {
            out.layer(name, v);
        }
        st
    } else {
        write_phase(&engines, &rounds, &mut next, args.seconds, false).0
    };

    out.check_failures = check(&engines, &rounds, &next);
    out.attempted = st.writes;
    out.failed = st.failed + out.check_failures;
    let rounds_done = st.round_ms.len();
    out.notes.push(format!(
        "ingest: {rounds_done} rounds ({} writes) in {:.3} s; round p50 {:.3} ms p90 {:.3} ms",
        st.writes,
        st.wall_s,
        median(&st.round_ms),
        util::quantile(&st.round_ms, 0.9)
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("io_sim_s", mean(&st.io_sim_s), "s");
    out.metric(
        "stored_ratio",
        st.stored_bytes as f64 / st.raw_bytes.max(1) as f64,
        "ratio",
    );
    out.metric("op_p50_ms", median(&st.round_ms), "ms");
    out.metric("goodput_per_s", rounds_done as f64 / st.wall_s, "1/s");
    out.metric("ingest_mb_s", st.raw_bytes as f64 / 1e6 / st.wall_s, "MB/s");
    // A closed loop has no deadline: every operation that completed
    // counts as on time.
    out.metric(
        "slo_attainment",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.metric(
        "error_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out
}
