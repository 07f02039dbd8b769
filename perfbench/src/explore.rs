//! `explore`: one analyst runs the paper's Fig. 9 analysis in a closed
//! loop over a written XGC1 campaign. Each timestep gets a quick look
//! (base read, rasterize, detect) and a full-accuracy analysis (L0
//! restore, rasterize, detect), each on a fresh reader so the read path
//! starts cold.

use crate::trace::{LayerTable, Tracer};
use crate::util::{self, mean, median, mix};
use crate::{replay, Args, Outcome};
use canopus::Canopus;
use canopus_analytics::{Blob, BlobDetector, BlobParams, Raster};
use canopus_data::Dataset;
use canopus_obs::names;
use std::time::Instant;

/// Timesteps in the campaign; the loop cycles through them.
pub const TIMESTEPS: usize = 4;
/// Raster resolution of the paper's blob experiments.
pub const RASTER: usize = 384;

pub fn file_name(t: usize) -> String {
    format!("xgc1-t{t}.bp")
}

pub fn inputs(seed: u64) -> Vec<Dataset> {
    (0..TIMESTEPS as u64)
        .map(|t| canopus_data::xgc1_dataset(mix(seed, t)))
        .collect()
}

/// Generate and write an XGC1 campaign; the engine's tmpfs slice holds
/// every compressed base.
pub fn write_campaign(campaign: &[Dataset]) -> (Canopus, u64, u64) {
    let raw: u64 = campaign.iter().map(|d| d.len() as u64 * 8).sum();
    let engine = util::titan_engine(raw);
    let mut stored = 0;
    for (t, ds) in campaign.iter().enumerate() {
        let report = engine
            .write(&file_name(t), ds.var, &ds.mesh, &ds.data)
            .expect("campaign write");
        stored += report.stored_data_bytes();
    }
    (engine, stored, raw)
}

/// The paper's Config1 detector on a raster normalised to its own range.
pub fn detect(raster: &Raster) -> Vec<Blob> {
    match raster.value_range() {
        Some((lo, hi)) => BlobDetector::new(BlobParams::paper_config(10, 200, 100))
            .detect(&raster.to_gray(lo, hi)),
        None => Vec::new(),
    }
}

#[derive(Default)]
struct LoopStats {
    quick_ms: Vec<f64>,
    full_ms: Vec<f64>,
    step_ms: Vec<f64>,
    io_sim_s: Vec<f64>,
    failed: u64,
    attempted: u64,
    wall_s: f64,
    /// Latest full-accuracy blob set per timestep.
    l0_blobs: Vec<Option<Vec<Blob>>>,
}

/// One analysis step: open a fresh reader, read at `level` (`None` =
/// base), rasterize, detect. Returns the step's time (replays excluded),
/// its modelled I/O seconds, and the blobs.
fn step(
    engine: &Canopus,
    var: &str,
    t: usize,
    level: Option<u32>,
    tr: &Tracer,
    req: u64,
) -> Result<(f64, f64, Vec<Blob>), canopus::CanopusError> {
    let file = file_name(t);
    let start = Instant::now();
    let mut replay_s = 0.0;
    let reader = tr.span("adios.open", req, || engine.open(&file))?;
    let (outcome, span) = tr.span_id("core.read", req, || match level {
        None => reader.read_base(var),
        Some(l) => reader.read_level(var, l),
    });
    let outcome = outcome?;
    if tr.on() {
        let r = Instant::now();
        replay::read(tr, span, req, engine, &file, var, outcome.level);
        replay_s = r.elapsed().as_secs_f64();
    }
    let name = if level.is_some() {
        "analytics.rasterize.full"
    } else {
        "analytics.rasterize.base"
    };
    let raster = tr.span(name, req, || {
        Raster::from_mesh(
            &outcome.mesh,
            &outcome.data,
            RASTER,
            RASTER,
            outcome.mesh.aabb(),
        )
    });
    let blobs = tr.span("analytics.detect", req, || detect(&raster));
    let secs = start.elapsed().as_secs_f64() - replay_s;
    Ok((secs, outcome.timing.io_secs, blobs))
}

fn analysis_loop(
    engine: &Canopus,
    var: &str,
    next: &mut usize,
    seconds: f64,
    tr: &Tracer,
    st: &mut LoopStats,
) {
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let i = *next;
        *next += 1;
        let t = i % TIMESTEPS;
        let mut step_s = 0.0;
        for level in [None, Some(0)] {
            st.attempted += 1;
            match step(engine, var, t, level, tr, i as u64) {
                Ok((secs, io, blobs)) => {
                    step_s += secs;
                    st.io_sim_s.push(io);
                    if level.is_some() {
                        st.full_ms.push(secs * 1e3);
                        st.l0_blobs[t] = Some(blobs);
                    } else {
                        st.quick_ms.push(secs * 1e3);
                    }
                }
                Err(e) => {
                    eprintln!("explore step t={t} level={level:?} failed: {e}");
                    st.failed += 1;
                }
            }
        }
        st.step_ms.push(step_s * 1e3);
    }
    st.wall_s += start.elapsed().as_secs_f64();
}

/// Blob sets agree when they have the same size and every blob has a
/// partner within half a pixel in centre and radius.
fn same_blobs(a: &[Blob], b: &[Blob]) -> bool {
    a.len() == b.len()
        && a.iter().all(|x| {
            b.iter().any(|y| {
                (x.center.0 - y.center.0).abs() <= 0.5
                    && (x.center.1 - y.center.1).abs() <= 0.5
                    && (x.radius - y.radius).abs() <= 0.5
            })
        })
}

/// The L0 blob set of every timestep matches the blobs detected on the
/// original field through the same rasterizer. Timesteps the loop never
/// reached are analysed here.
fn check(engine: &Canopus, campaign: &[Dataset], st: &mut LoopStats) -> u64 {
    let off = Tracer::new(false);
    let mut failures = 0;
    for (t, ds) in campaign.iter().enumerate() {
        if st.l0_blobs[t].is_none() {
            st.l0_blobs[t] = step(engine, ds.var, t, Some(0), &off, 0)
                .ok()
                .map(|(_, _, b)| b);
        }
        let reference = detect(&Raster::from_mesh(
            &ds.mesh,
            &ds.data,
            RASTER,
            RASTER,
            ds.mesh.aabb(),
        ));
        let ok = st.l0_blobs[t]
            .as_deref()
            .is_some_and(|got| same_blobs(got, &reference));
        if !ok {
            eprintln!(
                "check failed: timestep {t} L0 blobs {:?} vs original {}",
                st.l0_blobs[t].as_ref().map(Vec::len),
                reference.len()
            );
            failures += 1;
        }
    }
    failures
}

/// Deterministic work counters of one quick look and one full analysis
/// of the first timestep on fresh readers.
pub fn counters(engine: &Canopus, campaign: &[Dataset]) -> Vec<(&'static str, f64)> {
    let reg = engine.metrics();
    let decoded = || reg.counter(names::READ_VALUES_DECODED).get();
    let tier = |i| engine.hierarchy().tier_stats(i).expect("two tiers");
    let (d0, a0, b0) = (decoded(), tier(0), tier(1));
    let off = Tracer::new(false);
    let mut blobs = 0usize;
    for level in [None, Some(0)] {
        let (_, _, b) = step(engine, campaign[0].var, 0, level, &off, 0).expect("counting step");
        blobs += b.len();
    }
    let (a1, b1) = (tier(0), tier(1));
    vec![
        ("compress.values_decoded", (decoded() - d0) as f64),
        (
            "storage.tier0.bytes_read",
            (a1.bytes_read - a0.bytes_read) as f64,
        ),
        (
            "storage.tier1.bytes_read",
            (b1.bytes_read - b0.bytes_read) as f64,
        ),
        ("analytics.blobs", blobs as f64),
    ]
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let ((campaign, (engine, stored, raw)), setup_s) =
        util::timed_setup(util::setups(args.trace), || {
            let campaign = inputs(args.seed);
            let written = write_campaign(&campaign);
            (campaign, written)
        });
    let var = campaign[0].var;
    let mut st = LoopStats {
        l0_blobs: vec![None; TIMESTEPS],
        ..Default::default()
    };
    let mut next = 0usize;
    let off = Tracer::new(false);
    if args.trace {
        analysis_loop(&engine, var, &mut next, args.seconds / 2.0, &off, &mut st);
        let untraced_p50 = median(&st.step_ms);
        let mut traced = LoopStats {
            l0_blobs: std::mem::take(&mut st.l0_blobs),
            ..Default::default()
        };
        let tr = Tracer::new(true);
        let t0 = tr.now_ns();
        analysis_loop(
            &engine,
            var,
            &mut next,
            args.seconds / 2.0,
            &tr,
            &mut traced,
        );
        let window = tr.now_ns() - t0;
        let spans = tr.into_spans();
        let table = LayerTable::build(&spans, window);
        out.spans.push(("explore".into(), spans));
        let ops = traced.step_ms.len();
        out.notes.push(table.render("explore", ops));
        let per = ops.max(1) as f64;
        for (row, metric) in [
            ("adios.open", "adios.open_ms"),
            ("storage.get", "storage.get_ms"),
            ("compress.decode", "compress.decode_ms"),
            ("refactor.restore", "refactor.restore_ms"),
            ("core.read.unattributed", "core.read.unattributed_ms"),
            ("analytics.rasterize.base", "analytics.rasterize_ms.base"),
            ("analytics.rasterize.full", "analytics.rasterize_ms.full"),
            ("analytics.detect", "analytics.detect_ms"),
            ("unattributed", "bench.unattributed_ms"),
        ] {
            out.layer(metric, table.get(row) / per);
        }
        out.layer("bench.wall_ms", table.wall_ms);
        out.layer("bench.ops", ops as f64);
        let overhead = median(&traced.step_ms) / untraced_p50 - 1.0;
        out.layer("bench.trace_overhead_frac", overhead);
        out.notes.push(format!(
            "tracing overhead: timestep p50 {:.3} ms traced vs {:.3} ms untraced ({:+.2}%)",
            median(&traced.step_ms),
            untraced_p50,
            overhead * 100.0
        ));
        for (name, v) in counters(&engine, &campaign) {
            out.layer(name, v);
        }
        out.layer("compress.stored_bytes", stored as f64);
        st = traced;
    } else {
        analysis_loop(&engine, var, &mut next, args.seconds, &off, &mut st);
    }

    out.check_failures = check(&engine, &campaign, &mut st);
    out.attempted = st.attempted;
    out.failed = st.failed + out.check_failures;
    out.notes.push(format!(
        "explore: {} timesteps analysed in {:.3} s; quick look n={} p50 {:.3} ms, full n={} p50 {:.3} ms",
        st.step_ms.len(),
        st.wall_s,
        st.quick_ms.len(),
        median(&st.quick_ms),
        st.full_ms.len(),
        median(&st.full_ms)
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("io_sim_s", mean(&st.io_sim_s), "s");
    out.metric("stored_ratio", stored as f64 / raw as f64, "ratio");
    out.metric("op_p50_ms", median(&st.step_ms), "ms");
    out.metric("goodput_per_s", st.step_ms.len() as f64 / st.wall_s, "1/s");
    out.metric("quicklook_p50_ms", median(&st.quick_ms), "ms");
    out.metric("fullres_p50_ms", median(&st.full_ms), "ms");
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
