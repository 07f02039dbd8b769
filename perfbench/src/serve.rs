//! `serve` and `overload`: independent analysts against one
//! `CanopusService`, as an open loop at a fixed offered rate.
//!
//! Set-up writes a multi-timestep XGC1 campaign. Requests target a
//! window of the `WINDOW` most recent timesteps that slides forward by
//! one timestep `SLIDES` times during the run, so each timestep enters
//! the window cold and is cache-resident afterwards. The mix is quick looks
//! (`Base`) and full-accuracy work (`Level` 1 and 0, and `Region`, which
//! the service never caches). `serve` offers a rate well below the
//! service's capacity, `overload` one well above it.

use crate::explore::{file_name, write_campaign};
use crate::trace::{LayerTable, Tracer};
use crate::util::{self, mean, median, mix, quantile, Rng};
use crate::{replay, Args, Outcome};
use canopus::{Canopus, CanopusService, Priority, RegionStats, ServeRequest, ServeResponse};
use canopus_data::Dataset;
use canopus_mesh::{Aabb, Point2};
use canopus_obs::names;
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Offered rate of `serve` (requests/s): about a tenth of the capacity
/// measured on the seed commit with this mix, so queueing stays rare.
pub const SERVE_RATE: f64 = 1000.0;
/// Offered rate of `overload` (requests/s): about twice that capacity.
pub const OVERLOAD_RATE: f64 = 8000.0;
/// Timesteps the analysts look at, at any moment.
pub const WINDOW: usize = 4;
/// Times the window slides during a run; the campaign holds
/// `WINDOW + SLIDES` timesteps whatever the run's length.
pub const SLIDES: usize = 6;
/// Regions of interest: boxes around four points of the annulus edge.
pub const REGIONS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Base,
    Level(u32),
    Region(usize),
}

impl Kind {
    const ALL: [Kind; 3 + REGIONS] = [
        Kind::Base,
        Kind::Level(1),
        Kind::Level(0),
        Kind::Region(0),
        Kind::Region(1),
        Kind::Region(2),
        Kind::Region(3),
    ];
}

#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub id: u64,
    pub t: usize,
    pub kind: Kind,
    pub due_s: f64,
}

/// The seeded request stream: one request every `1/rate` seconds; its
/// timestep is drawn from the current window, its kind from the mix
/// 40% `Base`, 20% `Level(1)`, 20% `Level(0)`, 20% `Region`.
pub fn stream(seed: u64, rate: f64, seconds: f64) -> Vec<Req> {
    let mut rng = Rng::new(mix(seed, 0x5e7e));
    let slide_s = seconds / SLIDES as f64;
    (0..(rate * seconds) as u64)
        .map(|id| {
            let due_s = id as f64 / rate;
            let slide = ((due_s / slide_s) as usize).min(SLIDES - 1);
            let t = slide + (rng.next_u64() % WINDOW as u64) as usize;
            let u = rng.unit();
            let kind = if u < 0.4 {
                Kind::Base
            } else if u < 0.6 {
                Kind::Level(1)
            } else if u < 0.8 {
                Kind::Level(0)
            } else {
                Kind::Region((rng.next_u64() % REGIONS as u64) as usize)
            };
            Req { id, t, kind, due_s }
        })
        .collect()
}

/// Boxes an eighth of the mesh's width across, centred on the left,
/// right, bottom and top of the annulus edge where the blobs sit.
pub fn regions(mesh_bounds: Aabb) -> [Aabb; REGIONS] {
    let (w, h) = (mesh_bounds.width(), mesh_bounds.height());
    let at = |fx: f64, fy: f64| {
        let c = Point2::new(mesh_bounds.min.x + fx * w, mesh_bounds.min.y + fy * h);
        Aabb {
            min: Point2::new(c.x - w / 16.0, c.y - h / 16.0),
            max: Point2::new(c.x + w / 16.0, c.y + h / 16.0),
        }
    };
    [at(0.07, 0.5), at(0.93, 0.5), at(0.5, 0.07), at(0.5, 0.93)]
}

fn request(var: &str, req: &Req, regions: &[Aabb; REGIONS]) -> ServeRequest {
    let file = file_name(req.t);
    let var = var.to_string();
    match req.kind {
        Kind::Base => ServeRequest::Base { file, var },
        Kind::Level(level) => ServeRequest::Level { file, var, level },
        Kind::Region(r) => ServeRequest::Region {
            file,
            var,
            region: regions[r],
        },
    }
}

struct Pending {
    req: Req,
    late_s: f64,
    traced: bool,
    ticket: canopus::Ticket,
}

/// One resolved request.
struct Done {
    req: Req,
    traced: bool,
    priority: Priority,
    late_s: f64,
    queue_wait_s: f64,
    service_s: f64,
    /// From the request's due time: generator lateness, queue wait and
    /// service. The service stamps the queue wait from the moment
    /// `submit` is called, so time blocked on a full queue sits inside
    /// `queue_wait_s`.
    latency_s: f64,
    io_s: f64,
    level: u32,
    degraded: bool,
    digest: u64,
}

impl Done {
    fn new(req: Req, late_s: f64, traced: bool, r: &ServeResponse) -> Self {
        Self {
            req,
            traced,
            priority: r.priority,
            late_s,
            queue_wait_s: r.queue_wait_s,
            service_s: r.service_s,
            latency_s: late_s + r.queue_wait_s + r.service_s,
            io_s: r.outcome.timing.io_secs,
            level: r.outcome.level,
            degraded: r.outcome.degraded,
            digest: util::digest(&r.outcome.data),
        }
    }

    fn met(&self) -> bool {
        self.latency_s < self.priority.default_deadline().as_secs_f64()
    }
}

struct Setup {
    campaign: Vec<Dataset>,
    engine: Arc<Canopus>,
    stored: u64,
    raw: u64,
}

fn setup(seed: u64) -> Setup {
    let campaign: Vec<Dataset> = (0..(WINDOW + SLIDES) as u64)
        .map(|t| canopus_data::xgc1_dataset(mix(seed, t)))
        .collect();
    let (engine, stored, raw) = write_campaign(&campaign);
    Setup {
        campaign,
        engine: Arc::new(engine),
        stored,
        raw,
    }
}

/// Reference digest of every (timestep, kind) on a fresh reader each,
/// with the counters of that pass. When `tr` is on, each base and level
/// read is replayed through the layers (the replays read the tiers
/// again, so a traced pass's byte counters are not used).
struct References {
    /// Digest and restored level of each (timestep, kind).
    digests: HashMap<(usize, Kind), (u64, u32)>,
    ops: usize,
    values_decoded: u64,
    tier_read: [u64; 2],
    region: RegionStats,
    /// Timesteps whose L0 reference does not restore the original field
    /// within the codec's bound.
    unfaithful: u64,
}

fn references(s: &Setup, regions: &[Aabb; REGIONS], tr: &Tracer) -> References {
    let engine = &s.engine;
    let reg = engine.metrics();
    let decoded = || reg.counter(names::READ_VALUES_DECODED).get();
    let tier = |i| {
        engine
            .hierarchy()
            .tier_stats(i)
            .expect("two tiers")
            .bytes_read
    };
    let (d0, a0, b0) = (decoded(), tier(0), tier(1));
    let mut refs = References {
        digests: HashMap::new(),
        ops: 0,
        values_decoded: 0,
        tier_read: [0; 2],
        region: RegionStats::default(),
        unfaithful: 0,
    };
    for (t, ds) in s.campaign.iter().enumerate() {
        let file = file_name(t);
        for kind in Kind::ALL {
            let req = refs.ops as u64;
            refs.ops += 1;
            let reader = tr
                .span("adios.open", req, || engine.open(&file))
                .expect("campaign file opens");
            // Region reads are not replayed, so they get a span of their
            // own and stay out of `core.read.unattributed`.
            let name = match kind {
                Kind::Region(_) => "core.region",
                _ => "core.read",
            };
            let (outcome, span) = tr.span_id(name, req, || match kind {
                Kind::Base => reader.read_base(ds.var).map(|o| (o, None)),
                Kind::Level(l) => reader.read_level(ds.var, l).map(|o| (o, None)),
                Kind::Region(r) => reader.read_base(ds.var).and_then(|base| {
                    reader
                        .refine_region(ds.var, &base, regions[r])
                        .map(|(o, st)| (o, Some(st)))
                }),
            });
            let (outcome, stats) = outcome.expect("reference read");
            if kind == Kind::Level(0)
                && !util::restores_original(&outcome.data, &ds.data, reader.num_levels())
            {
                eprintln!("check failed: t{t} L0 does not restore the original field");
                refs.unfaithful += 1;
            }
            if let Some(st) = stats {
                refs.region.chunks_read += st.chunks_read;
                refs.region.chunks_total += st.chunks_total;
            } else if tr.on() {
                replay::read(tr, span, req, engine, &file, ds.var, outcome.level);
            }
            refs.digests
                .insert((t, kind), (util::digest(&outcome.data), outcome.level));
        }
    }
    refs.values_decoded = decoded() - d0;
    refs.tier_read = [tier(0) - a0, tier(1) - b0];
    refs
}

/// Deterministic work counters of the reference pass.
fn counters(s: &Setup, refs: &References) -> Vec<(&'static str, f64)> {
    vec![
        ("compress.values_decoded", refs.values_decoded as f64),
        ("storage.tier0.bytes_read", refs.tier_read[0] as f64),
        ("storage.tier1.bytes_read", refs.tier_read[1] as f64),
        ("compress.stored_bytes", s.stored as f64),
        (
            "core.serve.region_chunk_frac",
            refs.region.chunks_read as f64 / refs.region.chunks_total.max(1) as f64,
        ),
    ]
}

/// The counters of a fresh set-up and reference pass for `seed`.
#[cfg(test)]
pub fn seed_counters(seed: u64) -> Vec<(&'static str, f64)> {
    let s = setup(seed);
    let regions = regions(s.campaign[0].mesh.aabb());
    let refs = references(&s, &regions, &Tracer::new(false));
    counters(&s, &refs)
}

pub fn run(args: &Args, rate: f64) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_s) = util::timed_setup(util::setups(args.trace), || setup(args.seed));
    let var = s.campaign[0].var;
    let regions = regions(s.campaign[0].mesh.aabb());
    let reqs = stream(args.seed, rate, args.seconds);

    let service = CanopusService::start(Arc::clone(&s.engine));
    let reg = Arc::clone(s.engine.metrics());
    let cache = || {
        (
            reg.counter(names::READ_CACHE_HITS).get(),
            reg.counter(names::READ_CACHE_MISSES).get(),
        )
    };
    let (tx, rx) = mpsc::channel::<Pending>();
    let collector = std::thread::spawn(move || {
        let mut done = Vec::new();
        let mut errors = 0u64;
        for p in rx {
            let Pending {
                req,
                late_s,
                traced,
                ticket,
            } = p;
            match ticket.wait() {
                Ok(r) => done.push(Done::new(req, late_s, traced, &r)),
                Err(e) => {
                    eprintln!("request {} failed: {e}", req.id);
                    errors += 1;
                }
            }
        }
        (done, errors)
    });

    // Tracing covers the second half of the offered window's wall time
    // (under overload the generator is far behind the due times then).
    let off = Tracer::new(false);
    let tr = Tracer::new(args.trace);
    let mut window = (0u64, 0u64);
    let mut cache_at_half = (0, 0);
    let mut submitted = 0u64;
    let mut refused = 0u64;
    let start = Instant::now();
    let half = start + Duration::from_secs_f64(args.seconds / 2.0);
    let end = start + Duration::from_secs_f64(args.seconds);
    for req in &reqs {
        let traced = args.trace && Instant::now() >= half;
        let g = if traced { &tr } else { &off };
        if traced && window.0 == 0 {
            window.0 = tr.now_ns().max(1);
            cache_at_half = cache();
        }
        let due = start + Duration::from_secs_f64(req.due_s);
        g.span("loadgen.idle", req.id, || util::sleep_until(due));
        let called = Instant::now();
        if called >= end {
            // An overloaded generator stops issuing when the offered
            // window closes; requests it never reached are not sent.
            break;
        }
        let ticket = g.span("loadgen.submit", req.id, || {
            service.submit(request(var, req, &regions))
        });
        submitted += 1;
        match ticket {
            Ok(ticket) => tx
                .send(Pending {
                    req: *req,
                    late_s: (called - due).as_secs_f64(),
                    traced,
                    ticket,
                })
                .expect("collector is running"),
            Err(e) => {
                eprintln!("submit {} refused: {e}", req.id);
                refused += 1;
            }
        }
    }
    window.1 = tr.now_ns();
    let issue_s = start.elapsed().as_secs_f64().min(args.seconds);
    drop(tx);
    let (done, errors) = collector.join().expect("collector thread");
    let cache_end = cache();
    drop(service);

    let refs = references(&s, &regions, &Tracer::new(false));
    let mut check_failures = refs.unfaithful;
    for d in &done {
        let expect = refs.digests.get(&(d.req.t, d.req.kind));
        if expect != Some(&(d.digest, d.level)) || d.degraded {
            if check_failures < 5 {
                eprintln!(
                    "check failed: request {} ({:?} of t{}) does not match its reference",
                    d.req.id, d.req.kind, d.req.t
                );
            }
            check_failures += 1;
        }
    }
    let tickets = submitted - refused;
    let resolved = done.len() as u64 + errors;
    if resolved != tickets {
        eprintln!("check failed: {tickets} tickets issued, {resolved} resolved");
        check_failures += tickets.abs_diff(resolved);
    }

    let class = |p: Priority, traced_only: bool| -> Vec<&Done> {
        done.iter()
            .filter(|d| d.priority == p && (!traced_only || d.traced))
            .collect()
    };
    let ms = |v: Vec<f64>| v.into_iter().map(|x| x * 1e3).collect::<Vec<_>>();
    let lat = |ds: &[&Done]| ms(ds.iter().map(|d| d.latency_s).collect());
    let quick = class(Priority::QuickLook, false);
    let full = class(Priority::FullAccuracy, false);
    let met = done.iter().filter(|d| d.met()).count() as f64;

    out.attempted = submitted;
    out.check_failures = check_failures;
    out.failed = refused + errors + check_failures;
    out.notes.push(format!(
        "{}: offered {rate} req/s for {} s; {} due, {submitted} issued, {} completed, {} failed; quick n={} full n={}",
        args.workload,
        args.seconds,
        reqs.len(),
        done.len(),
        refused + errors,
        quick.len(),
        full.len()
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric(
        "io_sim_s",
        mean(&done.iter().map(|d| d.io_s).collect::<Vec<_>>()),
        "s",
    );
    out.metric("stored_ratio", s.stored as f64 / s.raw as f64, "ratio");
    let regions_done: Vec<&Done> = done
        .iter()
        .filter(|d| matches!(d.req.kind, Kind::Region(_)))
        .collect();
    // The gated figure is the service's time on a region request. For
    // `serve` that is the response time, from `submit` to completion.
    // Under overload the queue is full by design, and the time from the
    // due time grows with how far the generator has fallen behind: both
    // are reported below, and the gated figure is the service time alone.
    let saturated = args.workload == "overload";
    let region_ms = ms(regions_done
        .iter()
        .map(|d| d.service_s + if saturated { 0.0 } else { d.queue_wait_s })
        .collect());
    out.metric("op_p50_ms", median(&region_ms), "ms");
    out.metric("goodput_per_s", met / args.seconds, "1/s");
    out.metric("quick_p50_ms", median(&lat(&quick)), "ms");
    out.metric("quick_p99_ms", quantile(&lat(&quick), 0.99), "ms");
    out.metric("full_p50_ms", median(&lat(&full)), "ms");
    out.metric("full_p99_ms", quantile(&lat(&full), 0.99), "ms");
    out.metric("slo_attainment", met / submitted.max(1) as f64, "ratio");
    out.metric(
        "error_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.notes.push(format!(
        "generator issued for {issue_s:.3} s; late p99 {:.3} ms",
        quantile(&ms(done.iter().map(|d| d.late_s).collect()), 0.99)
    ));

    if args.trace {
        let spans = tr.into_spans();
        let table = LayerTable::build(&spans, window.1.saturating_sub(window.0));
        out.spans.push(("loadgen".into(), spans));
        let traced: Vec<&Done> = done.iter().filter(|d| d.traced).collect();
        let ops = traced.len();
        out.notes.push(table.render(&args.workload, ops));
        let per = ops.max(1) as f64;
        out.layer("loadgen.submit_ms", table.get("loadgen.submit") / per);
        out.layer("bench.unattributed_ms", table.get("unattributed") / per);
        out.layer("bench.wall_ms", table.wall_ms);
        out.layer("bench.ops", ops as f64);
        out.layer(
            "loadgen.late_ms.p99",
            quantile(&ms(traced.iter().map(|d| d.late_s).collect()), 0.99),
        );
        for (p, cls) in [
            (Priority::QuickLook, "quick"),
            (Priority::FullAccuracy, "full"),
        ] {
            let ds = class(p, true);
            let qw = ms(ds.iter().map(|d| d.queue_wait_s).collect());
            let sv = ms(ds.iter().map(|d| d.service_s).collect());
            for (what, v) in [("queue_wait_ms", &qw), ("service_ms", &sv)] {
                for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
                    let name = format!("core.serve.{what}.{cls}.{tag}");
                    out.layer(&name, quantile(v, q));
                }
            }
        }
        let busy: f64 = traced.iter().map(|d| d.service_s).sum();
        let useful: f64 = traced.iter().filter(|d| d.met()).map(|d| d.service_s).sum();
        out.layer(
            "core.serve.useful_frac",
            useful / busy.max(f64::MIN_POSITIVE),
        );
        let hits = cache_end.0 - cache_at_half.0;
        let misses = cache_end.1 - cache_at_half.1;
        out.layer(
            "core.cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        // Cold per-layer costs: the reference pass again, traced, with
        // every base and level read replayed through the layers.
        let cold = Tracer::new(true);
        let t0 = cold.now_ns();
        let traced_refs = references(&s, &regions, &cold);
        let cold_window = cold.now_ns() - t0;
        let cold_spans = cold.into_spans();
        let cold_table = LayerTable::build(&cold_spans, cold_window);
        out.spans.push(("cold_reads".into(), cold_spans));
        out.notes
            .push(cold_table.render("cold reads (reference pass)", traced_refs.ops));
        let per = traced_refs.ops.max(1) as f64;
        for (row, metric) in [
            ("adios.open", "adios.open_ms"),
            ("storage.get", "storage.get_ms"),
            ("compress.decode", "compress.decode_ms"),
            ("refactor.restore", "refactor.restore_ms"),
            ("core.read.unattributed", "core.read.unattributed_ms"),
        ] {
            out.layer(metric, cold_table.get(row) / per);
        }
        for (name, v) in counters(&s, &refs) {
            out.layer(name, v);
        }
        // Response time (submit to completion) is stationary in both
        // halves, even when the generator falls behind.
        let response = |traced: bool| -> Vec<f64> {
            ms(done
                .iter()
                .filter(|d| d.traced == traced)
                .map(|d| d.queue_wait_s + d.service_s)
                .collect())
        };
        let (traced_lat, untraced) = (response(true), response(false));
        let overhead = median(&traced_lat) / median(&untraced) - 1.0;
        out.layer("bench.trace_overhead_frac", overhead);
        out.notes.push(format!(
            "tracing overhead: response p50 {:.4} ms traced vs {:.4} ms untraced ({:+.2}%)",
            median(&traced_lat),
            median(&untraced),
            overhead * 100.0
        ));
    }
    out
}
