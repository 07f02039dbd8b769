//! End-to-end Canopus benchmark.
//!
//! ```text
//! canopus-perfbench --workload <ingest|explore|serve|overload> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every workload runs `CanopusConfig::default()` on the Titan two-tier
//! hierarchy through the public API only. Inputs come from `--seed`
//! during set-up; the measured loop runs for `--seconds`; output checks
//! run after it. Human-readable lines come first and the last line of
//! standard output is one JSON object: with `--trace 0` it carries the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
//! run. See `perfbench/README.md`.

mod explore;
mod ingest;
mod replay;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.unwrap_or(30.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed operations plus failed output checks.
    pub failed: u64,
    /// Check failures alone (also counted in `failed`).
    pub check_failures: u64,
    /// End-to-end metrics: name → (value, unit).
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Per-layer metrics of a traced run (units are in [`LAYERS`]).
    pub layers: BTreeMap<String, f64>,
    /// Lines printed before the result (tables, sample counts).
    pub notes: Vec<String>,
    /// Spans of a traced run, by the table they fed.
    pub spans: Vec<(String, Vec<trace::Span>)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(
            LAYERS.iter().any(|(n, _)| *n == name),
            "{name} is not a listed per-layer metric"
        );
        self.layers.insert(name.to_string(), value);
    }
}

/// The end-to-end metrics `BENCHMARK.json` gates, with their units,
/// reported on every workload.
const GATED: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("io_sim_s", "s"),
    ("stored_ratio", "ratio"),
    ("op_p50_ms", "ms"),
    ("slo_attainment", "ratio"),
];

/// The per-layer metrics `BENCHMARK.json` lists, printed on every traced
/// run (0 where the workload never reaches the layer).
pub const LAYERS: [(&str, &str); 39] = [
    ("refactor.decimate_ms", "ms"),
    ("refactor.collapses", "count"),
    ("refactor.map_delta_ms", "ms"),
    ("refactor.restore_ms", "ms"),
    ("compress.encode_ms", "ms"),
    ("compress.stored_bytes", "bytes"),
    ("compress.decode_ms", "ms"),
    ("compress.values_decoded", "count"),
    ("storage.put_ms", "ms"),
    ("storage.get_ms", "ms"),
    ("storage.tier0.bytes_read", "bytes"),
    ("storage.tier0.bytes_written", "bytes"),
    ("storage.tier1.bytes_read", "bytes"),
    ("storage.tier1.bytes_written", "bytes"),
    ("adios.open_ms", "ms"),
    ("adios.delete_ms", "ms"),
    ("core.write.unattributed_ms", "ms"),
    ("core.read.unattributed_ms", "ms"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.serve.queue_wait_ms.quick.p50", "ms"),
    ("core.serve.queue_wait_ms.quick.p99", "ms"),
    ("core.serve.queue_wait_ms.full.p50", "ms"),
    ("core.serve.queue_wait_ms.full.p99", "ms"),
    ("core.serve.service_ms.quick.p50", "ms"),
    ("core.serve.service_ms.quick.p99", "ms"),
    ("core.serve.service_ms.full.p50", "ms"),
    ("core.serve.service_ms.full.p99", "ms"),
    ("core.serve.useful_frac", "ratio"),
    ("core.serve.region_chunk_frac", "ratio"),
    ("analytics.rasterize_ms.base", "ms"),
    ("analytics.rasterize_ms.full", "ms"),
    ("analytics.detect_ms", "ms"),
    ("analytics.blobs", "count"),
    ("loadgen.submit_ms", "ms"),
    ("loadgen.late_ms.p99", "ms"),
    ("bench.unattributed_ms", "ms"),
    ("bench.wall_ms", "ms"),
    ("bench.ops", "count"),
    ("bench.trace_overhead_frac", "ratio"),
];

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn result_line(out: &Outcome, trace: bool) -> String {
    let mut fields = Vec::new();
    if trace {
        for (name, unit) in LAYERS {
            let v = out.layers.get(name).copied().unwrap_or(0.0);
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            ));
        }
    } else {
        for (name, unit) in GATED {
            let v = out.metrics.get(name).map_or(f64::NAN, |(v, _)| *v);
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check_failures == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "ingest" => ingest::run(&args),
        "explore" => explore::run(&args),
        "serve" => serve::run(&args, serve::SERVE_RATE),
        "overload" => serve::run(&args, serve::OVERLOAD_RATE),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        out.metric("peak_rss_mb", util::peak_rss_mb(), "MB");
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} threads {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &out.notes {
        println!("{note}");
    }
    if !args.trace {
        for (name, (v, unit)) in &out.metrics {
            println!("  {name:<22} {v:>14.6} {unit}");
        }
    }
    println!(
        "attempted {} failed {} (check failures {})",
        out.attempted, out.failed, out.check_failures
    );
    println!("{}", result_line(&out, args.trace));
    if args.trace {
        if let Err(e) = trace::write_spans(&args.workload, args.seed, &out.spans) {
            eprintln!("warning: spans not written: {e}");
        }
    }
    if out.check_failures > 0 {
        eprintln!("error: {} output checks failed", out.check_failures);
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two same-seed runs agree on every counter exactly, and another
    /// seed changes them: the seed reaches the inputs.
    fn repeats_and_follows_seed(counters: impl Fn(u64) -> Vec<(&'static str, f64)>) {
        let a = counters(11);
        assert_eq!(a, counters(11));
        assert_ne!(a, counters(12));
        assert!(a.iter().any(|(_, v)| *v > 0.0));
    }

    #[test]
    fn ingest_counters_are_deterministic() {
        repeats_and_follows_seed(|seed| ingest::counters(&ingest::inputs(seed)));
    }

    #[test]
    fn explore_counters_are_deterministic() {
        repeats_and_follows_seed(|seed| {
            let campaign = explore::inputs(seed);
            let (engine, _, _) = explore::write_campaign(&campaign);
            explore::counters(&engine, &campaign)
        });
    }

    #[test]
    fn serve_counters_are_deterministic() {
        repeats_and_follows_seed(serve::seed_counters);
    }

    #[test]
    fn request_stream_follows_the_seed() {
        let kinds = |seed| -> Vec<(usize, serve::Kind)> {
            serve::stream(seed, 100.0, 2.0)
                .iter()
                .map(|r| (r.t, r.kind))
                .collect()
        };
        assert_eq!(kinds(5), kinds(5));
        assert_ne!(kinds(5), kinds(6));
    }

    #[test]
    fn result_line_lists_every_gated_metric() {
        let mut out = Outcome {
            attempted: 3,
            ..Default::default()
        };
        for (name, unit) in GATED {
            out.metric(name, 1.5, unit);
        }
        let line = result_line(&out, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, unit) in GATED {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
    }

    /// `BENCHMARK.json` (one metric per line) names exactly the metrics,
    /// with the units, that the result line carries.
    #[test]
    fn benchmark_json_matches_the_result_line() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = json.matches("{\"name\": ").count();
        let workloads = json.matches("\"why\": ").count();
        assert_eq!(listed, workloads + GATED.len() + LAYERS.len());
        for (name, unit) in GATED.iter().chain(LAYERS.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
    }
}
