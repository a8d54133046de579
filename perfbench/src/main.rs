//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload serve-hot|engine-cold --seed N --seconds S --trace 0|1
//!           --serve-bin PATH --work-dir DIR --out-dir DIR
//! ```
//!
//! Runs one workload, checks every answer against the sequential-DFS
//! oracle, and prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Progress, phase reports and the checker's counts go to stderr.
//! `perfbench/run.py` builds everything and supplies the paths.

mod awake;
mod check;
mod deck;
mod engine_cold;
mod layers;
mod load;
mod serve_hot;
mod trace;
mod util;
mod wire;

use std::path::{Path, PathBuf};
use util::Metrics;

/// The end-to-end metrics, with units, every workload reports.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_frac", "frac"),
    ("exact_frac", "frac"),
    ("peak_rss_mb", "MiB"),
    ("lat_p50_ms.light", "ms"),
    ("lat_p50_ms.busy", "ms"),
    ("lat_tail_ms.light", "ms"),
    ("lat_tail_ms.busy", "ms"),
    ("max_rate_qps", "1/s"),
    ("persist_s", "s"),
    ("restart_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("throughput_qps", "1/s"),
];

/// The per-layer metrics, with units, of a traced run.
const PER_LAYER: &[(&str, &str)] = &[
    ("client.rtt_ms.p50", "ms"),
    ("server.service_ms.p50", "ms"),
    ("server.transport_ms.p50", "ms"),
    ("server.coalesce_wait_ms.p50", "ms"),
    ("server.coalesce_frac", "frac"),
    ("server.batch_fanout.mean", "count"),
    ("server.shed_frac", "frac"),
    ("json.parse_us.request", "us"),
    ("json.parse_us.response", "us"),
    ("strata.resume_frac", "frac"),
    ("engine.lumped_frac", "frac"),
    ("engine.exact_frac", "frac"),
    ("engine.hybrid_frac", "frac"),
    ("engine.mc_frac", "frac"),
    ("cache.hit_frac", "frac"),
    ("sched.cascade_warm_ms.p50", "ms"),
    ("sched.cascade_ms.lumped", "ms"),
    ("sched.cascade_ms.exact", "ms"),
    ("sched.cascade_ms.hybrid", "ms"),
    ("sched.cascade_overhead_ms", "ms"),
    ("lumped.expand_ms.p50", "ms"),
    ("exact.expand_ms.p50", "ms"),
    ("exact.flat_expand_ms.p50", "ms"),
    ("exact.entries", "count"),
    ("exact.expand_ns_per_entry", "ns"),
    ("sample.salvage_ms.p50", "ms"),
    ("memo.miss_frac", "frac"),
    ("memo.probe_ns.hit", "ns"),
    ("memo.probe_ns.miss", "ns"),
    ("core.intern_ns", "ns"),
    ("pool.steals", "count"),
    ("pool.splits", "count"),
    ("pool.lane_jobs", "count"),
    ("pool.pooled_depth_frac", "frac"),
    ("prob.observe_ms.p50", "ms"),
    ("store.encode_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.bytes", "bytes"),
    ("store.decode_ms", "ms"),
    ("gen.lateness_ms.p99.light", "ms"),
    ("gen.lateness_ms.p99.busy", "ms"),
    ("gen.invalid.light", "count"),
    ("gen.invalid.busy", "count"),
    ("trace.overhead_frac", "frac"),
    ("check.answers", "count"),
    ("check.rounded_answers", "count"),
    ("check.rounded_bits_differ", "count"),
    ("check.mc_within_1x_frac", "frac"),
    ("check.shared_cache_errors", "count"),
];

/// Per-layer metrics of the server's own layers: `engine-cold` makes no
/// HTTP, JSON or strata calls, so it reports them as 0.
pub const SERVER_ONLY_LAYER_METRICS: &[&str] = &[
    "client.rtt_ms.p50",
    "server.service_ms.p50",
    "server.transport_ms.p50",
    "server.coalesce_wait_ms.p50",
    "server.coalesce_frac",
    "server.batch_fanout.mean",
    "server.shed_frac",
    "json.parse_us.request",
    "json.parse_us.response",
    "strata.resume_frac",
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("count", |(_, u)| u)
}

/// What a workload run reports besides its metrics.
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub work_dir: PathBuf,
    pub out_dir: PathBuf,
}

fn parse_opts(args: &[String]) -> Result<(Opts, bool), String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        serve_bin: None,
        work_dir: PathBuf::from(".bench_tmp"),
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(1..=600).contains(&opts.seconds) {
                    return Err("--seconds must be 1..=600".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--serve-bin" => opts.serve_bin = Some(PathBuf::from(value()?)),
            "--work-dir" => opts.work_dir = PathBuf::from(value()?),
            "--out-dir" => opts.out_dir = PathBuf::from(value()?),
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok((opts, setup_only))
}

/// Write the spans and print each span name's total and self time.
pub fn finish_trace(spans: Vec<trace::Span>, out_dir: &Path, workload: &str, seed: u64) {
    let path = out_dir.join(format!("spans-{workload}-seed{seed}.tsv"));
    match trace::write(&spans, &path) {
        Ok(()) => eprintln!("{} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write spans: {e}"),
    }
    eprintln!(
        "{:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in trace::self_times(&spans) {
        eprintln!("{name:<28} {count:>8} {total:>12.3} {own:>12.3}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("engine-child") {
        let code = match parse_opts(&args[1..])
            .and_then(|(opts, setup_only)| engine_cold::child_main(&opts, setup_only))
        {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench engine child: {e}");
                1
            }
        };
        std::process::exit(code);
    }
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let (opts, _) = parse_opts(args)?;
    for dir in [&opts.work_dir, &opts.out_dir] {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let mut metrics = Metrics::default();
    let (attempted, failed, correct) = match opts.workload.as_str() {
        "serve-hot" => {
            let s = serve_hot::run(&opts, &mut metrics)?;
            if opts.trace {
                finish_trace(trace::drain(), &opts.out_dir, "serve-hot", opts.seed);
            }
            (s.attempted, s.failed, s.correct)
        }
        "engine-cold" => {
            let s = engine_cold::run(&opts, &mut metrics)?;
            (s.attempted, s.failed, s.correct)
        }
        other => {
            return Err(format!(
                "unknown workload {other:?} (serve-hot, engine-cold)"
            ))
        }
    };
    let wanted = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut out = Metrics::default();
    for (name, unit) in wanted {
        match metrics.get(name) {
            Some(v) => out.set(name, v, unit),
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    Ok(out.result_line(correct, attempted.max(1), failed))
}
