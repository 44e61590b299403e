//! The pdmm benchmark: one command runs a named workload from a seed, checks
//! its outputs, and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-2k --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
//! end-to-end ones (tracing off); with `--trace 1` they are the per-layer ones,
//! taken from spans recorded around the calls into each layer, and every span
//! is written to `.bench_out/`.  A failed output check exits nonzero without
//! printing any numbers.  `perfbench/workloads.json` records why each
//! workload exists and which end-to-end metric each layer metric should move.

mod json;
mod layers;
mod loadgen;
mod metrics;
mod probes;
mod serve;
mod stats;
mod trace;
mod wire;

use json::Json;
use metrics::{Registry, END_TO_END, PER_LAYER};
use stats::{reportable_tail, Outcomes};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: pdmm-perfbench --workload <serve-2k|serve-200k|wire-2shard> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where runs leave their scratch files and span dumps, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

/// Set-ups per segment; `setup_s` is the median of all of them.
pub const SETUPS: usize = 5;

pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub epoch: Instant,
    /// A private directory for this run's files, removed afterwards.
    pub scratch: PathBuf,
}

impl Run {
    /// The seed of segment `k`: each segment of a run is an independent
    /// stream.
    pub fn segment_seed(&self, k: u64) -> u64 {
        self.seed.wrapping_mul(1_000_003).wrapping_add(k)
    }
}

pub struct Measured {
    pub registry: Registry,
    pub outcomes: Outcomes,
    /// Output checks that failed.
    pub failures: Vec<String>,
    pub tracer: Tracer,
    /// Sample counts behind the latency figures.
    pub samples: Vec<(&'static str, usize)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: bad {what} '{value}'");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("duration"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("duration"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace flag")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn measure(args: &Args, run: &Run) -> Result<Measured, String> {
    match args.workload.as_str() {
        "serve-2k" => serve::run(
            &serve::ServeSpec {
                num_vertices: 10_000,
                initial_edges: 2_000,
                durable: false,
                concurrent_reads: false,
                segment_batches: 2_000,
                batches_per_s: 2_000.0,
                sharded_probe_batches: probes::PROBE_BATCHES,
            },
            run,
        ),
        "serve-200k" => serve::run(
            &serve::ServeSpec {
                num_vertices: 100_000,
                initial_edges: 200_000,
                durable: true,
                concurrent_reads: true,
                segment_batches: 1_300,
                batches_per_s: 130.0,
                sharded_probe_batches: 100,
            },
            run,
        ),
        "wire-2shard" => wire::run(run),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn write_spans(path: &Path, tracer: &Tracer) -> Result<(), String> {
    std::fs::write(path, tracer.to_json().to_string())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = Path::new(OUT_DIR).join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        epoch: Instant::now(),
        scratch,
    };
    let measured = measure(&args, &run);
    let _ = std::fs::remove_dir_all(&run.scratch);
    let measured = match measured {
        Ok(measured) => measured,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if !measured.failures.is_empty() {
        for failure in &measured.failures {
            eprintln!("perfbench: output check failed: {failure}");
        }
        std::process::exit(1);
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = match measured.registry.emit(table) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = write_spans(&path, &measured.tracer) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        eprintln!("spans: {}", path.display());
        for (name, (count, total, own)) in measured.tracer.summary() {
            eprintln!(
                "  {name:<24} {count:>8} spans  total {:>10.3} ms  self {:>10.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    for (name, n) in &measured.samples {
        let tail = reportable_tail(*n).map_or("none".to_string(), |q| format!("p{}", q * 100.0));
        eprintln!("{name}: {n} samples, highest reportable percentile {tail}");
    }
    for metric in table {
        let value = measured.registry.get(metric.name).unwrap_or(f64::NAN);
        eprintln!("{:<36} {value:>16.4} {}", metric.name, metric.unit);
    }
    let line = Json::obj([
        ("correct", Json::from(true)),
        ("attempted", Json::from(measured.outcomes.attempted)),
        ("failed", Json::from(measured.outcomes.failed())),
        ("metrics", metrics),
    ]);
    println!("{line}");
}
