//! End-to-end and per-layer benchmark of the MDS-2 information service
//! on its real TCP transport.
//!
//! ```text
//! perfbench --workload <vo_discovery|vo_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload stands its topology up in this process (`LiveRuntime`
//! with `ServeOptions::tcp()`), drives it from one generator thread over
//! at most two connections, checks every answer against the
//! generator's own data, and prints the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics (`--trace 1`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod driver;
mod grid;
mod layers;
mod load;
mod stats;
mod vo;
mod window;

use gis_proto::metrics::HistogramSnapshot;
use gis_proto::{Histogram, MetricsRegistry};
use stats::{median, percentile, Metric};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use window::Figures;

/// Service tick of the live runtime: bounds how late a soft-state
/// expiry is swept.
pub const TICK: Duration = Duration::from_millis(100);

pub struct Config {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch space for durable state, inside the checkout.
    pub workdir: PathBuf,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub figures: Figures,
    /// Join → answerable samples, ms.
    pub join_ms: Vec<f64>,
    /// Empty → ready samples, s.
    pub setup_s: Vec<f64>,
    /// Generator lateness samples, ms.
    pub late_ms: Vec<f64>,
    pub ctx_per_op: f64,
    pub threads: u64,
    /// Peak resident set (VmHWM) right after the measured window, MiB.
    pub rss_mb: f64,
    pub layers: Option<layers::Layers>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// A readiness wait that ran out: the run fails instead of hanging.
pub fn fail_setup(why: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::TimedOut,
        format!("set-up failed: {why}"),
    )
}

/// The traced window is shorter than the measured one: spans are kept
/// in memory.
pub fn traced_window(cfg: &Config) -> Duration {
    Duration::from_secs(cfg.seconds.clamp(1, 5))
}

/// Tracing overhead: CPU per operation of the traced window against the
/// untraced one.
pub fn note_overhead(out: &mut Outcome, layers: &mut layers::Layers, traced: &Figures, every: u64) {
    let base = out.figures.cpu_us_per_op;
    let pct = if base > 0.0 {
        (traced.cpu_us_per_op / base - 1.0) * 100.0
    } else {
        0.0
    };
    layers.set("trace.overhead_pct", pct);
    out.notes.push(format!(
        "traced window (1 query in {every} traced, owner-path probe every 50 ms): \
         qps {:.1} p50_us {:.1} p99_us {:.1} cpu_us_per_op {:.2}; untraced: qps {:.1} \
         p50_us {:.1} p99_us {:.1} cpu_us_per_op {:.2}; overhead {pct:.1}% cpu/op",
        traced.qps,
        traced.p50_us,
        traced.p99_us,
        traced.cpu_us_per_op,
        out.figures.qps,
        out.figures.p50_us,
        out.figures.p99_us,
        base
    ));
}

/// p50 and p99 of a service's inbox wait since `before`.
pub fn inbox_wait(before: &HistogramSnapshot, hist: &Histogram) -> (f64, f64) {
    let after = hist.snapshot();
    (
        layers::hist_delta(before, &after, 0.5).1,
        layers::hist_delta(before, &after, 0.99).1,
    )
}

/// Mean provider-fetch time over a GRIS's named providers.
pub fn fetch_mean(registry: &MetricsRegistry, providers: &[String]) -> f64 {
    let (mut sum, mut count) = (0u64, 0u64);
    for p in providers {
        let s = registry
            .labeled_histogram("provider-fetch-us", Some(p))
            .snapshot();
        sum += s.sum;
        count += s.count;
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

const WORKLOADS: [&str; 2] = ["vo_discovery", "vo_churn"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, Config), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("{e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} out of range 1..=600"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    let workdir =
        PathBuf::from("perfbench/work").join(format!("{}-{}", workload, std::process::id()));
    Ok((
        workload,
        Config {
            seed: seed.unwrap_or(1),
            seconds,
            trace,
            workdir,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.workdir) {
        eprintln!("cannot create {}: {e}", cfg.workdir.display());
        return ExitCode::from(2);
    }
    let result = match workload.as_str() {
        "vo_discovery" => vo::run(&cfg, vo::Mode::Discovery),
        _ => vo::run(&cfg, vo::Mode::Churn),
    };
    let _ = std::fs::remove_dir_all(&cfg.workdir);
    let _ = std::fs::remove_dir("perfbench/work");
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{workload}: {e}");
            println!("{}", stats::result_line(false, 1, 1, &[]));
            return ExitCode::from(1);
        }
    };
    report(&workload, &cfg, out)
}

fn report(workload: &str, cfg: &Config, out: Outcome) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {workload} seed {} seconds {} trace {} | nproc {nproc} reactor shards {} threads {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        gis_core::reactor::reactor_shards(),
        out.threads
    );
    for n in &out.notes {
        println!("{n}");
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "failed_share {failed_share} ({} of {} operations); {:.1} answered queries/s, {} joins, {} set-ups",
        out.failed,
        out.attempted,
        out.figures.qps,
        out.join_ms.len(),
        out.setup_s.len()
    );
    // Printed, not metrics of the result: a run has too few samples
    // beyond these percentiles (joins) or they follow the shared
    // machine's scheduling stalls (queries) more than the program.
    println!(
        "p99_us {} join_visible_p90_ms {} (not in the result)",
        out.figures.p99_us,
        percentile(&out.join_ms, 0.9)
    );
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics = if let Some(layers) = &out.layers {
        let mut all = layers.0.clone();
        all.insert("process.ctx_switches_per_op", out.ctx_per_op);
        all.insert("process.threads", out.threads as f64);
        all.insert("bench.gen_late_p99_ms", percentile(&out.late_ms, 0.99));
        layers::PER_LAYER
            .iter()
            .map(|&(name, unit, moves, on)| {
                let value = all.get(name).copied().unwrap_or(f64::NAN);
                println!("layer {name} = {value} {unit} (moves {moves}; on {on})");
                Metric { name, value, unit }
            })
            .collect::<Vec<_>>()
    } else {
        vec![
            Metric {
                name: "qps",
                value: out.figures.qps,
                unit: "1/s",
            },
            Metric {
                name: "p50_us",
                value: out.figures.p50_us,
                unit: "us",
            },
            Metric {
                name: "cpu_us_per_op",
                value: out.figures.cpu_us_per_op,
                unit: "us",
            },
            Metric {
                name: "join_visible_p50_ms",
                value: median(&out.join_ms),
                unit: "ms",
            },
            Metric {
                name: "join_visible_p75_ms",
                value: percentile(&out.join_ms, 0.75),
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: median(&out.setup_s),
                unit: "s",
            },
            Metric {
                name: "rss_peak_mb",
                value: out.rss_mb,
                unit: "MiB",
            },
        ]
    };
    println!(
        "{}",
        stats::result_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
