//! The SEANCE/FANTOM synthesizer benchmark.
//!
//! ```text
//! perfbench --workload scale|resubmit|validate [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload is a closed loop with one client, drives the synthesizer
//! only through public calls, and uses at most `WORKERS` threads. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it replays
//! each request layer by layer under spans, prints the per-layer metrics and
//! writes the spans to `perfbench/traces/`. The last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/README.md`.

mod checks;
mod layers;
mod replay;
mod resubmit;
mod scale;
mod stats;
mod trace;
mod validate;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use checks::Quality;
use stats::{median, peak_rss_mb, result_json, tail, Metric};
use trace::Tracer;

/// The seed runs use unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for re-checking a gain claim.
pub const HELD_OUT_SEED: u64 = 7_777_777;
/// Set-ups per run, spread over the run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;
/// Upper bound on the worker threads of the service pool and campaigns.
pub const WORKERS: usize = 2;

/// What one run measured.
#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    /// The samples `latency_p50_ms` is taken from: one per timed request,
    /// unless the workload replaces them with a fixed set.
    pub latencies_ms: Vec<f64>,
    /// The fixed sample set `latency_tail_ms` is taken from, where it is not
    /// `latencies_ms`.
    pub tail_ms: Option<Vec<f64>>,
    pub requests: usize,
    pub machines: usize,
    pub timed_s: f64,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub quality: Quality,
    pub notes: Vec<String>,
}

impl Run {
    /// Record one timed request that completed `machines` machines.
    pub fn record(&mut self, elapsed: Duration, machines: usize) {
        self.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        self.requests += 1;
        self.timed_s += elapsed.as_secs_f64();
        self.machines += machines;
    }

    /// Time the run's first set-up and keep what it made.
    pub fn first_setup<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let made = setup();
        self.setup_s.push(t.elapsed().as_secs_f64());
        made
    }

    /// Time the set-up repeats that are due `spent` seconds into a run of
    /// `seconds`, or every remaining one once the run is over (`spent` is
    /// `None`), and drop what they make. The `SETUP_REPEATS` set-ups are
    /// spread over the run so that `setup_s` samples the host at several
    /// moments: back to back they all read one, and a shared host's speed
    /// can drift by half within one run.
    pub fn repeat_setup<T>(
        &mut self,
        spent: Option<f64>,
        seconds: f64,
        mut setup: impl FnMut() -> T,
    ) {
        loop {
            let k = self.setup_s.len();
            let due = !matches!(spent, Some(s) if s < seconds * k as f64 / SETUP_REPEATS as f64);
            if k >= SETUP_REPEATS || !due {
                return;
            }
            let t = Instant::now();
            std::hint::black_box(setup());
            self.setup_s.push(t.elapsed().as_secs_f64());
        }
    }

    /// Count one failed machine.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !matches!(args.workload.as_str(), "scale" | "resubmit" | "validate") {
        return Err(format!(
            "--workload must be scale, resubmit or validate, not {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload scale|resubmit|validate [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = WORKERS.min(nproc);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} workers={workers}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut run = Run::default();
    let mut tracer = args.trace.then(Tracer::default);
    let tr = tracer.as_mut();
    match args.workload.as_str() {
        "scale" => scale::run(args.seed, args.seconds, tr, &mut run),
        "resubmit" => resubmit::run(args.seed, args.seconds, workers, tr, &mut run),
        _ => validate::run(args.seed, args.seconds, workers, tr, &mut run),
    }

    for note in &run.notes {
        println!("note: {note}");
    }
    for failure in &run.failures {
        println!("FAILED {failure}");
    }
    let setups: Vec<String> = run.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("set-ups (s): {}", setups.join(" "));
    let error_rate = run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "requests={} machines={} timed_s={:.3} attempted={} failed={} error_rate={error_rate}",
        run.requests, run.machines, run.timed_s, run.attempted, run.failed
    );

    let metrics = match &tracer {
        Some(tr) => {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
            match tr.write_jsonl(&path) {
                Ok(()) => println!("spans: {} written to {}", tr.len(), path.display()),
                Err(e) => println!("note: spans not written: {e}"),
            }
            layers::metrics(tr, trace::span_cost_ns())
        }
        None => end_to_end(&run),
    };
    for m in &metrics {
        println!(
            "{:<24} {:>16} {}",
            m.name,
            stats::json_number(m.value),
            m.unit
        );
    }
    println!("{}", result_json(run.attempted, run.failed, &metrics));
    ExitCode::SUCCESS
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &Run) -> Vec<Metric> {
    let t = tail(run.tail_ms.as_deref().unwrap_or(&run.latencies_ms));
    println!(
        "latency_p50_ms is the median of {} samples; latency_tail_ms is p{:.2} of {} samples ({} beyond)",
        run.latencies_ms.len(),
        t.percentile,
        t.samples,
        t.beyond
    );
    let q = run.quality;
    let m = |name, value: f64, unit| Metric { name, value, unit };
    vec![
        m("setup_s", median(&run.setup_s), "s"),
        m(
            "machines_per_s",
            run.machines as f64 / run.timed_s.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        m("latency_p50_ms", median(&run.latencies_ms), "ms"),
        m("latency_tail_ms", t.value, "ms"),
        m(
            "success_ratio",
            1.0 - run.failed as f64 / run.attempted.max(1) as f64,
            "ratio",
        ),
        m("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
        m("code_vars", q.code_vars as f64, "count"),
        m("y_literals", q.y_literals as f64, "count"),
        m("gate_count", q.gate_count as f64, "count"),
        m("depth_total", q.depth_total as f64, "count"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"<key>": "..."` value of `BENCHMARK.json`, in file order.
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        text.split(&format!("\"{key}\": \""))
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote").to_string())
            .collect()
    }

    /// Set-up repeats run as the run reaches each eleventh of its time, and
    /// the rest once it is over.
    #[test]
    fn set_ups_are_spread_over_the_run() {
        let mut run = Run::default();
        run.first_setup(|| ());
        run.repeat_setup(Some(0.5), 11.0, || ());
        assert_eq!(run.setup_s.len(), 1);
        run.repeat_setup(Some(5.0), 11.0, || ());
        assert_eq!(run.setup_s.len(), 6);
        run.repeat_setup(None, 11.0, || ());
        assert_eq!(run.setup_s.len(), SETUP_REPEATS);
    }

    /// The metrics printed are exactly the ones `BENCHMARK.json` declares,
    /// in the same order and with the same units.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let e2e: Vec<(&str, &str)> = end_to_end(&Run::default())
            .iter()
            .map(|m| (m.name, m.unit))
            .collect();
        let metrics: Vec<(&str, &str)> = e2e.into_iter().chain(layers::names()).collect();
        let names: Vec<&str> = ["scale", "resubmit", "validate"]
            .into_iter()
            .chain(metrics.iter().map(|m| m.0))
            .collect();
        let units: Vec<&str> = metrics.iter().map(|m| m.1).collect();
        assert_eq!(declared("name"), names);
        assert_eq!(declared("unit"), units);
    }
}
