//! The RICSA repository benchmark.
//!
//! ```text
//! perfbench --workload <fig9_loop|session_mix|live_steer|viewer_fanout>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), a run measures the workload's end-to-end
//! metrics for `--seconds`.  Traced (`--trace 1`), it measures half the
//! time untraced and half with spans recorded around every call into a
//! layer, and reports the per-layer metrics plus the tracing overhead
//! between the two halves.  Every workload reports every metric that
//! `BENCHMARK.json` lists (see `manifest.rs`), and prints figures of its
//! own above them.  Every run checks the workload's outputs; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (exactly the listed metrics of the
//! run's mode), and the exit code is non-zero when any correctness gate
//! failed.  A fuller record (sample counts, host
//! conditions, gate failures and, when traced, every span with per-layer
//! self times) goes to `perfbench/out/`.  See `perfbench/README.md`.

mod audit;
mod client;
mod host;
mod json;
mod manifest;
mod report;
mod rng;
mod stats;
mod trace;
mod wan;
mod web;

use report::{Metric, Report};
use std::fmt::Write as _;
use std::time::Instant;

/// Set-ups timed per run (`setup_s` is their median): at least
/// [`SETUP_MIN_REPS`], then more until [`SETUP_BUDGET_S`] is spent or
/// [`SETUP_MAX_REPS`] are done, so sub-millisecond set-ups are sampled
/// often enough for a steady median.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MAX_REPS: usize = 101;
const SETUP_BUDGET_S: f64 = 0.25;

/// How a run splits its measuring time.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Seconds measured untraced.
    pub base_s: f64,
    /// Seconds measured traced (0 for an untraced run).
    pub traced_s: f64,
}

impl Phases {
    fn new(seconds: f64, trace: bool) -> Phases {
        if trace {
            Phases {
                base_s: seconds / 2.0,
                traced_s: seconds / 2.0,
            }
        } else {
            Phases {
                base_s: seconds,
                traced_s: 0.0,
            }
        }
    }

    /// Whether this run reports per-layer metrics.
    pub fn traced(&self) -> bool {
        self.traced_s > 0.0
    }
}

/// Time `setup` repeatedly (dropping each result outside the timed
/// region) and return the median seconds with the count.
pub fn setup_median<T>(mut setup: impl FnMut() -> T) -> (f64, usize) {
    let mut times = Vec::new();
    let mut spent = 0.0;
    while times.len() < SETUP_MIN_REPS || (spent < SETUP_BUDGET_S && times.len() < SETUP_MAX_REPS) {
        let t = Instant::now();
        let ready = std::hint::black_box(setup());
        let elapsed = t.elapsed().as_secs_f64();
        drop(ready);
        spent += elapsed;
        times.push(elapsed);
    }
    let n = times.len();
    (
        stats::Dist::new(times)
            .median()
            .expect("at least one set-up"),
        n,
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Write the full record of a run under `perfbench/out/`.
fn write_record(args: &Args, report: &Report, host: &str) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!(
        "{dir}/{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    );
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}, \
         \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        report.attempted,
        report.failed,
        report
            .failures
            .iter()
            .map(|f| json_str(f))
            .collect::<Vec<_>>()
            .join(", "),
        metrics_json(&report.metrics),
    );
    if !report.spans.is_empty() {
        let self_times = trace::self_time_by_name(&report.spans);
        let layers: Vec<String> = self_times
            .iter()
            .map(|(name, (s, n))| {
                format!(
                    "{}: {{\"self_s\": {}, \"spans\": {n}}}",
                    json_str(name),
                    json_num(*s)
                )
            })
            .collect();
        let _ = write!(
            out,
            ", \"self_time\": {{{}}}, \"spans\": [",
            layers.join(", ")
        );
        for (i, s) in report.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\": {}, \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { ", " },
                json_str(s.name),
                s.id,
                s.start,
                s.end
            );
        }
        out.push(']');
    }
    out.push_str("}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let phases = Phases::new(args.seconds, args.trace);
    let load_before = host::load_avg();
    let steal = host::StealProbe::start();
    let mut report = match args.workload.as_str() {
        "fig9_loop" => wan::fig9_loop(args.seed, phases),
        "session_mix" => wan::session_mix(args.seed, phases),
        "live_steer" => web::live_steer(args.seed, phases),
        "viewer_fanout" => web::viewer_fanout(args.seed, phases),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let steal_pct = steal.steal_pct();
    let rss = host::peak_rss_mb();
    let nproc = host::nproc();
    let load_after = host::load_avg();
    if args.trace {
        let (failed, lateness) = (report.failed, report.lateness_ms);
        report.put("ops.failed", failed as f64, "count", 1);
        report.put("gen.lateness_ms", lateness, "ms", 1);
        report.put("host.steal_pct", steal_pct, "%", 1);
        manifest::put_layer_metrics(&mut report);
    } else {
        report.put("peak_rss_mb", rss, "MiB", 1);
    }
    // Metrics must be finite numbers; anything else is a broken gate.
    let (finite, broken): (Vec<_>, Vec<_>) = std::mem::take(&mut report.metrics)
        .into_iter()
        .partition(|m| m.value.is_finite());
    report.metrics = finite;
    for m in broken {
        report.fail(format!("metric {} is not finite", m.name));
    }

    let host = format!(
        "{{\"nproc\": {nproc}, \"steal_pct\": {}, \"load_avg_start\": {}, \"load_avg_end\": {}, \
         \"gen_lateness_ms\": {}, \"peak_rss_mb\": {}}}",
        json_num(steal_pct),
        json_num(load_before),
        json_num(load_after),
        json_num(report.lateness_ms),
        json_num(rss)
    );
    for m in &report.metrics {
        println!(
            "{:<26} {:>16.6} {:<12} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("host {host}");
    for f in &report.failures {
        println!("FAILED {f}");
    }
    match write_record(&args, &report, &host) {
        Ok(path) => println!("record {path}"),
        Err(e) => eprintln!("perfbench: could not write the run record: {e}"),
    }
    let listed: &[(&str, &str)] = if args.trace {
        &manifest::PER_LAYER
    } else {
        &manifest::END_TO_END
    };
    let result = match manifest::result_metrics(&report, listed) {
        Ok(metrics) => metrics,
        Err(e) => {
            println!("FAILED {e}");
            report.fail(e);
            Vec::new()
        }
    };
    let fields: Vec<String> = result
        .iter()
        .map(|&(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
