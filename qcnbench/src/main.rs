//! qcnbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! qcnbench --workload <search|serve_fq_rtn|serve_int_sr> --seed <n> --seconds <s> --trace <0|1>
//! qcnbench summarize <trace.jsonl>     per-layer metrics of a stored trace
//! qcnbench train                       retrain the stored ShallowCaps-S
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) records spans, writes them under the build directory
//! and prints the per-layer metrics the summariser derives from that
//! file. Either way the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the process exits
//! non-zero when any output was wrong.

mod loadgen;
mod model;
mod proc;
mod registry;
mod search;
mod serve;
mod stats;
mod summary;
mod timed;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 25;

/// A run's verdict and metrics.
pub struct Outcome {
    /// No output differed from its oracle.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed, were refused, or were wrong.
    pub failed: usize,
    /// `(name, value, unit, samples)`.
    metrics: Vec<(String, f64, String, usize)>,
    notes: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Adds a metric measured over `samples` samples.
    fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.metrics
            .push((name.to_string(), value, unit.to_string(), samples));
    }

    /// Adds `setup_s`, the median of the run's set-up times, and a line
    /// with their range.
    fn setup(&mut self, samples: &[f64]) {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let median = stats::median(&v).expect("at least one set-up");
        self.note(format!(
            "set-ups: {} of {:.6} to {:.6} s",
            v.len(),
            v[0],
            v[v.len() - 1]
        ));
        self.metric("setup_s", median, "s", v.len());
    }

    /// Adds a line for the human-readable part of the report.
    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit, _)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// The commit being measured, read from the checkout's own `.git`, else
/// `unknown`.
fn commit() -> String {
    let git = PathBuf::from(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.trim().to_string(),
    }
}

fn environment() -> String {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "env nproc={nproc} QCN_NUM_THREADS={} QCN_TELEMETRY={} commit={}",
        var("QCN_NUM_THREADS"),
        var("QCN_TELEMETRY"),
        commit()
    )
}

fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    target
        .join("qcnbench-traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn summarize_file(path: &PathBuf, out: &mut Outcome) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    for (name, value, unit) in summary::summarise(&trace::parse(&text)?)? {
        out.metric(name, value, unit, 0);
    }
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = match [serve::FQ_RTN, serve::INT_SR]
        .into_iter()
        .find(|s| s.name == args.workload)
    {
        Some(spec) => Some(spec),
        None if args.workload == "search" => None,
        None => return Err(format!("unknown workload {:?}", args.workload)),
    };
    if !args.trace {
        return match &spec {
            None => search::run_workload(args.seed, args.seconds, SETUPS),
            Some(spec) => serve::run(spec, args.seed, args.seconds, SETUPS),
        };
    }
    let mut out = match &spec {
        None => search::traced(args.seed, args.seconds)?,
        Some(spec) => serve::traced(spec, args.seed, args.seconds)?,
    };
    let t = trace::active().expect("a traced run enables the tracer");
    let path = trace_path(&args.workload, args.seed);
    std::fs::create_dir_all(path.parent().expect("trace file has a parent"))
        .map_err(|e| format!("create trace directory: {e}"))?;
    std::fs::write(&path, t.to_jsonl()).map_err(|e| format!("write {}: {e}", path.display()))?;
    out.note(format!("trace written to {}", path.display()));
    summarize_file(&path, &mut out)?;
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("train") => {
            return match model::train_and_store() {
                Ok(acc) => {
                    println!("stored ShallowCaps-S, FP32 accuracy {acc}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("qcnbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("summarize") => match argv.get(1) {
            Some(p) => {
                let mut out = Outcome::new();
                out.attempted = 1;
                summarize_file(&PathBuf::from(p), &mut out).map(|()| out)
            }
            None => Err("summarize needs a trace file".into()),
        },
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    let finite = |out: Outcome| match out.metrics.iter().find(|m| !m.1.is_finite()) {
        Some((name, value, ..)) => Err(format!("metric {name} is {value}")),
        None => Ok(out),
    };
    let out = match result.and_then(finite) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("qcnbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", environment());
    for line in &out.notes {
        println!("{line}");
    }
    for (name, value, unit, samples) in &out.metrics {
        if *samples > 1 {
            println!("{name:<30} {value:>14.6} {unit:<7} (n={samples})");
        } else {
            println!("{name:<30} {value:>14.6} {unit}");
        }
    }
    println!("{}", out.json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("qcnbench: outputs differed from their oracles");
        ExitCode::FAILURE
    }
}
