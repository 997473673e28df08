//! The ranked-enumeration benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for at least `--seconds` seconds in whole passes over
//! inputs generated from `--seed`, checks every output, and prints as its
//! last line one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/NOTES.md`.

mod direct;
mod report;
mod served;
mod spans;
mod stats;
mod verify;

use report::Report;
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 2] = ["ranked_deep", "serve_mix"];

/// Set-up is repeated this many times and its median reported.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// First line of `program args`'s standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn host_record(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only a git checkout of its own: a parent directory's repository
    // would name the wrong commit.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    let esc = mtr_serve::json::escape;
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        esc(&cpu),
        esc(&command_line("rustc", &["--version"])),
        esc(&commit),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn run(args: &Args, origin: Instant) -> Report {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    if args.workload == "serve_mix" {
        let mut inputs = None;
        for _ in 0..SETUP_REPS {
            let (i, took) = served::setup(args.seed);
            setups.push(took.as_secs_f64());
            inputs = Some(i);
        }
        let inputs = inputs.expect("set-up ran");
        let mut report = served::run(&inputs, args.seconds, args.trace, origin);
        report.setup_s = stats::median(&setups).expect("set-up ran");
        report
    } else {
        let mut graphs = Vec::new();
        for _ in 0..SETUP_REPS {
            let (g, took) = direct::setup(args.seed);
            setups.push(took.as_secs_f64());
            graphs = g;
        }
        let mut report = direct::run(&graphs, args.seconds, args.trace, origin);
        report.setup_s = stats::median(&setups).expect("set-up ran");
        report
    }
}

/// Prints the median traced pass's layer table: self time per layer, the
/// unattributed rest, and their sum, the pass's wall time.
fn print_layer_table(report: &Report) {
    let mut tables: Vec<_> = report.tables.iter().collect();
    tables.sort_by(|a, b| a.wall_ns.total_cmp(&b.wall_ns));
    let Some(t) = tables.get((tables.len().saturating_sub(1)) / 2) else {
        return;
    };
    println!("layer self times of the median traced pass (per client lane):");
    let mut sum = 0.0;
    for (name, ns) in &t.self_ns {
        sum += ns;
        println!(
            "  {name:<18} {:>12.3} ms {:>6.1}%",
            ns / 1e6,
            ns / t.wall_ns * 100.0
        );
    }
    sum += t.unattributed_ns;
    println!(
        "  {:<18} {:>12.3} ms {:>6.1}%",
        "unattributed",
        t.unattributed_ns / 1e6,
        t.unattributed_ns / t.wall_ns * 100.0
    );
    println!(
        "  {:<18} {:>12.3} ms (wall {:.3} ms)",
        "sum",
        sum / 1e6,
        t.wall_ns / 1e6
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let host = host_record(&args);
    println!("{host}");
    let report = run(&args, origin);
    for line in report.describe() {
        println!("{line}");
    }
    for failure in report.failures.iter().take(10) {
        eprintln!("perfbench: FAILED {failure}");
    }
    let metrics = if args.trace {
        print_layer_table(&report);
        let dir = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join("traces")))
            .unwrap_or_else(|| "traces".into());
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| spans::write_jsonl(&path, &host, &report.spans))
        {
            Ok(()) => println!(
                "spans: {} written to {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        report.per_layer()
    } else {
        report.end_to_end()
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
