//! The one benchmark of the admission stack. See `benchmark/README.md`.
//!
//! Two ways to run it (both through `benchmark/run.sh`, which builds it):
//!
//! * **one run** — `--workload W --seed N --seconds S --trace 0|1` runs
//!   one workload once and prints, as the last line of standard output,
//!   one JSON object `{correct, attempted, failed, metrics}`: the
//!   end-to-end metrics with `--trace 0`, the per-layer metrics with
//!   `--trace 1`;
//! * **the suite** — without `--workload`, every workload runs in a child
//!   process of its own (so peak memory is per workload) and every metric
//!   is printed by name with its unit. `--trace 1` adds the traced runs,
//!   `--quick` is the smoke mode, `--aa` runs everything twice on the
//!   same build and fails if a metric moves by more than its bound.

mod checks;
mod host;
mod inputs;
mod ladder;
mod load;
mod metrics;
mod probes;
mod run;
mod stack;
mod stats;
mod trace;
mod traced;

use inputs::Workload;
use metrics::Metric;
use run::{Report, Settings};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`: what a run measures for when
/// `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;
/// Measured seconds per phase in `--quick` mode (~1/30 of a full run).
const QUICK_SECONDS: f64 = 0.4;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    aa: bool,
    tmp_root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        aa: false,
        tmp_root: PathBuf::from("target/benchmark/tmp"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--tmp-dir" => args.tmp_root = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// One workload, once, in this process.
fn one_run(workload: Workload, args: &Args) -> ExitCode {
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        quick: args.quick,
        tmp_root: args.tmp_root.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&settings.tmp_root) {
        eprintln!("cannot create {}: {e}", settings.tmp_root.display());
        return ExitCode::from(2);
    }
    let report = if args.trace {
        traced::per_layer(workload, &settings)
    } else {
        run::end_to_end(workload, &settings)
    };
    println!(
        "# {} seed {} seconds {} trace {}",
        workload.name(),
        settings.seed,
        settings.seconds,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for Metric { name, unit, value } in &report.metrics {
        println!("{name} {value} {unit}");
    }
    for failure in &report.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", json_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `name → value` of a child's final JSON line (our own format: every
/// metric is `"name": {"value": V, "unit": "u"}`).
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find("\": {\"value\": ") {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_string();
        let tail = &rest[at + 13..];
        let end = tail.find(',').unwrap_or(tail.len());
        if let Ok(value) = tail[..end].parse() {
            out.push((name, value));
        }
        rest = tail;
    }
    out
}

/// Runs one workload in a child process; returns its metrics, or `None`
/// (and says why) if it failed a check, crashed or printed no result. The
/// child's progress lines and any panic message go straight to this
/// process's standard error.
fn child_run(workload: Workload, args: &Args, trace: bool) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().expect("own path is known");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--tmp-dir")
        .arg(&args.tmp_root)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(seconds) = args.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if args.quick {
        command.arg("--quick");
    }
    let output = command.output().expect("child process runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let name = workload.name();
    if !output.status.success() {
        println!(
            "CHECK FAILED: {name} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        );
        return None;
    }
    if !last.contains("\"correct\": true") {
        println!(
            "CHECK FAILED: {name} (trace {}) printed no result line",
            u8::from(trace)
        );
        return None;
    }
    let metrics = parse_metrics(last);
    let vocabulary: &[(&str, &str)] = if trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let printed = metrics.iter().map(|(name, _)| name.as_str());
    if !printed.eq(vocabulary.iter().map(|(name, _)| *name)) {
        println!(
            "CHECK FAILED: {name} (trace {}) did not print exactly the metrics of the vocabulary",
            u8::from(trace)
        );
        return None;
    }
    Some(metrics)
}

/// Every workload, each run in its own process.
fn suite(args: &Args) -> ExitCode {
    let declared = std::fs::read_to_string("BENCHMARK.json").map(|json| {
        (
            metrics::declared_names(&json),
            metrics::declared_bounds(&json),
        )
    });
    let Ok((declared_names, bounds)) = declared else {
        eprintln!("BENCHMARK.json is not readable from the current directory; run from the repository root");
        return ExitCode::from(2);
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let first = child_run(workload, args, false);
        ok &= first.is_some();
        if args.trace {
            ok &= child_run(workload, args, true).is_some();
        }
        if let (true, Some(first)) = (args.aa, &first) {
            let Some(second) = child_run(workload, args, false) else {
                ok = false;
                continue;
            };
            for ((name, a), (_, b)) in first.iter().zip(&second) {
                let bound = bounds
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |&(_, bound)| bound);
                let moved = (a - b).abs() / a.abs().min(b.abs());
                println!(
                    "aa {} {name}: {a} vs {b} ({:.1}% apart, bound {:.0}%) {}",
                    workload.name(),
                    moved * 100.0,
                    bound * 100.0,
                    if moved <= bound { "ok" } else { "MOVED" }
                );
                ok &= moved <= bound;
            }
        }
    }
    // Every run printed exactly the code's vocabulary (checked per child);
    // `BENCHMARK.json` must list the same workloads and metrics, no more
    // and no fewer, and every name must be well-formed.
    let vocabulary: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(metrics::END_TO_END.iter().map(|(name, _)| *name))
        .chain(metrics::PER_LAYER.iter().map(|(name, _)| *name))
        .collect();
    for name in &vocabulary {
        if !metrics::valid_name(name) {
            println!("CHECK FAILED: `{name}` is not a well-formed name");
            ok = false;
        }
        if !declared_names.iter().any(|declared| declared == name) {
            println!("CHECK FAILED: `{name}` is missing from BENCHMARK.json");
            ok = false;
        }
    }
    for name in &declared_names {
        if !vocabulary.contains(&name.as_str()) {
            println!(
                "CHECK FAILED: BENCHMARK.json declares `{name}`, which the benchmark does not have"
            );
            ok = false;
        }
    }
    println!("suite: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            eprintln!(
                "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--aa]"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => one_run(workload, &args),
        None => suite(&args),
    }
}
