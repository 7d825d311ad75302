//! The SnapPix benchmark: four workloads that drive the stack from
//! outside, through its public API, and check every answer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline_batch --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--workload all` runs every workload, each in its own process, and
//! prints every metric. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! nonzero when an answer was wrong or an invariant broke.

mod common;
mod fleet;
mod gateway;
mod offline;
mod open_loop;
mod report;

use common::Run;
use report::{json_number, Outcome};
use std::process::{Command, ExitCode};

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "offline_batch",
    "serve_open_loop",
    "gateway_keepalive",
    "fleet_hw",
];

const USAGE: &str = "usage: perfbench --workload <offline_batch|serve_open_loop|\
gateway_keepalive|fleet_hw|all> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: String,
    run: Run,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        run: Run {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(30.0),
            trace: trace.unwrap_or(false),
        },
    })
}

/// The first line of a command's standard output, or "unknown".
fn probe_command(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment a result depends on: cores, the thread override,
/// the commit, the compiler and the seed.
fn environment(workload: &str, run: &Run) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    // Only a checkout that is itself a git repository has a commit; a
    // parent directory's repository would name the wrong one.
    let commit = if std::path::Path::new(root).join(".git").exists() {
        probe_command("git", &["-C", root, "rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let threads = std::env::var(snappix::prelude::parallel::THREADS_ENV_VAR)
        .unwrap_or_else(|_| "unset".to_string());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"snappix_threads\": \"{threads}\", \"default_threads\": {}, \
         \"commit\": \"{commit}\", \"rustc\": \"{}\"}}",
        run.seed,
        run.seconds,
        run.trace,
        snappix::prelude::parallel::default_threads(),
        probe_command("rustc", &["--version"]),
    )
}

fn run_workload(workload: &str, run: &Run) -> Outcome {
    match workload {
        "offline_batch" => offline::run(run),
        "serve_open_loop" => open_loop::run(run),
        "gateway_keepalive" => gateway::run(run),
        "fleet_hw" => fleet::run(run),
        other => unreachable!("workload {other} was validated"),
    }
}

fn print_outcome(workload: &str, run: &Run, out: &Outcome) {
    println!("env {}", environment(workload, run));
    for note in &out.notes {
        println!("note {note}");
    }
    for broken in &out.broken {
        println!("BROKEN {broken}");
    }
    println!("tally {} attempted {} failed", out.attempted, out.failed);
    for (name, unit) in Outcome::catalogue(run.trace) {
        println!(
            "metric {workload} {name} {} {unit}",
            json_number(out.value(name))
        );
    }
    println!("{}", out.to_json(run.trace));
}

/// Runs every workload in its own process (so each has its own memory
/// high-water mark), passes its report through, and ends with one
/// combined result line whose metric names are `<workload>.<metric>`.
fn run_all(run: &Run) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut metrics = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &run.seed.to_string()])
            .args(["--seconds", &run.seconds.to_string()])
            .args(["--trace", if run.trace { "1" } else { "0" }])
            .output()
            .expect("start a workload process");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        correct &= output.status.success();
        let stdout = String::from_utf8_lossy(&output.stdout);
        for line in stdout.lines() {
            let fields: Vec<&str> = line.split(' ').collect();
            match fields[..] {
                ["metric", w, name, value, unit] => metrics.push(format!(
                    "\"{w}.{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                )),
                ["tally", a, "attempted", f, "failed"] => {
                    attempted += a.parse::<u64>().unwrap_or(0);
                    failed += f.parse::<u64>().unwrap_or(u64::MAX / 2);
                }
                _ => {}
            }
            if !line.starts_with('{') {
                println!("{line}");
            }
        }
    }
    let correct = correct && failed == 0 && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args.run);
    }
    let out = run_workload(&args.workload, &args.run);
    print_outcome(&args.workload, &args.run, &out);
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_flags() {
        let args = parse(&[
            "--workload",
            "fleet_hw",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, "fleet_hw");
        assert_eq!(args.run.seed, 7);
        assert_eq!(args.run.seconds, 10.0);
        assert!(args.run.trace);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "all", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "all", "--seconds", "0"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
    }
}
