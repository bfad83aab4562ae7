//! `adaparse-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, a one-line summary for the
//! reviewer, and — as the last line of standard output — the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero when an
//! output check fails. `--check-repeat` runs every workload twice on one
//! seed and compares; `--smoke` shrinks the inputs to a few documents.

use std::path::PathBuf;
use std::process::ExitCode;

use adaparse_benchmark::inputs::Workload;
use adaparse_benchmark::metrics::{benchmark_json, RUN_SECONDS};
use adaparse_benchmark::repeat::check_repeat;
use adaparse_benchmark::run::{run, RunConfig};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
    print_benchmark_json: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        check_repeat: false,
        print_benchmark_json: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--out" => args.out_dir = PathBuf::from(value("--out")?),
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("adaparse-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.check_repeat {
        return match check_repeat(args.seed, args.seconds, args.smoke, &args.out_dir) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("adaparse-benchmark: {message}");
                ExitCode::from(2)
            }
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("adaparse-benchmark: --workload is required");
        return ExitCode::from(2);
    };
    let result = run(&RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        out_dir: args.out_dir,
    });
    print!("{}", result.metric_lines());
    println!("summary {}", result.summary);
    println!("{}", result.result_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
