//! The containment-rate estimator's benchmark.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|plan-batches|feedback-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process.  The run prints every metric by name with its unit, the
//! failure accounting and, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`).  A failed correctness check exits with code 1.  The traced run also writes
//! its spans and per-query records under `perfbench/out/`.  See `perfbench/README.md`.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

mod feedback_mix;
mod metrics;
mod plan_batches;
mod replay;
mod report;
mod sampling;
mod setup;
mod stats;
mod subplans;
mod trace;
mod train;

const USAGE: &str = "usage: crn-perfbench --workload <train|plan-batches|feedback-mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The command line, checked.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.clamp(1, 600)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
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
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = Arc::new(trace::Tracer::new(args.trace));
    let measured = Instant::now();
    let report = match args.workload.as_str() {
        "train" => train::run(&args, process_start, &tracer),
        "plan-batches" => plan_batches::run(&args, process_start, &tracer),
        "feedback-mix" => feedback_mix::run(&args, process_start, &tracer),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if tracer.enabled() {
        print_trace_summary(&tracer, measured.elapsed().as_secs_f64() * 1e6);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let stem = format!("{}-seed{}", args.workload, args.seed);
        match tracer.write(&dir, &stem) {
            Ok(paths) => {
                for path in paths {
                    println!("  wrote {}", path.display());
                }
            }
            Err(error) => eprintln!("could not write the trace: {error}"),
        }
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Per span name: count, total and self time, and the share of the run's wall time.
fn print_trace_summary(tracer: &trace::Tracer, run_us: f64) {
    println!("spans (run {:.0} ms):", run_us / 1e3);
    for summary in tracer.summary() {
        println!(
            "  {:<22} {:>8} spans  total {:>10.1} ms  self {:>10.1} ms  {:>5.1}% of run{}",
            summary.name,
            summary.count,
            summary.total_us / 1e3,
            summary.self_us / 1e3,
            summary.total_us / run_us * 100.0,
            if summary.root { "  (root)" } else { "" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse("--workload train --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, "train");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10, true));
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        assert!(parse("--workload train --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload train --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload train --seconds 10").is_err());
        assert!(parse("--bogus 1").is_err());
        assert!(parse("--seed").is_err());
    }
}
