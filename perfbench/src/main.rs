//! The repository's benchmark: one process runs one workload, checks every
//! answer against an oracle and prints its metrics by name with units.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-maps --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is the result object. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` records spans around every
//! call into the program, replays one wave layer by layer and reports the
//! per-layer metrics (METRICS.md lists both sets and why each workload
//! exists). The exit code is 0 only when every answer was right and every
//! request was accounted for.

mod client;
mod host;
mod inputs;
mod kernel;
mod oracle;
mod replay;
mod report;
mod serving;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// A seed kept out of tuning; claims of a gain must also hold on it.
pub const HOLDOUT_SEED: u64 = 7_340_033;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <kernel-rmat20|serve-maps> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "kernel-rmat20" => kernel::run(&args),
        "serve-maps" => serving::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if let Some(sp) = report.spans.as_ref().filter(|_| args.trace) {
        let path = PathBuf::from(format!(
            "perfbench/out/{}-seed{}.spans.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = sp.write_jsonl(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    report.print(&args.workload, args.seed, args.trace);
    match report.correct {
        true => ExitCode::SUCCESS,
        false => ExitCode::from(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(argv(
            "--workload serve-maps --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds.as_secs(), a.trace),
            ("serve-maps", 9, 10, true)
        );
        assert!(parse(argv("--workload x --seed 1 --seconds 10")).is_err());
        assert!(parse(argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(argv("--workload x --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse(argv("--bogus 1")).is_err());
    }
}
