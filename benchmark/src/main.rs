//! The repo's one benchmark. See README.md in this directory for what it
//! measures and why; `BENCHMARK.json` at the repo root for the contract.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--trace-out <file>] [--smoke]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --all [--smoke]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --aa <N> [--seed <n>]
//! ```

mod aa;
mod alloc;
mod closed_loop;
mod engine;
mod host;
mod inputs;
mod layers;
mod metrics;
mod open_loop;
mod refkernel;
mod run;
mod schedule;
mod spans;
mod stats;
mod transport;
mod windows;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measured seconds per run when `--seconds` is not given; the value
/// `BENCHMARK.json` passes as `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub smoke: bool,
    pub all: bool,
    pub aa: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        smoke: false,
        all: false,
        aa: None,
    };
    let mut seconds_given = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if !metrics::WORKLOADS.contains(&v) {
                    return Err(format!(
                        "unknown workload `{v}` (one of {})",
                        metrics::WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(v.to_string());
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(v))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad(v));
                }
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--all" => args.all = true,
            "--aa" => {
                let v = value()?;
                let n: usize = v.parse().map_err(|_| bad(v))?;
                if n < 2 {
                    return Err("--aa needs at least 2 runs per set".to_string());
                }
                args.aa = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = 1.0;
    }
    let modes = usize::from(args.workload.is_some())
        + usize::from(args.all)
        + usize::from(args.aa.is_some());
    if modes != 1 {
        return Err("give exactly one of --workload <name>, --all, --aa <N>".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some(n) = args.aa {
        aa::self_check(&args, n)
    } else if args.all {
        aa::run_all(&args)
    } else {
        run::run_and_print(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload wire_steady --seed 42 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("wire_steady"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 12.0, true));
        assert!(!parse("--workload engine_fleet").unwrap().trace);
        assert_eq!(parse("--all --smoke").unwrap().seconds, 1.0);
        assert_eq!(parse("--aa 5 --seed 2").unwrap().aa, Some(5));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload engine_fleet --all").is_err());
        assert!(parse("--workload engine_fleet --trace 2").is_err());
        assert!(parse("--workload engine_fleet --seconds 0").is_err());
        assert!(parse("--workload engine_fleet --seed").is_err());
        assert!(parse("--aa 1").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
