//! `--all` and the `--aa N` self-check: both run workloads in fresh child
//! processes of this same executable and read their result lines.
//!
//! The self-check is how the bounds in `BENCHMARK.json` were calibrated
//! and how "two sets of runs of the same code agree" is shown: it applies
//! to two interleaved sets of runs of *one* build the same two tests the
//! driver applies to a parent and a change.

use crate::metrics::WORKLOADS;
use crate::{stats, Args};
use serde::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// The JSON tree as parsed. The vendored serde writes maps as pair lists,
/// so typed derives cannot read a JSON object; this walks the tree.
struct Tree(Value);

impl serde::Deserialize for Tree {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Ok(Tree(v.clone()))
    }
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(f) => Some(f),
        Value::UInt(n) => Some(n as f64),
        Value::Int(n) => Some(n as f64),
        _ => None,
    }
}

/// The last line a run prints.
#[derive(Debug, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

pub fn parse_result_line(line: &str) -> Result<ResultLine, String> {
    let Tree(tree) = serde_json::from_str(line).map_err(|e| format!("not JSON: {e}"))?;
    let field = |k: &str| tree.get(k).ok_or_else(|| format!("no `{k}` key"));
    let count = |k: &str| {
        number(field(k)?)
            .map(|n| n as u64)
            .ok_or(format!("`{k}` is not a number"))
    };
    let correct = match field("correct")? {
        Value::Bool(b) => *b,
        _ => return Err("`correct` is not a boolean".to_string()),
    };
    let mut metrics = BTreeMap::new();
    for (name, reading) in field("metrics")?
        .as_map()
        .ok_or("`metrics` is not an object")?
    {
        let value = reading.get("value").and_then(number);
        metrics.insert(
            name.clone(),
            value.ok_or(format!("metric `{name}` has no numeric value"))?,
        );
    }
    Ok(ResultLine {
        correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub struct Manifest {
    pub run_seconds: f64,
    pub end_to_end: Vec<Declared>,
}

pub fn parse_manifest(text: &str) -> Result<Manifest, String> {
    let Tree(tree) = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let list = |k: &str| {
        tree.get(k)
            .and_then(Value::as_seq)
            .ok_or(format!("no `{k}` list"))
    };
    let text_of = |v: &Value, k: &str| {
        v.get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("entry without `{k}`"))
    };
    let mut end_to_end = Vec::new();
    for entry in list("end_to_end")? {
        end_to_end.push(Declared {
            name: text_of(entry, "name")?,
            higher_is_better: text_of(entry, "better")? == "higher",
            bound: entry
                .get("bound")
                .and_then(number)
                .ok_or("entry without `bound`")?,
        });
    }
    Ok(Manifest {
        run_seconds: tree
            .get("run_seconds")
            .and_then(number)
            .ok_or("no `run_seconds`")?,
        end_to_end,
    })
}

/// `BENCHMARK.json` from the working directory (where the driver runs)
/// or, failing that, from beside the source tree this was built from.
fn load_manifest() -> Result<Manifest, String> {
    let beside_source = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(beside_source))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    parse_manifest(&text)
}

/// Runs one workload in a child process. Its readable lines go to this
/// process's stderr when `echo` is set; the result line is returned.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    echo: bool,
) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{text}");
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    parse_result_line(text.lines().last().ok_or("child printed nothing")?)
}

/// `--all`: every workload once (and once more traced under `--trace 1`),
/// each in a fresh process, output passed through.
pub fn run_all(args: &Args) -> bool {
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            match run_child(workload, args.seed, args.seconds, trace, args.smoke, true) {
                Ok(line) if line.correct => {}
                Ok(line) => {
                    eprintln!(
                        "error: {workload}: {} of {} operations failed",
                        line.failed, line.attempted
                    );
                    ok = false;
                }
                Err(msg) => {
                    eprintln!("error: {msg}");
                    ok = false;
                }
            }
        }
    }
    ok
}

/// One row of the self-check table.
#[derive(Debug)]
pub struct Comparison {
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    /// Share of A's median by which B's median is *worse*; negative when
    /// B is better.
    pub worse_by: f64,
    pub pass: bool,
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = stats::quartiles(values);
    (q3 - q1) / stats::median(values).abs()
}

/// The driver's two tests on two sets of runs of one metric: each set's
/// spread within the bound (not asked of `setup_s`, whose spread the
/// driver does not gate), and B's median not worse than A's by more than
/// the bound.
pub fn compare(decl: &Declared, a: &[f64], b: &[f64]) -> Comparison {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let signed = (median_b - median_a) / median_a.abs();
    let worse_by = if decl.higher_is_better {
        -signed
    } else {
        signed
    };
    let (spread_a, spread_b) = (spread(a), spread(b));
    let spreads_ok = decl.name == "setup_s" || (spread_a <= decl.bound && spread_b <= decl.bound);
    Comparison {
        median_a,
        median_b,
        spread_a,
        spread_b,
        worse_by,
        pass: spreads_ok && worse_by <= decl.bound,
    }
}

/// `--aa N`: N runs per set and workload, sets interleaved A B A B …, run
/// `i` of either set on seed `--seed + i`. Prints the table and returns
/// whether every row passed and every run was correct.
pub fn self_check(args: &Args, n: usize) -> bool {
    let manifest = match load_manifest() {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("error: {msg}");
            return false;
        }
    };
    let seconds = if args.smoke {
        args.seconds
    } else {
        manifest.run_seconds
    };
    let mut all_ok = true;
    println!(
        "A/A self-check: {n} runs per set, seeds {}..{}, {seconds} s per run",
        args.seed,
        args.seed + n as u64
    );
    println!(
        "{:<14} {:<18} {:>12} {:>12} {:>8} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "median_A", "median_B", "iqr_A", "iqr_B", "worse_by", "bound"
    );
    for workload in WORKLOADS {
        let mut sets: [Vec<ResultLine>; 2] = [Vec::new(), Vec::new()];
        for i in 0..n {
            for set in &mut sets {
                match run_child(
                    workload,
                    args.seed + i as u64,
                    seconds,
                    false,
                    args.smoke,
                    false,
                ) {
                    Ok(line) => {
                        if !line.correct {
                            eprintln!(
                                "error: {workload} seed {}: outputs wrong",
                                args.seed + i as u64
                            );
                            all_ok = false;
                        }
                        set.push(line);
                    }
                    Err(msg) => {
                        eprintln!("error: {msg}");
                        return false;
                    }
                }
            }
        }
        for decl in &manifest.end_to_end {
            let column = |set: &[ResultLine]| -> Option<Vec<f64>> {
                set.iter()
                    .map(|line| line.metrics.get(&decl.name).copied())
                    .collect()
            };
            let (Some(a), Some(b)) = (column(&sets[0]), column(&sets[1])) else {
                eprintln!("error: {workload} did not print {}", decl.name);
                all_ok = false;
                continue;
            };
            let c = compare(decl, &a, &b);
            all_ok &= c.pass;
            println!(
                "{:<14} {:<18} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>+8.2}% {:>5.0}%  {}",
                workload,
                decl.name,
                c.median_a,
                c.median_b,
                c.spread_a * 100.0,
                c.spread_b * 100.0,
                c.worse_by * 100.0,
                decl.bound * 100.0,
                if c.pass { "PASS" } else { "FAIL" }
            );
        }
    }
    println!("self-check {}", if all_ok { "PASSED" } else { "FAILED" });
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    #[test]
    fn result_line_round_trips() {
        let line = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 3, "unit": "s"}}}"#;
        let parsed = parse_result_line(line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1000, 0));
        assert_eq!(parsed.metrics["latency_ms"], 1.2034);
        assert_eq!(parsed.metrics["setup_s"], 3.0);
        assert!(parse_result_line("points_per_sec 5 1/s").is_err());
        assert!(parse_result_line(r#"{"correct": 1}"#).is_err());
    }

    #[test]
    fn the_checks_are_the_drivers() {
        let lower = Declared {
            name: "label_p50_us".to_string(),
            higher_is_better: false,
            bound: 0.10,
        };
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let steady = compare(&lower, &a, &[104.0, 105.0, 103.0, 104.5, 103.5]);
        assert!(steady.pass && (steady.worse_by - 0.04).abs() < 1e-9);
        // Worse by more than the bound fails; better by any amount passes.
        assert!(!compare(&lower, &a, &[112.0, 113.0, 111.0, 112.5, 111.5]).pass);
        assert!(compare(&lower, &a, &[50.0, 50.5, 49.5, 50.2, 49.8]).pass);
        // A set spread wider than the bound fails even with equal medians.
        let wild = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert!(!compare(&lower, &wild, &wild).pass);
        // ... except for setup_s, whose spread is not gated.
        let setup = Declared {
            name: "setup_s".to_string(),
            ..lower.clone()
        };
        assert!(compare(&setup, &wild, &wild).pass);
        // Direction: for higher-is-better a drop is the worsening.
        let higher = Declared {
            name: "points_per_sec".to_string(),
            higher_is_better: true,
            bound: 0.05,
        };
        assert!(!compare(&higher, &a, &[90.0, 91.0, 89.0, 90.5, 89.5]).pass);
        assert!(compare(&higher, &a, &[110.0, 111.0, 109.0, 110.5, 109.5]).pass);
    }

    /// `BENCHMARK.json` and the tables in `metrics.rs` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn benchmark_json_lists_what_the_program_prints() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let manifest = parse_manifest(&text).unwrap();
        let declared: Vec<&str> = manifest
            .end_to_end
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        let printed: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(declared, printed);
        for d in &manifest.end_to_end {
            assert!(
                d.bound > 0.0 && d.bound <= 0.25,
                "{} bound {}",
                d.name,
                d.bound
            );
        }
        assert_eq!(manifest.run_seconds, crate::DEFAULT_SECONDS);

        let Tree(tree) = serde_json::from_str(&text).unwrap();
        let workloads: Vec<&str> = tree
            .get("workloads")
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let units = |key: &str| -> Vec<(String, String)> {
            tree.get(key)
                .and_then(Value::as_seq)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(units("end_to_end"), own(END_TO_END));
        assert_eq!(units("per_layer"), own(PER_LAYER));
    }
}
