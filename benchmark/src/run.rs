//! One run of one workload: set up (several times), measure, check, print.

use crate::engine::{self, EngineSystem, Limit, Tally};
use crate::inputs::{Checker, Fixture, Inputs};
use crate::metrics::{Readings, END_TO_END, PER_LAYER};
use crate::refkernel::Normaliser;
use crate::spans::SpanLog;
use crate::{host, layers, stats, wire, Args};
use std::time::{Duration, Instant};

/// Set-ups per full run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Spans one traced run may keep (40 B each).
const SPAN_CAP: usize = 400_000;

/// Trace size and memory cohort of a workload, full and `--smoke`.
#[derive(Clone, Copy)]
pub struct Scale {
    pub ticks: u32,
    pub arrivals_per_tick: f64,
    pub warm_points: u64,
    pub cohort: usize,
    pub setups: usize,
}

impl Scale {
    pub fn of(workload: &str, smoke: bool, seconds: f64) -> Scale {
        let setups = if smoke { 1 } else { SETUP_REPEATS };
        let cohort = if smoke { 128 } else { 2048 };
        // ~20 points per trip: arrivals × 20 sessions stay open.
        let (ticks, arrivals_per_tick, warm_points) = match (workload, smoke) {
            // ≈ 100 k points per pass, one session open at a time.
            ("engine_single", false) => (200, 25.0, 10_000),
            ("engine_single", true) => (60, 5.0, 1_000),
            // ≈ 480 k points per pass, ≈ 3.3 k sessions open.
            ("engine_fleet", false) => (160, 170.0, 40_000),
            ("engine_fleet", true) => (50, 20.0, 2_000),
            // ≈ 50 sessions open; long enough for warm-up + run + extension.
            ("wire_steady", _) => (wire::steady_ticks(seconds, smoke), 2.5, 1_000),
            // ≈ 480 sessions open, ≈ 190 k points per pass.
            ("wire_saturate", false) => (400, 24.0, 5_000),
            ("wire_saturate", true) => (60, 6.0, 1_000),
            _ => unreachable!("workload names are checked at parse time"),
        };
        Scale {
            ticks,
            arrivals_per_tick,
            warm_points,
            cohort,
            setups,
        }
    }
}

/// A workload's system under test, built and warm. Three are made per
/// run; their size is of no account.
#[allow(clippy::large_enum_variant)]
pub enum System {
    Engine(EngineSystem),
    Wire(wire::WireSystem),
}

impl System {
    fn teardown(self) {
        match self {
            System::Engine(_) => {}
            System::Wire(w) => w.shutdown(),
        }
    }
}

/// Builds everything `scale.setups` times and keeps the last build. Each
/// build is timed whole — world to warm pass, nothing left out — and the
/// medians over the builds are booked as `setup_s` and `setup.*`.
///
/// Plain wall time, not speed-normalised: scaling by reference blocks run
/// before and after each build was tried and cut the run-to-run range
/// from 31 % to 9 % on one day and *raised* it from 15 % to 30 % on
/// another — two seconds of training and the 6 ms yardstick do not slow
/// down together the way the engine's hot loop and the yardstick do.
fn set_up(
    workload: &str,
    seed: u64,
    scale: Scale,
    readings: &mut Readings,
) -> (Fixture, Inputs, System) {
    let mut rows: Vec<[f64; 5]> = Vec::new();
    let mut last: Option<(Fixture, Inputs, System)> = None;
    for _ in 0..scale.setups {
        if let Some((_, _, system)) = last.take() {
            system.teardown();
        }
        let t = Instant::now();
        let fx = Fixture::build();
        let inputs = Inputs::generate(&fx, scale.ticks, scale.arrivals_per_tick, seed);
        let t_sys = Instant::now();
        let system = match workload {
            "engine_single" | "engine_fleet" => System::Engine(EngineSystem::build(
                &fx,
                &inputs,
                workload == "engine_fleet",
                scale.warm_points,
            )),
            _ => System::Wire(wire::WireSystem::build(&fx, &inputs, scale.warm_points)),
        };
        rows.push([
            t.elapsed().as_secs_f64(),
            fx.world_s,
            fx.train_s,
            inputs.trace_s,
            t_sys.elapsed().as_secs_f64(),
        ]);
        last = Some((fx, inputs, system));
    }
    let names = [
        "setup_s",
        "setup.world_s",
        "setup.train_s",
        "setup.trace_s",
        "setup.system_s",
    ];
    for (k, name) in names.into_iter().enumerate() {
        let column: Vec<f64> = rows.iter().map(|r| r[k]).collect();
        readings.set(name, stats::median(&column));
    }
    last.expect("at least one set-up")
}

/// What a finished run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub readings: Readings,
    /// Figures that are not metrics (sample counts and the like):
    /// printed, never part of the result line.
    pub notes: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Reads `rss_peak_mb`. Called as the measured part of a run ends:
    /// the memory cohort and the oracle that follow are the benchmark's
    /// own and would otherwise set the peak.
    pub fn note_rss_peak(&mut self) {
        self.readings
            .set("rss_peak_mb", host::rss_peak_mb().unwrap_or(f64::NAN));
    }
}

pub fn run(args: &Args) -> Outcome {
    let workload = args.workload.as_deref().expect("single-workload mode");
    let scale = Scale::of(workload, args.smoke, args.seconds);
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        readings: Readings::default(),
        notes: Vec::new(),
    };
    let (fx, inputs, system) = set_up(workload, args.seed, scale, &mut out.readings);

    let epoch = Instant::now();
    let mut spans = args.trace.then(|| SpanLog::new(epoch, SPAN_CAP));
    match system {
        System::Engine(sys) => run_engine(args, scale, &fx, &inputs, sys, spans.as_mut(), &mut out),
        System::Wire(sys) => wire::run(args, scale, &fx, &inputs, sys, spans.as_mut(), &mut out),
    }
    if args.trace {
        layers::nn_readings(&fx, &mut out.readings);
        layers::proto_readings(&inputs, &mut out.readings);
        if let (Some(lstm), Some(observe)) = (
            out.readings.get("nn.lstm_step_ns"),
            out.readings
                .get("engine.observe_ns_p50")
                .filter(|&v| v > 0.0),
        ) {
            out.readings
                .set("engine.non_nn_share", 1.0 - lstm / observe);
        }
    }
    out.readings.set(
        "check.fail_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if let Some(log) = &spans {
        out.readings.set("trace.spans", log.len() as f64);
        if let Some(path) = &args.trace_out {
            let file = std::fs::File::create(path).expect("create --trace-out file");
            let mut w = std::io::BufWriter::new(file);
            log.write_jsonl(&mut w).expect("write spans");
            std::io::Write::flush(&mut w).expect("flush spans");
            eprintln!(
                "wrote {} spans ({} dropped) to {}",
                log.len(),
                log.dropped,
                path.display()
            );
        }
    }
    out
}

/// `engine_single` and `engine_fleet`, untraced and traced.
///
/// Untraced: whole passes until `--seconds` of wall time are up (the
/// first always runs to the end: it is the one that gets scored). Traced:
/// the same, recording spans during every other chunk, so that
/// `trace.overhead_ratio` compares like with like within one run.
fn run_engine(
    args: &Args,
    scale: Scale,
    fx: &Fixture,
    inputs: &Inputs,
    mut sys: EngineSystem,
    mut spans: Option<&mut SpanLog>,
    out: &mut Outcome,
) {
    let fleet = args.workload.as_deref() == Some("engine_fleet");
    let stats_before = sys.engine.stats();
    let decisions_before = sys.engine.decision_counts();
    let mut checker = Checker::new(inputs);
    let mut tally = Tally::default();
    if args.trace {
        tally.norm.alternate_tracing();
    }
    // A traced run spends part of its time on the layer probes.
    let budget = if args.trace {
        args.seconds * 0.7
    } else {
        args.seconds
    };
    let deadline = Instant::now() + Duration::from_secs_f64(budget);

    // The first pass runs whole: it is the one scored.
    let mut limit = Limit::WHOLE;
    while sys.pass(
        inputs,
        fleet,
        limit,
        &mut tally,
        Some(&mut checker),
        spans.as_deref_mut(),
    ) && Instant::now() < deadline
    {
        limit.deadline = Some(deadline);
    }
    assert!(checker.first_pass_complete(), "first pass runs whole");
    out.note_rss_peak();
    let norm = &tally.norm;

    let pps = norm.rate();
    let (p50_us, mut tail_us) = norm.latency_us();
    if fleet {
        tail_us = fleet_tail_us(norm);
    }
    out.readings.set("points_per_sec", pps);
    out.readings.set("label_p50_us", p50_us);
    out.readings.set("label_p90_us", tail_us);
    out.readings.set("host.ref_ms", norm.ref_ms());
    out.readings.set("host.raw_points_per_sec", norm.raw_rate());
    out.notes
        .push(("points_measured", tally.points as f64, "count"));

    if args.trace {
        let log = spans.expect("traced run has a span log");
        out.readings
            .set("trace.overhead_ratio", norm.traced_rate() / pps);
        let p = |name: &str, q: f64| {
            let mut d = log.durations(name);
            if d.is_empty() {
                0.0
            } else {
                stats::percentile(&mut d, q)
            }
        };
        out.readings
            .set("engine.observe_ns_p50", p("engine.observe", 0.50));
        out.readings
            .set("engine.observe_ns_p99", p("engine.observe", 0.99));
        out.readings
            .set("engine.open_ns_p50", p("engine.open", 0.50));
        out.readings
            .set("engine.close_ns_p50", p("engine.close", 0.50));
        if fleet {
            out.readings.set(
                "engine.tick_ns_per_point_p50",
                norm.median_of(|c| c.p50_ns / c.units as f64),
            );
        }
        let s = sys.engine.stats();
        let events = (s.observe_events - stats_before.observe_events).max(1) as f64;
        let batched = (s.batched_events - stats_before.batched_events) as f64;
        let rounds = s.batched_rounds - stats_before.batched_rounds;
        out.readings.set("engine.batched_share", batched / events);
        out.readings
            .set("engine.lanes_per_round", batched / rounds.max(1) as f64);
        let (rnel, policy) = sys.engine.decision_counts();
        let (rnel, policy) = (rnel - decisions_before.0, policy - decisions_before.1);
        out.readings.set(
            "engine.policy_share",
            policy as f64 / (rnel + policy).max(1) as f64,
        );
        let alloc_points = if args.smoke { 2_000 } else { 60_000 };
        out.readings.set(
            "engine.allocs_per_kpoint",
            sys.allocs_per_kpoint(inputs, fleet, alloc_points),
        );
    }

    drop(sys);
    out.readings.set(
        "bytes_per_session",
        engine::bytes_per_session(fx, inputs, fleet, scale.cohort),
    );
    let verdict = checker.finish(fx, inputs);
    out.readings.set("f1", verdict.f1);
    out.attempted = verdict.attempted;
    out.failed = verdict.failed;
}

/// `label_p90_us` on `engine_fleet`. Every point of a tick waits for the
/// whole tick, so the wait distribution is the tick-duration distribution
/// weighted by tick size, and its tail is "the biggest ticks". A 90th
/// percentile taken straight off the measured durations would instead be
/// the host's: more than a tenth of the ticks are hit by a burst. So this
/// is the **median** duration, each scaled by its own reference block, of
/// the biggest ticks — those that together hold the top tenth of the
/// points.
fn fleet_tail_us(norm: &Normaliser) -> f64 {
    let mut ticks: Vec<_> = norm.plain_chunks().collect();
    ticks.sort_by_key(|c| std::cmp::Reverse(c.units));
    let total: u64 = ticks.iter().map(|c| c.units).sum();
    let mut held = 0u64;
    let mut biggest: Vec<f64> = Vec::new();
    for c in ticks {
        if held * 10 >= total {
            break;
        }
        held += c.units;
        biggest.push(c.p50_ns / c.slowdown() / 1e3);
    }
    stats::median(&biggest)
}

/// Runs the workload, prints every reading as `name value unit`, then the
/// result line. Returns whether every output was correct.
pub fn run_and_print(args: &Args) -> bool {
    let out = run(args);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let rows = out.readings.emit(table);
    let workload = args.workload.as_deref().unwrap_or_default();
    println!(
        "# workload {workload} seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // An untraced run also prints what it learnt on the side — set-up
    // split, host and generator health — below the metrics it is run for.
    let aside = out.readings.besides(table);
    for (name, value, unit) in rows.iter().chain(&aside).chain(&out.notes) {
        println!("{name} {value} {unit}");
    }
    println!("attempted {} count", out.attempted);
    println!("failed {} count", out.failed);
    let correct = out.failed == 0 && out.attempted > 0;
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    correct
}
