//! The repo benchmark: four client-path workloads driven through
//! `Framework::connect` → lookup → plan → deploy → invoke, end-to-end
//! metrics from untraced runs and per-layer metrics from a traced run.
//!
//! ```text
//! ps-benchmark [run|trace|check-repeat|print-benchmark-json]
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! ```
//!
//! One process, one thread. The seed is an argument; the system under
//! test receives only inputs generated from it.

mod catalogue;
mod crash;
mod fabric;
mod gate;
mod harness;
mod mail;
mod probes;
mod record;
mod storm;

use catalogue::{END_TO_END, PER_LAYER, WORKLOADS};
use harness::{median, Spans};
use record::{Metrics, Rep};
use std::fmt::Write as _;
use std::process::ExitCode;

#[derive(Debug, Clone)]
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_owned(),
        workload: None,
        seed: catalogue::DEFAULT_SEED,
        seconds: f64::from(catalogue::RUN_SECONDS),
        trace: false,
        quick: false,
        out: "benchmark/out".to_owned(),
    };
    let mut it = std::env::args().skip(1).peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = it.next().unwrap_or_default();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--out" => args.out = value()?,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match args.command.as_str() {
        "run" | "check-repeat" | "print-benchmark-json" => {}
        "trace" => args.trace = true,
        other => return Err(format!("unknown command {other}")),
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|known| known.name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(args)
}

fn one_rep(workload: &str, seed: u64, quick: bool, spans: &mut Spans) -> Rep {
    match workload {
        "connect_storm" => {
            let size = if quick { storm::QUICK } else { storm::FULL };
            storm::rep(seed, size, spans)
        }
        "mail_send_heavy" => {
            let size = if quick { mail::QUICK } else { mail::SEND_FULL };
            mail::rep(seed, mail::Mix::SendHeavy, size, spans)
        }
        "mail_recv_heavy" => {
            let size = if quick { mail::QUICK } else { mail::RECV_FULL };
            mail::rep(seed, mail::Mix::RecvHeavy, size, spans)
        }
        "crash_heal" => {
            let size = if quick { crash::QUICK } else { crash::FULL };
            crash::rep(seed, size, spans)
        }
        other => unreachable!("workload {other} passed argument validation"),
    }
}

/// One measured run of a workload.
struct Outcome {
    metrics: Metrics,
    reps: usize,
    cold_samples: usize,
    attempted: u64,
    failed: u64,
    input_digest: u64,
    state_digest: u64,
    violations: Vec<String>,
    /// Per-layer metrics that must equal the untraced run's exactly.
    deterministic: Metrics,
    spans: Spans,
}

/// Repeats the workload's fixed work on a fresh `Framework` until
/// `seconds` have passed (at least twice; exactly twice with `quick`). A
/// traced run alternates untraced and traced repetitions and then runs
/// the layer probes.
fn measure(workload: &str, seed: u64, seconds: f64, trace: bool, quick: bool) -> Outcome {
    let mut spans = Spans::new();
    if !quick {
        // One small untimed repetition first: caches fill, lazy set-up ends.
        one_rep(workload, seed, true, &mut spans);
    }
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let started = spans.now_s();
    loop {
        spans.recording = false;
        untraced.push(one_rep(workload, seed, quick, &mut spans));
        if trace {
            spans.recording = true;
            traced.push(one_rep(workload, seed, quick, &mut spans));
        }
        let reps = untraced.len() + traced.len();
        if reps >= 2 && (quick || spans.now_s() - started >= seconds) {
            break;
        }
    }
    let probes = if trace {
        spans.recording = true;
        probes::run(seed, quick, &mut spans)
    } else {
        Metrics::new()
    };

    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let first = all[0];
    let mut violations: Vec<String> = all.iter().flat_map(|r| r.violations.clone()).collect();
    violations.sort();
    violations.dedup();
    if all
        .iter()
        .any(|r| r.input_digest != first.input_digest || r.state_digest != first.state_digest)
    {
        violations.push("repetitions of one seed disagree on their digests".to_owned());
    }
    let pin = catalogue::PINNED_INPUT_DIGESTS
        .iter()
        .find(|(name, _, _)| *name == workload)
        .map(|&(_, full, small)| if quick { small } else { full });
    if seed == catalogue::DEFAULT_SEED && pin != Some(first.input_digest) {
        violations.push(format!(
            "input_digest {:016x} differs from the pinned {:016x}: a generator changed",
            first.input_digest,
            pin.unwrap_or_default()
        ));
    }
    // The deterministic read-outs, the same whether or not spans were
    // recorded; check-repeat compares them across runs.
    let deterministic: Metrics = record::per_layer(&untraced[..1], &untraced[..1], &Metrics::new())
        .into_iter()
        .filter(|(name, _)| is_deterministic(name))
        .collect();
    let metrics = if trace {
        record::per_layer(&traced, &untraced, &probes)
    } else {
        record::end_to_end(&untraced)
    };
    Outcome {
        metrics,
        reps: all.len(),
        cold_samples: all.iter().map(|r| r.cold.len()).sum(),
        attempted: all.iter().map(|r| r.ops_attempted).sum(),
        failed: all.iter().map(|r| r.ops_failed).sum(),
        input_digest: first.input_digest,
        state_digest: first.state_digest,
        violations,
        deterministic,
        spans,
    }
}

/// Whether a per-layer metric is a count, a ratio of counts or a
/// simulated time — bit-identical for a seed — rather than a host wall
/// reading.
fn is_deterministic(name: &str) -> bool {
    name != "trace.overhead_ratio"
        && matches!(unit_of(name), "sim_ms" | "count" | "ratio" | "bytes")
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// The result line the driver reads.
fn result_json(outcome: &Outcome, names: &[&'static str]) -> String {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.violations.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, name) in names.iter().enumerate() {
        let value =
            outcome.metrics.get(name).copied().unwrap_or_else(|| {
                panic!("metric {name} is in the catalogue but was not measured")
            });
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    json.push_str("}}");
    json
}

fn report(workload: &str, args: &Args, outcome: &Outcome) -> bool {
    let names: Vec<&'static str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    println!(
        "# {workload} seed {} {}: {} repetitions, {} cold-connect samples",
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        outcome.reps,
        outcome.cold_samples
    );
    for name in &names {
        println!(
            "{name:<40} {:>18.6} {}",
            outcome.metrics[name],
            unit_of(name)
        );
    }
    println!(
        "ops_failed {} of {} attempted",
        outcome.failed, outcome.attempted
    );
    println!("input_digest {:016x}", outcome.input_digest);
    println!("state_digest {:016x}", outcome.state_digest);
    for v in &outcome.violations {
        println!("VIOLATION {v}");
    }
    if args.trace {
        write_trace(workload, args, outcome);
    }
    println!("{}", result_json(outcome, &names));
    outcome.violations.is_empty()
}

/// Self-time table to stdout, span list to `<out>/trace_<workload>.jsonl`.
fn write_trace(workload: &str, args: &Args, outcome: &Outcome) {
    println!("# self time by span (calls, total ms, self ms)");
    for (name, calls, total, own) in outcome.spans.self_times() {
        println!(
            "{name:<28} {calls:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let path = format!("{}/trace_{workload}.jsonl", args.out);
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, outcome.spans.to_jsonl()));
    match written {
        Ok(()) => println!("# spans written to {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().is_none_or(|w| w == *name))
        .collect()
}

fn run(args: &Args) -> bool {
    let mut ok = true;
    for workload in selected(args) {
        let outcome = measure(workload, args.seed, args.seconds, args.trace, args.quick);
        ok &= report(workload, args, &outcome);
    }
    ok
}

/// Runs every selected workload twice untraced and once traced on the
/// same build. Digests, `failed` and every deterministic metric must be
/// identical across all three; every end-to-end metric must agree
/// between the two untraced runs within its bound. Prints the spread.
fn check_repeat(args: &Args) -> bool {
    let mut ok = true;
    for workload in selected(args) {
        let a = measure(workload, args.seed, args.seconds, false, args.quick);
        let b = measure(workload, args.seed, args.seconds, false, args.quick);
        let t = measure(workload, args.seed, args.seconds, true, args.quick);
        println!("# {workload} seed {}", args.seed);
        for other in [&b, &t] {
            let same = other.input_digest == a.input_digest
                && other.state_digest == a.state_digest
                && other.failed * a.attempted == a.failed * other.attempted
                && other.deterministic == a.deterministic;
            if !same {
                ok = false;
                println!("FAIL digests, failures or deterministic metrics differ between runs");
                for (name, value) in &a.deterministic {
                    if other.deterministic.get(name) != Some(value) {
                        println!("  {name}: {value} vs {:?}", other.deterministic.get(name));
                    }
                }
            }
        }
        for v in a
            .violations
            .iter()
            .chain(&b.violations)
            .chain(&t.violations)
        {
            ok = false;
            println!("VIOLATION {v}");
        }
        println!(
            "digests {:016x} {:016x} identical over 3 runs, {} deterministic metrics identical",
            a.input_digest,
            a.state_digest,
            a.deterministic.len()
        );
        for def in &END_TO_END {
            let (x, y) = (a.metrics[def.name], b.metrics[def.name]);
            let spread = (x - y).abs() / median(&[x, y]);
            // Two cold `--quick` repetitions say nothing about wall time.
            let agree = args.quick || spread <= def.bound;
            let verdict = if agree { "ok" } else { "FAIL" };
            ok &= agree;
            println!(
                "{:<28} {x:>14.6} {y:>14.6} {} spread {:.4} bound {} {verdict}",
                def.name, def.unit, spread, def.bound
            );
        }
        let overhead = t.metrics["trace.overhead_ratio"];
        println!("trace.overhead_ratio {overhead:.4}");
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ps-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.command.as_str() {
        "print-benchmark-json" => {
            print!("{}", catalogue::benchmark_json());
            true
        }
        "check-repeat" => check_repeat(&args),
        _ => run(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
