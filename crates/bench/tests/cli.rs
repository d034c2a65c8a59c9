//! The `ps-bench` binary end to end: commands resolve by name, bad
//! arguments are refused with status 2, and `PS_STABLE_ARTIFACTS=1`
//! makes both the printed report and the written files of a run that
//! reads the host clock byte-identical across runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn ps_bench(dir: &Path, stable: bool, args: &[&str]) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_ps-bench"));
    command.args(args).current_dir(dir);
    if stable {
        command.env("PS_STABLE_ARTIFACTS", "1");
    } else {
        command.env_remove("PS_STABLE_ARTIFACTS");
    }
    command.output().expect("ps-bench runs")
}

/// A fresh scratch directory for one run.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn unknown_commands_and_malformed_arguments_exit_2() {
    let dir = scratch("cli-usage");
    let unknown = ps_bench(&dir, false, &["nope"]);
    assert_eq!(unknown.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&unknown.stderr);
    assert!(usage.contains("no command `nope`"), "{usage}");
    assert!(
        usage.contains("artifacts"),
        "usage lists every command: {usage}"
    );

    let bad_seed = ps_bench(&dir, false, &["chaos", "x"]);
    assert_eq!(bad_seed.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&bad_seed.stderr),
        "ps-bench chaos: SEED must be an integer, got `x`\n"
    );

    let dot = ps_bench(&dir, false, &["fig5", "--dot"]);
    assert!(dot.status.success());
    assert!(
        dot.stdout.starts_with(b"graph network {"),
        "--dot prints graphviz alone"
    );
}

/// The commands cheap enough for a debug build; the rest run in
/// `scripts/verify.sh` (`ps-bench artifacts`) or by hand.
#[test]
fn the_light_commands_print_titled_reports() {
    let dir = scratch("cli-light");
    for command in [
        "help",
        "fig2",
        "fig3",
        "fig5",
        "fig6",
        "onetime",
        "ablation-rrf",
    ] {
        let out = ps_bench(&dir, false, &[command]);
        assert!(out.status.success(), "{command}: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        let head = if command == "help" { "usage: " } else { "=== " };
        assert!(text.starts_with(head), "{command} printed {text}");
    }
}

#[test]
fn stable_runs_write_identical_reports_files_and_streams() {
    let runs: Vec<(Output, PathBuf)> = ["cli-stable-a", "cli-stable-b"]
        .into_iter()
        .map(|name| {
            let dir = scratch(name);
            (ps_bench(&dir, true, &["trace", "trace.jsonl"]), dir)
        })
        .collect();
    for (output, _) in &runs {
        assert!(output.status.success(), "{output:?}");
    }
    let (a, b) = (&runs[0], &runs[1]);
    assert_eq!(a.0.stdout, b.0.stdout, "the printed report is stable too");
    for file in ["BENCH_trace.json", "trace.jsonl"] {
        let read = |dir: &Path| std::fs::read(dir.join(file)).expect("artifact written");
        assert_eq!(read(&a.1), read(&b.1), "{file} differs between stable runs");
    }
    // The host-clock figure is a stand-in on stdout as on disk.
    let report = String::from_utf8_lossy(&a.0.stdout);
    let wall_line = report
        .lines()
        .find(|l| l.trim_start().starts_with("server.planning_wall_ms"))
        .expect("the registry dump lists the planning wall time");
    assert!(wall_line.ends_with(" null"), "{wall_line}");
    let json = std::fs::read_to_string(a.1.join("BENCH_trace.json")).expect("artifact");
    assert!(
        !json.contains("_wall_"),
        "stable registry strips wall metrics"
    );

    let measured = ps_bench(&scratch("cli-measured"), false, &["onetime"]);
    let stable = ps_bench(&scratch("cli-measured"), true, &["onetime"]);
    let plan_ms = |out: &Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("SanDiego"))
            .and_then(|l| l.split_whitespace().nth(2).map(str::to_owned))
            .expect("SanDiego row")
    };
    assert_eq!(plan_ms(&stable), "0.000");
    assert_ne!(plan_ms(&measured), "0.000", "planning time is measured");
}
