//! The `ps-bench` command line: one binary with a subcommand per paper
//! figure, table, ablation and report, and one writer for what they
//! publish ([`Artifact::write`]).
//!
//! `ps-bench artifacts` runs every command that writes a `BENCH_*.json`
//! at its defaults, event streams included; under
//! `PS_STABLE_ARTIFACTS=1` two such runs write identical bytes, which is
//! the determinism gate of `scripts/verify.sh`.

use crate::record::{Artifact, Mode};
use crate::{ablations, chaos, paper, partition, planner, scale, timeline, trace};
use std::str::FromStr;

/// A command's positional arguments.
#[derive(Debug)]
pub struct Args(Vec<String>);

impl Args {
    /// Wraps the arguments after the command name.
    pub fn new(args: Vec<String>) -> Self {
        Args(args)
    }

    /// The `i`th argument, if given.
    pub fn get(&self, i: usize) -> Option<&str> {
        self.0.get(i).map(String::as_str)
    }

    /// The `i`th argument as the number `name`, `default` when absent.
    pub fn int<T: FromStr>(&self, i: usize, name: &str, default: T) -> Result<T, String> {
        self.get(i).map_or(Ok(default), |s| {
            s.parse()
                .map_err(|_| format!("{name} must be an integer, got `{s}`"))
        })
    }

    /// Whether `flag` was given.
    pub fn flag(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// A command: its arguments in, what it publishes out.
pub type Run = fn(&Args) -> Result<Artifact, String>;

/// Every subcommand as `(name and arguments, what it does, run)`, in the
/// order `ps-bench help` lists them.
#[rustfmt::skip]
pub const COMMANDS: &[(&str, &str, Run)] = &[
    ("fig2", "Figures 2 + 4: the declarative mail spec", paper::fig2),
    ("fig3", "Figure 3: valid component chains", paper::fig3),
    ("fig5 [--dot]", "Figure 5: the three-site network", paper::fig5),
    ("fig6 [--dot]", "Figure 6: per-site deployments", paper::fig6),
    ("fig7 [MSGS] [SEED]", "Figure 7: the nine-scenario latency sweep", paper::fig7),
    ("onetime", "Section 4.2: one-time connection costs", paper::onetime),
    ("ablation-coherence", "coherence policy sweep", ablations::coherence),
    ("ablation-rrf", "cache benefit vs RRF and WAN latency", ablations::rrf),
    ("ablation-trust", "sensitivity mix vs cache bypass cost", ablations::trust),
    ("ablation-throughput", "open-loop saturation sweep", ablations::throughput),
    ("ablation-migration", "live-migration cost vs cached state", ablations::migration),
    ("planner", "planner hot path -> BENCH_planner.json", planner::command),
    ("trace [JSONL]", "traced case study -> BENCH_trace.json", trace::command),
    ("chaos [SEED] [JSONL]", "crash, detect, heal -> BENCH_chaos.json", chaos::command),
    ("partition [SEED] [JSONL]", "split, reconcile -> BENCH_partition.json", partition::command),
    ("scale", "flat vs hierarchical to 1013 nodes -> BENCH_scale.json", scale::command),
    ("timeline", "heal timelines, percentiles -> BENCH_timeline.json", timeline::command),
];

/// What `ps-bench artifacts` runs: every `BENCH_*.json` writer, with the
/// event streams `scripts/event_streams.sha256` pins.
pub const ARTIFACTS: &[(&str, &[&str])] = &[
    ("planner", &[]),
    ("trace", &["trace.jsonl"]),
    ("chaos", &["42", "chaos.jsonl"]),
    ("partition", &["42", "partition.jsonl"]),
    ("scale", &[]),
    ("timeline", &[]),
];

/// The command called `name`.
pub fn command(name: &str) -> Option<Run> {
    COMMANDS
        .iter()
        .find(|(call, _, _)| call.split(' ').next() == Some(name))
        .map(|&(_, _, run)| run)
}

fn usage() -> String {
    let mut text = String::from("usage: ps-bench <command> [args]\n\ncommands:\n");
    for (call, about, _) in COMMANDS {
        text.push_str(&format!("  {call:<26} {about}\n"));
    }
    text.push_str(
        "  artifacts                  every BENCH_*.json writer at its defaults, with event streams\n\n\
         PS_STABLE_ARTIFACTS=1 writes host-clock figures as stand-ins, so same-seed\n\
         runs are byte-identical.\n",
    );
    text
}

/// Runs `ps-bench` on `args` (without the program name); returns the
/// exit status.
pub fn run(args: Vec<String>) -> i32 {
    let mode = Mode::from_env();
    let Some((name, rest)) = args.split_first() else {
        eprint!("{}", usage());
        return 2;
    };
    let jobs: Vec<(&str, Run, Args)> = match name.as_str() {
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            return 0;
        }
        "artifacts" => ARTIFACTS
            .iter()
            .map(|&(name, args)| {
                let args = args.iter().map(|a| a.to_string()).collect();
                (
                    name,
                    command(name).expect("artifact command"),
                    Args::new(args),
                )
            })
            .collect(),
        name => match command(name) {
            Some(run) => vec![(name, run, Args::new(rest.to_vec()))],
            None => {
                eprint!("ps-bench: no command `{name}`\n\n{}", usage());
                return 2;
            }
        },
    };
    for (name, run, args) in jobs {
        let artifact = match run(&args) {
            Ok(artifact) => artifact,
            Err(e) => {
                eprintln!("ps-bench {name}: {e}");
                return 2;
            }
        };
        if let Err(e) = artifact.write(mode) {
            eprintln!("ps-bench {name}: {e}");
            return 1;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_names_are_unique_and_every_artifact_names_one() {
        let names: Vec<&str> = COMMANDS
            .iter()
            .map(|(call, _, _)| call.split(' ').next().unwrap())
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} listed twice");
        }
        for (name, _) in ARTIFACTS {
            assert!(command(name).is_some(), "artifact command {name}");
        }
    }

    #[test]
    fn integer_arguments_default_and_reject_garbage() {
        let args = Args::new(vec!["7".into(), "x".into()]);
        assert_eq!(args.int(0, "SEED", 42u64), Ok(7));
        assert_eq!(args.int(2, "SEED", 42u64), Ok(42));
        assert_eq!(
            args.int::<u64>(1, "SEED", 42),
            Err("SEED must be an integer, got `x`".to_owned())
        );
    }
}
