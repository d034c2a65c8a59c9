//! `ps-bench <command> [args]`: every figure, table, ablation and report
//! of the reproduction; `ps-bench help` lists the commands.

#![forbid(unsafe_code)]

fn main() {
    std::process::exit(ps_bench::cli::run(std::env::args().skip(1).collect()));
}
