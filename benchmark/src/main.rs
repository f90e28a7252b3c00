//! The repo's one benchmark. See `benchmark/README.md` for what it
//! measures and why, and `BENCHMARK.json` at the repo root for the
//! contract (compiled into this binary: `spec.rs`).
//!
//! Roles, chosen by flag:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload. The last line of stdout is the result object.
//! * `--all` — every workload, each as a child run of this binary, with
//!   `--trace 0|1|both`, `--repeat K`, `--check` and `--smoke`.
//! * `--shard` — a shard server child of a `fabric-n12` run.

mod host;
mod json;
mod lattice;
mod ledger;
mod load;
mod run;
mod serve;
mod spans;
mod spec;
mod stats;
mod suite;
mod target;
mod traffic;

use std::process::ExitCode;

use run::RunArgs;
use spec::spec;

/// The value after `name`, if the flag is there.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parse the value after `name`, or take `default` when the flag is absent.
fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name} {text:?} is not a valid value")),
    }
}

fn usage() -> String {
    format!(
        "usage:\n  sbgt-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n  sbgt-benchmark --all [--seed N] [--seconds S] [--trace 0|1|both] [--repeat K] [--check] [--smoke]",
        spec().workloads.join("|")
    )
}

fn one_run(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or_else(usage)?.to_string();
    if !spec().workloads.contains(&workload) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    let run_args = RunArgs {
        workload,
        seed: parsed(args, "--seed", 7)?,
        seconds: parsed(args, "--seconds", spec().run_seconds)?,
        trace: match parsed(args, "--trace", 0u8)? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    };
    if !(run_args.seconds > 0.0 && run_args.seconds <= 60.0) {
        return Err(format!("--seconds {} outside (0, 60]", run_args.seconds));
    }
    let result = if run_args.trace {
        ledger::run(&run_args)
    } else {
        run::end_to_end(&run_args)
    }
    .map_err(|e| format!("{} failed: {e}", run_args.workload))?;

    let record = result.record(&run_args);
    eprintln!("{}", json::render(&host::provenance()));
    for violation in &result.violations {
        eprintln!("incorrect output: {violation}");
    }
    let file = format!(
        "run-{}-trace{}.json",
        run_args.workload,
        u8::from(run_args.trace)
    );
    host::out_dir()
        .and_then(|dir| std::fs::write(dir.join(file), json::render(&record)))
        .map_err(|e| format!("cannot write the run record: {e}"))?;
    // A line the contract would refuse is this harness's bug, not a result.
    let line = result.result_line();
    suite::validate_line(&line, run_args.trace)?;
    println!("{line}");
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn shard(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or_else(usage)?;
    let seed = parsed(args, "--seed", 0)?;
    let config = serve::shard_config(workload, seed)
        .ok_or_else(|| format!("workload {workload:?} runs no shards"))?;
    target::run_shard(config, serve::ENGINE_THREADS).map_err(|e| format!("shard: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if has(&args, "--shard") {
        shard(&args)
    } else if has(&args, "--all") || has(&args, "--smoke") {
        suite::run(&args)
    } else {
        one_run(&args)
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("sbgt-benchmark: {message}");
        ExitCode::from(2)
    })
}
