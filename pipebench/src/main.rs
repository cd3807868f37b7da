//! Pipeline benchmark for `hdx`: shallow and deep `hdx explore` runs and a
//! served append loop, each checked for correct output, plus a traced run
//! that attributes every operation to the library layers. README.md
//! describes the workloads; `run.sh` builds and runs it.

mod http;
mod pipeline;
mod proc;
mod serve;
mod trace;
mod util;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Ctx, Outcome, DEFAULT_SEED};

const WORKLOADS: [&str; 3] = ["explore-shallow", "explore-deep", "serve-append"];

const USAGE: &str = "usage: pipebench --hdx <path> --work <dir> \
     --workload <explore-shallow|explore-deep|serve-append|all> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    hdx: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        hdx: PathBuf::new(),
        work: PathBuf::new(),
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--hdx" => args.hdx = value.into(),
            "--work" => args.work = value.into(),
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.hdx.as_os_str().is_empty() || args.work.as_os_str().is_empty() {
        return Err("--hdx and --work are required".into());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

/// Runs one workload in a fresh scratch directory.
fn run_workload(args: &Args, workload: &str) -> Result<Outcome, String> {
    let dir = args.work.join(format!("run-{workload}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = Ctx {
        hdx: args.hdx.clone(),
        dir: dir.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match workload {
        "explore-shallow" => workloads::explore(&ctx, workload, 400_000, 0.05),
        "explore-deep" => workloads::explore(&ctx, workload, 100_000, 0.005),
        _ => workloads::serve_append(&ctx),
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_json(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            metrics,
            "{}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            if i > 0 { "," } else { "" },
            m.name,
            m.unit
        );
    }
    let correct = outcome.failed == 0
        && outcome.problems.is_empty()
        && outcome.metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.attempted, outcome.failed,
    )
}

/// Host and build facts recorded with every result.
fn env_json(args: &Args, workload: &str, outcome: &Outcome) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host_cpus\":{},\"kernel\":\"{:?}\",\"obs\":{}}}",
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, usize::from),
        hdx_stats::active_kernel(),
        outcome.obs,
    )
}

/// Writes the run's artifact (environment, result, samples, spans) under
/// `<work>/out/`.
fn write_artifact(args: &Args, workload: &str, env: &str, result: &str, outcome: &Outcome) {
    let out = args.work.join("out");
    let path = out.join(format!(
        "{workload}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    let trace = if args.trace {
        outcome.rec.to_json()
    } else {
        "null".into()
    };
    let problems: Vec<String> = outcome
        .problems
        .iter()
        .map(|p| format!("\"{}\"", hdx_serve::json::escape(p)))
        .collect();
    let body = format!(
        "{{\"env\":{env},\"result\":{result},\"problems\":[{}],\"samples\":{},\"trace\":{trace}}}\n",
        problems.join(","),
        outcome.samples,
    );
    if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("pipebench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for workload in selected {
        let outcome = match run_workload(&args, workload) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("pipebench: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for problem in &outcome.problems {
            eprintln!("pipebench: {workload}: {problem}");
        }
        let env = env_json(&args, workload, &outcome);
        let result = result_json(&outcome);
        write_artifact(&args, workload, &env, &result, &outcome);
        println!("{env}");
        println!("{result}");
    }
    ExitCode::SUCCESS
}
