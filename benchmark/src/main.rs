//! The Banyan benchmark: `run` measures, `compare` judges two result
//! files. See README.md for what every workload and metric means.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds N] [--trace [0|1]] [--out FILE]
//! benchmark compare A.jsonl B.jsonl
//! ```
//!
//! `run --workload W` measures one workload in this process and prints its
//! result object as the last line of standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Without `--workload`, every workload runs in a child process of its own
//! (so peak memory and set-up time are per workload), untraced and — with
//! `--trace` — traced as well, and every metric is printed by name.

mod compare;
mod json;
mod loadgen;
mod micro;
mod proc;
mod report;
mod shapes;
mod simwl;
mod stats;
mod sut;
mod tcp;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use report::{contract, MetricDef, Outcome};

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: contract().run_seconds,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            // `--trace` alone, or followed by 0/1 as the driver passes it.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !contract().workloads.contains(w) {
            return Err(format!(
                "unknown workload {w}; known: {:?}",
                contract().workloads
            ));
        }
    }
    Ok(parsed)
}

/// Where run-time files go (WAL directories, trace files): `out/` next to
/// this package's manifest, which `.gitignore` excludes.
fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest).join("out")
}

fn print_metrics(defs: &[MetricDef], outcome: &Outcome) {
    for d in defs {
        let value = outcome.values.get(&d.name).unwrap_or(0.0);
        println!(
            "  {:<40} {:>16.4} {:<6} ({} is better)",
            d.name,
            value,
            d.unit,
            d.better.as_str()
        );
    }
}

/// Measures one workload in this process.
fn run_one(name: &str, args: &RunArgs) -> Outcome {
    let dir = out_dir();
    let mut outcome = if name == "sim_wan19" {
        simwl::run(args.seed, args.seconds, args.trace, &dir)
    } else {
        tcp::run(name, args.seed, args.seconds, args.trace, &dir)
    };
    if args.trace {
        // The micro layer is the same on every workload: timed calls into
        // the crates on the shapes the workloads are made of.
        outcome.values.extend(micro::run(args.seed, &dir));
    }
    for name in outcome.values.undeclared(contract().metrics(args.trace)) {
        outcome.correct = false;
        outcome
            .notes
            .push(format!("FAILED: undeclared metric {name}"));
    }
    outcome
}

fn result_line(name: &str, args: &RunArgs, outcome: &Outcome) -> String {
    // The driver's four keys, preceded by what `compare` groups runs by.
    let mut fields = vec![
        ("workload".to_string(), Json::Str(name.into())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        (
            "trace".to_string(),
            Json::Num(f64::from(u8::from(args.trace))),
        ),
    ];
    if let Json::Obj(result) = outcome.result_json(contract().metrics(args.trace)) {
        fields.extend(result);
    }
    Json::Obj(fields).render()
}

fn append(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

fn run(args: &RunArgs) -> ExitCode {
    if let Some(name) = &args.workload {
        let outcome = run_one(name, args);
        let defs = contract().metrics(args.trace);
        println!(
            "{name} seed={} seconds={} trace={} (loopback TCP latency is processor + scheduler time: no network delay is injected)",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        print_metrics(defs, &outcome);
        for note in &outcome.notes {
            println!("  {note}");
        }
        if let Some(path) = &args.out {
            if let Err(e) = append(path, &result_line(name, args, &outcome)) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        // The driver's line: exactly the four keys, last on stdout.
        println!("{}", outcome.result_json(defs).render());
        return if outcome.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Every workload, each in a child process of its own.
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for name in &contract().workloads {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdin(Stdio::null());
            if let Some(path) = &args.out {
                cmd.arg("--out").arg(path);
            }
            // The child prints its own metric table; wait for it to end.
            match cmd.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    println!("{name} trace={}: {status}", u8::from(trace));
                    all_ok = false;
                }
                Err(e) => {
                    println!("{name}: cannot start child: {e}");
                    all_ok = false;
                }
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(parsed) => run(&parsed),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        Some("compare") => compare::main(&args[1..]),
        _ => {
            eprintln!(
                "usage: benchmark run [--workload W] [--seed N] [--seconds N] [--trace [0|1]] [--out FILE]\n       benchmark compare A.jsonl B.jsonl\nworkloads: {:?}",
                contract().workloads
            );
            ExitCode::from(2)
        }
    }
}
