//! `benchmark compare A.jsonl B.jsonl`: the judgment every later PR (and
//! the same-code acceptance check) uses.
//!
//! Both files hold one result line per run, as `run --out FILE` appends
//! them. Per workload it first judges the runs themselves — a workload of
//! the contract missing from either file, an incorrect run or a higher
//! share of failed requests in B is a regression whatever the timings say
//! — then, for every end-to-end metric, prints both medians, the ratio
//! with its base, both same-code spreads, the bound from `BENCHMARK.json`
//! and a verdict. Per-layer metrics have no bound in the contract; the
//! three that describe the injected fault are judged against
//! [`FAULT_BOUND`], the rest are listed with their ratio only.

use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::report::{contract, Better};
use crate::stats::{median, spread};

/// The window statistics of an end-to-end metric leave the crash window
/// out by design, so the fault path is guarded here: these per-layer
/// metrics (traced runs; non-zero on `tcp_wal_restart` only) may not
/// worsen by more than [`FAULT_BOUND`].
const FAULT_METRICS: [(&str, Better); 3] = [
    ("loadgen.down_goodput_rps", Better::Higher),
    ("loadgen.stall_ms", Better::Lower),
    ("loadgen.recovery_ms", Better::Lower),
];
const FAULT_BOUND: f64 = 0.25;

/// Rows judged more narrowly than the contract allows. `BENCHMARK.json`
/// has one bound per metric, which has to cover the metric's noisiest
/// workload; on these `(workload, metric)` rows the same-code spread is a
/// small fraction of that bound, and the value here is about three times
/// the spread measured at the baseline (README.md, "Baseline").
const NARROWED: [(&str, &str, f64); 10] = [
    // Virtual time: exact per seed, 0.003 between seeds.
    ("sim_wan19", "commit_p50_ms", 0.02),
    ("sim_wan19", "peak_rss_mb", 0.03),
    ("tcp_small_sat", "peak_rss_mb", 0.03),
    ("tcp_wal_restart", "peak_rss_mb", 0.03),
    ("tcp_large_open", "peak_rss_mb", 0.08),
    ("tcp_large_open", "cpu_ms_per_kreq", 0.10),
    ("tcp_large_open", "commit_p50_ms", 0.15),
    ("tcp_small_open", "cpu_ms_per_kreq", 0.15),
    // Offered = achieved unless the cluster falls behind.
    ("tcp_small_open", "goodput_rps", 0.01),
    ("tcp_large_open", "goodput_rps", 0.01),
];

fn row_bound(workload: &str, metric: &str, contract_bound: f64) -> f64 {
    NARROWED
        .iter()
        .find(|(w, m, _)| *w == workload && *m == metric)
        .map_or(contract_bound, |(_, _, b)| b.min(contract_bound))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The same-code spread on either side is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B's median is worse (negative = better).
pub fn worse_by(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by(a, b, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One result line.
#[derive(Clone, Debug, Default)]
pub struct Run {
    workload: String,
    traced: bool,
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

fn load_runs(path: &Path) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = || format!("{}:{}", path.display(), n + 1);
        let v = json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        let field = |key: &str| v.get(key).ok_or_else(|| format!("{}: no {key}", at()));
        let number = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("{}: {key} is not a number", at()))
        };
        runs.push(Run {
            workload: field("workload")?
                .as_str()
                .ok_or_else(|| format!("{}: workload is not a string", at()))?
                .to_string(),
            traced: v.get("trace").and_then(Json::as_f64) == Some(1.0),
            correct: field("correct")? == &Json::Bool(true),
            attempted: number("attempted")?,
            failed: number("failed")?,
            metrics: field("metrics")?
                .as_obj()
                .ok_or_else(|| format!("{}: metrics is not an object", at()))?
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect(),
        });
    }
    Ok(runs)
}

fn of_workload<'a>(runs: &'a [Run], workload: &str) -> Vec<&'a Run> {
    runs.iter().filter(|r| r.workload == workload).collect()
}

fn values(runs: &[&Run], traced: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.traced == traced)
        .filter_map(|r| r.metrics.iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
        .collect()
}

/// Judges the runs of one workload before any timing: timings of runs
/// that lost requests, or of a workload that did not run, say nothing.
pub fn soundness(a: &[&Run], b: &[&Run]) -> (Verdict, String) {
    let untraced = |runs: &[&Run]| runs.iter().filter(|r| !r.traced).count();
    let incorrect = |runs: &[&Run]| runs.iter().filter(|r| !r.correct).count();
    let fail_ratio = |runs: &[&Run]| {
        let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
        runs.iter().map(|r| r.failed).sum::<f64>() / attempted.max(1.0)
    };
    if untraced(a) == 0 || untraced(b) == 0 {
        let side = if untraced(a) == 0 { "A" } else { "B" };
        return (Verdict::Regressed, format!("no untraced run in {side}"));
    }
    if incorrect(b) > 0 {
        return (
            Verdict::Regressed,
            format!(
                "{} of {} runs in B failed an output check",
                incorrect(b),
                b.len()
            ),
        );
    }
    if incorrect(a) > 0 {
        return (
            Verdict::Unresolved,
            format!(
                "{} of {} runs in A failed an output check: no valid base",
                incorrect(a),
                a.len()
            ),
        );
    }
    let (fa, fb) = (fail_ratio(a), fail_ratio(b));
    if fb > fa {
        return (
            Verdict::Regressed,
            format!("failed/attempted rose from {fa:.6} to {fb:.6}"),
        );
    }
    (
        Verdict::Ok,
        format!(
            "{} + {} runs correct, failed/attempted {fb:.6}",
            a.len(),
            b.len()
        ),
    )
}

fn print_row(
    workload: &str,
    metric: &str,
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
) -> Verdict {
    let verdict = verdict(a, b, better, bound);
    let (ma, mb) = (median(a), median(b));
    println!(
        "{:<16} {:<24} {:>3} {:>13.4} {:>3} {:>13.4} {:>8.4} {:>8.4} {:>8.4} {:>6.2}  {}",
        workload,
        metric,
        a.len(),
        ma,
        b.len(),
        mb,
        if ma != 0.0 { mb / ma } else { 0.0 },
        spread(a),
        spread(b),
        bound,
        verdict.as_str()
    );
    verdict
}

pub fn main(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: benchmark compare A.jsonl B.jsonl");
        return ExitCode::from(2);
    };
    let (a, b) =
        match load_runs(Path::new(a_path)).and_then(|a| Ok((a, load_runs(Path::new(b_path))?))) {
            Ok(x) => x,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
    let contract = contract();

    println!("A = {a_path} (the base of every ratio), B = {b_path}");
    let mut regressed = 0;
    for w in &contract.workloads {
        let (verdict, why) = soundness(&of_workload(&a, w), &of_workload(&b, w));
        regressed += usize::from(verdict == Verdict::Regressed);
        println!("{w:<16} runs: {} ({why})", verdict.as_str());
    }
    println!(
        "\n{:<16} {:<24} {:>3} {:>13} {:>3} {:>13} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "median A",
        "nB",
        "median B",
        "B/A",
        "spread A",
        "spread B",
        "bound"
    );
    for w in &contract.workloads {
        let (ra, rb) = (of_workload(&a, w), of_workload(&b, w));
        for def in &contract.end_to_end {
            let (va, vb) = (values(&ra, false, &def.name), values(&rb, false, &def.name));
            // A side without runs was counted above.
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = row_bound(
                w,
                &def.name,
                def.bound.expect("end-to-end metrics are bounded"),
            );
            let verdict = print_row(w, &def.name, &va, &vb, def.better, bound);
            regressed += usize::from(verdict == Verdict::Regressed);
        }
        for (name, better) in FAULT_METRICS {
            let (va, vb) = (values(&ra, true, name), values(&rb, true, name));
            if median(&va) == 0.0 {
                continue;
            }
            if vb.is_empty() {
                println!("{w:<16} {name:<24} no traced run in B: the fault path is not judged");
                continue;
            }
            let verdict = print_row(w, name, &va, &vb, better, FAULT_BOUND);
            regressed += usize::from(verdict == Verdict::Regressed);
        }
    }
    let mut header = false;
    for w in &contract.workloads {
        let (ra, rb) = (of_workload(&a, w), of_workload(&b, w));
        for def in &contract.per_layer {
            let (va, vb) = (values(&ra, true, &def.name), values(&rb, true, &def.name));
            let (ma, mb) = (median(&va), median(&vb));
            if va.is_empty() || vb.is_empty() || (ma == 0.0 && mb == 0.0) {
                continue;
            }
            if !header {
                println!("\nper-layer metrics (no bound; where a change shows up):");
                header = true;
            }
            println!(
                "{:<16} {:<36} {:>14.4} {:>14.4} {:>8.4}",
                w,
                def.name,
                ma,
                mb,
                if ma != 0.0 { mb / ma } else { 0.0 }
            );
        }
    }
    if regressed > 0 {
        println!("\n{regressed} row(s) regressed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn within_bound_is_ok_in_both_directions() {
        let b = STEADY.map(|x| x * 1.05);
        assert_eq!(verdict(&STEADY, &b, Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(verdict(&STEADY, &b, Better::Higher, 0.10), Verdict::Ok);
        // An improvement of any size is ok.
        let faster = STEADY.map(|x| x * 0.5);
        assert_eq!(verdict(&STEADY, &faster, Better::Lower, 0.10), Verdict::Ok);
    }

    #[test]
    fn beyond_bound_is_regressed_by_direction() {
        let higher = STEADY.map(|x| x * 1.2);
        assert_eq!(
            verdict(&STEADY, &higher, Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(verdict(&STEADY, &higher, Better::Higher, 0.10), Verdict::Ok);
        let lower = STEADY.map(|x| x * 0.8);
        assert_eq!(
            verdict(&STEADY, &lower, Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert!((worse_by(&STEADY, &lower, Better::Higher) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn wide_same_code_spread_is_unresolved_not_unchanged() {
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&noisy, &STEADY, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Even when the medians differ by more than the bound.
        let worse = noisy.map(|x| x * 1.5);
        assert_eq!(
            verdict(&STEADY, &worse, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // A single run per side has no spread to judge by.
        assert_eq!(
            verdict(&[100.0], &[105.0], Better::Lower, 0.10),
            Verdict::Ok
        );
    }

    fn run(traced: bool, correct: bool, attempted: f64, failed: f64) -> Run {
        Run {
            workload: "w".into(),
            traced,
            correct,
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    #[test]
    fn unsound_runs_regress_whatever_the_timings() {
        let good = [run(false, true, 1000.0, 0.0), run(true, true, 1000.0, 0.0)];
        let good: Vec<&Run> = good.iter().collect();
        assert_eq!(soundness(&good, &good).0, Verdict::Ok);
        // A contract workload with no end-to-end run on a side.
        assert_eq!(soundness(&good, &[]).0, Verdict::Regressed);
        assert_eq!(soundness(&[], &good).0, Verdict::Regressed);
        assert_eq!(soundness(&good, &good[1..]).0, Verdict::Regressed);
        // An incorrect run in B regresses; in A it leaves no valid base.
        let wrong = run(true, false, 1000.0, 0.0);
        let with_wrong = [good[0], &wrong];
        assert_eq!(soundness(&good, &with_wrong).0, Verdict::Regressed);
        assert_eq!(soundness(&with_wrong, &good).0, Verdict::Unresolved);
        // More failed requests per attempted one in B regress; fewer do not.
        let lossy = run(false, true, 1000.0, 3.0);
        assert_eq!(soundness(&good, &[&lossy]).0, Verdict::Regressed);
        assert_eq!(soundness(&[&lossy], &good).0, Verdict::Ok);
        assert_eq!(soundness(&[&lossy], &[&lossy]).0, Verdict::Ok);
    }
}
