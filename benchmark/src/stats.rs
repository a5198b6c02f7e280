//! Order statistics the reports are built from: percentiles, the
//! best-quarter-of-windows reduction that makes wall-clock metrics repeat on
//! a shared box, and the quartile spread `compare` judges noise by.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by nearest rank. Returns
/// 0 for an empty slice so an idle window reads as "no samples", not NaN.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns the `q`-quantile.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile_sorted(values, q)
}

/// The median with the usual midpoint rule for even counts (what Python's
/// `statistics.median` returns, so `compare` agrees with the driver).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance check uses.
/// `None` below two values (the method is undefined there).
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale; like Python, the index is
        // clamped into the data but the fraction is not, so tiny samples
        // extrapolate.
        let num = k * (n + 1);
        let j = (num / 4).clamp(1, n - 1);
        let frac = num as f64 / 4.0 - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread. 0 when it cannot be computed.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The mean of the best quarter of `values` (at least one): the lowest
/// when lower is better, the highest otherwise. On a shared box
/// interference only ever slows a window down, and it comes and goes over
/// seconds to minutes, so the windows that ran undisturbed repeat from run
/// to run far better than the median window does (same-code spread of
/// goodput on the saturated loops: 0.17–0.22 by the median, 0.12–0.13 by
/// this, on the same runs). A quarter rather than the single best, because
/// CPU time and commits are attributed to windows at their edges: on an
/// open loop of ten requests per window the few best windows are the ones
/// the attribution favoured, not the least disturbed.
pub fn best_quarter(values: &[f64], higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    let best = &v[..((v.len() + 2) / 4).max(1)];
    best.iter().sum::<f64>() / best.len() as f64
}

/// One measured window of a TCP run.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Requests first committed inside the window.
    pub commits: u64,
    /// Window length in seconds.
    pub secs: f64,
    /// Submit→commit latencies (ms) of those requests.
    pub latencies_ms: Vec<f64>,
    /// Process CPU (user+sys) spent during the window, ms.
    pub cpu_ms: f64,
    /// Open loop: p99 of how late the generator sent the requests due in
    /// the window (0 for closed loops, which have no schedule).
    pub late_p99_ms: f64,
}

/// The reduction of a run's windows to its metrics: each is computed per
/// window and the reported value is [`best_quarter`] over the windows. A
/// window in which the open-loop generator lagged has that lag in its
/// latencies (they run from the due time), so it is not among the best.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowSummary {
    pub goodput_rps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub cpu_ms_per_kreq: f64,
    /// Latency samples over all windows.
    pub samples: u64,
    /// Median over the windows of the generator's lateness p99.
    pub late_p99_ms: f64,
}

pub fn summarize_windows(windows: &mut [Window]) -> WindowSummary {
    let mut goodput = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut cpu = Vec::new();
    let mut samples = 0;
    for w in windows.iter_mut() {
        samples += w.latencies_ms.len() as u64;
        goodput.push(w.commits as f64 / w.secs);
        // A window without commits has no latency or per-request cost.
        if w.commits == 0 {
            continue;
        }
        w.latencies_ms.sort_by(f64::total_cmp);
        p50.push(percentile_sorted(&w.latencies_ms, 0.50));
        p99.push(percentile_sorted(&w.latencies_ms, 0.99));
        cpu.push(w.cpu_ms / (w.commits as f64 / 1000.0));
    }
    let late: Vec<f64> = windows.iter().map(|w| w.late_p99_ms).collect();
    WindowSummary {
        goodput_rps: best_quarter(&goodput, true),
        p50_ms: best_quarter(&p50, false),
        p99_ms: best_quarter(&p99, false),
        cpu_ms_per_kreq: best_quarter(&cpu, false),
        samples,
        late_p99_ms: median(&late),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(percentile(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn median_uses_midpoint_for_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // method extrapolates on tiny samples.
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        assert!((spread(&v) - 1.0).abs() < 1e-12, "IQR 5.5 over median 5.5");
    }

    #[test]
    fn best_quarter_averages_the_best_windows_by_direction() {
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        // 30 windows: the best eight.
        assert_eq!(best_quarter(&v, false), 4.5);
        assert_eq!(best_quarter(&v, true), 26.5);
        // Up to five: the single best.
        assert_eq!(best_quarter(&v[..5], false), 1.0);
        assert_eq!(best_quarter(&[], true), 0.0);
    }

    fn steady(commits: u64, lat: f64) -> Window {
        Window {
            commits,
            secs: 1.0,
            latencies_ms: vec![lat; commits as usize],
            cpu_ms: commits as f64 / 2.0,
            late_p99_ms: 0.2,
        }
    }

    #[test]
    fn disturbed_windows_do_not_set_the_metrics() {
        let mut windows = vec![steady(1000, 1.0); 10];
        // Disturbed: a tenth of the commits, 50x the latency, twice the CPU.
        for w in &mut windows[..7] {
            *w = Window {
                cpu_ms: 100.0,
                ..steady(100, 50.0)
            };
        }
        let s = summarize_windows(&mut windows);
        assert_eq!(s.goodput_rps, 1000.0);
        assert_eq!(s.p50_ms, 1.0);
        assert_eq!(s.p99_ms, 1.0);
        assert_eq!(s.cpu_ms_per_kreq, 500.0);
        assert_eq!(s.samples, 3700);
        assert_eq!(s.late_p99_ms, 0.2);
    }

    #[test]
    fn empty_windows_count_for_goodput_only() {
        let mut windows = vec![steady(0, 0.0), steady(10, 3.0)];
        let s = summarize_windows(&mut windows);
        assert_eq!((s.goodput_rps, s.p50_ms), (10.0, 3.0));
        let mut idle = vec![steady(0, 0.0)];
        assert_eq!(summarize_windows(&mut idle).p50_ms, 0.0);
    }
}
