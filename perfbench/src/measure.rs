//! Process counters read from procfs, and the order statistics the report
//! uses.

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (`USER_HZ`,
/// which Linux fixes at 100 for user space on every architecture).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, every thread included
/// (threads that already exited, such as finished race lanes, too).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // The command name is parenthesised and may contain spaces; fields are
    // counted from the closing parenthesis. utime and stime are fields 14
    // and 15, i.e. the 12th and 13th after it.
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("malformed /proc/self/stat")?;
    let ticks: Result<Vec<u64>, _> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(str::parse::<u64>)
        .collect();
    match ticks {
        Ok(t) if t.len() == 2 => Ok((t[0] + t[1]) as f64 / USER_HZ),
        _ => Err("malformed /proc/self/stat".to_owned()),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Which percentile [`tail`] takes of `n` samples, and its quantile.
pub fn tail_percentile(n: usize) -> (&'static str, f64) {
    match n {
        n if n >= 1000 => ("p99", 0.99),
        n if n >= 100 => ("p90", 0.90),
        _ => ("max", 1.0),
    }
}

/// The highest percentile with at least ten samples beyond it: p99 from
/// 1,000 samples, p90 from 100, otherwise the maximum. Nearest-rank; 0
/// when empty.
pub fn tail(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((tail_percentile(n).1 * n as f64).ceil() as usize).clamp(1, n);
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!((tail_percentile(1000).0, tail(&xs)), ("p99", 990.0));
        assert_eq!((tail_percentile(100).0, tail(&xs[..100])), ("p90", 90.0));
        assert_eq!((tail_percentile(99).0, tail(&xs[..99])), ("max", 99.0));
    }

    #[test]
    fn procfs_counters_are_positive() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
