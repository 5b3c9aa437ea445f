//! Host-side measurements with no dependencies: process CPU time and peak
//! resident set from `/proc`, and the order statistics the report uses.

/// Clock ticks per second of `/proc/self/stat`'s time fields. Linux has
/// reported `USER_HZ` = 100 on every mainstream architecture for decades,
/// and std offers no `sysconf` to ask.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds consumed so far by the whole process (every
/// thread, including the simulated processors' threads that have already
/// exited). Resolution is one clock tick (10 ms).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis start at field 3 (state), so utime/stime (fields 14/15)
    // sit at offsets 11/12.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / CLK_TCK
}

/// Seconds the hypervisor withheld the machine's CPUs from it so far
/// (`steal`, summed over CPUs, from `/proc/stat`; 0 on bare metal).
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<u64>().ok())
        .unwrap_or(0);
    ticks as f64 / CLK_TCK
}

/// Peak resident set size of the process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Quartiles of `xs` as Python's `statistics.quantiles(xs, n=4)` (the
/// default "exclusive" method) computes them; `xs` needs two samples or
/// more. A single sample is returned as all three quartiles.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = (n + 1) as f64;
    [1.0, 2.0, 3.0].map(|i| {
        let pos = i * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
