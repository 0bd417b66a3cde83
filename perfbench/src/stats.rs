//! Seeded draws, percentiles, and process counters from `/proc`.

use std::fs;

use autobatch_tensor::splitmix64;

/// A hash of `(seed, stream, i)`: independent draws per stream and index.
pub fn draw(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(stream)) ^ i)
}

/// A uniform draw in `[0, 1)`.
pub fn unit(seed: u64, stream: u64, i: u64) -> f64 {
    (draw(seed, stream, i) >> 11) as f64 / (1u64 << 53) as f64
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a sample (sorts it).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => 0.5 * (values[n / 2 - 1] + values[n / 2]),
    }
}

/// Linux reports `/proc/<pid>/stat` times in clock ticks of 1/100 s on
/// every mainstream architecture (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) this process has used, exited threads
/// included.
pub fn process_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => f64::NAN,
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(process_cpu_seconds().is_finite());
        assert!(peak_rss_mb() > 0.0);
    }
}
