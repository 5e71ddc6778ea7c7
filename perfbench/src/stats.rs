//! Sample statistics, process counters and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank percentile of an unsorted sample (`p` in `[0, 1]`).
/// Returns 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Per-process CPU time (user + system, all threads, live and exited).
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout
    // clock_gettime expects on 64-bit Linux, and the clock id is a
    // constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A numeric field (first token after `key:`) of `/proc/self/status`
/// or of a task's status file.
fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn self_status() -> String {
    std::fs::read_to_string("/proc/self/status").unwrap_or_default()
}

/// Peak resident set size (VmHWM), MiB.
pub fn rss_peak_mb() -> f64 {
    status_field(&self_status(), "VmHWM") as f64 / 1024.0
}

/// OS threads in this process.
pub fn threads() -> u64 {
    status_field(&self_status(), "Threads")
}

/// Voluntary + involuntary context switches summed over the process's
/// live threads (`/proc/self/status` alone reports the main thread).
pub fn ctx_switches() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .map(|t| {
            let text = std::fs::read_to_string(t.path().join("status")).unwrap_or_default();
            status_field(&text, "voluntary_ctxt_switches")
                + status_field(&text, "nonvoluntary_ctxt_switches")
        })
        .sum()
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "qps",
                value: 12.5,
                unit: "1/s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
    }
}
