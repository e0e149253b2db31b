//! Measurements of the host rather than of the program: the drift
//! diagnostic and the process's peak resident set.

use std::hint::black_box;
use std::time::Instant;

/// Milliseconds a fixed arithmetic loop takes. The loop calls nothing in
/// the program, so when it slows between the start and the end of a run
/// (or between runs), the host slowed, not the code.
pub fn drift_loop_ms() -> f64 {
    let start = Instant::now();
    let mut x = 1u64;
    for i in 0..40_000_000u64 {
        x = black_box(x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i));
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`) in MB (10^6 bytes).
///
/// # Errors
///
/// When `/proc/self/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_is_positive() {
        assert!(super::peak_rss_mb().unwrap() > 0.0);
    }
}
