//! Host fingerprint and calibration, recorded with every result so a
//! slower host reads as a slower host and not as a regression.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration kernel per sample.
const CALIB_OPS: u64 = 1 << 22;
/// Calibration samples; the median is reported.
const CALIB_SAMPLES: usize = 7;

/// The fingerprint as one JSON object: logical CPUs, CPU model, compiler
/// version and the calibration kernel's ns/op.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"calib_ns_per_op\": {}}}",
        json_str(&cpu),
        json_str(&rustc),
        calibrate()
    )
}

/// ns per step of a fixed integer kernel (xorshift plus rotate-add): no
/// allocation, no memory traffic, so it tracks the core's clock and
/// pipeline and nothing this repository's code can change.
fn calibrate() -> f64 {
    let samples: Vec<f64> = (0..CALIB_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            let mut acc = 0u64;
            for i in 0..CALIB_OPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x.rotate_left((i & 63) as u32));
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / CALIB_OPS as f64
        })
        .collect();
    median(&samples)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
