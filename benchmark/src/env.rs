//! The environment stamp every results/trace file carries, and process memory.

use crate::json::Json;
use std::process::Command;

pub const BENCHMARK_VERSION: &str = env!("CARGO_PKG_VERSION");

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn proc_field(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    text.lines()
        .find(|line| line.starts_with(key))
        .and_then(|line| line.split(':').nth(1))
        .map(|value| value.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where a number came from: a result is never compared across machines silently.
pub fn stamp(seed: u64) -> Json {
    // The driver's checkout is not a git repository; "unknown" is a valid stamp there.
    let commit =
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "cpu_model",
            Json::str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        ("commit", Json::str(commit)),
        ("dirty", dirty.map_or(Json::Null, Json::Bool)),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string())),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (lto=thin, debug=true)"
            }),
        ),
        ("seed", Json::Num(seed as f64)),
        ("benchmark_version", Json::str(BENCHMARK_VERSION)),
    ])
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| {
            v.split_whitespace()
                .next()
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_carries_every_field() {
        let s = stamp(7);
        for key in [
            "nproc",
            "cpu_model",
            "commit",
            "dirty",
            "rustc",
            "profile",
            "seed",
            "benchmark_version",
        ] {
            assert!(s.get(key).is_some(), "missing {key}");
        }
        assert!(s.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
