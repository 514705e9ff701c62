//! The machine a results file was measured on. Absolute rows compare
//! only between files whose fingerprints match.

use std::process::Command;

use crate::json::Value;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse HEAD`, asked only where the working directory is
/// itself a checkout, so git never searches the directories above it.
fn git_rev() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    }
}

pub fn fingerprint(seed: u64, repetitions: u64) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Value::obj(vec![
        ("nproc", Value::from(nproc)),
        ("cpu_model", Value::from(cpu_model())),
        (
            "simd_backend",
            Value::from(fhdnn::hdc::simd::active_backend()),
        ),
        (
            "fhdnn_no_simd",
            Value::from(std::env::var("FHDNN_NO_SIMD").unwrap_or_default()),
        ),
        ("rustc", Value::from(command_line("rustc", &["-V"]))),
        ("git_rev", Value::from(git_rev())),
        ("seed", Value::from(seed)),
        ("repetitions", Value::from(repetitions)),
    ])
}
