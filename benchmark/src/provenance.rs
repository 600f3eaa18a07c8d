//! Where a result came from: enough to compare it with the last one.

use std::process::Command;

use crate::api::Backend;
use crate::json::Value;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn collect(seed: u64, smoke: bool, seconds: f64) -> Value {
    let dir = env!("CARGO_MANIFEST_DIR");
    // A checkout without .git (the driver's) has no SHA to report.
    let sha = command_line("git", &["-C", dir, "rev-parse", "HEAD"]);
    let dirty = command_line("git", &["-C", dir, "status", "--porcelain"]).map(|s| !s.is_empty());
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    Value::obj(vec![
        ("git_sha", sha.map_or(Value::Null, Value::Str)),
        ("git_dirty", dirty.map_or(Value::Null, Value::Bool)),
        (
            "rustc",
            command_line("rustc", &["--version"]).map_or(Value::Null, Value::Str),
        ),
        ("cpu", Value::str(cpu_model())),
        ("avx2", avx2.into()),
        ("fma", fma.into()),
        (
            "nproc",
            (std::thread::available_parallelism().map_or(0, |n| n.get()) as u64).into(),
        ),
        ("backend", Value::str(format!("{:?}", Backend::current()))),
        ("seed", Value::str(seed.to_string())),
        ("smoke", smoke.into()),
        ("seconds", seconds.into()),
    ])
}
