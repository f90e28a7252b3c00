//! What the harness reads from the host: CPU time and peak memory of a
//! process (from `/proc`, so children can be read while they still run),
//! and the provenance stamped on every output.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{self, Json};

/// Kernel clock ticks per second behind `/proc/<pid>/stat`. Linux has
/// fixed `USER_HZ` at 100 on every architecture this builds for; reading
/// it would need `sysconf` and a libc binding.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds a process (all its threads, exited ones
/// included) has consumed; `0.0` if the process is gone.
pub fn cpu_seconds(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after its ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set of a process in MB (`VmHWM`); `0.0` if it is gone.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds of this process plus the given children.
pub fn cpu_seconds_with(children: &[u32]) -> f64 {
    cpu_seconds(std::process::id()) + children.iter().map(|&p| cpu_seconds(p)).sum::<f64>()
}

/// Peak resident MB of this process plus the given children.
pub fn peak_rss_mb_with(children: &[u32]) -> f64 {
    peak_rss_mb(std::process::id()) + children.iter().map(|&p| peak_rss_mb(p)).sum::<f64>()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout this binary measures: the working directory when it holds
/// `BENCHMARK.json` (how the acceptance driver runs it), else the
/// directory above the one the package was built from.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("BENCHMARK.json").is_file() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or(cwd, Path::to_path_buf)
}

/// `benchmark/out/`, created on demand: trace files and run records.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = repo_root().join("benchmark").join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Non-vendor Rust lines under `crates/` and `src/`: the exact count
/// ROADMAP item 3 tracks. `0` when the tree is not there.
pub fn rust_loc() -> u64 {
    fn walk(dir: &Path, total: &mut u64) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, total);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(text) = std::fs::read_to_string(&path) {
                    *total += text.lines().count() as u64;
                }
            }
        }
    }
    let root = repo_root();
    let mut total = 0;
    walk(&root.join("crates"), &mut total);
    walk(&root.join("src"), &mut total);
    total
}

/// Host and build facts every output carries.
pub fn provenance() -> Json {
    let root = repo_root();
    let unknown = || "unknown".to_string();
    json::obj([
        ("nproc", json::count(nproc() as u64)),
        ("cpu_model", json::str(cpu_model())),
        ("simd", json::str(sbgt_lattice::simd::active_name())),
        (
            "rustc",
            json::str(command_line("rustc", &["--version"], &root).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            json::str(command_line("git", &["rev-parse", "HEAD"], &root).unwrap_or_else(unknown)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        // Burn a little CPU so the tick counter cannot read zero forever.
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds(std::process::id()) > 0.0);
        assert!(peak_rss_mb(std::process::id()) > 0.0);
        assert_eq!(cpu_seconds(u32::MAX), 0.0);
        assert_eq!(peak_rss_mb(u32::MAX), 0.0);
        assert!(nproc() >= 1);
    }
}
