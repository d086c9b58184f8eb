//! Host fingerprint and process-level measurements.

use std::process::Command;

/// Logical CPUs available to this process; every thread count in the
/// benchmark is capped here.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a digest of every Rust source file under `crates/` and
/// `perfbench/src/`, in path order: identifies the measured code even
/// where the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

/// The host fingerprint printed with every result: CPUs, probed cache
/// geometry, toolchain, and the code measured.
pub fn fingerprint_json() -> String {
    let g = cmm_forkjoin::cache_geometry();
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_v = command_line(&rustc, &["-V"]).unwrap_or_else(|| "unknown".to_string());
    let commit = command_line("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    format!(
        "{{\"nproc\": {}, \"l1d_bytes\": {}, \"l2_bytes\": {}, \"rustc\": {}, \"commit\": {}, \"source_digest\": {}, \"oversubscribed\": false}}",
        nproc(),
        g.l1d_bytes,
        g.l2_bytes,
        cmm_serve::json::quote(&rustc_v),
        cmm_serve::json::quote(&commit),
        cmm_serve::json::quote(&source_digest()),
    )
}
