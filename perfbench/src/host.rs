//! The host record every result carries, and the process's peak memory.

use serde::Serialize;
use std::path::Path;

/// What a result depends on besides the code: core count, commit and
/// compiler.
#[derive(Clone, Debug, Serialize)]
pub struct Host {
    pub available_parallelism: usize,
    pub commit: String,
    pub rustc: String,
}

impl Host {
    /// Reads the host's parallelism, the commit of the checkout in the
    /// working directory (`unknown` outside a git checkout) and `rustc -V`.
    pub fn probe() -> Host {
        Host {
            available_parallelism: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
            commit: commit(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            rustc: std::process::Command::new("rustc")
                .arg("-V")
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map_or_else(
                    || "unknown".into(),
                    |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
                ),
        }
    }
}

/// The commit `HEAD` names, read from the git directory's files directly
/// so nothing outside the working directory is consulted.
fn commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// The process's peak resident set (`VmHWM`) in MiB, if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
