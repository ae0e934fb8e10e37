//! What the benchmark reads about the host: its current speed (the
//! reference kernel), peak memory, and the manifest fields (commit,
//! parallelism, compiler).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The reference kernel: a fixed computation that shares no code with
/// the simulator, timed around every operation. The benchmark's host
/// shares its cores with other tenants, and the speed they leave over
/// swings by up to 1.5x for minutes at a time, far more than any change
/// a benchmark has to detect. Dividing an operation's host time by the
/// reference time measured around it cancels most of that swing.
/// Sorting pseudo-random floats (1 MiB, branchy compares, memory moves)
/// tracks the simulator's slowdowns closely, which a pure arithmetic
/// loop does not.
pub struct Reference {
    input: Vec<f64>,
}

impl Reference {
    const LEN: usize = 1 << 17;

    pub fn new() -> Reference {
        // xorshift64: fixed, seed-independent input.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let input = (0..Self::LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64
            })
            .collect();
        Reference { input }
    }

    /// Host seconds of one sort of the fixed input (the copy is made
    /// before the clock starts): the median of three.
    pub fn time(&self) -> f64 {
        let mut t: Vec<f64> = (0..3)
            .map(|_| {
                let mut v = self.input.clone();
                let start = Instant::now();
                v.sort_by(f64::total_cmp);
                let secs = start.elapsed().as_secs_f64();
                black_box(v);
                secs
            })
            .collect();
        t.sort_by(f64::total_cmp);
        t[1]
    }
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Worker threads the benchmark may use: the host's parallelism, capped
/// at two.
pub fn jobs() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process, nothing read outside the checkout); `unknown` when
/// the tree is not a git checkout.
pub fn commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        let rss = peak_rss_mb().expect("Linux exposes VmHWM");
        assert!(rss > 0.1 && rss < 1e6, "{rss}");
        assert!((1..=2).contains(&jobs()));
        let reference = Reference::new();
        let t = reference.time();
        assert!(t > 0.0 && t < 10.0, "{t}");
    }
}
