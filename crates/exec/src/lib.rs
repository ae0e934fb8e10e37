//! # aw-exec — deterministic parallel sweep execution
//!
//! Every paper artifact in this workspace (Fig. 8–13, Tables 1–5, the
//! ablations, the validation suite, the chaos harness) is a sweep of
//! *independent* simulation points: each point runs its own server
//! simulation from an explicit `(config, workload, seed)` triple and
//! shares no mutable state with its neighbours. That shape is
//! embarrassingly parallel — and this crate is the one place that
//! exploits it.
//!
//! [`SweepExecutor::map_indexed`] runs a closure over a slice of points
//! on `N` worker threads while guaranteeing **bit-identical results and
//! ordering regardless of worker count**:
//!
//! * results land in the output vector **by point index**, never by
//!   completion order;
//! * each point derives all randomness from its own seed, so no point
//!   can observe scheduling;
//! * the `jobs = 1` path is the exact serial loop the callers used
//!   before this crate existed (same iteration order, no pool, no
//!   threads).
//!
//! The pool is a zero-dependency atomic-cursor design on
//! [`std::thread::scope`]: workers claim the next unclaimed index with a
//! single `fetch_add`, so load imbalance between points self-corrects
//! without any channels or locking.
//!
//! # Choosing the worker count
//!
//! [`SweepExecutor::current`] resolves the job count in priority order:
//!
//! 1. a process-wide override installed via [`set_default_jobs`]
//!    (what `aw-cli --jobs N` uses),
//! 2. the `AW_JOBS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! ```
//! use aw_exec::SweepExecutor;
//!
//! let points: Vec<u64> = (0..100).collect();
//! let serial = SweepExecutor::serial().map_indexed(&points, |_, p| p * p);
//! let parallel = SweepExecutor::with_jobs(8).map_indexed(&points, |_, p| p * p);
//! assert_eq!(serial, parallel); // same values, same order — always
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::io::{IsTerminal, Write};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Process-wide job-count override; `0` means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide progress mode, stored as the `ProgressMode` discriminant.
static PROGRESS_MODE: AtomicUsize = AtomicUsize::new(0);

/// Whether parallel sweeps report live progress on stderr.
///
/// Progress is purely cosmetic: it never touches stdout (golden outputs
/// stay byte-identical) and never changes scheduling or results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// Report when stderr is a terminal (the default): interactive runs
    /// see progress, scripts and redirected pipelines stay silent.
    #[default]
    Auto,
    /// Always report.
    Enabled,
    /// Never report.
    Disabled,
}

/// Installs the process-wide progress mode (what `aw-cli --progress`
/// uses to force reporting on).
pub fn set_progress(mode: ProgressMode) {
    let v = match mode {
        ProgressMode::Auto => 0,
        ProgressMode::Enabled => 1,
        ProgressMode::Disabled => 2,
    };
    PROGRESS_MODE.store(v, Ordering::SeqCst);
}

/// The installed [`ProgressMode`].
#[must_use]
pub fn progress_mode() -> ProgressMode {
    match PROGRESS_MODE.load(Ordering::SeqCst) {
        1 => ProgressMode::Enabled,
        2 => ProgressMode::Disabled,
        _ => ProgressMode::Auto,
    }
}

/// Resolves the installed mode against the actual stderr.
fn progress_active() -> bool {
    match progress_mode() {
        ProgressMode::Enabled => true,
        ProgressMode::Disabled => false,
        ProgressMode::Auto => std::io::stderr().is_terminal(),
    }
}

/// Installs a process-wide default worker count, taking priority over
/// `AW_JOBS` and the detected parallelism. `aw-cli` calls this when the
/// user passes `--jobs N`; passing `0` clears the override.
pub fn set_default_jobs(jobs: usize) {
    JOBS_OVERRIDE.store(jobs, Ordering::SeqCst);
}

/// Resolves the default worker count: the [`set_default_jobs`] override
/// if installed, else a positive integer `AW_JOBS` environment variable,
/// else [`std::thread::available_parallelism`] (or `1` if even that is
/// unavailable).
#[must_use]
pub fn default_jobs() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("AW_JOBS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// A deterministic fork–join executor for sweeps of independent points.
///
/// The executor is cheap to construct (it is just a worker count); the
/// thread pool is scoped to each [`map_indexed`](Self::map_indexed)
/// call, so no threads outlive the sweep and borrowed points need no
/// `'static` bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepExecutor {
    jobs: usize,
}

impl Default for SweepExecutor {
    fn default() -> Self {
        Self::current()
    }
}

impl SweepExecutor {
    /// An executor with exactly `jobs` workers (clamped to at least 1).
    #[must_use]
    pub fn with_jobs(jobs: usize) -> Self {
        SweepExecutor { jobs: jobs.max(1) }
    }

    /// The strictly serial executor: `map_indexed` degenerates to the
    /// plain `for` loop over the points, on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        SweepExecutor { jobs: 1 }
    }

    /// An executor using the process default (see [`default_jobs`]).
    #[must_use]
    pub fn current() -> Self {
        Self::with_jobs(default_jobs())
    }

    /// The worker count this executor runs with.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `point_fn` over `points`, returning results **in point
    /// order** regardless of worker count or completion order.
    ///
    /// `point_fn(i, &points[i])` must derive all of its randomness from
    /// the point itself (seeds live *in* the point) and must not touch
    /// shared mutable state; under that contract the output is
    /// bit-identical for every `jobs` value, including the serial path.
    ///
    /// # Panics
    ///
    /// If `point_fn` panics for any point, the panic is propagated to
    /// the caller after all workers have stopped claiming new points.
    pub fn map_indexed<T, R, F>(&self, points: &[T], point_fn: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = points.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            // The exact old serial loop: index order, calling thread.
            return points.iter().enumerate().map(|(i, p)| point_fn(i, p)).collect();
        }

        // Atomic-cursor pool: each worker claims the next unclaimed
        // index, computes it, and remembers (index, result) locally.
        // Results are merged into index-ordered slots afterwards, so
        // completion order is unobservable.
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);

        // Live progress (opt-in, stderr only): workers bump `done`
        // after each point; a reporter thread turns the counter into a
        // points/sec + ETA line. Purely observational — the cursor and
        // result slots are untouched.
        let done = AtomicUsize::new(0);
        let finished = AtomicBool::new(false);
        let report = progress_active();

        std::thread::scope(|scope| {
            if report {
                scope.spawn(|| {
                    let start = Instant::now();
                    while !finished.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(100));
                        let d = done.load(Ordering::Relaxed).min(n);
                        let elapsed = start.elapsed().as_secs_f64();
                        let rate = d as f64 / elapsed.max(1e-9);
                        let eta = (n - d) as f64 / rate.max(1e-9);
                        eprint!("\r  sweep: {d}/{n} points · {rate:.0}/s · ETA {eta:.0}s ");
                        let _ = std::io::stderr().flush();
                    }
                    // Overwrite the progress line so the next stderr
                    // write starts on a clean column.
                    eprint!("\r\x1b[K");
                    let _ = std::io::stderr().flush();
                });
            }
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, point_fn(i, &points[i])));
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                        local
                    })
                })
                .collect();
            let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
            for handle in handles {
                match handle.join() {
                    Ok(local) => {
                        for (i, r) in local {
                            debug_assert!(slots[i].is_none(), "index {i} claimed twice");
                            slots[i] = Some(r);
                        }
                    }
                    Err(payload) => panic = Some(payload),
                }
            }
            // Release the reporter before (possibly) unwinding, so the
            // scope never deadlocks waiting for its sleep loop.
            finished.store(true, Ordering::Release);
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
        });

        slots
            .into_iter()
            .map(|slot| slot.expect("atomic cursor visits every index exactly once"))
            .collect()
    }

    /// [`map_indexed`](Self::map_indexed) without the index argument.
    pub fn map<T, R, F>(&self, points: &[T], point_fn: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indexed(points, |_, p| point_fn(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn jobs_clamp_to_at_least_one() {
        assert_eq!(SweepExecutor::with_jobs(0).jobs(), 1);
        assert_eq!(SweepExecutor::serial().jobs(), 1);
        assert_eq!(SweepExecutor::with_jobs(7).jobs(), 7);
    }

    #[test]
    fn results_land_by_index_for_every_worker_count() {
        let points: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = points.iter().map(|p| p.wrapping_mul(0x9E37_79B9)).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = SweepExecutor::with_jobs(jobs)
                .map_indexed(&points, |_, p| p.wrapping_mul(0x9E37_79B9));
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn index_argument_matches_slice_position() {
        let points = ["a", "b", "c", "d", "e"];
        let got = SweepExecutor::with_jobs(4).map_indexed(&points, |i, p| format!("{i}:{p}"));
        assert_eq!(got, ["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn every_point_runs_exactly_once() {
        let points: Vec<usize> = (0..1000).collect();
        let ran = AtomicU64::new(0);
        let got = SweepExecutor::with_jobs(8).map_indexed(&points, |i, p| {
            ran.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, *p);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1000);
        assert_eq!(got.len(), 1000);
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let none: Vec<u32> = vec![];
        assert!(SweepExecutor::with_jobs(8).map(&none, |p| *p).is_empty());
        assert_eq!(SweepExecutor::with_jobs(8).map(&[41u32], |p| p + 1), vec![42]);
    }

    #[test]
    #[should_panic(expected = "sweep point exploded")]
    fn worker_panics_propagate_to_the_caller() {
        let points: Vec<u32> = (0..16).collect();
        SweepExecutor::with_jobs(4).map_indexed(&points, |_, p| {
            assert!(*p != 7, "sweep point exploded");
            *p
        });
    }

    #[test]
    fn progress_mode_round_trips_and_defaults_to_auto() {
        assert_eq!(progress_mode(), ProgressMode::Auto);
        set_progress(ProgressMode::Disabled);
        assert_eq!(progress_mode(), ProgressMode::Disabled);
        set_progress(ProgressMode::Auto);
        assert_eq!(progress_mode(), ProgressMode::Auto);
    }

    #[test]
    fn override_wins_over_everything_and_clears() {
        set_default_jobs(3);
        assert_eq!(default_jobs(), 3);
        assert_eq!(SweepExecutor::current().jobs(), 3);
        set_default_jobs(0);
        assert!(default_jobs() >= 1);
    }
}
