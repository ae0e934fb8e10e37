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
//! `SweepExecutor::map_indexed` runs a closure over a slice of points
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
//! without any locking. Its one primitive is
//! [`SweepExecutor::fold_ordered`], which hands each result to a
//! caller-side sink in point order as soon as its index is next;
//! `map_indexed` is that fold collecting into a `Vec`. A caller that
//! reduces each result in its sink holds only the results that finished
//! ahead of the next index, never the whole sweep.
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
//! let serial = SweepExecutor::with_jobs(1).map(&points, |p| p * p);
//! let parallel = SweepExecutor::with_jobs(8).map(&points, |p| p * p);
//! assert_eq!(serial, parallel); // same values, same order — always
//! ```

use std::collections::BTreeMap;
use std::io::{IsTerminal, Write};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
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
pub(crate) fn progress_mode() -> ProgressMode {
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
pub(crate) fn default_jobs() -> usize {
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

/// Sets its flag when dropped: stops the progress reporter however the
/// fold exits.
struct Release<'a>(&'a AtomicBool);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// A deterministic fork–join executor for sweeps of independent points.
///
/// The executor is cheap to construct (it is just a worker count); the
/// thread pool is scoped to each [`fold_ordered`](Self::fold_ordered)
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

    /// An executor using the process default (see `default_jobs`).
    #[must_use]
    pub fn current() -> Self {
        Self::with_jobs(default_jobs())
    }

    /// The worker count this executor runs with.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `point_fn` over `points` and hands each result to `sink`
    /// **strictly in point order**, as soon as its index is next —
    /// regardless of worker count or completion order.
    ///
    /// With one worker this is the plain serial loop on the calling
    /// thread: `sink(i, point_fn(i, &points[i]))` for each `i` in turn,
    /// with no thread and no channel. With more, workers claim indices
    /// from the atomic cursor and send each result over a channel to the
    /// calling thread, which runs `sink`; a result that finishes ahead
    /// of the next index waits in a reorder buffer until that index
    /// arrives, and no result is held once its sink call has run. So a
    /// sink that reduces each result keeps only those still ahead of
    /// the fold in memory, not the whole sweep.
    ///
    /// The determinism contract is `map_indexed`'s:
    /// a `point_fn` that derives its randomness from the point gives
    /// `sink` the same sequence at every `jobs` value.
    ///
    /// # Panics
    ///
    /// If `point_fn` panics for any point, its payload is re-raised on
    /// the caller once every worker has stopped; `sink` sees no index at
    /// or after the panicking one.
    pub fn fold_ordered<T, R, F, S>(&self, points: &[T], point_fn: F, mut sink: S)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        S: FnMut(usize, R),
    {
        let n = points.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            // The exact old serial loop: index order, calling thread.
            for (i, p) in points.iter().enumerate() {
                sink(i, point_fn(i, p));
            }
            return;
        }

        // Atomic-cursor pool: each worker claims the next unclaimed
        // index, computes it, and sends (index, result) to the caller.
        let cursor = AtomicUsize::new(0);

        // Live progress (opt-in, stderr only): workers bump `done`
        // after each point; a reporter thread turns the counter into a
        // points/sec + ETA line. Purely observational — the cursor and
        // the fold are untouched.
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
            // Released on every exit from this closure, unwinding from a
            // panicking sink included, so the scope never waits forever
            // on the reporter's sleep loop.
            let _release = Release(&finished);
            let (tx, rx) = mpsc::channel();
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    let (cursor, done, point_fn) = (&cursor, &done, &point_fn);
                    scope.spawn(move || loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        // A closed channel means the sink panicked: stop.
                        if i >= n || tx.send((i, point_fn(i, &points[i]))).is_err() {
                            break;
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            // The workers hold the only senders now, so the receive loop
            // ends once every worker has returned or unwound.
            drop(tx);
            let mut ahead = BTreeMap::new();
            let mut next = 0;
            for (i, r) in rx {
                ahead.insert(i, r);
                while let Some(r) = ahead.remove(&next) {
                    sink(next, r);
                    next += 1;
                }
            }
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
            debug_assert_eq!(next, n, "atomic cursor visits every index exactly once");
        });
    }

    /// Maps `point_fn` over `points`, returning results **in point
    /// order** regardless of worker count or completion order: the
    /// [`fold_ordered`](Self::fold_ordered) whose sink collects into a
    /// `Vec`.
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
    pub(crate) fn map_indexed<T, R, F>(&self, points: &[T], point_fn: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut out = Vec::with_capacity(points.len());
        self.fold_ordered(points, point_fn, |_, r| out.push(r));
        out
    }

    /// `map_indexed` without the index argument.
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
    use std::hint::black_box;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn jobs_clamp_to_at_least_one() {
        assert_eq!(SweepExecutor::with_jobs(0).jobs(), 1);
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
    fn fold_sinks_every_index_once_in_order_when_low_indices_finish_last() {
        let n = 97;
        let points: Vec<u64> = (0..n as u64).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let finished = AtomicUsize::new(0);
            let mut seen = Vec::new();
            SweepExecutor::with_jobs(jobs).fold_ordered(
                &points,
                |i, &p| {
                    // With another worker to run the rest, index 0
                    // finishes last: every later result arrives first.
                    while jobs > 1 && i == 0 && finished.load(Ordering::Acquire) < n - 1 {
                        std::thread::yield_now();
                    }
                    // The cost falls with the index.
                    let x = (0..(n - i) * 200).fold(p, |x, _| black_box(x.wrapping_mul(31) ^ 7));
                    finished.fetch_add(1, Ordering::Release);
                    (i, x)
                },
                |i, (computed_at, _)| seen.push((i, computed_at)),
            );
            let expect: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
            assert_eq!(seen, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn serial_fold_runs_the_sink_between_points() {
        let points: Vec<u32> = (0..50).collect();
        let sunk = AtomicUsize::new(0);
        SweepExecutor::with_jobs(1).fold_ordered(
            &points,
            |i, _| assert_eq!(sunk.load(Ordering::Relaxed), i, "point {i} ran before the sink"),
            |i, ()| assert_eq!(sunk.fetch_add(1, Ordering::Relaxed), i),
        );
        assert_eq!(sunk.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn fold_reraises_a_point_panic_payload_after_the_points_before_it() {
        let points: Vec<u32> = (0..64).collect();
        for jobs in [1, 2, 8] {
            let mut sunk = Vec::new();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                SweepExecutor::with_jobs(jobs).fold_ordered(
                    &points,
                    |_, &p| assert!(p != 9, "point nine exploded"),
                    |i, ()| sunk.push(i),
                );
            }));
            let payload = caught.expect_err("the point's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"point nine exploded"), "jobs={jobs}");
            assert_eq!(sunk, (0..9).collect::<Vec<_>>(), "jobs={jobs}");
        }
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
