//! The idle-opportunity report: distributions, governor audit, and the
//! achieved-vs-achievable opportunity ledger.

use std::collections::BTreeMap;
use std::fmt;

use aw_cstates::CState;
use aw_server::IdleInterval;
use aw_sim::select_quantiles;
use aw_telemetry::{LogHistogram, WindowCursor};
use aw_types::{Joules, Nanos};

use crate::BreakEven;

/// Relative tolerance for the ledger's float-sum cross-checks.
const EPS: f64 = 1e-6;

/// Idle-period length distribution for one core (or pooled across all).
#[derive(Debug, Clone)]
pub struct IdleDistribution {
    /// The core this distribution describes; `None` for the pooled view.
    pub core: Option<usize>,
    /// Number of measured idle intervals.
    pub count: u64,
    /// Log2 histogram of interval lengths in nanoseconds.
    pub histogram: LogHistogram,
    /// Shortest observed interval.
    pub min: Nanos,
    /// Longest observed interval.
    pub max: Nanos,
    /// Mean interval length.
    pub mean: Nanos,
    /// Exact nearest-rank median (from the raw sample, not the histogram).
    pub p50: Nanos,
    /// Exact 90th percentile.
    pub p90: Nanos,
    /// Exact 99th percentile.
    pub p99: Nanos,
}

/// The fold of one group of durations that [`IdleReport::analyze`] keeps
/// while it sweeps: histogram counts (a last slot for the negative and NaN
/// values the histogram rejects), sum, minimum and maximum.
#[derive(Debug, Clone, Copy)]
struct Fold {
    slots: [u64; SLOTS],
    sum: f64,
    min: f64,
    max: f64,
}

/// Histogram buckets, then the rejected slot.
const SLOTS: usize = LogHistogram::MAX_BUCKETS + 1;
const REJECTED: usize = SLOTS - 1;

impl Fold {
    const EMPTY: Fold =
        Fold { slots: [0; SLOTS], sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY };

    /// The slot `d` counts in: its log2 bucket, or [`REJECTED`] for the
    /// negative and NaN values [`LogHistogram::record`] refuses.
    fn slot(d: f64) -> usize {
        if d < 0.0 || d.is_nan() {
            REJECTED
        } else {
            LogHistogram::bucket_index(d)
        }
    }

    fn add(&mut self, d: f64) {
        self.slots[Self::slot(d)] += 1;
        self.sum += d;
        self.min = self.min.min(d);
        self.max = self.max.max(d);
    }

    /// The distribution of `durations`, the values this fold saw.
    /// [`select_quantiles`] partitions the slice in place for the exact
    /// quantiles (selection, not a full sort).
    fn distribution(&self, core: Option<usize>, durations: &mut [f64]) -> IdleDistribution {
        let count = durations.len() as u64;
        if count == 0 {
            return IdleDistribution {
                core,
                count,
                histogram: LogHistogram::new(),
                min: Nanos::ZERO,
                max: Nanos::ZERO,
                mean: Nanos::ZERO,
                p50: Nanos::ZERO,
                p90: Nanos::ZERO,
                p99: Nanos::ZERO,
            };
        }
        let rejected = self.slots[REJECTED];
        let mean = self.sum / count as f64;
        // The histogram's mean covers only the values it accepts.
        let valid_mean = if rejected == 0 {
            mean
        } else {
            let valid = durations.iter().filter(|d| Self::slot(**d) != REJECTED);
            valid.sum::<f64>() / (count - rejected) as f64
        };
        let buckets = self.slots[..REJECTED].try_into().expect("one slot per bucket");
        let histogram = LogHistogram::from_counts(buckets, rejected, valid_mean, self.max);
        let [p50, p90, p99] = select_quantiles(durations, [0.50, 0.90, 0.99]);
        IdleDistribution {
            core,
            count,
            histogram,
            min: Nanos::new(self.min),
            max: Nanos::new(self.max),
            mean: Nanos::new(mean),
            p50: Nanos::new(p50),
            p90: Nanos::new(p90),
            p99: Nanos::new(p99),
        }
    }
}

/// Prediction-accuracy statistics over the intervals where the governor
/// exposed a `last_prediction`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PredictionStats {
    /// Intervals with a recorded prediction.
    pub predicted: u64,
    /// Mean absolute error |predicted − actual|.
    pub mean_abs_error: Nanos,
    /// Mean signed error (predicted − actual); negative means the governor
    /// systematically under-predicts (the pessimistic menu default).
    pub mean_error: Nanos,
    /// Intervals where predicted < actual.
    pub underpredictions: u64,
    /// Mean absolute percentage error, in percent of the actual length.
    pub mean_abs_pct: f64,
}

/// The governor audit: per-interval chosen-vs-optimal comparison.
#[derive(Debug, Clone, Default)]
pub struct GovernorAudit {
    /// Total audited decisions (measured intervals).
    pub decisions: u64,
    /// Decisions where the chosen state was break-even optimal.
    pub exact: u64,
    /// Decisions where a deeper state would have saved more energy.
    pub too_shallow: u64,
    /// Decisions where a shallower state would have cost less.
    pub too_deep: u64,
    /// Confusion matrix `(chosen, optimal) → count` over all decisions.
    pub confusion: BTreeMap<(CState, CState), u64>,
    /// Accuracy of the predictions those decisions were based on.
    pub prediction: PredictionStats,
}

impl GovernorAudit {
    /// Fraction of decisions that were break-even optimal (1.0 when there
    /// were no decisions).
    #[must_use]
    pub(crate) fn accuracy(&self) -> f64 {
        if self.decisions == 0 {
            1.0
        } else {
            self.exact as f64 / self.decisions as f64
        }
    }
}

/// The opportunity ledger: achieved vs. oracle-achievable residency and
/// energy, with the gap attributed to too-shallow, too-deep, and
/// un-sleepable intervals.
///
/// All energy figures cover only the idle intervals themselves (active
/// request processing is out of scope): `c0_energy` is the cost of having
/// stayed awake, `achieved_energy` what the governor's choices actually
/// burned under the break-even model, and `oracle_energy` the floor a
/// clairvoyant governor could have reached with the same catalog.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpportunityLedger {
    /// Measured idle intervals analyzed.
    pub intervals: u64,
    /// Total idle time (sum of interval round-trip lengths).
    pub idle_time: Nanos,
    /// Residency actually banked: Σ max(len − budget(chosen), 0).
    pub achieved_residency: Nanos,
    /// Best-case sleepable time: Σ max(len − min(cheapest enabled
    /// budget, budget(chosen)), 0). The chosen state is a candidate even
    /// when the model does not enable it, so this is ≥
    /// `achieved_residency` by construction.
    pub achievable_residency: Nanos,
    /// Idle energy under the governor's actual choices.
    pub achieved_energy: Joules,
    /// Idle energy under the per-interval break-even optimum.
    pub oracle_energy: Joules,
    /// Idle energy had every interval been spent active in C0.
    pub c0_energy: Joules,
    /// Energy left on the table by too-shallow choices.
    pub too_shallow_waste: Joules,
    /// Energy overpaid by too-deep choices (transition cost that never
    /// amortized).
    pub too_deep_waste: Joules,
    /// Extra exit latency exposed to wakeups by too-deep choices:
    /// Σ (exit budget of chosen − exit budget of optimal).
    pub too_deep_latency: Nanos,
    /// Intervals where no state deeper than the shallowest enabled one met
    /// its break-even — nothing a smarter governor could recover.
    pub unsleepable: u64,
    /// Idle time inside those un-sleepable intervals.
    pub unsleepable_time: Nanos,
    /// Intervals whose break-even optimum is a core-off state (C6 family:
    /// C6, C6A, C6AE) — the paper's deep-sleep opportunity.
    pub deep_opportunities: u64,
    /// Oracle savings available on the deep (C6-family) opportunities.
    pub deep_oracle_savings: Joules,
    /// Savings the governor actually realized on those opportunities.
    pub deep_achieved_savings: Joules,
}

impl OpportunityLedger {
    /// Energy actually saved vs. staying awake.
    #[must_use]
    pub fn achieved_savings(&self) -> Joules {
        self.c0_energy - self.achieved_energy
    }

    /// Energy a clairvoyant governor would have saved. Never less than
    /// [`OpportunityLedger::achieved_savings`].
    #[must_use]
    pub fn oracle_savings(&self) -> Joules {
        self.c0_energy - self.oracle_energy
    }

    /// Opportunity-recovery ratio: achieved savings as a share of oracle
    /// savings, in `[0, 1]`; defined as 1.0 when there was nothing to save.
    #[must_use]
    pub fn recovery(&self) -> f64 {
        ratio(self.achieved_savings().as_joules(), self.oracle_savings().as_joules())
    }

    /// Share of the C6-family opportunity the governor recovered (1.0 when
    /// no deep opportunities existed).
    #[must_use]
    pub fn deep_recovery(&self) -> f64 {
        ratio(self.deep_achieved_savings.as_joules(), self.deep_oracle_savings.as_joules())
    }

    /// Fraction of idle time inside intervals where some deeper state met
    /// its break-even (1.0 when there was no idle time).
    #[must_use]
    pub(crate) fn sleepable_share(&self) -> f64 {
        ratio((self.idle_time - self.unsleepable_time).as_nanos(), self.idle_time.as_nanos())
    }
}

/// `num / den` clamped to `[0, 1]`, with the 1.0 no-opportunity convention.
fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        1.0
    } else {
        (num / den).clamp(0.0, 1.0)
    }
}

/// One wall-clock window of opportunity-recovery figures, keyed by interval
/// start time — the windowed view the cockpit sparkline and CSV export
/// consume.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleWindow {
    /// Window index (`start / window_length`, floored).
    pub index: u64,
    /// Window start time.
    pub start: Nanos,
    /// Intervals that began inside the window.
    pub intervals: u64,
    /// Idle time contributed by those intervals.
    pub idle_time: Nanos,
    /// Energy saved by the governor inside the window.
    pub achieved_savings: Joules,
    /// Energy the oracle would have saved inside the window.
    pub oracle_savings: Joules,
    /// Sleepable (non-un-sleepable) idle time inside the window.
    pub sleepable_time: Nanos,
}

impl IdleWindow {
    /// Opportunity recovery inside this window (1.0 when idle-free).
    #[must_use]
    pub(crate) fn recovery(&self) -> f64 {
        ratio(self.achieved_savings.as_joules(), self.oracle_savings.as_joules())
    }

    /// Sleepable share of this window's idle time.
    #[must_use]
    pub(crate) fn sleepable_share(&self) -> f64 {
        ratio(self.sleepable_time.as_nanos(), self.idle_time.as_nanos())
    }
}

/// The full idle-opportunity report for one run.
///
/// Produced by [`IdleReport::analyze`] from the intervals captured via
/// `SimBuilder::with_idle_analysis()`; render with `Display` for a terminal
/// summary, or export via [`IdleReport::to_csv`], [`IdleReport::to_json`],
/// and [`IdleReport::folded_stack`].
#[derive(Debug, Clone)]
pub struct IdleReport {
    /// Pooled idle-length distribution across all cores.
    pub pooled: IdleDistribution,
    /// Per-core distributions, indexed by core id.
    pub per_core: Vec<IdleDistribution>,
    /// Chosen-vs-optimal governor audit.
    pub audit: GovernorAudit,
    /// Achieved-vs-achievable opportunity ledger.
    pub ledger: OpportunityLedger,
    /// Windowed recovery timeline (contiguous from window 0; empty windows
    /// are kept here and skipped by the CSV export).
    pub windows: Vec<IdleWindow>,
    /// Window length used for [`IdleReport::windows`].
    pub window: Nanos,
}

impl IdleReport {
    /// Analyzes captured idle intervals against a break-even model.
    ///
    /// Every interval is scored: the capture keeps only those begun at or
    /// after warm-up end, matching the simulator's metric reset. `cores`
    /// sizes the per-core distribution table (cores that never idled get
    /// empty rows); `window` buckets the recovery timeline (pass
    /// `Nanos::ZERO` to skip windowing).
    ///
    /// # Panics
    ///
    /// Panics if the ledger's internal invariants are violated — the
    /// oracle scoring worse than the governor, or the waste attribution
    /// not summing to the achieved-minus-oracle gap. Both would mean the
    /// break-even model is inconsistent, never that the input is bad.
    #[must_use]
    pub fn analyze(
        intervals: &[IdleInterval],
        model: &BreakEven,
        cores: usize,
        window: Nanos,
    ) -> Self {
        // One group per core, then one for cores ≥ `cores`, which count
        // only in the pooled view. A counting pass sizes each group's
        // run of one shared duration buffer.
        let group = |core: u32| (core as usize).min(cores);
        let mut next = vec![0usize; cores + 1];
        for iv in intervals {
            next[group(iv.core)] += 1;
        }
        let mut at = 0;
        for slot in &mut next {
            (*slot, at) = (at, at + *slot);
        }
        let starts = next.clone();
        // The capacity is rounded up to a power of two, as a pushed Vec's
        // growth would leave it. glibc slides its mmap threshold up to the
        // largest mapped block freed, and an exact-size buffer set it where
        // later allocations placed worse: `light_analyze`'s peak RSS rose
        // 1.7 MiB. The spare capacity is never touched, so costs no RSS.
        let mut durations = Vec::with_capacity(at.next_power_of_two());
        durations.resize(at, 0.0);
        let mut folds = vec![Fold::EMPTY; cores + 1];
        let (mut sum, mut min, mut max) = (0.0, f64::INFINITY, f64::NEG_INFINITY);

        let mut audit = GovernorAudit::default();
        let mut ledger = OpportunityLedger::default();
        // Dense, index-addressed: intervals arrive in near-time order, so a
        // Vec grown on demand beats a tree walk per interval on the hot
        // path, and the cursor finds the window without dividing.
        let mut windows: Vec<IdleWindow> = Vec::new();
        let mut cursor = WindowCursor::NONE;
        let min_budget = model.min_budget();
        let shallowest = model.shallowest();

        let mut abs_err_sum = 0.0;
        let mut err_sum = 0.0;
        let mut abs_pct_sum = 0.0;
        let mut pct_count = 0u64;
        // Confusion counts accumulate in a depth-indexed array (one add per
        // interval) and fold into the reported map, and the audit's three
        // classes, after the loop.
        let mut confusion = [[0u64; CState::ALL.len()]; CState::ALL.len()];

        for iv in intervals {
            let t = iv.duration;
            let d = t.as_nanos();
            let g = group(iv.core);
            durations[next[g]] = d;
            next[g] += 1;
            folds[g].add(d);
            sum += d;
            min = min.min(d);
            max = max.max(d);

            let (optimal, oracle, achieved) = model.score(t, iv.chosen);
            let c0 = model.active_energy(t);
            let waste = achieved - oracle;
            // Conditional sums add +0 instead of branching on the data: a
            // sum that starts at +0 is never −0, so adding +0 keeps its bits.
            let (shallow, deep) =
                (iv.chosen.depth() < optimal.depth(), iv.chosen.depth() > optimal.depth());
            let unsleepable = optimal == shallowest;

            // --- audit ---
            confusion[iv.chosen.depth() as usize][optimal.depth() as usize] += 1;
            ledger.too_shallow_waste += if shallow { waste } else { Joules::ZERO };
            ledger.too_deep_waste += if deep { waste } else { Joules::ZERO };
            let budget = model.budget(iv.chosen);
            let exposure = (budget - model.budget(optimal)).max(Nanos::ZERO);
            ledger.too_deep_latency += if deep { exposure } else { Nanos::ZERO };
            if let Some(p) = iv.predicted() {
                audit.prediction.predicted += 1;
                let err = (p - t).as_nanos();
                err_sum += err;
                abs_err_sum += err.abs();
                audit.prediction.underpredictions += u64::from(err < 0.0);
                if d > 0.0 {
                    abs_pct_sum += 100.0 * err.abs() / d;
                    pct_count += 1;
                }
            }

            // --- ledger ---
            ledger.idle_time += t;
            // The chosen state counts as a candidate, as in `score`: a
            // run under another menu may have chosen a state cheaper than
            // any this model enables.
            ledger.achieved_residency += (t - budget).max(Nanos::ZERO);
            ledger.achievable_residency += (t - min_budget.min(budget)).max(Nanos::ZERO);
            ledger.achieved_energy += achieved;
            ledger.oracle_energy += oracle;
            ledger.c0_energy += c0;
            ledger.unsleepable += u64::from(unsleepable);
            ledger.unsleepable_time += if unsleepable { t } else { Nanos::ZERO };
            let core_off = optimal.depth() >= CState::C6A.depth();
            ledger.deep_opportunities += u64::from(core_off);
            ledger.deep_oracle_savings += if core_off { c0 - oracle } else { Joules::ZERO };
            ledger.deep_achieved_savings += if core_off { c0 - achieved } else { Joules::ZERO };

            // --- windows ---
            if window > Nanos::ZERO {
                let index = cursor.locate(iv.start.as_nanos(), window.as_nanos());
                if windows.len() <= index {
                    windows.resize_with(index + 1, IdleWindow::default);
                }
                let w = &mut windows[index];
                w.intervals += 1;
                w.idle_time += t;
                w.achieved_savings += c0 - achieved;
                w.oracle_savings += c0 - oracle;
                w.sleepable_time += if unsleepable { Nanos::ZERO } else { t };
            }
        }

        let n = durations.len() as u64;
        ledger.intervals = n;
        audit.decisions = n;
        for (c, row) in confusion.iter().enumerate() {
            for (o, &k) in row.iter().enumerate() {
                if k > 0 {
                    audit.confusion.insert((CState::ALL[c], CState::ALL[o]), k);
                    match c.cmp(&o) {
                        std::cmp::Ordering::Equal => audit.exact += k,
                        std::cmp::Ordering::Less => audit.too_shallow += k,
                        std::cmp::Ordering::Greater => audit.too_deep += k,
                    }
                }
            }
        }

        if audit.prediction.predicted > 0 {
            let n = audit.prediction.predicted as f64;
            audit.prediction.mean_abs_error = Nanos::new(abs_err_sum / n);
            audit.prediction.mean_error = Nanos::new(err_sum / n);
        }
        if pct_count > 0 {
            audit.prediction.mean_abs_pct = abs_pct_sum / pct_count as f64;
        }

        // Invariants: the oracle can never do worse than the governor, and
        // the waste buckets must account for the whole gap.
        let tol = EPS * ledger.c0_energy.as_joules().max(1.0);
        assert!(
            ledger.oracle_savings().as_joules() + tol >= ledger.achieved_savings().as_joules(),
            "oracle savings below achieved savings"
        );
        assert!(
            ledger.achievable_residency + Nanos::new(tol) >= ledger.achieved_residency,
            "achievable residency below achieved residency"
        );
        let gap = (ledger.achieved_energy - ledger.oracle_energy).as_joules();
        let buckets = (ledger.too_shallow_waste + ledger.too_deep_waste).as_joules();
        assert!(
            (gap - buckets).abs() <= tol,
            "waste attribution ({buckets} J) does not sum to the achieved-oracle gap ({gap} J)"
        );

        // The Vec is already contiguous from 0; stamp index/start on every
        // slot (gap windows were default-filled during accumulation).
        for (i, w) in windows.iter_mut().enumerate() {
            w.index = i as u64;
            w.start = Nanos::new(i as f64 * window.as_nanos());
        }

        // Each core's quantiles come from its own run of the buffer, then
        // the pooled ones from the whole buffer; selection reorders values
        // but not the multiset, so the order of the two does not matter.
        let per_core = (0..cores)
            .map(|c| folds[c].distribution(Some(c), &mut durations[starts[c]..next[c]]))
            .collect();
        let mut pooled = Fold { sum, min, max, ..Fold::EMPTY };
        for f in &folds {
            for (total, k) in pooled.slots.iter_mut().zip(f.slots) {
                *total += k;
            }
        }
        let pooled = pooled.distribution(None, &mut durations);

        Self { pooled, per_core, audit, ledger, windows, window }
    }
}

impl fmt::Display for IdleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let l = &self.ledger;
        let a = &self.audit;
        writeln!(f, "idle-opportunity report")?;
        writeln!(
            f,
            "  intervals          {:>10}  (idle {:.3} ms across {} cores)",
            l.intervals,
            l.idle_time.as_millis(),
            self.per_core.len()
        )?;
        writeln!(
            f,
            "  idle length        p50 {:.1} us · p90 {:.1} us · p99 {:.1} us · mean {:.1} us",
            self.pooled.p50.as_micros(),
            self.pooled.p90.as_micros(),
            self.pooled.p99.as_micros(),
            self.pooled.mean.as_micros()
        )?;
        writeln!(
            f,
            "  governor audit     {:.1}% optimal ({} exact, {} too-shallow, {} too-deep)",
            100.0 * a.accuracy(),
            a.exact,
            a.too_shallow,
            a.too_deep
        )?;
        if a.prediction.predicted > 0 {
            writeln!(
                f,
                "  prediction         mean err {:+.1} us · mean |err| {:.1} us ({:.0}%) · {} under",
                a.prediction.mean_error.as_micros(),
                a.prediction.mean_abs_error.as_micros(),
                a.prediction.mean_abs_pct,
                a.prediction.underpredictions
            )?;
        }
        writeln!(
            f,
            "  residency          achieved {:.3} ms of {:.3} ms achievable",
            l.achieved_residency.as_millis(),
            l.achievable_residency.as_millis()
        )?;
        writeln!(
            f,
            "  energy             achieved {:.3} mJ saved of {:.3} mJ achievable → recovery {:.1}%",
            l.achieved_savings().as_joules() * 1e3,
            l.oracle_savings().as_joules() * 1e3,
            100.0 * l.recovery()
        )?;
        writeln!(
            f,
            "  waste              too-shallow {:.3} mJ · too-deep {:.3} mJ (+{:.1} us exit exposure)",
            l.too_shallow_waste.as_joules() * 1e3,
            l.too_deep_waste.as_joules() * 1e3,
            l.too_deep_latency.as_micros()
        )?;
        writeln!(
            f,
            "  sleepability       {:.1}% of idle time ({} un-sleepable intervals)",
            100.0 * l.sleepable_share(),
            l.unsleepable
        )?;
        write!(
            f,
            "  deep opportunity   {} intervals · {:.3} mJ achievable → {:.1}% recovered",
            l.deep_opportunities,
            l.deep_oracle_savings.as_joules() * 1e3,
            100.0 * l.deep_recovery()
        )
    }
}

/// A cheap O(n) per-run opportunity summary for fleet roll-ups: just the
/// raw sums a fleet-window aggregation needs, skipping distributions,
/// audit, and windows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpportunitySummary {
    /// Measured idle intervals.
    pub intervals: u64,
    /// Total idle time.
    pub idle_time: Nanos,
    /// Idle time in intervals where some deeper state met its break-even.
    pub sleepable_time: Nanos,
    /// Energy the governor saved vs. staying awake.
    pub achieved_savings: Joules,
    /// Energy the oracle would have saved.
    pub oracle_savings: Joules,
}

impl OpportunitySummary {
    /// Scores `intervals` against `model`, reducing to the fleet sums.
    #[must_use]
    pub fn compute(intervals: &[IdleInterval], model: &BreakEven) -> Self {
        let shallowest = model.shallowest();
        let mut s = Self::default();
        for iv in intervals {
            let t = iv.duration;
            let (optimal, oracle, achieved) = model.score(t, iv.chosen);
            let c0 = model.active_energy(t);
            s.intervals += 1;
            s.idle_time += t;
            s.achieved_savings += c0 - achieved;
            s.oracle_savings += c0 - oracle;
            if optimal != shallowest {
                s.sleepable_time += t;
            }
        }
        s
    }

    /// Opportunity-recovery ratio (1.0 when nothing was achievable).
    #[must_use]
    pub fn recovery(&self) -> f64 {
        ratio(self.achieved_savings.as_joules(), self.oracle_savings.as_joules())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aw_server::HardwareModel;

    fn model() -> BreakEven {
        BreakEven::new(
            &HardwareModel::skylake_sp().base_catalog(),
            &[CState::C1, CState::C1E, CState::C6],
        )
    }

    fn iv(core: u32, start_us: f64, dur_us: f64, chosen: CState) -> IdleInterval {
        let (start, duration) = (Nanos::from_micros(start_us), Nanos::from_micros(dur_us));
        IdleInterval::new(core, start, duration, chosen, Some(Nanos::from_micros(dur_us * 0.8)))
    }

    #[test]
    fn audit_classifies_depth_errors() {
        let m = model();
        // 10 ms in C1 is too shallow; 135 us in C6 never amortizes (too
        // deep); 3 us in C1 is exact.
        let intervals = [
            iv(0, 0.0, 10_000.0, CState::C1),
            iv(1, 10.0, 135.0, CState::C6),
            iv(0, 20.0, 3.0, CState::C1),
        ];
        let r = IdleReport::analyze(&intervals, &m, 2, Nanos::ZERO);
        assert_eq!(r.audit.decisions, 3);
        assert_eq!(r.audit.too_shallow, 1);
        assert_eq!(r.audit.too_deep, 1);
        assert_eq!(r.audit.exact, 1);
        assert_eq!(r.audit.confusion[&(CState::C1, CState::C6)], 1);
        assert!(r.ledger.too_shallow_waste > Joules::ZERO);
        assert!(r.ledger.too_deep_waste > Joules::ZERO);
        assert!(r.ledger.too_deep_latency > Nanos::ZERO);
    }

    #[test]
    fn ledger_invariants_hold_on_random_streams() {
        let m = model();
        // Deterministic pseudo-random lengths over 4 decades.
        let mut x = 0x2545F491_u64;
        let mut intervals = Vec::new();
        for i in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let dur = 2.0 + (x % 10_000) as f64 * 3.1;
            let chosen = match x % 3 {
                0 => CState::C1,
                1 => CState::C1E,
                _ => CState::C6,
            };
            intervals.push(iv(i % 4, i as f64 * 50.0, dur, chosen));
        }
        // analyze() asserts the invariants internally.
        let r = IdleReport::analyze(&intervals, &m, 4, Nanos::from_millis(1.0));
        assert!(r.ledger.oracle_savings() >= r.ledger.achieved_savings());
        assert!(r.ledger.achievable_residency >= r.ledger.achieved_residency);
        assert!(r.ledger.recovery() <= 1.0);
        assert_eq!(r.pooled.count, 500);
        assert_eq!(r.per_core.len(), 4);
        let sum: u64 = r.per_core.iter().map(|d| d.count).sum();
        assert_eq!(sum, 500);
        // Windows tile the run contiguously and account for every interval.
        assert_eq!(r.windows.iter().map(|w| w.intervals).sum::<u64>(), 500);
        for (i, w) in r.windows.iter().enumerate() {
            assert_eq!(w.index, i as u64);
        }
    }

    /// A run under another menu may choose a state this model does not
    /// enable, and one cheaper than any it does: C1 intervals scored
    /// against a C6-only model. The chosen state counts as a candidate,
    /// so the achievable residency still covers the achieved one.
    #[test]
    fn chosen_state_outside_the_enabled_set_bounds_achievable_residency() {
        let m = BreakEven::new(&HardwareModel::skylake_sp().base_catalog(), &[CState::C6]);
        assert!(m.budget(CState::C1) < m.min_budget());
        let t = m.min_budget() * 0.5;
        let intervals: Vec<_> =
            (0..10).map(|i| iv(0, f64::from(i) * 100.0, t.as_micros(), CState::C1)).collect();
        let r = IdleReport::analyze(&intervals, &m, 1, Nanos::ZERO);
        let banked = (t - m.budget(CState::C1)) * 10.0;
        assert!((r.ledger.achieved_residency - banked).as_nanos().abs() < 1e-6);
        assert!(r.ledger.achievable_residency >= r.ledger.achieved_residency);
    }

    #[test]
    fn unsleepable_intervals_count_only_the_shallow_optimum() {
        let m = model();
        // 3 us: only C1 pays off → un-sleepable. 10 ms: C6 pays off.
        let r = IdleReport::analyze(
            &[iv(0, 0.0, 3.0, CState::C1), iv(0, 10.0, 10_000.0, CState::C6)],
            &m,
            1,
            Nanos::ZERO,
        );
        assert_eq!(r.ledger.unsleepable, 1);
        assert_eq!(r.ledger.unsleepable_time, Nanos::from_micros(3.0));
        assert_eq!(r.ledger.deep_opportunities, 1);
        assert!(r.ledger.sleepable_share() > 0.99);
    }

    #[test]
    fn quantiles_are_exact() {
        let m = model();
        let intervals: Vec<_> =
            (1..=100).map(|i| iv(0, i as f64 * 10.0, i as f64, CState::C1)).collect();
        let r = IdleReport::analyze(&intervals, &m, 1, Nanos::ZERO);
        assert_eq!(r.pooled.p50, Nanos::from_micros(50.0));
        assert_eq!(r.pooled.p99, Nanos::from_micros(99.0));
        assert_eq!(r.pooled.min, Nanos::from_micros(1.0));
        assert_eq!(r.pooled.max, Nanos::from_micros(100.0));
    }

    #[test]
    fn summary_matches_full_report() {
        let m = model();
        let intervals: Vec<_> =
            (1..=50).map(|i| iv(i % 3, i as f64 * 20.0, i as f64 * 7.0, CState::C1E)).collect();
        let r = IdleReport::analyze(&intervals, &m, 3, Nanos::ZERO);
        let s = OpportunitySummary::compute(&intervals, &m);
        assert_eq!(s.intervals, r.ledger.intervals);
        assert_eq!(s.idle_time, r.ledger.idle_time);
        // The summary folds per-interval savings; the ledger subtracts two
        // grand totals — identical up to float summation order.
        let close = |a: Joules, b: Joules| (a - b).as_joules().abs() < 1e-9;
        assert!(close(s.achieved_savings, r.ledger.achieved_savings()));
        assert!(close(s.oracle_savings, r.ledger.oracle_savings()));
        assert!((s.recovery() - r.ledger.recovery()).abs() < 1e-9);
    }

    #[test]
    fn prediction_stats_fold_signed_errors() {
        let m = model();
        let at = |start_us, predicted_us| {
            let (start, predicted) =
                (Nanos::from_micros(start_us), Nanos::from_micros(predicted_us));
            IdleInterval::new(0, start, Nanos::from_micros(10.0), CState::C1, Some(predicted))
        };
        let a = at(0.0, 8.0); // err −2
        let b = at(20.0, 14.0); // err +4
        let r = IdleReport::analyze(&[a, b], &m, 1, Nanos::ZERO);
        let p = r.audit.prediction;
        assert_eq!(p.predicted, 2);
        assert_eq!(p.underpredictions, 1);
        assert!((p.mean_error.as_micros() - 1.0).abs() < 1e-9);
        assert!((p.mean_abs_error.as_micros() - 3.0).abs() < 1e-9);
        assert!((p.mean_abs_pct - 30.0).abs() < 1e-9);
    }

    #[test]
    fn display_renders_the_headline_numbers() {
        let m = model();
        let r = IdleReport::analyze(&[iv(0, 0.0, 500.0, CState::C6)], &m, 1, Nanos::ZERO);
        let text = r.to_string();
        assert!(text.contains("idle-opportunity report"));
        assert!(text.contains("recovery"));
        assert!(text.contains("deep opportunity"));
    }

    /// Opt-in microbench behind `--ignored`: times one `analyze` call on
    /// 300k synthetic intervals across 10 cores (the 1 s / 300k-QPS
    /// sweep's volume) — the counting pass, the sweep that scores each
    /// interval and folds the audit, ledger, windows and per-core
    /// histograms, and the exact quantile selection — and then the
    /// `Display` render. The `analyze_overhead` bench in
    /// `scripts/bench.sh` times capture plus analysis; this splits out the
    /// analysis. Run with
    /// `cargo test --release -p aw-sleep -- --ignored --nocapture`.
    #[test]
    #[ignore = "microbench; run with --release --ignored --nocapture"]
    fn analyze_microbench() {
        let m = model();
        let n = 300_000usize;
        let mut intervals = Vec::with_capacity(n);
        for i in 0..n {
            // Deterministic mix of short/medium/long naps across 10 cores.
            let us = 1.0 + (i % 97) as f64 * 7.3;
            intervals.push(iv((i % 10) as u32, (i as f64) * 20.0, us, CState::C1));
        }
        let t0 = std::time::Instant::now();
        let r = IdleReport::analyze(&intervals, &m, 10, Nanos::from_millis(20.0));
        let analyze = t0.elapsed();
        let t1 = std::time::Instant::now();
        let text = r.to_string();
        let render = t1.elapsed();
        assert_eq!(r.ledger.intervals, n as u64);
        assert!(!text.is_empty());
        println!(
            "analyze: {analyze:?} ({:.0} ns/interval), display: {render:?}",
            analyze.as_nanos() as f64 / n as f64
        );
    }
}
