//! Differential oracle for [`IdleReport::analyze`]: a reference kept in
//! its earlier shape — a per-state cost table with a branch per
//! candidate, one growing duration vector per core plus a pooled one, and
//! a distribution built by recording every duration into a histogram —
//! must agree with the one-sweep analyzer on every export byte and on
//! the bits of every report field. The one field left out is
//! `IdleDistribution::histogram.mean()`, which the analyzer takes from
//! its folded sum rather than a running mean (no export reads it).

use aw_cstates::{CState, CStateCatalog};
use aw_server::{HardwareModel, IdleInterval};
use aw_sleep::{BreakEven, IdleDistribution, IdleReport};
use aw_types::Nanos;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

mod reference {
    use std::collections::BTreeMap;

    use aw_cstates::{CState, CStateCatalog, FreqLevel};
    use aw_server::IdleInterval;
    use aw_sim::select_quantiles;
    use aw_sleep::{GovernorAudit, IdleDistribution, IdleReport, IdleWindow, OpportunityLedger};
    use aw_telemetry::LogHistogram;
    use aw_types::{Joules, MilliWatts, Nanos};

    #[derive(Clone, Copy)]
    struct StateCost {
        budget: Nanos,
        ramp: MilliWatts,
        resident: MilliWatts,
    }

    /// The break-even model with a branch on each candidate's budget.
    pub(crate) struct Model {
        active: MilliWatts,
        costs: [Option<StateCost>; CState::ALL.len()],
        enabled: Vec<CState>,
    }

    impl Model {
        pub(crate) fn new(catalog: &CStateCatalog, enabled: &[CState]) -> Self {
            let active = catalog.power(CState::C0, FreqLevel::P1);
            let mut costs = [None; CState::ALL.len()];
            for s in catalog.states() {
                let p = catalog.params(s);
                let resident = p.power(FreqLevel::P1);
                let cost = if s == CState::C0 {
                    StateCost { budget: Nanos::ZERO, ramp: active, resident: active }
                } else {
                    StateCost {
                        budget: p.entry_latency + p.exit_latency,
                        ramp: (active + resident) * 0.5,
                        resident,
                    }
                };
                costs[s.depth() as usize] = Some(cost);
            }
            let mut enabled: Vec<CState> = enabled
                .iter()
                .copied()
                .filter(|s| s.is_idle() && catalog.get(*s).is_some())
                .collect();
            enabled.sort_by_key(|s| s.depth());
            enabled.dedup();
            Self { active, costs, enabled }
        }

        fn cost(&self, state: CState) -> StateCost {
            self.costs[state.depth() as usize].expect("state in the catalog")
        }

        pub(crate) fn budget(&self, state: CState) -> Nanos {
            self.cost(state).budget
        }

        fn min_budget(&self) -> Nanos {
            self.enabled.iter().map(|s| self.budget(*s)).reduce(Nanos::min).expect("non-empty")
        }

        fn energy(&self, state: CState, interval: Nanos) -> Joules {
            let c = self.cost(state);
            let ramp_time = interval.min(c.budget);
            let resident_time = (interval - c.budget).max(Nanos::ZERO);
            c.ramp * ramp_time + c.resident * resident_time
        }

        pub(crate) fn score(&self, interval: Nanos, chosen: CState) -> (CState, Joules, Joules) {
            let mut best = self.enabled[0];
            let mut best_energy = self.energy(best, interval);
            let mut chosen_energy = (chosen == best).then_some(best_energy);
            let deeper = self.enabled.iter().copied().skip(1);
            for s in deeper.chain(std::iter::once(chosen)).filter(|s| s.is_idle()) {
                if s != chosen && interval < self.budget(s) {
                    continue;
                }
                let e = self.energy(s, interval);
                if s == chosen {
                    chosen_energy = Some(e);
                }
                if e < best_energy {
                    best = s;
                    best_energy = e;
                }
            }
            let chosen_energy = chosen_energy.unwrap_or_else(|| self.energy(chosen, interval));
            (best, best_energy, chosen_energy)
        }
    }

    fn build(core: Option<usize>, durations: &mut [f64]) -> IdleDistribution {
        let mut histogram = LogHistogram::new();
        let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for &d in durations.iter() {
            histogram.record(d);
            min = min.min(d);
            max = max.max(d);
            sum += d;
        }
        let count = durations.len() as u64;
        let [p50, p90, p99] = if durations.is_empty() {
            [0.0; 3]
        } else {
            select_quantiles(durations, [0.50, 0.90, 0.99])
        };
        IdleDistribution {
            core,
            count,
            histogram,
            min: if count == 0 { Nanos::ZERO } else { Nanos::new(min) },
            max: if count == 0 { Nanos::ZERO } else { Nanos::new(max) },
            mean: if count == 0 { Nanos::ZERO } else { Nanos::new(sum / count as f64) },
            p50: Nanos::new(p50),
            p90: Nanos::new(p90),
            p99: Nanos::new(p99),
        }
    }

    pub(crate) fn analyze(
        intervals: &[IdleInterval],
        model: &Model,
        cores: usize,
        window: Nanos,
    ) -> IdleReport {
        let mut pooled_durations = Vec::new();
        let mut per_core_durations: Vec<Vec<f64>> = vec![Vec::new(); cores];
        let mut audit = GovernorAudit::default();
        let mut ledger = OpportunityLedger::default();
        let mut windows: Vec<IdleWindow> = Vec::new();
        let min_budget = model.min_budget();
        let shallowest = model.enabled[0];
        let (mut abs_err_sum, mut err_sum, mut abs_pct_sum, mut pct_count) = (0.0, 0.0, 0.0, 0);
        let mut confusion = BTreeMap::new();
        for iv in intervals.iter().filter(|iv| iv.measured) {
            let t = iv.duration;
            pooled_durations.push(t.as_nanos());
            if iv.core < cores {
                per_core_durations[iv.core].push(t.as_nanos());
            }
            let (optimal, oracle, achieved) = model.score(t, iv.chosen);
            let c0 = model.active * t;
            let waste = achieved - oracle;
            audit.decisions += 1;
            *confusion.entry((iv.chosen, optimal)).or_insert(0) += 1;
            match iv.chosen.depth().cmp(&optimal.depth()) {
                std::cmp::Ordering::Equal => audit.exact += 1,
                std::cmp::Ordering::Less => {
                    audit.too_shallow += 1;
                    ledger.too_shallow_waste += waste;
                }
                std::cmp::Ordering::Greater => {
                    audit.too_deep += 1;
                    ledger.too_deep_waste += waste;
                    ledger.too_deep_latency +=
                        (model.budget(iv.chosen) - model.budget(optimal)).max(Nanos::ZERO);
                }
            }
            if let Some(p) = iv.predicted {
                audit.prediction.predicted += 1;
                let err = (p - t).as_nanos();
                err_sum += err;
                abs_err_sum += err.abs();
                if err < 0.0 {
                    audit.prediction.underpredictions += 1;
                }
                if t.as_nanos() > 0.0 {
                    abs_pct_sum += 100.0 * err.abs() / t.as_nanos();
                    pct_count += 1;
                }
            }
            ledger.intervals += 1;
            ledger.idle_time += t;
            let budget = model.budget(iv.chosen);
            ledger.achieved_residency += (t - budget).max(Nanos::ZERO);
            ledger.achievable_residency += (t - min_budget.min(budget)).max(Nanos::ZERO);
            ledger.achieved_energy += achieved;
            ledger.oracle_energy += oracle;
            ledger.c0_energy += c0;
            if optimal == shallowest {
                ledger.unsleepable += 1;
                ledger.unsleepable_time += t;
            }
            if optimal.depth() >= CState::C6A.depth() {
                ledger.deep_opportunities += 1;
                ledger.deep_oracle_savings += c0 - oracle;
                ledger.deep_achieved_savings += c0 - achieved;
            }
            if window > Nanos::ZERO {
                let index = (iv.start.as_nanos() / window.as_nanos()).floor() as usize;
                if windows.len() <= index {
                    windows.resize_with(index + 1, IdleWindow::default);
                }
                let w = &mut windows[index];
                w.intervals += 1;
                w.idle_time += t;
                w.achieved_savings += c0 - achieved;
                w.oracle_savings += c0 - oracle;
                if optimal != shallowest {
                    w.sleepable_time += t;
                }
            }
        }
        audit.confusion = confusion;
        if audit.prediction.predicted > 0 {
            let n = audit.prediction.predicted as f64;
            audit.prediction.mean_abs_error = Nanos::new(abs_err_sum / n);
            audit.prediction.mean_error = Nanos::new(err_sum / n);
        }
        if pct_count > 0 {
            audit.prediction.mean_abs_pct = abs_pct_sum / pct_count as f64;
        }
        for (i, w) in windows.iter_mut().enumerate() {
            w.index = i as u64;
            w.start = Nanos::new(i as f64 * window.as_nanos());
        }
        let pooled = build(None, &mut pooled_durations);
        let per_core =
            per_core_durations.iter_mut().enumerate().map(|(i, d)| build(Some(i), d)).collect();
        IdleReport { pooled, per_core, audit, ledger, windows, window }
    }
}

/// One generated analysis: a catalog, a menu, a core count, a window and
/// the intervals.
#[derive(Debug)]
struct Case {
    catalog: CStateCatalog,
    menu: Vec<CState>,
    cores: usize,
    window: f64,
    intervals: Vec<IdleInterval>,
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn next_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

fn next_down(x: f64) -> f64 {
    -next_up(-x)
}

/// A duration drawn to hit the model's edges: every catalog budget
/// (where the budget skip decides) and the floats either side of it,
/// zero, sub-nanosecond, slightly negative and repeated values, and a
/// log-uniform spread from 1 ns to 10 ms.
fn duration(rng: &mut TestRng, budgets: &[f64], last: f64) -> f64 {
    match rng.below(9) {
        0 | 1 => pick(rng, budgets),
        2 => next_down(pick(rng, budgets)),
        3 => next_up(pick(rng, budgets)),
        4 => pick(rng, &[0.0, 0.25, 0.999, 1.0, -0.5, -3.0]),
        5 => last,
        _ => 10f64.powf(7.0 * rng.uniform()),
    }
}

/// A start time that walks forward through the windows, landing on window
/// edges, the floats either side of them, or inside a window.
fn start(rng: &mut TestRng, window: f64, walk: &mut f64) -> f64 {
    *walk += 3e5 * rng.uniform();
    if window <= 0.0 {
        return *walk;
    }
    let edge = (*walk / window).floor() * window;
    match rng.below(5) {
        0 => edge,
        1 => next_down(edge).max(0.0),
        2 => next_up(edge),
        _ => *walk,
    }
}

fn case(rng: &mut TestRng) -> Case {
    let hw = pick(rng, &[HardwareModel::skylake_sp(), HardwareModel::zen2()]);
    let catalog = if rng.below(3) == 0 { hw.base_catalog() } else { hw.catalog() };
    let states = catalog.states();
    let idle: Vec<CState> = states.iter().copied().filter(|s| s.is_idle()).collect();
    // Menus come in any order, may repeat a state, and may name C0 or a
    // state the catalog lacks; the model ignores those.
    let mut menu: Vec<CState> = (0..rng.below(7)).map(|_| pick(rng, &CState::ALL)).collect();
    menu.push(pick(rng, &idle));
    let budgets: Vec<f64> = idle
        .iter()
        .map(|s| {
            let p = catalog.params(*s);
            (p.entry_latency + p.exit_latency).as_nanos()
        })
        .collect();
    let cores = 1 + rng.below(12) as usize;
    let window = pick(rng, &[0.0, 1e6, 2e8, 0.7e6, 1e6 / 3.0]);
    let n = rng.below(300) as usize;
    let (mut walk, mut last) = (0.0, 1_000.0);
    let intervals = (0..n)
        .map(|_| {
            let d = duration(rng, &budgets, last);
            last = d;
            IdleInterval {
                core: rng.below(cores as u64 + 3) as usize,
                start: Nanos::new(start(rng, window, &mut walk)),
                duration: Nanos::new(d),
                chosen: pick(rng, &states),
                predicted: (rng.below(4) > 0)
                    .then(|| Nanos::new(d * (0.25 + 1.5 * rng.uniform()) - 50.0)),
                measured: rng.below(8) > 0,
            }
        })
        .collect();
    Case { catalog, menu, cores, window, intervals }
}

/// Bits of every distribution field but the histogram's mean.
fn distribution_bits(d: &IdleDistribution) -> Vec<u64> {
    let mut bits = vec![
        d.core.map_or(u64::MAX, |c| c as u64),
        d.count,
        d.min.as_nanos().to_bits(),
        d.max.as_nanos().to_bits(),
        d.mean.as_nanos().to_bits(),
        d.p50.as_nanos().to_bits(),
        d.p90.as_nanos().to_bits(),
        d.p99.as_nanos().to_bits(),
        d.histogram.count(),
        d.histogram.rejected(),
        d.histogram.max().to_bits(),
        d.histogram.quantile_upper_bound(0.5).to_bits(),
    ];
    bits.extend(d.histogram.buckets().flat_map(|(i, n)| [i as u64, n]));
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn one_sweep_matches_the_reference_analyzer(
        c in Just(()).prop_perturb(|(), mut rng| case(&mut rng))
    ) {
        let model = BreakEven::new(&c.catalog, &c.menu);
        let window = Nanos::new(c.window);
        let got = IdleReport::analyze(&c.intervals, &model, c.cores, window);
        let reference = reference::Model::new(&c.catalog, &c.menu);
        let want = reference::analyze(&c.intervals, &reference, c.cores, window);

        prop_assert_eq!(got.to_json(), want.to_json());
        prop_assert_eq!(got.to_csv(), want.to_csv());
        prop_assert_eq!(got.folded_stack(), want.folded_stack());
        prop_assert_eq!(got.to_string(), want.to_string());
        // `Debug` prints every float in its shortest round-trip form, so
        // equal text means equal bits (and tells −0 from +0).
        prop_assert_eq!(format!("{:?}", got.ledger), format!("{:?}", want.ledger));
        prop_assert_eq!(format!("{:?}", got.audit), format!("{:?}", want.audit));
        prop_assert_eq!(format!("{:?}", got.windows), format!("{:?}", want.windows));
        prop_assert_eq!(got.window.as_nanos().to_bits(), want.window.as_nanos().to_bits());
        prop_assert_eq!(distribution_bits(&got.pooled), distribution_bits(&want.pooled));
        prop_assert_eq!(got.per_core.len(), want.per_core.len());
        for (g, w) in got.per_core.iter().zip(&want.per_core) {
            prop_assert_eq!(distribution_bits(g), distribution_bits(w));
        }
    }

    #[test]
    fn score_matches_the_reference_model(
        c in Just(()).prop_perturb(|(), mut rng| case(&mut rng))
    ) {
        let model = BreakEven::new(&c.catalog, &c.menu);
        let reference = reference::Model::new(&c.catalog, &c.menu);
        for iv in &c.intervals {
            let (s, oracle, achieved) = model.score(iv.duration, iv.chosen);
            let (rs, roracle, rachieved) = reference.score(iv.duration, iv.chosen);
            prop_assert_eq!(s, rs);
            prop_assert_eq!(oracle.as_joules().to_bits(), roracle.as_joules().to_bits());
            prop_assert_eq!(achieved.as_joules().to_bits(), rachieved.as_joules().to_bits());
            prop_assert_eq!(model.optimal(iv.duration, iv.chosen), rs);
            prop_assert_eq!(model.budget(iv.chosen), reference.budget(iv.chosen));
        }
    }
}
