//! Ablations of the design choices DESIGN.md calls out: governor policy,
//! UFPG zone count, cache sleep mode, in-place vs external context
//! retention, and the C6A/C6AE split.

use aw_cstates::{C6Flow, CState, CStateConfig, NamedConfig};
use aw_exec::SweepExecutor;
use aw_pma::{PmaFsm, Ufpg, WakePolicy};
use aw_power::PpaModel;
use aw_server::{GovernorKind, ServerConfig, SimBuilder};
use aw_types::{MegaHertz, MilliWatts, Nanos, Ratio};
use aw_workloads::memcached_etc;

use super::SweepParams;

/// One governor-ablation row.
#[derive(Debug, Clone)]
pub struct GovernorAblationRow {
    /// Governor name.
    pub governor: String,
    /// Average core power (mW).
    pub avg_power_mw: f64,
    /// p99 server latency (µs).
    pub p99_us: f64,
    /// Fraction of time in states deeper than C1 (how aggressive the
    /// policy was).
    pub deep_residency_pct: f64,
}

/// Governor ablation: menu vs ladder vs oracle on the Memcached baseline.
///
/// The oracle bounds what any predictor can achieve; the gap between menu
/// and oracle is the paper's "residency time is hard to guess" problem.
#[must_use]
pub fn governor_ablation(params: &SweepParams, qps: f64) -> Vec<GovernorAblationRow> {
    let kinds = [GovernorKind::Menu, GovernorKind::Ladder, GovernorKind::Oracle];
    SweepExecutor::current().map(&kinds, |&kind| {
        let cfg = ServerConfig::for_hw(params.hw, params.cores, NamedConfig::Baseline)
            .with_duration(params.duration)
            .with_governor(kind);
        let m = SimBuilder::new(cfg, memcached_etc(qps), params.seed).run().into_metrics();
        let deep = m.residency_of(CState::C1E).get()
            + m.residency_of(CState::C6A).get()
            + m.residency_of(CState::C6AE).get()
            + m.residency_of(CState::C6).get();
        GovernorAblationRow {
            governor: format!("{kind:?}"),
            avg_power_mw: m.avg_core_power.as_milliwatts(),
            p99_us: m.server_latency.p99.as_micros(),
            deep_residency_pct: deep * 100.0,
        }
    })
}

/// One zone-count ablation row.
#[derive(Debug, Clone)]
pub struct ZoneAblationRow {
    /// Number of UFPG zones.
    pub zones: usize,
    /// Staggered wake latency (ns).
    pub staggered_latency_ns: f64,
    /// Simultaneous-wake in-rush peak (× AVX reference) — what the zone
    /// split would cost if the PMA fired all `SlpZone` signals at once.
    pub simultaneous_peak: f64,
}

/// Zone-count ablation (Sec. 5.3): the staggered wake time is set by the
/// total area, but the zone count bounds the *damage* of a sequencing bug
/// and the per-zone controller complexity. The paper picks 5 zones so
/// each zone matches the proven AVX power-gate class.
#[must_use]
pub fn zone_count_ablation() -> Vec<ZoneAblationRow> {
    [1usize, 2, 5, 10]
        .iter()
        .map(|&zones| {
            let ufpg = Ufpg::with_zones(zones, 4.5, 32);
            ZoneAblationRow {
                zones,
                staggered_latency_ns: ufpg.wake(WakePolicy::Staggered).latency.as_nanos(),
                simultaneous_peak: ufpg.wake(WakePolicy::Simultaneous).peak_current(),
            }
        })
        .collect()
}

/// Cache sleep-mode ablation: C6A total power with the CCSM sleep
/// transistors versus leaving the L1/L2 arrays at full leakage.
#[derive(Debug, Clone)]
pub struct SleepModeAblation {
    /// C6A power with sleep mode (Table 3 midpoint).
    pub with_sleep_mode: MilliWatts,
    /// C6A power if the arrays stayed at nominal voltage.
    pub without_sleep_mode: MilliWatts,
    /// Extra power burned without sleep mode.
    pub penalty: MilliWatts,
}

/// Computes the sleep-mode ablation from the PPA model: without sleep
/// transistors the cache arrays leak at the full (awake) level — the
/// deepest sleep setting retains only ~25% of that.
#[must_use]
pub fn sleep_mode_ablation() -> SleepModeAblation {
    let with = PpaModel::skylake();
    let mut without = PpaModel::skylake();
    // 55 mW is the slept leakage at the deepest setting (25% of awake):
    // awake leakage ≈ 55 / 0.25 = 220 mW; same for the C6AE column.
    let sleep_fraction = 0.25;
    without.ccsm_caches =
        (without.ccsm_caches.0 / sleep_fraction, without.ccsm_caches.1 / sleep_fraction);
    let a = with.c6a_total().mid();
    let b = without.c6a_total().mid();
    SleepModeAblation { with_sleep_mode: a, without_sleep_mode: b, penalty: b - a }
}

/// Context-retention ablation: the C6A exit with AW's in-place retention
/// versus a design that keeps the power gates but still saves/restores
/// context through the external S/R SRAM (the C6 path).
#[derive(Debug, Clone)]
pub struct RetentionAblation {
    /// Exit latency with in-place retention (measured from the PMA FSM).
    pub in_place_exit: Nanos,
    /// Exit latency restoring from external SRAM (C6 restore stage).
    pub external_exit: Nanos,
    /// Entry latency with in-place retention.
    pub in_place_entry: Nanos,
    /// Entry latency saving to external SRAM (C6 save stage, no flush).
    pub external_entry: Nanos,
}

/// Computes the retention ablation. The external path reuses the C6
/// flow's save/restore stages (~9 µs save at 800 MHz, ~20 µs restore) —
/// the microseconds AW's UFPG exists to eliminate.
#[must_use]
pub fn retention_ablation() -> RetentionAblation {
    let mut fsm = PmaFsm::new_c6a();
    let in_place_entry = fsm.run_entry().expect("fresh FSM is active").total();
    let in_place_exit = fsm.run_exit().expect("idle core can exit").total();

    let c6 = C6Flow::new(MegaHertz::new(800.0), Ratio::new(0.0)); // no flush
    let save: Nanos =
        c6.steps().iter().filter(|s| s.name.contains("save context")).map(|s| s.latency).sum();
    let restore: Nanos =
        c6.steps().iter().filter(|s| s.name.contains("restore")).map(|s| s.latency).sum();
    RetentionAblation {
        in_place_exit,
        external_exit: in_place_exit + restore,
        in_place_entry,
        external_entry: in_place_entry + save,
    }
}

/// The C6A-only vs C6A+C6AE split: how much of AW's savings come from the
/// enhanced (Pn) variant.
#[derive(Debug, Clone)]
pub struct EnhancedSplit {
    /// Savings vs baseline with both C6A and C6AE (percent).
    pub with_c6ae_pct: f64,
    /// Savings vs baseline with only C6A replacing both C1 and C1E
    /// residency (percent).
    pub c6a_only_pct: f64,
}

/// Runs the C6A/C6AE split ablation on Memcached.
#[must_use]
pub fn enhanced_split(params: &SweepParams, qps: f64) -> EnhancedSplit {
    // Three independent runs (baseline + two masks) on the executor.
    let masks = [
        None,
        Some(CStateConfig::new([CState::C6A, CState::C6AE, CState::C6], false)),
        Some(CStateConfig::new([CState::C6A, CState::C6], false)),
    ];
    let runs = SweepExecutor::current().map(&masks, |mask| match mask {
        None => {
            let cfg = ServerConfig::for_hw(params.hw, params.cores, NamedConfig::NtBaseline)
                .with_duration(params.duration);
            SimBuilder::new(cfg, memcached_etc(qps), params.seed).run().into_metrics()
        }
        Some(mask) => {
            let cfg = ServerConfig::for_hw(params.hw, params.cores, NamedConfig::NtAw)
                .with_cstates(mask.clone())
                .with_duration(params.duration);
            SimBuilder::new(cfg, memcached_etc(qps), params.seed).run().into_metrics()
        }
    });
    let (baseline, both, only) = (&runs[0], &runs[1], &runs[2]);
    EnhancedSplit {
        with_c6ae_pct: both.power_savings_vs(baseline).as_percent(),
        c6a_only_pct: only.power_savings_vs(baseline).as_percent(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governor_ablation_produces_three_valid_rows() {
        let rows = governor_ablation(&SweepParams::quick(), 60_000.0);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.avg_power_mw > 100.0 && r.avg_power_mw < 6_000.0, "{r:?}");
            assert!(r.p99_us > 0.0, "{r:?}");
        }
        // The oracle's hint is the *global* next arrival — a lower bound
        // on this core's idle — so it is conservative: it never picks a
        // deeper state than the true idle allows, and its tail latency
        // must not exceed the predictive governors' by much.
        let oracle = rows.iter().find(|r| r.governor == "Oracle").unwrap();
        let menu = rows.iter().find(|r| r.governor == "Menu").unwrap();
        assert!(oracle.p99_us <= menu.p99_us * 1.15, "{} vs {}", oracle.p99_us, menu.p99_us);
    }

    #[test]
    fn zone_ablation_trades_peak_not_latency() {
        let rows = zone_count_ablation();
        for r in &rows {
            assert!((r.staggered_latency_ns - 67.5).abs() < 1e-6, "{r:?}");
        }
        // Simultaneous peak grows with zone count (each zone is smaller
        // but they all fire at once at the same per-zone rate).
        assert!(rows.last().unwrap().simultaneous_peak > rows[0].simultaneous_peak);
    }

    #[test]
    fn sleep_mode_saves_triple_digit_milliwatts() {
        let a = sleep_mode_ablation();
        assert!(a.penalty.as_milliwatts() > 100.0, "{:?}", a);
        assert!(a.with_sleep_mode < a.without_sleep_mode);
    }

    #[test]
    fn in_place_retention_removes_microseconds() {
        let a = retention_ablation();
        assert!(a.in_place_exit.as_nanos() < 80.0);
        assert!(a.external_exit.as_micros() > 15.0);
        assert!(a.external_entry.as_micros() > 5.0);
        // The UFPG headline: 2–3 orders of magnitude on the exit path.
        assert!(a.external_exit / a.in_place_exit > 100.0);
    }

    #[test]
    fn c6ae_adds_savings_when_c1e_time_exists() {
        let split = enhanced_split(&SweepParams::quick(), 60_000.0);
        assert!(split.with_c6ae_pct > 0.0);
        assert!(split.c6a_only_pct > 0.0);
    }
}
