//! Analytical entry/exit flow models for C1, C6 (Fig. 3) and C6A/C6AE
//! (Fig. 6 budget; the cycle-accurate version lives in `aw-pma`).
//!
//! Each flow is an ordered list of [`FlowStep`]s with a latency budget. The
//! C6 model reproduces the paper's Sec. 3 analysis: entry is dominated by
//! the L1/L2 flush (~75 µs for a 50%-dirty cache at 800 MHz) plus ~9 µs of
//! context save to the external SRAM, ~87 µs total; exit is ~30 µs
//! (~10 µs hardware wake + ~20 µs state/microcode restore).

use aw_types::{MegaHertz, Nanos, Ratio};

/// The power-management-agent clock: modern SoC PM controllers run at
/// several hundred MHz to handle nanosecond-scale events (paper fn. 7).
pub const PMA_CLOCK: MegaHertz = MegaHertz::new(500.0);

/// Reference point for the C6 cache-flush model: flushing the ~1.1 MB
/// L1+L2 at 800 MHz with 50% dirty lines takes ~75 µs (Sec. 3).
pub(crate) const SKYLAKE_CACHE_REFERENCE: CacheFlushReference = CacheFlushReference {
    flush_time: Nanos::new(75_000.0),
    dirty_fraction: 0.5,
    frequency: MegaHertz::new(800.0),
};

/// The calibration point for the cache flush model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CacheFlushReference {
    /// Measured flush time at the reference point.
    pub flush_time: Nanos,
    /// Dirty fraction at the reference point.
    pub dirty_fraction: f64,
    /// Core frequency at the reference point.
    pub frequency: MegaHertz,
}

/// Which half of a transition a step belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowPhase {
    /// From MWAIT to the idle power level.
    Entry,
    /// From the wake interrupt to instruction execution.
    Exit,
    /// Servicing a coherence request while idle.
    Snoop,
}

/// One step of a C-state transition flow with its latency budget.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStep {
    /// Entry, exit, or snoop side.
    pub phase: FlowPhase,
    /// Human-readable step name (matches the paper's flow figures).
    pub name: &'static str,
    /// Latency budget for the step.
    pub latency: Nanos,
}

impl FlowStep {
    fn new(phase: FlowPhase, name: &'static str, latency: Nanos) -> Self {
        FlowStep { phase, name, latency }
    }
}

fn phase_total(steps: &[FlowStep], phase: FlowPhase) -> Nanos {
    steps.iter().filter(|s| s.phase == phase).map(|s| s.latency).sum()
}

/// The C1 flow (Fig. 3a): clock-gate on entry, clock-ungate on exit. The
/// hardware latency is a few nanoseconds; the microsecond-scale budget in
/// Table 1 is software overhead (MWAIT execution, interrupt delivery).
#[derive(Debug, Clone, PartialEq)]
pub struct C1Flow {
    steps: Vec<FlowStep>,
}

impl C1Flow {
    /// Builds the C1 flow model.
    #[must_use]
    pub fn new() -> Self {
        let steps = vec![
            FlowStep::new(FlowPhase::Entry, "MWAIT microcode", Nanos::new(950.0)),
            FlowStep::new(FlowPhase::Entry, "halt core pipeline", Nanos::new(40.0)),
            FlowStep::new(FlowPhase::Entry, "clock-gate core (PLL stays on)", Nanos::new(10.0)),
            FlowStep::new(FlowPhase::Exit, "interrupt delivery", Nanos::new(950.0)),
            FlowStep::new(FlowPhase::Exit, "clock-ungate core", Nanos::new(10.0)),
            FlowStep::new(FlowPhase::Exit, "resume execution", Nanos::new(40.0)),
            FlowStep::new(FlowPhase::Snoop, "serve snoop from coherent L1/L2", Nanos::new(50.0)),
        ];
        C1Flow { steps }
    }

    /// Total entry latency.
    #[must_use]
    pub fn entry_latency(&self) -> Nanos {
        phase_total(&self.steps, FlowPhase::Entry)
    }

    /// Total exit latency.
    #[must_use]
    pub fn exit_latency(&self) -> Nanos {
        phase_total(&self.steps, FlowPhase::Exit)
    }
}

impl Default for C1Flow {
    fn default() -> Self {
        C1Flow::new()
    }
}

/// The C6 flow (Fig. 3b): flush L1/L2, save context to external SRAM,
/// power-gate; on exit power-ungate, relock the PLL, restore microcode and
/// context.
///
/// # Examples
///
/// ```
/// use aw_cstates::C6Flow;
/// use aw_types::{MegaHertz, Nanos, Ratio};
///
/// // The paper's reference point: 800 MHz, 50% dirty → ~87 µs entry.
/// let flow = C6Flow::new(MegaHertz::new(800.0), Ratio::new(0.5));
/// let entry = flow.entry_latency().as_micros();
/// assert!((85.0..90.0).contains(&entry), "entry {entry} µs");
/// // Exit is ~30 µs regardless of cache dirtiness.
/// let exit = flow.exit_latency().as_micros();
/// assert!((28.0..32.0).contains(&exit), "exit {exit} µs");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct C6Flow {
    steps: Vec<FlowStep>,
}

impl C6Flow {
    /// Builds the C6 flow for a core at `frequency` with `dirty` fraction
    /// of dirty cache lines, scaling the flush and save/restore stages from
    /// the `SKYLAKE_CACHE_REFERENCE` calibration point.
    ///
    /// Flush time scales linearly with the dirty fraction (only dirty lines
    /// generate writebacks) and inversely with frequency (the flush loop is
    /// core-clocked); save/restore scales inversely with frequency.
    #[must_use]
    pub fn new(frequency: MegaHertz, dirty: Ratio) -> Self {
        let r = SKYLAKE_CACHE_REFERENCE;
        let freq_scale = r.frequency / frequency;
        let dirty_scale = dirty.clamped().get() / r.dirty_fraction;
        let flush = r.flush_time * freq_scale * dirty_scale;
        let save = Nanos::from_micros(9.0) * freq_scale;
        let restore = Nanos::from_micros(20.0);
        let steps = vec![
            FlowStep::new(FlowPhase::Entry, "MWAIT microcode", Nanos::new(950.0)),
            FlowStep::new(FlowPhase::Entry, "flush L1/L2 caches", flush),
            FlowStep::new(FlowPhase::Entry, "save context to S/R SRAM", save),
            FlowStep::new(FlowPhase::Entry, "PMA control handshake", Nanos::from_micros(2.0)),
            FlowStep::new(FlowPhase::Entry, "power-gate core, PLL off", Nanos::from_micros(1.0)),
            FlowStep::new(
                FlowPhase::Exit,
                "power-ungate, PLL relock, reset, fuses",
                Nanos::from_micros(10.0),
            ),
            FlowStep::new(FlowPhase::Exit, "restore microcode + context from SRAM", restore),
        ];
        C6Flow { steps }
    }

    /// The ordered flow steps.
    #[must_use]
    pub fn steps(&self) -> &[FlowStep] {
        &self.steps
    }

    /// Total entry latency (flush-dominated).
    #[must_use]
    pub fn entry_latency(&self) -> Nanos {
        phase_total(&self.steps, FlowPhase::Entry)
    }

    /// Total exit latency (restore-dominated).
    #[must_use]
    pub fn exit_latency(&self) -> Nanos {
        phase_total(&self.steps, FlowPhase::Exit)
    }

    /// Total round-trip transition time (entry + exit), the Table 1 figure.
    #[must_use]
    pub fn transition_time(&self) -> Nanos {
        self.entry_latency() + self.exit_latency()
    }
}

/// The C6A/C6AE analytical flow budget (Fig. 6, Sec. 5.2).
///
/// Cycle counts at the 500 MHz PMA clock:
///
/// * entry ①–③: clock-gate (1–2 cy) + in-place save (3–4 cy) + cache
///   sleep & clock-gate (1–3 cy) → < 10 cycles ≈ < 20 ns;
/// * exit ④–⑥: cache wake (2 cy) + staggered power-ungate (< 70 ns) +
///   SRPG restore (1 cy) + clock-ungate (1–2 cy) → < 80 ns;
/// * snoop ⓐ–ⓒ: cache wake (2 cy) + service + re-sleep (1–3 cy).
///
/// # Examples
///
/// ```
/// use aw_cstates::C6AFlow;
///
/// let flow = C6AFlow::new();
/// assert!(flow.entry_latency().as_nanos() < 20.0);
/// assert!(flow.exit_latency().as_nanos() < 80.0);
/// assert!(flow.round_trip().as_nanos() < 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct C6AFlow {
    steps: Vec<FlowStep>,
}

impl C6AFlow {
    /// Builds the C6A flow budget with the paper's worst-case cycle counts.
    #[must_use]
    pub fn new() -> Self {
        let cy = PMA_CLOCK.period();
        let steps = vec![
            FlowStep::new(FlowPhase::Entry, "① clock-gate UFPG domain (PLL on)", cy * 2.0),
            FlowStep::new(FlowPhase::Entry, "② assert Ret, deassert Pwr (in-place save)", cy * 4.0),
            FlowStep::new(FlowPhase::Entry, "③ caches to sleep-mode + clock-gate", cy * 3.0),
            FlowStep::new(FlowPhase::Exit, "④ cache clock-ungate + sleep exit", cy * 2.0),
            FlowStep::new(FlowPhase::Exit, "⑤ staggered power-ungate 5 zones", Nanos::new(67.5)),
            FlowStep::new(FlowPhase::Exit, "⑤ deassert Ret (SRPG restore)", cy * 1.0),
            FlowStep::new(FlowPhase::Exit, "⑥ clock-ungate all domains", cy * 2.0),
            FlowStep::new(FlowPhase::Snoop, "ⓐ cache wake (tag access ‖ array wake)", cy * 2.0),
            FlowStep::new(FlowPhase::Snoop, "ⓒ re-enter sleep-mode", cy * 3.0),
        ];
        C6AFlow { steps }
    }

    /// Total entry latency (steps ①–③).
    #[must_use]
    pub fn entry_latency(&self) -> Nanos {
        phase_total(&self.steps, FlowPhase::Entry)
    }

    /// Total exit latency (steps ④–⑥).
    #[must_use]
    pub fn exit_latency(&self) -> Nanos {
        phase_total(&self.steps, FlowPhase::Exit)
    }

    /// Entry followed directly by exit — the paper's "<100 ns" headline.
    #[must_use]
    pub fn round_trip(&self) -> Nanos {
        self.entry_latency() + self.exit_latency()
    }
}

impl Default for C6AFlow {
    fn default() -> Self {
        C6AFlow::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c1_hw_latency_is_nanoseconds() {
        let f = C1Flow::new();
        // Excluding the software steps, C1 hardware work is tens of ns.
        let hw: Nanos = f
            .steps
            .iter()
            .filter(|s| !s.name.contains("MWAIT") && !s.name.contains("interrupt"))
            .map(|s| s.latency)
            .sum();
        assert!(hw < Nanos::new(200.0));
        // Including software, entry+exit ≈ the 2 µs Table 1 budget.
        let total = f.entry_latency() + f.exit_latency();
        assert!((1.8..=2.2).contains(&total.as_micros()), "total {total}");
    }

    #[test]
    fn c6_flush_scales_with_dirty_fraction() {
        let base = C6Flow::new(MegaHertz::new(800.0), Ratio::new(0.5));
        let clean = C6Flow::new(MegaHertz::new(800.0), Ratio::new(0.25));
        assert!(clean.entry_latency() < base.entry_latency());
        // Halving dirtiness roughly halves the flush component (~37.5 µs).
        let delta = base.entry_latency() - clean.entry_latency();
        assert!((35.0..40.0).contains(&delta.as_micros()), "delta {delta}");
    }

    #[test]
    fn c6_flush_scales_inverse_with_frequency() {
        let slow = C6Flow::new(MegaHertz::new(800.0), Ratio::new(0.5));
        let fast = C6Flow::new(MegaHertz::from_ghz(2.2), Ratio::new(0.5));
        assert!(fast.entry_latency() < slow.entry_latency());
    }

    #[test]
    fn c6_exit_independent_of_dirty() {
        let a = C6Flow::new(MegaHertz::new(800.0), Ratio::new(0.1));
        let b = C6Flow::new(MegaHertz::new(800.0), Ratio::new(0.9));
        assert_eq!(a.exit_latency(), b.exit_latency());
    }

    #[test]
    fn c6_roundtrip_order_of_table1() {
        // At 800 MHz / 50% dirty, entry+exit ≈ 117 µs; Table 1 quotes a
        // 133 µs worst case (higher dirtiness). Check the order holds.
        let f = C6Flow::new(MegaHertz::new(800.0), Ratio::new(0.5));
        let t = f.transition_time().as_micros();
        assert!((100.0..140.0).contains(&t), "round trip {t} µs");
        let worst = C6Flow::new(MegaHertz::new(800.0), Ratio::new(0.62));
        assert!(worst.transition_time().as_micros() > 125.0);
    }

    #[test]
    fn c6a_budget_matches_paper() {
        let f = C6AFlow::new();
        assert!(f.entry_latency() < Nanos::new(20.0), "entry {}", f.entry_latency());
        assert!(f.exit_latency() < Nanos::new(80.0), "exit {}", f.exit_latency());
        assert!(f.round_trip() < Nanos::new(100.0));
    }

    #[test]
    fn c6a_vs_c6_speedup_three_orders() {
        let c6 = C6Flow::new(MegaHertz::new(800.0), Ratio::new(0.6));
        let c6a = C6AFlow::new();
        let speedup = c6.transition_time() / c6a.round_trip();
        assert!(speedup > 900.0, "speedup {speedup}");
    }

    #[test]
    fn snoop_overhead_is_cycles() {
        let f = C6AFlow::new();
        // 5 PMA cycles at 2 ns = 10 ns of wake + re-sleep overhead.
        assert_eq!(phase_total(&f.steps, FlowPhase::Snoop), Nanos::new(10.0));
    }

    #[test]
    fn phases_partition_steps() {
        let f = C6AFlow::new();
        let total: Nanos = f.steps.iter().map(|s| s.latency).sum();
        let snoop = phase_total(&f.steps, FlowPhase::Snoop);
        assert_eq!(total, f.entry_latency() + f.exit_latency() + snoop);
    }
}
