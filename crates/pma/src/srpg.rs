//! State-retention power gates (SRPG) — Fig. 5(c).
//!
//! An SRPG flop carries a shadow latch on the always-on rail. Asserting
//! `Ret` copies the main flop into the shadow; the main rail (`Pwr`) can
//! then drop. On wake, power is restored first, then `Ret` deasserts and
//! the shadow drives the main flop. The model enforces the legal signal
//! ordering — retention before power-down, power-up before restore — and
//! detects state loss if the protocol is violated.

use aw_types::Cycles;

/// The two control signals of an SRPG bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetentionSignal {
    /// `Ret`: high copies/holds state in the shadow latch.
    Ret(bool),
    /// `Pwr`: high powers the main (gated) rail.
    Pwr(bool),
}

/// A bank of state-retention flops with its context payload.
///
/// Tracks the protocol state machine and cycle cost: save (assert `Ret`,
/// deassert `Pwr`) takes 3–4 PMA cycles; restore (assert `Pwr`, deassert
/// `Ret`) takes 1 cycle after power is good (Sec. 5.2).
///
/// # Examples
///
/// ```
/// use aw_pma::{RetentionSignal, SrpgBank};
///
/// let mut bank = SrpgBank::default();
/// bank.write(0xDEAD_BEEF);
/// let save = bank.save();       // Ret↑ then Pwr↓
/// let restore = bank.restore(); // Pwr↑ then Ret↓
/// assert_eq!(bank.read(), Some(0xDEAD_BEEF));
/// assert!(save + restore <= aw_types::Cycles::new(5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrpgBank {
    /// Live value in the main flops (None when the rail is down).
    main: Option<u64>,
    /// Value held in the shadow latch while `Ret` is asserted.
    shadow: Option<u64>,
    ret: bool,
    pwr: bool,
    /// Set if a protocol violation destroyed state.
    corrupted: bool,
}

impl Default for SrpgBank {
    /// A powered bank for the core context (the paper estimates ~8 kB for
    /// a Skylake-class core).
    fn default() -> Self {
        SrpgBank { main: Some(0), shadow: None, ret: false, pwr: true, corrupted: false }
    }
}

impl SrpgBank {
    /// Writes a value into the main flops.
    ///
    /// # Panics
    ///
    /// Panics if the rail is powered down (writes target live flops).
    pub fn write(&mut self, value: u64) {
        assert!(self.pwr, "cannot write a power-gated bank");
        self.main = Some(value);
    }

    /// Reads the live value, or `None` if the rail is down or state was
    /// lost to a protocol violation.
    #[must_use]
    pub fn read(&self) -> Option<u64> {
        if self.corrupted || !self.pwr {
            None
        } else {
            self.main
        }
    }

    /// `true` once a protocol violation has destroyed state.
    #[must_use]
    pub fn is_corrupted(&self) -> bool {
        self.corrupted
    }

    /// Applies one control signal, modeling the hardware consequences of
    /// illegal orderings (dropping `Pwr` without `Ret` loses state).
    pub fn apply(&mut self, signal: RetentionSignal) {
        match signal {
            RetentionSignal::Ret(true) => {
                if self.pwr {
                    self.shadow = self.main;
                }
                self.ret = true;
            }
            RetentionSignal::Ret(false) => {
                if self.pwr {
                    // Restore: the shadow drives the main flop.
                    if let Some(v) = self.shadow {
                        self.main = Some(v);
                    }
                } else {
                    // Dropping retention with the rail down loses state.
                    self.shadow = None;
                    self.corrupted = true;
                }
                self.ret = false;
            }
            RetentionSignal::Pwr(false) => {
                if !self.ret {
                    // Power-gating without retention destroys the context.
                    self.corrupted = true;
                    self.shadow = None;
                }
                self.main = None;
                self.pwr = false;
            }
            RetentionSignal::Pwr(true) => {
                self.pwr = true;
                if self.main.is_none() {
                    // Rail back up; main flops power up to garbage until
                    // Ret deasserts and the shadow drives them.
                    self.main = Some(0);
                }
            }
        }
    }

    /// The C6A entry sequence for this bank: assert `Ret`, drop `Pwr`.
    /// Returns the cycle cost (Sec. 5.2.1: 3–4 cycles; we model 4).
    pub fn save(&mut self) -> Cycles {
        self.apply(RetentionSignal::Ret(true));
        self.apply(RetentionSignal::Pwr(false));
        Cycles::new(4)
    }

    /// The C6A exit sequence: restore `Pwr`, deassert `Ret`. Returns the
    /// cycle cost (1 cycle after power-good).
    pub fn restore(&mut self) -> Cycles {
        self.apply(RetentionSignal::Pwr(true));
        self.apply(RetentionSignal::Ret(false));
        Cycles::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_restore_round_trip() {
        let mut b = SrpgBank::default();
        b.write(42);
        b.save();
        assert_eq!(b.read(), None, "rail is down");
        b.restore();
        assert_eq!(b.read(), Some(42));
        assert!(!b.is_corrupted());
    }

    #[test]
    fn repeated_round_trips_preserve_state() {
        let mut b = SrpgBank::default();
        b.write(7);
        for _ in 0..10 {
            b.save();
            b.restore();
        }
        assert_eq!(b.read(), Some(7));
    }

    #[test]
    fn power_gating_without_retention_corrupts() {
        let mut b = SrpgBank::default();
        b.write(99);
        b.apply(RetentionSignal::Pwr(false)); // no Ret first!
        b.apply(RetentionSignal::Pwr(true));
        assert!(b.is_corrupted());
        assert_eq!(b.read(), None);
    }

    #[test]
    fn dropping_ret_while_gated_corrupts() {
        let mut b = SrpgBank::default();
        b.write(5);
        b.save();
        b.apply(RetentionSignal::Ret(false)); // rail still down!
        b.apply(RetentionSignal::Pwr(true));
        assert!(b.is_corrupted());
    }

    #[test]
    fn cycle_budget_matches_paper() {
        let mut b = SrpgBank::default();
        let save = b.save();
        let restore = b.restore();
        assert!(save <= Cycles::new(4));
        assert_eq!(restore, Cycles::new(1));
    }

    #[test]
    #[should_panic(expected = "power-gated")]
    fn write_while_gated_panics() {
        let mut b = SrpgBank::default();
        b.save();
        b.write(1);
    }

    #[test]
    fn overwrite_then_save_keeps_latest() {
        let mut b = SrpgBank::default();
        b.write(1);
        b.write(2);
        b.save();
        b.restore();
        assert_eq!(b.read(), Some(2));
    }
}
