//! The C-state and P-state identifier types.

use std::fmt;

/// A CPU core idle power state (C-state).
///
/// The four legacy Skylake states (C0, C1, C1E, C6) plus the two AgileWatts
/// states (C6A, C6AE). Depth ordering follows power: deeper states consume
/// less power and (for legacy states) take longer to transition.
///
/// # Examples
///
/// ```
/// use aw_cstates::CState;
///
/// assert_eq!(CState::C6A.replaces(), Some(CState::C1));
/// assert_eq!(CState::C6AE.replaces(), Some(CState::C1E));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CState {
    /// Active: the core is executing instructions.
    C0,
    /// Shallow idle: clocks stopped, everything else live (~1.44 W).
    C1,
    /// Shallow idle at minimum voltage/frequency (~0.88 W).
    C1E,
    /// AgileWatts agile deep idle: UFPG power-gated with in-place retention,
    /// caches in sleep mode, PLL locked (~0.3 W, ~100 ns hardware
    /// transition). Replaces C1.
    C6A,
    /// C6A Enhanced: C6A at minimum voltage level (~0.23 W). Replaces C1E.
    C6AE,
    /// Legacy deep idle: core power shut off, caches flushed, context
    /// saved to SRAM (~0.1 W, ~133 µs transition).
    C6,
}

impl CState {
    /// All states, shallowest to deepest by power.
    pub const ALL: [CState; 6] =
        [CState::C0, CState::C1, CState::C1E, CState::C6A, CState::C6AE, CState::C6];

    /// The idle states (everything but C0), shallowest first.
    pub const IDLE: [CState; 5] = [CState::C1, CState::C1E, CState::C6A, CState::C6AE, CState::C6];

    /// Depth rank by idle power: higher means lower power.
    ///
    /// C0 < C1 < C1E < C6A < C6AE < C6 (per Table 1's power column).
    #[must_use]
    pub fn depth(self) -> u8 {
        match self {
            CState::C0 => 0,
            CState::C1 => 1,
            CState::C1E => 2,
            CState::C6A => 3,
            CState::C6AE => 4,
            CState::C6 => 5,
        }
    }

    /// `true` for an idle state (anything but C0).
    #[must_use]
    pub fn is_idle(self) -> bool {
        self != CState::C0
    }

    /// The legacy state this AW state replaces (Sec. 4): C6A→C1, C6AE→C1E.
    /// `None` for legacy states.
    #[must_use]
    pub fn replaces(self) -> Option<CState> {
        match self {
            CState::C6A => Some(CState::C1),
            CState::C6AE => Some(CState::C1E),
            _ => None,
        }
    }

    /// The AW state that replaces this legacy state, if any: C1→C6A,
    /// C1E→C6AE.
    #[must_use]
    pub fn agile_replacement(self) -> Option<CState> {
        match self {
            CState::C1 => Some(CState::C6A),
            CState::C1E => Some(CState::C6AE),
            _ => None,
        }
    }

    /// The frequency/voltage level the core sits at while in this state.
    #[must_use]
    pub fn freq_level(self) -> FreqLevel {
        match self {
            CState::C1E | CState::C6AE => FreqLevel::Pn,
            _ => FreqLevel::P1,
        }
    }
}

impl fmt::Display for CState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CState::C0 => "C0",
            CState::C1 => "C1",
            CState::C1E => "C1E",
            CState::C6A => "C6A",
            CState::C6AE => "C6AE",
            CState::C6 => "C6",
        };
        f.write_str(name)
    }
}

/// A performance (frequency/voltage) level.
///
/// The evaluation disables P-states, so only the base frequency **P1**
/// (2.2 GHz on the modeled Xeon 4114) and the minimum level **Pn**
/// (0.8 GHz) appear; Turbo is modeled separately as an opportunistic boost
/// above P1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FreqLevel {
    /// Base frequency (guaranteed all-core frequency).
    P1,
    /// Minimum operational frequency/voltage.
    Pn,
}

impl fmt::Display for FreqLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FreqLevel::P1 => "P1",
            FreqLevel::Pn => "Pn",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_is_strictly_increasing() {
        for w in CState::ALL.windows(2) {
            assert!(w[1].depth() > w[0].depth(), "{} should be deeper than {}", w[1], w[0]);
        }
    }

    #[test]
    fn derived_ord_is_depth_order() {
        // `CStateConfig::iter_enabled` walks its set in `Ord` order and
        // promises shallowest-first, so the two orders must agree.
        for a in CState::ALL {
            for b in CState::ALL {
                assert_eq!(a.cmp(&b), a.depth().cmp(&b.depth()), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn idle_excludes_c0() {
        assert!(!CState::C0.is_idle());
        for s in CState::IDLE {
            assert!(s.is_idle());
        }
    }

    #[test]
    fn replacement_mapping_is_inverse() {
        for s in CState::ALL {
            if let Some(legacy) = s.replaces() {
                assert_eq!(legacy.agile_replacement(), Some(s));
            }
            if let Some(agile) = s.agile_replacement() {
                assert_eq!(agile.replaces(), Some(s));
            }
        }
        assert_eq!(CState::C6.agile_replacement(), None);
        assert_eq!(CState::C6.replaces(), None);
    }

    #[test]
    fn freq_levels() {
        assert_eq!(CState::C0.freq_level(), FreqLevel::P1);
        assert_eq!(CState::C1E.freq_level(), FreqLevel::Pn);
        assert_eq!(CState::C6AE.freq_level(), FreqLevel::Pn);
        assert_eq!(CState::C6A.freq_level(), FreqLevel::P1);
    }

    #[test]
    fn display_names() {
        assert_eq!(CState::C6AE.to_string(), "C6AE");
        assert_eq!(FreqLevel::Pn.to_string(), "Pn");
    }
}
