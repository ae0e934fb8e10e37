//! Technology-node leakage scaling (Sec. 5.1.2, footnote 6).
//!
//! Following Shahidi's methodology, for a dimensional scaling factor `α`
//! (≈0.7 when moving from 22 nm to 14 nm) and a voltage scaling factor
//! `β` (conservatively 1.0 — no voltage scaling), leakage power scales as
//! `α·β`. The paper uses this to scale Intel's published 22 nm L3
//! sleep-mode leakage to the 14 nm Skylake L1/L2.

use aw_types::MilliWatts;

/// A process technology node, for leakage-scaling calculations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechNode {
    /// 22 nm (e.g., the Xeon E5 L3 slice the CCSM power is derived from).
    Nm22,
    /// 14 nm (Skylake server).
    Nm14,
}

impl TechNode {
    /// The dimensional scaling factor `α` from `self` to `to`
    /// (≈0.7 for 22 nm → 14 nm).
    #[must_use]
    pub(crate) fn alpha_to(self, to: TechNode) -> f64 {
        match (self, to) {
            (TechNode::Nm22, TechNode::Nm14) => 0.7,
            (TechNode::Nm14, TechNode::Nm22) => 1.0 / 0.7,
            _ => 1.0,
        }
    }
}

/// Scales leakage power by `α·β` (dimension factor × voltage factor).
///
/// # Examples
///
/// ```
/// use aw_power::leakage_scale;
/// use aw_types::MilliWatts;
///
/// // 22 nm → 14 nm with no voltage scaling: ×0.7.
/// let scaled = leakage_scale(MilliWatts::new(100.0), 0.7, 1.0);
/// assert_eq!(scaled, MilliWatts::new(70.0));
/// ```
///
/// # Panics
///
/// Panics if either factor is not positive and finite.
#[must_use]
pub fn leakage_scale(power: MilliWatts, alpha: f64, beta: f64) -> MilliWatts {
    assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
    assert!(beta > 0.0 && beta.is_finite(), "beta must be positive");
    power * (alpha * beta)
}

/// Scales a reference cache's sleep-mode leakage to a different capacity
/// and technology node: linear in capacity, `α·β` across nodes (with the
/// paper's conservative `β = 1`).
///
/// The paper's instance: Intel's 2.5 MB 22 nm L3 slice with sleep mode,
/// scaled to the ~1.1 MB Skylake L1+L2 at 14 nm, yields ~55 mW.
///
/// # Examples
///
/// ```
/// use aw_power::{scale_cache_leakage, TechNode};
/// use aw_types::MilliWatts;
///
/// let l3_slice = MilliWatts::new(178.6); // 2.5 MB @ 22 nm with sleep mode
/// let l1l2 = scale_cache_leakage(
///     l3_slice,
///     2.5,
///     TechNode::Nm22,
///     1.1,
///     TechNode::Nm14,
/// );
/// assert!((l1l2.as_milliwatts() - 55.0).abs() < 1.0);
/// ```
///
/// # Panics
///
/// Panics if either capacity is not positive and finite.
#[must_use]
pub fn scale_cache_leakage(
    reference: MilliWatts,
    reference_mb: f64,
    reference_node: TechNode,
    target_mb: f64,
    target_node: TechNode,
) -> MilliWatts {
    assert!(reference_mb > 0.0 && reference_mb.is_finite(), "capacity must be positive");
    assert!(target_mb > 0.0 && target_mb.is_finite(), "capacity must be positive");
    let capacity_scale = target_mb / reference_mb;
    leakage_scale(reference * capacity_scale, reference_node.alpha_to(target_node), 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_22_to_14_is_0_7() {
        assert!((TechNode::Nm22.alpha_to(TechNode::Nm14) - 0.7).abs() < 1e-12);
        assert!((TechNode::Nm14.alpha_to(TechNode::Nm22) - 1.0 / 0.7).abs() < 1e-12);
        assert_eq!(TechNode::Nm14.alpha_to(TechNode::Nm14), 1.0);
    }

    #[test]
    fn scaling_round_trip() {
        let p = MilliWatts::new(100.0);
        let down = leakage_scale(p, 0.7, 1.0);
        let back = leakage_scale(down, 1.0 / 0.7, 1.0);
        assert!((back.as_milliwatts() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn paper_ccsm_instance() {
        // Reverse of the paper's derivation: the 22 nm 2.5 MB slice that
        // yields 55 mW for 1.1 MB at 14 nm has (55 / (1.1/2.5) / 0.7)
        // ≈ 178.6 mW of sleep-mode leakage.
        let p =
            scale_cache_leakage(MilliWatts::new(178.6), 2.5, TechNode::Nm22, 1.1, TechNode::Nm14);
        assert!((p.as_milliwatts() - 55.0).abs() < 0.5, "{p}");
    }

    #[test]
    fn voltage_scaling_compounds() {
        let p = leakage_scale(MilliWatts::new(100.0), 0.7, 0.8);
        assert!((p.as_milliwatts() - 56.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn rejects_bad_alpha() {
        let _ = leakage_scale(MilliWatts::new(1.0), 0.0, 1.0);
    }
}
