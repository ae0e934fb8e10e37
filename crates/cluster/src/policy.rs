//! Front-end routing policies: how the load balancer splits the fleet's
//! aggregate offered load across servers.
//!
//! The policies are deliberately modeled at the epoch granularity — each
//! epoch the balancer computes one load *share* per server, and every
//! server then runs an independent single-server simulation at its share.
//! This keeps the fleet byte-identical at any worker count (shares are a
//! pure function of the epoch, never of simulation interleaving) while
//! still capturing what matters for the paper's energy-proportionality
//! story: *where* the load concentrates decides which package C-states
//! the uncore can reach.

use std::fmt;
use std::str::FromStr;

/// How the front-end load balancer distributes requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingPolicy {
    /// Equal share to every unparked server — the classic connection-level
    /// round robin. Power-oblivious: every server stays busy enough to
    /// hold its uncore at PC0.
    RoundRobin,
    /// Share proportional to each unparked server's effective capacity
    /// (availability-weighted): a server still completing its unpark
    /// transition receives proportionally less. For a homogeneous fully
    /// available fleet this degenerates to round robin — documented and
    /// pinned by test.
    LeastOutstanding,
    /// Power-aware: fill servers in index order up to
    /// `RoutingPolicy::PACK_UTILIZATION` of capacity so the remaining
    /// servers see *zero* load and their package sinks into deep idle
    /// (PC6 uncore at ~2 W instead of PC0's 12 W).
    Packing,
    /// Power-aware the other way: spread equally over *all* servers —
    /// even ones the autoscaler would park — so every core sees the
    /// longest possible idle gaps and maximizes per-core agile-state
    /// (C6A/C6AE) residency, keeping per-server utilization (and thus
    /// queueing tails) minimal.
    Spreading,
}

impl RoutingPolicy {
    /// Target utilization packing fills a server to before spilling to
    /// the next one. Below saturation but high enough that a packed
    /// fleet parks a meaningful fraction of its servers.
    pub(crate) const PACK_UTILIZATION: f64 = 0.85;

    /// All policies, in CLI listing order.
    pub const ALL: [RoutingPolicy; 4] = [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastOutstanding,
        RoutingPolicy::Packing,
        RoutingPolicy::Spreading,
    ];

    /// The CLI name of this policy.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::LeastOutstanding => "least-outstanding",
            RoutingPolicy::Packing => "packing",
            RoutingPolicy::Spreading => "spreading",
        }
    }

    /// `true` if the policy keeps every server unparked regardless of the
    /// autoscaler's target (spreading needs the whole fleet to spread
    /// over).
    #[must_use]
    pub(crate) fn wants_all_active(self) -> bool {
        self == RoutingPolicy::Spreading
    }

    /// Splits `offered_qps` across servers. `availability[i]` is the
    /// fraction of the epoch server `i` can serve (0 for parked servers,
    /// `< 1` for a server still completing its unpark transition), and
    /// `capacity_qps` is one fully available server's saturation
    /// throughput. Returns one share (in QPS) per server; shares always
    /// sum to `offered_qps` (no load is dropped at the balancer — a
    /// saturated fleet overloads its servers rather than silently
    /// shedding, matching the open-loop client model).
    #[must_use]
    pub(crate) fn shares(
        self,
        offered_qps: f64,
        availability: &[f64],
        capacity_qps: f64,
    ) -> Vec<f64> {
        assert!(!availability.is_empty(), "fleet must have at least one server");
        let weights: Vec<f64> = match self {
            RoutingPolicy::RoundRobin => {
                availability.iter().map(|&a| if a > 0.0 { 1.0 } else { 0.0 }).collect()
            }
            RoutingPolicy::LeastOutstanding => availability.to_vec(),
            RoutingPolicy::Spreading => vec![1.0; availability.len()],
            RoutingPolicy::Packing => {
                return Self::pack(offered_qps, availability, capacity_qps);
            }
        };
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "no server available to route to");
        weights.iter().map(|w| offered_qps * w / total).collect()
    }

    /// Packing: fill servers in index order to `PACK_UTILIZATION` of
    /// their effective (availability-scaled) capacity; any overflow past
    /// the last server is spread over the available ones so nothing is
    /// dropped.
    fn pack(offered_qps: f64, availability: &[f64], capacity_qps: f64) -> Vec<f64> {
        let mut shares = vec![0.0; availability.len()];
        let mut remaining = offered_qps;
        for (share, &avail) in shares.iter_mut().zip(availability) {
            if remaining <= 0.0 {
                break;
            }
            let fill = (avail * capacity_qps * Self::PACK_UTILIZATION).min(remaining);
            *share = fill;
            remaining -= fill;
        }
        if remaining > 0.0 {
            let available: f64 = availability.iter().sum();
            assert!(available > 0.0, "no server available to route to");
            for (share, &avail) in shares.iter_mut().zip(availability) {
                *share += remaining * avail / available;
            }
        }
        shares
    }
}

impl fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for RoutingPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        RoutingPolicy::ALL.into_iter().find(|p| p.name() == s).ok_or_else(|| {
            let names: Vec<&str> = RoutingPolicy::ALL.iter().map(|p| p.name()).collect();
            format!("unknown policy '{s}' (expected one of: {})", names.join(", "))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(shares: &[f64]) -> f64 {
        shares.iter().sum()
    }

    #[test]
    fn names_round_trip() {
        for p in RoutingPolicy::ALL {
            assert_eq!(p.name().parse::<RoutingPolicy>().unwrap(), p);
        }
        assert!("weighted".parse::<RoutingPolicy>().is_err());
    }

    #[test]
    fn round_robin_splits_equally_over_active() {
        let shares = RoutingPolicy::RoundRobin.shares(900.0, &[1.0, 1.0, 0.0, 1.0], 1000.0);
        assert_eq!(shares, vec![300.0, 300.0, 0.0, 300.0]);
    }

    #[test]
    fn least_outstanding_matches_round_robin_when_homogeneous() {
        // The documented degeneracy: full availability everywhere makes
        // capacity weighting indistinguishable from equal shares.
        let avail = [1.0, 1.0, 1.0];
        let rr = RoutingPolicy::RoundRobin.shares(600.0, &avail, 1000.0);
        let lo = RoutingPolicy::LeastOutstanding.shares(600.0, &avail, 1000.0);
        assert_eq!(rr, lo);
    }

    #[test]
    fn least_outstanding_discounts_unparking_servers() {
        let shares = RoutingPolicy::LeastOutstanding.shares(500.0, &[1.0, 0.25], 1000.0);
        assert!((shares[0] - 400.0).abs() < 1e-9);
        assert!((shares[1] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn packing_concentrates_and_leaves_servers_empty() {
        // 30% aggregate load on 4 servers: packing should load at most
        // two servers and leave the rest completely idle.
        let shares = RoutingPolicy::Packing.shares(1200.0, &[1.0; 4], 1000.0);
        assert!((total(&shares) - 1200.0).abs() < 1e-9);
        assert!((shares[0] - 850.0).abs() < 1e-9, "first server filled to 85%");
        assert!((shares[1] - 350.0).abs() < 1e-9, "spill lands on the second");
        assert_eq!(&shares[2..], &[0.0, 0.0], "tail servers see zero load");
    }

    #[test]
    fn packing_overflow_spreads_instead_of_dropping() {
        // Offered load above the packed capacity of the whole fleet:
        // conservation requires the excess to be spread, not shed.
        let shares = RoutingPolicy::Packing.shares(2000.0, &[1.0, 1.0], 1000.0);
        assert!((total(&shares) - 2000.0).abs() < 1e-9);
        assert!(shares.iter().all(|&s| s > 850.0));
    }

    #[test]
    fn packing_respects_availability() {
        let shares = RoutingPolicy::Packing.shares(850.0, &[0.5, 1.0], 1000.0);
        assert!((shares[0] - 425.0).abs() < 1e-9, "half-available server takes half a fill");
        assert!((shares[1] - 425.0).abs() < 1e-9);
    }

    #[test]
    fn spreading_uses_parked_servers_too() {
        let shares = RoutingPolicy::Spreading.shares(800.0, &[1.0, 0.0, 1.0, 0.0], 1000.0);
        assert_eq!(shares, vec![200.0; 4]);
    }

    #[test]
    fn all_policies_conserve_load() {
        let avail = [1.0, 0.6, 0.0, 1.0];
        for p in RoutingPolicy::ALL {
            let shares = p.shares(12_345.0, &avail, 4000.0);
            assert!((total(&shares) - 12_345.0).abs() < 1e-6, "{p} dropped load");
            assert!(shares.iter().all(|&s| s >= 0.0), "{p} produced a negative share");
        }
    }
}
