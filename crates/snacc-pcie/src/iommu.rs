//! IOMMU permission model.
//!
//! Device-initiated accesses (DMA and peer-to-peer) pass through the host
//! IOMMU. SNAcc requires explicit grants so the FPGA and the NVMe
//! controller may reach each other's address ranges (paper Sec 4). We model
//! the permission check (grant table per requester) and expose a
//! passthrough mode corresponding to `iommu=off` — the paper verified that
//! disabling the IOMMU did not change bandwidth, and the same holds here
//! because translation cost is negligible at transaction granularity.

use crate::fabric::NodeId;
use snacc_mem::AddrRange;

/// One requester's grants, in grant order, and the grant that matched its
/// last allowed access. DMA streams walk one window page by page, so the
/// remembered grant almost always answers the next check.
#[derive(Default)]
struct Grants {
    ranges: Vec<AddrRange>,
    last: usize,
}

/// The IOMMU: per-requester allowed ranges, or passthrough.
///
/// A check allows a span exactly when one grant contains all of it. Grants
/// are never merged, so a span straddling two adjacent grants stays denied
/// and the remembered grant only changes which grant is tried first, never
/// the answer.
#[derive(Default)]
pub struct Iommu {
    passthrough: bool,
    /// Indexed by `NodeId.0`.
    grants: Vec<Grants>,
    faults: u64,
}

impl Iommu {
    /// An enforcing IOMMU with no grants yet.
    pub fn new() -> Self {
        Iommu::default()
    }

    /// A disabled IOMMU (all accesses allowed).
    pub fn passthrough() -> Self {
        Iommu {
            passthrough: true,
            ..Iommu::default()
        }
    }

    /// Is the IOMMU in passthrough mode?
    pub fn is_passthrough(&self) -> bool {
        self.passthrough
    }

    /// Grant `requester` access to `range`.
    pub fn grant(&mut self, requester: NodeId, range: AddrRange) {
        if self.grants.len() <= requester.0 {
            self.grants.resize_with(requester.0 + 1, Grants::default);
        }
        self.grants[requester.0].ranges.push(range);
    }

    /// Revoke all grants for `requester`.
    pub fn revoke_all(&mut self, requester: NodeId) {
        if let Some(g) = self.grants.get_mut(requester.0) {
            *g = Grants::default();
        }
    }

    /// Number of faults recorded so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Check whether `requester` may access `[addr, addr+len)`. Records a
    /// fault on denial.
    pub fn check(&mut self, requester: NodeId, addr: u64, len: u64) -> bool {
        if self.passthrough {
            return true;
        }
        let holds = |r: &AddrRange| r.contains_span(addr, len);
        let ok = self.grants.get_mut(requester.0).is_some_and(|g| {
            if g.ranges.get(g.last).is_some_and(holds) {
                return true;
            }
            match g.ranges.iter().position(holds) {
                Some(i) => {
                    g.last = i;
                    true
                }
                None => false,
            }
        });
        if !ok {
            self.faults += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn node(n: usize) -> NodeId {
        NodeId(n)
    }

    #[test]
    fn deny_by_default() {
        let mut io = Iommu::new();
        assert!(!io.check(node(1), 0x1000, 8));
        assert_eq!(io.faults(), 1);
    }

    #[test]
    fn grant_allows_span() {
        let mut io = Iommu::new();
        io.grant(node(1), AddrRange::new(0x1000, 0x1000));
        assert!(io.check(node(1), 0x1000, 0x1000));
        assert!(io.check(node(1), 0x1800, 0x100));
        // Straddling the grant edge is denied.
        assert!(!io.check(node(1), 0x1f00, 0x200));
        // Other requesters are denied.
        assert!(!io.check(node(2), 0x1000, 8));
    }

    #[test]
    fn passthrough_allows_everything() {
        let mut io = Iommu::passthrough();
        assert!(io.check(node(9), 0xdead_0000, 4096));
        assert_eq!(io.faults(), 0);
    }

    #[test]
    fn revoke_removes_access() {
        let mut io = Iommu::new();
        io.grant(node(1), AddrRange::new(0, 4096));
        assert!(io.check(node(1), 0, 8));
        io.revoke_all(node(1));
        assert!(!io.check(node(1), 0, 8));
    }

    #[test]
    fn multiple_grants_checked() {
        let mut io = Iommu::new();
        io.grant(node(1), AddrRange::new(0, 4096));
        io.grant(node(1), AddrRange::new(1 << 30, 4096));
        assert!(io.check(node(1), (1 << 30) + 100, 8));
        assert!(!io.check(node(1), 1 << 20, 8));
    }

    #[test]
    fn adjacent_grants_are_not_merged() {
        let mut io = Iommu::new();
        io.grant(node(1), AddrRange::new(0x1000, 0x1000));
        io.grant(node(1), AddrRange::new(0x2000, 0x1000));
        // Warm the remembered grant on each side, then straddle the seam.
        assert!(io.check(node(1), 0x1f00, 0x100));
        assert!(!io.check(node(1), 0x1f00, 0x200));
        assert!(io.check(node(1), 0x2000, 0x100));
        assert!(!io.check(node(1), 0x1f00, 0x200));
        assert_eq!(io.faults(), 2);
    }

    /// The answer with no remembered grant: any grant of `requester` that
    /// holds the whole span.
    fn reference(grants: &[(usize, AddrRange)], requester: usize, addr: u64, len: u64) -> bool {
        grants
            .iter()
            .any(|&(n, r)| n == requester && r.contains_span(addr, len))
    }

    proptest! {
        /// Random grants (adjacent and overlapping ones among them in a
        /// small space), straddling checks, `revoke_all` and re-grants:
        /// every answer and the fault count match a plain scan.
        #[test]
        fn check_matches_a_linear_scan(
            ops in proptest::collection::vec(any::<[u64; 4]>(), 1..96),
        ) {
            const UNIT: u64 = 0x100;
            let mut io = Iommu::new();
            let mut grants: Vec<(usize, AddrRange)> = Vec::new();
            let mut faults = 0;
            for [sel, a, b, c] in ops {
                let requester = (a % 4) as usize;
                match sel % 8 {
                    0 | 1 => {
                        let r = AddrRange::new((b % 16) * UNIT, (1 + c % 4) * UNIT);
                        io.grant(node(requester), r);
                        grants.push((requester, r));
                    }
                    2 => {
                        io.revoke_all(node(requester));
                        grants.retain(|&(n, _)| n != requester);
                    }
                    _ => {
                        // Unit-aligned spans straddle grant edges often;
                        // the odd byte offsets probe the edges themselves.
                        let addr = (b % 21) * UNIT + (c % 3) * (UNIT / 2 - 1);
                        let len = 1 + (c >> 8) % (3 * UNIT);
                        let want = reference(&grants, requester, addr, len);
                        faults += u64::from(!want);
                        prop_assert_eq!(io.check(node(requester), addr, len), want);
                        prop_assert_eq!(io.faults(), faults);
                    }
                }
            }
        }
    }
}
