//! Inter-site wide-area network model.
//!
//! A hub-and-spoke topology matching the TeraGrid backbone: every site has an
//! uplink (bandwidth + latency) to a common hub; a site-to-site transfer
//! traverses both uplinks, so its bandwidth is the minimum of the two and its
//! latency the sum. Transfers are contention-free (each gets full link
//! bandwidth) — adequate for staging/bitstream latencies, and documented as a
//! deliberate simplification in DESIGN.md. The only time-varying state is
//! the fault layer's per-site degradation windows ([`LinkDegradation`]).

use crate::ids::SiteId;
use serde::{Deserialize, Serialize};
use tg_des::SimDuration;

/// One site's uplink to the backbone hub.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Uplink {
    /// Usable bandwidth in MB/s.
    pub bandwidth_mbps: f64,
    /// One-way latency to the hub.
    pub latency: SimDuration,
}

impl Uplink {
    /// An uplink with the given bandwidth (MB/s) and latency (ms).
    pub fn new(bandwidth_mbps: f64, latency_ms: f64) -> Self {
        assert!(bandwidth_mbps > 0.0, "bandwidth must be positive");
        assert!(latency_ms >= 0.0, "latency must be non-negative");
        Uplink {
            bandwidth_mbps,
            latency: SimDuration::from_secs_f64(latency_ms / 1000.0),
        }
    }
}

/// A transient degradation of one site's uplink (WAN fault window).
///
/// Multipliers are relative to the configured uplink: bandwidth is divided by
/// `bandwidth_factor`, latency multiplied by `latency_factor`. `1.0/1.0`
/// means healthy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkDegradation {
    /// Factor ≥ 1 dividing the uplink's usable bandwidth.
    pub bandwidth_factor: f64,
    /// Factor ≥ 1 multiplying the uplink's one-way latency.
    pub latency_factor: f64,
}

impl Default for LinkDegradation {
    fn default() -> Self {
        LinkDegradation {
            bandwidth_factor: 1.0,
            latency_factor: 1.0,
        }
    }
}

/// The federation's WAN.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Network {
    uplinks: Vec<Uplink>,
    /// Site hosting the configuration-bitstream repository.
    repository: Option<SiteId>,
    /// Active per-site fault degradations, indexed by site. Empty (the
    /// common case) means every link is healthy and transfer math is
    /// bit-identical to a fault-free build.
    #[serde(default)]
    degradations: Vec<LinkDegradation>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Register a site's uplink; call once per site in site-id order.
    pub fn add_uplink(&mut self, uplink: Uplink) -> SiteId {
        self.uplinks.push(uplink);
        SiteId(self.uplinks.len() - 1)
    }

    /// Number of sites attached.
    pub fn len(&self) -> usize {
        self.uplinks.len()
    }

    /// True if no sites are attached.
    pub fn is_empty(&self) -> bool {
        self.uplinks.is_empty()
    }

    /// Designate the site hosting the central bitstream repository.
    pub fn set_repository(&mut self, site: SiteId) {
        assert!(site.index() < self.uplinks.len(), "unknown site");
        self.repository = Some(site);
    }

    /// The bitstream repository site, if configured.
    pub fn repository(&self) -> Option<SiteId> {
        self.repository
    }

    /// A site's uplink.
    pub fn uplink(&self, site: SiteId) -> &Uplink {
        &self.uplinks[site.index()]
    }

    /// Open a fault-degradation window on `site`'s uplink: bandwidth divided
    /// by `bandwidth_factor`, latency multiplied by `latency_factor` (both
    /// ≥ 1) until [`Network::clear_degradation`].
    pub fn set_degradation(&mut self, site: SiteId, bandwidth_factor: f64, latency_factor: f64) {
        assert!(site.index() < self.uplinks.len(), "unknown site");
        assert!(bandwidth_factor >= 1.0, "bandwidth factor must be >= 1");
        assert!(latency_factor >= 1.0, "latency factor must be >= 1");
        if self.degradations.len() < self.uplinks.len() {
            self.degradations
                .resize(self.uplinks.len(), LinkDegradation::default());
        }
        self.degradations[site.index()] = LinkDegradation {
            bandwidth_factor,
            latency_factor,
        };
    }

    /// Restore `site`'s uplink to its configured parameters.
    pub fn clear_degradation(&mut self, site: SiteId) {
        if let Some(d) = self.degradations.get_mut(site.index()) {
            *d = LinkDegradation::default();
        }
    }

    /// The active degradation on `site`'s uplink (healthy if none set).
    pub fn degradation(&self, site: SiteId) -> LinkDegradation {
        self.degradations
            .get(site.index())
            .copied()
            .unwrap_or_default()
    }

    /// Time to move `mb` megabytes from `src` to `dst`.
    ///
    /// Same-site transfers are free: the model prices staging by WAN
    /// movement alone, so data already at `dst` costs nothing.
    pub fn transfer_time(&self, src: SiteId, dst: SiteId, mb: f64) -> SimDuration {
        assert!(mb >= 0.0, "negative transfer size");
        if src == dst {
            return SimDuration::ZERO;
        }
        let a = self.uplink(src);
        let b = self.uplink(dst);
        let mut bw_a = a.bandwidth_mbps;
        let mut bw_b = b.bandwidth_mbps;
        let mut latency = a.latency + b.latency;
        // Degradation windows stay out of the healthy path entirely so that
        // fault-free runs remain bit-identical to pre-fault builds.
        if !self.degradations.is_empty() {
            let da = self.degradation(src);
            let db = self.degradation(dst);
            bw_a /= da.bandwidth_factor;
            bw_b /= db.bandwidth_factor;
            let lf = da.latency_factor.max(db.latency_factor);
            if lf != 1.0 {
                latency = latency.mul_f64(lf);
            }
        }
        let bw = bw_a.min(bw_b);
        latency + SimDuration::from_secs_f64(mb / bw)
    }

    /// Time to fetch `mb` megabytes from the bitstream repository to `dst`.
    /// Zero if no repository is configured (bitstreams assumed pre-staged).
    pub fn fetch_from_repository(&self, dst: SiteId, mb: f64) -> SimDuration {
        match self.repository {
            Some(repo) => self.transfer_time(repo, dst, mb),
            None => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net3() -> Network {
        let mut n = Network::new();
        n.add_uplink(Uplink::new(1000.0, 10.0)); // site0
        n.add_uplink(Uplink::new(100.0, 20.0)); // site1 (slow)
        n.add_uplink(Uplink::new(1000.0, 5.0)); // site2
        n
    }

    #[test]
    fn transfer_uses_min_bandwidth_and_summed_latency() {
        let n = net3();
        // 100 MB from site0 to site1: bw = min(1000,100)=100 → 1 s; latency 30 ms.
        let t = n.transfer_time(SiteId(0), SiteId(1), 100.0);
        assert!((t.as_secs_f64() - 1.030).abs() < 1e-9, "{t}");
        // Symmetric.
        assert_eq!(t, n.transfer_time(SiteId(1), SiteId(0), 100.0));
    }

    #[test]
    fn same_site_is_free() {
        let n = net3();
        assert_eq!(
            n.transfer_time(SiteId(1), SiteId(1), 1e9),
            SimDuration::ZERO
        );
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        let n = net3();
        let t = n.transfer_time(SiteId(0), SiteId(2), 0.0);
        assert!((t.as_secs_f64() - 0.015).abs() < 1e-9);
    }

    #[test]
    fn repository_fetch() {
        let mut n = net3();
        assert_eq!(n.fetch_from_repository(SiteId(1), 64.0), SimDuration::ZERO);
        n.set_repository(SiteId(0));
        let t = n.fetch_from_repository(SiteId(1), 100.0);
        assert!((t.as_secs_f64() - 1.030).abs() < 1e-9);
        // Repository-local fetch is free.
        assert_eq!(n.fetch_from_repository(SiteId(0), 100.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn repository_must_exist() {
        let mut n = net3();
        n.set_repository(SiteId(9));
    }

    #[test]
    fn degradation_scales_bandwidth_and_latency_until_cleared() {
        let mut n = net3();
        let healthy = n.transfer_time(SiteId(0), SiteId(2), 1000.0);
        n.set_degradation(SiteId(2), 4.0, 3.0);
        let degraded = n.transfer_time(SiteId(0), SiteId(2), 1000.0);
        // latency 15 ms → 45 ms; bandwidth term ×4.
        let bw_before = healthy.as_secs_f64() - 0.015;
        let bw_after = degraded.as_secs_f64() - 0.045;
        assert!((bw_after / bw_before - 4.0).abs() < 1e-6, "{degraded}");
        // An untouched pair is unaffected.
        assert_eq!(
            n.transfer_time(SiteId(0), SiteId(1), 100.0),
            net3().transfer_time(SiteId(0), SiteId(1), 100.0)
        );
        n.clear_degradation(SiteId(2));
        assert_eq!(n.transfer_time(SiteId(0), SiteId(2), 1000.0), healthy);
        assert_eq!(n.degradation(SiteId(2)), LinkDegradation::default());
    }

    #[test]
    #[should_panic(expected = "bandwidth factor")]
    fn degradation_rejects_sub_unit_factors() {
        let mut n = net3();
        n.set_degradation(SiteId(0), 0.5, 1.0);
    }
}
