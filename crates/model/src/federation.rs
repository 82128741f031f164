//! The assembled federation: sites + network + configuration library.

use crate::config::{ConfigLibrary, SiteConfig};
use crate::ids::{ConfigId, SiteId};
use crate::network::{Network, Uplink};
use crate::site::Site;
use tg_des::{SimDuration, SimTime};

/// The whole modeled cyberinfrastructure.
#[derive(Debug, Clone)]
pub struct Federation {
    sites: Vec<Site>,
    /// The wide-area network connecting sites.
    pub network: Network,
    /// Library of reconfigurable processor configurations.
    pub library: ConfigLibrary,
}

impl Federation {
    /// Start building a federation.
    pub fn builder() -> FederationBuilder {
        FederationBuilder::default()
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True if the federation has no sites.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Immutable site access.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.index()]
    }

    /// Mutable site access.
    pub fn site_mut(&mut self, id: SiteId) -> &mut Site {
        &mut self.sites[id.index()]
    }

    /// Mutable site access alongside the configuration library, which an
    /// RC placement reads while it commits to the site's fabric.
    pub fn site_mut_with_library(&mut self, id: SiteId) -> (&mut Site, &ConfigLibrary) {
        (&mut self.sites[id.index()], &self.library)
    }

    /// Iterate sites.
    pub fn sites(&self) -> impl Iterator<Item = &Site> {
        self.sites.iter()
    }

    /// Total batch cores across the federation.
    pub fn total_cores(&self) -> usize {
        self.sites.iter().map(|s| s.cluster.total_cores()).sum()
    }

    /// Time to fetch `config`'s bitstream from the repository to `dst`
    /// (zero if it would be a local/no-repository fetch).
    pub fn bitstream_fetch_time(&self, config: ConfigId, dst: SiteId) -> SimDuration {
        let mb = self.library.get(config).bitstream_mb;
        self.network.fetch_from_repository(dst, mb)
    }

    /// Federation-wide average batch utilization at `now`, weighted by cores.
    pub fn average_utilization(&self, now: SimTime) -> f64 {
        let total: f64 = self
            .sites
            .iter()
            .map(|s| s.cluster.utilization(now) * s.cluster.total_cores() as f64)
            .sum();
        total / self.total_cores().max(1) as f64
    }
}

/// Builder assembling a [`Federation`] site by site.
#[derive(Debug, Default)]
pub struct FederationBuilder {
    site_configs: Vec<SiteConfig>,
    library: ConfigLibrary,
    repository: Option<usize>,
}

impl FederationBuilder {
    /// Add a site; returns the builder for chaining. Site ids are assigned
    /// in insertion order.
    pub fn site(mut self, config: SiteConfig) -> Self {
        self.site_configs.push(config);
        self
    }

    /// Use `library` as the configuration library.
    pub fn library(mut self, library: ConfigLibrary) -> Self {
        self.library = library;
        self
    }

    /// Host the bitstream repository at the site added at `index`.
    pub fn repository_at(mut self, index: usize) -> Self {
        self.repository = Some(index);
        self
    }

    /// Assemble the federation. Panics if no sites were added or the
    /// repository index is out of range.
    pub fn build(self) -> Federation {
        assert!(!self.site_configs.is_empty(), "federation needs sites");
        let mut network = Network::new();
        let mut sites = Vec::with_capacity(self.site_configs.len());
        for (i, cfg) in self.site_configs.into_iter().enumerate() {
            network.add_uplink(Uplink::new(cfg.wan_bandwidth_mbps, cfg.wan_latency_ms));
            sites.push(Site::from_config(SiteId(i), cfg));
        }
        if let Some(repo) = self.repository {
            network.set_repository(SiteId(repo));
        }
        Federation {
            sites,
            network,
            library: self.library,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProcessorConfig;

    fn demo() -> Federation {
        let mut lib = ConfigLibrary::new();
        lib.add(ProcessorConfig::new("sw", 4, 20.0));
        Federation::builder()
            .site(SiteConfig::medium("alpha"))
            .site(SiteConfig::large("beta"))
            .site(SiteConfig::rc_site("gamma", 8, 8))
            .library(lib)
            .repository_at(0)
            .build()
    }

    #[test]
    fn builder_assigns_ids_in_order() {
        let f = demo();
        assert_eq!(f.len(), 3);
        assert_eq!(f.site(SiteId(0)).name(), "alpha");
        assert_eq!(f.site(SiteId(2)).name(), "gamma");
        assert!(f.site(SiteId(2)).has_rc());
        assert_eq!(f.network.repository(), Some(SiteId(0)));
    }

    #[test]
    fn totals_aggregate_sites() {
        let f = demo();
        let expect = SiteConfig::medium("x").total_cores()
            + SiteConfig::large("x").total_cores()
            + SiteConfig::rc_site("x", 8, 8).total_cores();
        assert_eq!(f.total_cores(), expect);
    }

    #[test]
    fn bitstream_fetch_time_is_zero_at_repository_site() {
        let f = demo();
        assert_eq!(
            f.bitstream_fetch_time(ConfigId(0), SiteId(0)),
            SimDuration::ZERO
        );
        assert!(f.bitstream_fetch_time(ConfigId(0), SiteId(2)) > SimDuration::ZERO);
    }

    #[test]
    fn utilization_starts_at_zero() {
        let mut f = demo();
        assert_eq!(f.average_utilization(SimTime::from_secs(100)), 0.0);
        let cores = f.site(SiteId(0)).cluster.total_cores();
        f.site_mut(SiteId(0)).cluster.acquire(SimTime::ZERO, cores);
        let u = f.average_utilization(SimTime::from_secs(100));
        assert!(u > 0.0 && u < 1.0);
    }

    #[test]
    #[should_panic(expected = "federation needs sites")]
    fn empty_build_panics() {
        let _ = Federation::builder().build();
    }
}
