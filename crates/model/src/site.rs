//! A compute site: batch cluster + optional RC partition.

use crate::cluster::Cluster;
use crate::config::SiteConfig;
use crate::ids::SiteId;
use crate::reconf::RcPartition;
use tg_des::SimTime;

/// One resource-provider site in the federation.
#[derive(Debug, Clone)]
pub struct Site {
    id: SiteId,
    config: SiteConfig,
    /// The space-shared batch partition.
    pub cluster: Cluster,
    /// The reconfigurable partition (empty if the site has none).
    pub rc: RcPartition,
}

impl Site {
    /// Instantiate a site from its static description at time `start`.
    pub fn from_config(id: SiteId, config: SiteConfig, start: SimTime) -> Self {
        let cluster = Cluster::new(start, config.total_cores());
        let rc = RcPartition::new(
            start,
            config.rc_nodes,
            config.rc_area_per_node.max(1),
            config.rc_bitstream_cache,
        );
        Site {
            id,
            config,
            cluster,
            rc,
        }
    }

    /// This site's id.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The static description this site was built from.
    pub fn config(&self) -> &SiteConfig {
        &self.config
    }

    /// Site name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// SUs charged per core-hour at this site.
    pub fn charge_factor(&self) -> f64 {
        self.config.charge_factor
    }

    /// Relative per-core speed; a job's runtime on this site is its
    /// reference runtime divided by this.
    pub fn core_speed(&self) -> f64 {
        self.config.core_speed
    }

    /// Does this site have a reconfigurable partition?
    pub fn has_rc(&self) -> bool {
        !self.rc.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SiteConfig;

    #[test]
    fn site_from_config() {
        let cfg = SiteConfig::rc_site("gamma", 4, 8);
        let s = Site::from_config(SiteId(2), cfg.clone(), SimTime::ZERO);
        assert_eq!(s.id(), SiteId(2));
        assert_eq!(s.name(), "gamma");
        assert_eq!(s.cluster.total_cores(), cfg.total_cores());
        assert!(s.has_rc());
        assert_eq!(s.rc.len(), 4);
        assert_eq!(s.charge_factor(), 1.0);
    }

    #[test]
    fn site_without_rc() {
        let s = Site::from_config(SiteId(0), SiteConfig::medium("m"), SimTime::ZERO);
        assert!(!s.has_rc());
        assert_eq!(s.rc.len(), 0);
    }
}
