//! Serializable scenario descriptions: site hardware, network parameters,
//! and the library of reconfigurable processor configurations.

use crate::ids::ConfigId;
use serde::{Deserialize, Serialize};
use tg_des::param::Rule;
use tg_des::SimDuration;

/// Static description of one compute site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SiteConfig {
    /// Human-readable site name (e.g. `"ranger"`, `"kraken"`).
    pub name: String,
    /// Number of nodes in the space-shared batch partition.
    pub batch_nodes: usize,
    /// Cores per batch node.
    pub cores_per_node: usize,
    /// Service-unit charge factor: SUs charged per core-hour. TeraGrid sites
    /// charged different factors to normalize heterogeneous hardware.
    pub charge_factor: f64,
    /// Relative per-core speed (1.0 = reference hardware); scales runtimes.
    pub core_speed: f64,
    /// Number of reconfigurable (FPGA) nodes in the RC partition (0 = none).
    pub rc_nodes: usize,
    /// FPGA area units per reconfigurable node.
    pub rc_area_per_node: u32,
    /// Bitstreams each RC node's local cache retains (0 disables caching —
    /// every reconfiguration refetches from the repository).
    pub rc_bitstream_cache: usize,
    /// Uplink bandwidth to the federation backbone, in MB/s.
    pub wan_bandwidth_mbps: f64,
    /// One-way WAN latency to the backbone hub, in milliseconds.
    pub wan_latency_ms: f64,
    /// Dataset cache capacity on scratch, in MB (data-grid scenarios).
    /// 0 disables caching at this site — every non-permanent access
    /// refetches over the WAN.
    #[serde(default)]
    pub data_cache_mb: f64,
}

impl SiteConfig {
    /// A medium HPC site with sensible 2010-era defaults and no RC partition.
    pub fn medium(name: impl Into<String>) -> Self {
        SiteConfig {
            name: name.into(),
            batch_nodes: 512,
            cores_per_node: 8,
            charge_factor: 1.0,
            core_speed: 1.0,
            rc_nodes: 0,
            rc_area_per_node: 0,
            rc_bitstream_cache: 8,
            wan_bandwidth_mbps: 1250.0, // 10 Gb/s
            wan_latency_ms: 20.0,
            data_cache_mb: 0.0,
        }
    }

    /// A large capability site (Kraken-like).
    pub fn large(name: impl Into<String>) -> Self {
        SiteConfig {
            batch_nodes: 8 * 1024,
            cores_per_node: 12,
            charge_factor: 1.1,
            core_speed: 1.2,
            ..SiteConfig::medium(name)
        }
    }

    /// A small site with an attached reconfigurable partition.
    pub fn rc_site(name: impl Into<String>, rc_nodes: usize, area: u32) -> Self {
        SiteConfig {
            batch_nodes: 128,
            rc_nodes,
            rc_area_per_node: area,
            ..SiteConfig::medium(name)
        }
    }

    /// Total batch cores at the site.
    pub fn total_cores(&self) -> usize {
        self.batch_nodes * self.cores_per_node
    }

    /// Check every field the model builds from: a positive batch core
    /// count, and usable charge, speed, WAN and cache figures. The error
    /// names the field, e.g. `wan_latency_ms: …`.
    pub fn validate(&self) -> Result<(), String> {
        use Rule::{NonNegative, Positive};
        // Zero, or too many to count (overflow), is no usable machine.
        let cores = self.batch_nodes.checked_mul(self.cores_per_node);
        if cores.unwrap_or(0) == 0 {
            return Err(format!(
                "batch_nodes: batch_nodes × cores_per_node must be a positive core \
                 count (got {} × {})",
                self.batch_nodes, self.cores_per_node
            ));
        }
        Positive.check("charge_factor", self.charge_factor)?;
        Positive.check("core_speed", self.core_speed)?;
        Positive.check("wan_bandwidth_mbps", self.wan_bandwidth_mbps)?;
        NonNegative.check("wan_latency_ms", self.wan_latency_ms)?;
        NonNegative.check("data_cache_mb", self.data_cache_mb)
    }
}

/// One reconfigurable processor configuration (a bitstream type).
///
/// The characteristics are the ones the reconfigurable-grid simulation
/// literature names as absent from traditional simulators: area utilization,
/// performance increase, reconfiguration time, and the time to transfer the
/// configuration bitstream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ProcessorConfig {
    /// Configuration name (e.g. `"smith-waterman"`, `"fft-1d"`).
    pub name: String,
    /// FPGA area units this configuration occupies on a node.
    pub area: u32,
    /// Bitstream size in MB (transferred from the repository on a miss).
    pub bitstream_mb: f64,
    /// Speedup of the hardware implementation relative to the software
    /// (GPP) implementation of the same task (> 1 means faster).
    pub speedup: f64,
    /// Time to reconfigure a region of the fabric with this bitstream once
    /// it is locally available.
    pub reconfig_time: SimDuration,
}

impl ProcessorConfig {
    /// A configuration with the given name/area/speedup and default
    /// 100 ms reconfiguration, 16 MB bitstream.
    pub fn new(name: impl Into<String>, area: u32, speedup: f64) -> Self {
        assert!(area > 0, "configuration area must be positive");
        assert!(speedup > 0.0, "speedup must be positive");
        ProcessorConfig {
            name: name.into(),
            area,
            bitstream_mb: 16.0,
            speedup,
            reconfig_time: SimDuration::from_millis(100),
        }
    }
}

/// The library of processor configurations known to the federation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ConfigLibrary {
    configs: Vec<ProcessorConfig>,
}

impl ConfigLibrary {
    /// An empty library.
    pub fn new() -> Self {
        ConfigLibrary::default()
    }

    /// Register a configuration; returns its id.
    pub fn add(&mut self, cfg: ProcessorConfig) -> ConfigId {
        let id = ConfigId(self.configs.len());
        self.configs.push(cfg);
        id
    }

    /// Look up a configuration. Panics on a dangling id (a model bug).
    pub fn get(&self, id: ConfigId) -> &ProcessorConfig {
        &self.configs[id.index()]
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// True if no configurations are registered.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Iterate `(id, config)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ConfigId, &ProcessorConfig)> {
        self.configs
            .iter()
            .enumerate()
            .map(|(i, c)| (ConfigId(i), c))
    }

    /// A demo library of `n` synthetic kernels with areas cycling through
    /// {2, 3, 4} (on nodes of area ~8) and speedups in [4, 40].
    pub fn synthetic(n: usize) -> Self {
        let mut lib = ConfigLibrary::new();
        for i in 0..n {
            let area = 2 + (i % 3) as u32;
            let speedup = 4.0 + 36.0 * (i as f64 / n.max(1) as f64);
            let mut cfg = ProcessorConfig::new(format!("kernel-{i}"), area, speedup);
            cfg.bitstream_mb = 8.0 + 4.0 * (i % 5) as f64;
            lib.add(cfg);
        }
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_presets_are_consistent() {
        let m = SiteConfig::medium("alpha");
        assert_eq!(m.total_cores(), 4096);
        assert_eq!(m.rc_nodes, 0);
        let l = SiteConfig::large("beta");
        assert!(l.total_cores() > m.total_cores());
        let r = SiteConfig::rc_site("gamma", 16, 8);
        assert_eq!(r.rc_nodes, 16);
        assert_eq!(r.rc_area_per_node, 8);
    }

    #[test]
    fn validate_names_the_bad_field() {
        assert_eq!(SiteConfig::large("l").validate(), Ok(()));
        let bad = |f: fn(&mut SiteConfig)| {
            let mut c = SiteConfig::medium("m");
            f(&mut c);
            c.validate().unwrap_err()
        };
        assert!(bad(|c| c.cores_per_node = 0).starts_with("batch_nodes: "));
        assert!(bad(|c| c.batch_nodes = usize::MAX).starts_with("batch_nodes: "));
        assert!(bad(|c| c.charge_factor = -1.0).starts_with("charge_factor: "));
        assert!(bad(|c| c.core_speed = 0.0).starts_with("core_speed: "));
        assert!(bad(|c| c.wan_bandwidth_mbps = f64::INFINITY).starts_with("wan_bandwidth_mbps: "));
        assert!(bad(|c| c.wan_latency_ms = -1.0).starts_with("wan_latency_ms: "));
        assert!(bad(|c| c.data_cache_mb = f64::NAN).starts_with("data_cache_mb: "));
        assert_eq!(
            bad(|c| c.data_cache_mb = -1.0),
            "data_cache_mb: must be non-negative and finite, got -1"
        );
    }

    #[test]
    fn library_add_get_iter() {
        let mut lib = ConfigLibrary::new();
        assert!(lib.is_empty());
        let a = lib.add(ProcessorConfig::new("sw", 4, 20.0));
        let b = lib.add(ProcessorConfig::new("fft", 2, 8.0));
        assert_eq!(lib.len(), 2);
        assert_eq!(lib.get(a).name, "sw");
        assert_eq!(lib.get(b).area, 2);
        let names: Vec<_> = lib.iter().map(|(_, c)| c.name.as_str()).collect();
        assert_eq!(names, vec!["sw", "fft"]);
    }

    #[test]
    fn synthetic_library_properties() {
        let lib = ConfigLibrary::synthetic(10);
        assert_eq!(lib.len(), 10);
        for (_, c) in lib.iter() {
            assert!((2..=4).contains(&c.area));
            assert!(c.speedup >= 4.0 && c.speedup <= 40.0);
            assert!(c.bitstream_mb > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "area must be positive")]
    fn zero_area_config_rejected() {
        ProcessorConfig::new("bad", 0, 2.0);
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = ProcessorConfig::new("sw", 4, 20.0);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ProcessorConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        let site = SiteConfig::rc_site("x", 4, 8);
        let json = serde_json::to_string(&site).unwrap();
        let back: SiteConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(site, back);
    }
}
