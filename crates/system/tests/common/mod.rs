//! A stand-alone cluster is the 1-cluster system: the builders the
//! cluster-level tests start from. Each test binary uses a subset.
#![allow(dead_code)]

use sc_cluster::ClusterConfig;
use sc_isa::Program;
use sc_mem::{Dram, L2Config};
use sc_system::{SystemBuilder, SystemConfig};

/// A 1-cluster system running `programs` (one per core), without a DMA
/// engine.
pub fn cluster(cfg: ClusterConfig, programs: Vec<Program>) -> SystemBuilder {
    SystemBuilder::new(
        SystemConfig::new(1, cfg.num_cores).with_cluster(cfg),
        vec![vec![programs]],
    )
}

/// A 1-cluster system whose DMA engine moves against `dram` through a
/// pass-through L2, paying `dram`'s own timing per transfer and beat.
pub fn dma_cluster(cfg: ClusterConfig, programs: Vec<Program>, dram: Dram) -> SystemBuilder {
    let scfg = SystemConfig::new(1, cfg.num_cores)
        .with_cluster(cfg)
        .with_l2(L2Config::passthrough(dram.config()));
    SystemBuilder::new(scfg, vec![vec![programs]]).dram(dram)
}
