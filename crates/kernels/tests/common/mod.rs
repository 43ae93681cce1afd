//! Stand-alone cluster references for the seam tests. A cluster kernel
//! is a 1-cluster system kernel; these helpers run the same programs on
//! a [`ClusterBuilder`] cluster — the reference the system harnesses are
//! pinned against — with the generator's own input data, and verify the
//! result against its golden model.

use sc_cluster::{ClusterBuilder, ClusterConfig, ClusterSummary};
use sc_core::{CoreConfig, SchedMode};
use sc_kernels::{Grid3, StencilKernel, SystemKernel, TiledSystemKernel};
use sc_mem::{Dram, DramConfig, Tcdm};

/// Runs a 1-cluster unbounded system kernel's programs on a stand-alone
/// cluster in `mode`, staged and verified through the generator's
/// single-core [`sc_kernels::Kernel`] (same data, same golden model).
pub fn cluster_reference(
    gen: &StencilKernel,
    kernel: &SystemKernel,
    cfg: CoreConfig,
    mode: SchedMode,
    max_cycles: u64,
) -> Result<ClusterSummary, String> {
    assert_eq!(
        kernel.num_clusters(),
        1,
        "a cluster reference has one cluster"
    );
    let staged = gen.build();
    let ccfg = ClusterConfig::new(kernel.harts_per_cluster() as u32).with_core(cfg);
    let mut cluster = ClusterBuilder::new(ccfg, kernel.programs()[0].clone())
        .sched_mode(mode)
        .build();
    staged
        .apply_setup(cluster.tcdm_mut())
        .map_err(|e| e.to_string())?;
    let summary = cluster.run(max_cycles).map_err(|e| e.to_string())?;
    staged.verify(cluster.tcdm()).map_err(|e| e.to_string())?;
    Ok(summary)
}

/// Runs a 1-cluster tiled system kernel's stage sequence on a
/// stand-alone DMA cluster with a private background memory of
/// `dram_cfg` (the software tile loop: run a stage to completion, load
/// the next), in `mode`. The background image is the generator's
/// unbounded-TCDM image of `grid`; the result is read back into a TCDM
/// image and verified against the same golden model.
pub fn tiled_cluster_reference(
    gen: &StencilKernel,
    grid: &Grid3,
    kernel: &TiledSystemKernel,
    cfg: CoreConfig,
    dram_cfg: DramConfig,
    mode: SchedMode,
    max_cycles: u64,
) -> Result<ClusterSummary, String> {
    assert_eq!(
        kernel.num_clusters(),
        1,
        "a cluster reference has one cluster"
    );
    let staged = gen.build();
    let words = gen.layout().required_bytes(grid) as usize / 8;
    let mut image = Tcdm::new(CoreConfig::new().tcdm);
    staged.apply_setup(&mut image).map_err(|e| e.to_string())?;
    let mut dram = Dram::new(dram_cfg);
    dram.write_f64_slice(
        0,
        &image.read_f64_slice(0, words).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;

    let core = CoreConfig {
        tcdm: kernel.tcdm_config(),
        ..cfg
    };
    let ccfg = ClusterConfig::new(kernel.harts_per_cluster()).with_core(core);
    let mut stages = kernel.stages()[0].iter().cloned();
    let mut cluster = ClusterBuilder::new(ccfg, stages.next().expect("a first stage"))
        .dma(dram)
        .sched_mode(mode)
        .build();
    let mut summary = cluster.run(max_cycles).map_err(|e| e.to_string())?;
    for stage in stages {
        cluster.load_programs(stage);
        summary = cluster.run(max_cycles).map_err(|e| e.to_string())?;
    }

    let dram = cluster.dram().expect("a private background memory");
    let result = dram.read_f64_slice(0, words).map_err(|e| e.to_string())?;
    image
        .write_f64_slice(0, &result)
        .map_err(|e| e.to_string())?;
    staged.verify(&image).map_err(|e| e.to_string())?;
    Ok(summary)
}
