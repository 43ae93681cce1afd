//! Bare-protocol cluster references for the seam tests. A cluster
//! kernel is a 1-cluster system kernel; these helpers step the same
//! programs through the cluster's phase API directly — the reference
//! the system's run loop (plan, skips, L2 pass, stage queue) is pinned
//! against — with the generator's own input data, and verify the
//! result against its golden model.

use sc_cluster::{Cluster, ClusterBuilder, ClusterConfig, ClusterSummary};
use sc_core::{CoreConfig, SchedMode};
use sc_kernels::{Grid3, StencilKernel, SystemKernel, TiledSystemKernel};
use sc_mem::{Dram, DramConfig, L2Outcome, Tcdm};

/// Steps `cluster` until every hart halts with the bare lock-step
/// protocol: begin_cycle, the beat granted (a lone cluster behind a
/// pass-through L2 never loses arbitration), end_cycle against `dram`,
/// and the system-barrier rendezvous among the cluster's own harts.
/// Dense: the cluster's own mode only decides whether parked harts sit
/// a cycle out.
fn step_bare(
    cluster: &mut Cluster,
    mut dram: Option<&mut Dram>,
    max_cycles: u64,
) -> Result<(), String> {
    while !cluster.is_done() {
        if cluster.cycles() >= max_cycles {
            return Err(format!("bare protocol exceeded {max_cycles} cycles"));
        }
        cluster.begin_cycle().map_err(|e| e.to_string())?;
        cluster
            .end_cycle(L2Outcome::Granted, dram.as_deref_mut())
            .map_err(|e| e.to_string())?;
        let (waiting, active) = cluster.system_barrier_census();
        if waiting > 0 && waiting == active {
            cluster.release_system_barrier();
        }
    }
    Ok(())
}

/// Runs a 1-cluster unbounded system kernel's programs through the bare
/// protocol in `mode`, staged and verified through the generator's
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
        .embedded(0, 1)
        .build();
    cluster.set_sched_mode(mode);
    staged
        .apply_setup(cluster.tcdm_mut())
        .map_err(|e| e.to_string())?;
    step_bare(&mut cluster, None, max_cycles)?;
    staged.verify(cluster.tcdm()).map_err(|e| e.to_string())?;
    Ok(cluster.summary())
}

/// Runs a 1-cluster tiled system kernel's stage sequence through the
/// bare protocol on a DMA cluster moving against a background memory of
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
        .embedded(0, 1)
        .shared_dma(dram_cfg)
        .build();
    cluster.set_sched_mode(mode);
    step_bare(&mut cluster, Some(&mut dram), max_cycles)?;
    for stage in stages {
        cluster.load_programs(stage);
        step_bare(&mut cluster, Some(&mut dram), max_cycles)?;
    }

    let result = dram.read_f64_slice(0, words).map_err(|e| e.to_string())?;
    image
        .write_f64_slice(0, &result)
        .map_err(|e| e.to_string())?;
    staged.verify(&image).map_err(|e| e.to_string())?;
    Ok(cluster.summary())
}
