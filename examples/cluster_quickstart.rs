//! Cluster quickstart: the paper's `Chaining+` stencil tiled across a
//! 4-core cluster sharing one banked TCDM, next to the same kernel on a
//! single core — scaling, bank conflicts and the barrier in one page.
//!
//! Run with `cargo run --release --example cluster_quickstart`.

use scalar_chaining::prelude::*;

fn main() -> Result<(), KernelError> {
    let grid = Grid3::new(16, 8, 8);
    let gen = StencilKernel::new(Stencil::box3d1r(), grid, Variant::ChainingPlus)
        .expect("box3d1r is a dense box");

    // Single core, as in PRs past.
    let single = gen.build().run(CoreConfig::new(), 100_000_000)?;
    println!(
        "1 core : {:>6} cycles, {:.1}% FPU utilisation",
        single.summary.cycles,
        single.measured().fpu_utilization() * 100.0
    );

    // Four harts over the same shared TCDM — a 1-cluster system: the
    // grid's z-planes are tiled across the cluster, each hart streams its
    // own slab, and all harts rendezvous on the cluster barrier before
    // halting.
    let clustered = gen.build_system(1, 4).run(CoreConfig::new(), 100_000_000)?;
    let s = &clustered.summary.per_cluster[0];
    println!(
        "4 cores: {:>6} cycles, {:.1}% cluster utilisation, {:.2}x speedup",
        s.cycles,
        s.cluster_utilization() * 100.0,
        single.summary.cycles as f64 / s.cycles as f64
    );
    println!(
        "         {} barrier episode(s), per-core conflicts {:?}",
        s.barriers, s.core_conflicts
    );

    // Cluster-level energy/area: the shared TCDM amortises, the chaining
    // extension's area share *shrinks* at cluster level.
    let per_core: Vec<PerfCounters> = s.per_core.iter().map(|c| c.counters).collect();
    let energy = EnergyModel::new().cluster_report(&per_core, s.cycles);
    let area = ClusterAreaEstimate::for_cluster(&CoreConfig::new(), 4);
    println!(
        "         {:.1} mW cluster power, {:.1} Gflop/s/W, chaining area share {:.2}%",
        energy.power_mw,
        energy.gflops_per_w,
        area.chaining_overhead() * 100.0
    );
    Ok(())
}
