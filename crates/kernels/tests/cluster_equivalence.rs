//! Cluster correctness pins:
//!
//! * a 1-core cluster must match the legacy single-core `Simulator`
//!   **cycle-for-cycle** (and counter-for-counter) on the paper kernels,
//! * partitioned N-core kernels must verify bit-exactly against the
//!   golden model and account for every flop,
//! * N-core runs must be deterministic across repeated runs.

use sc_cluster::{Cluster, ClusterConfig};
use sc_core::{CoreConfig, Simulator};
use sc_kernels::{Grid3, Kernel, Stencil, StencilKernel, Variant, VecOpKernel, VecOpVariant};

/// Runs `kernel`'s single program on the legacy simulator and on a
/// 1-core cluster, asserting identical cycle counts, counters and
/// verified memory images.
fn assert_single_core_equivalence(kernel: &Kernel, cfg: CoreConfig) {
    let max_cycles = 50_000_000;

    let mut sim = Simulator::new(cfg, kernel.program().clone());
    kernel.apply_setup(sim.tcdm_mut()).expect("setup fits");
    let legacy = sim
        .run(max_cycles)
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()));
    kernel.verify(sim.tcdm()).expect("legacy result verifies");

    let ccfg = ClusterConfig::new(1).with_core(cfg);
    let mut cluster = Cluster::new(ccfg, vec![kernel.program().clone()]);
    kernel.apply_setup(cluster.tcdm_mut()).expect("setup fits");
    let clustered = cluster
        .run(max_cycles)
        .unwrap_or_else(|e| panic!("{} (cluster): {e}", kernel.name()));
    kernel
        .verify(cluster.tcdm())
        .expect("cluster result verifies");

    assert_eq!(
        legacy.cycles,
        clustered.cycles,
        "{}: 1-core cluster must match the legacy simulator cycle-for-cycle",
        kernel.name()
    );
    assert_eq!(
        legacy.counters,
        clustered.per_core[0].counters,
        "{}: whole-run counters must match",
        kernel.name()
    );
    assert_eq!(
        legacy.region,
        clustered.per_core[0].region,
        "{}: measured-region counters must match",
        kernel.name()
    );
}

#[test]
fn one_core_cluster_matches_simulator_on_vecop_kernels() {
    for variant in VecOpVariant::ALL {
        let kernel = VecOpKernel::new(64, variant).build();
        assert_single_core_equivalence(&kernel, CoreConfig::new());
    }
}

#[test]
fn one_core_cluster_matches_simulator_on_paper_stencils() {
    let grid = Grid3::new(8, 3, 3);
    for stencil in [Stencil::box3d1r(), Stencil::j3d27pt()] {
        for variant in Variant::ALL {
            let kernel = StencilKernel::new(stencil.clone(), grid, variant)
                .expect("valid combination")
                .build();
            assert_single_core_equivalence(&kernel, CoreConfig::new());
        }
    }
}

#[test]
fn one_core_cluster_matches_simulator_without_chaining_hardware() {
    let kernel = StencilKernel::new(Stencil::box3d1r(), Grid3::new(8, 2, 2), Variant::Base)
        .expect("valid")
        .build();
    assert_single_core_equivalence(&kernel, CoreConfig::new().with_chaining(false));
}

#[test]
fn one_core_cluster_with_idle_dma_matches_simulator() {
    // Attaching the DMA subsystem must be cycle-invisible while its
    // doorbell never rings: same paper kernels, same cycle counts and
    // counters as the legacy simulator.
    let cfg = CoreConfig::new();
    let max_cycles = 50_000_000;
    let kernels = [
        VecOpKernel::new(64, VecOpVariant::Chained).build(),
        StencilKernel::new(
            Stencil::box3d1r(),
            Grid3::new(8, 3, 3),
            Variant::ChainingPlus,
        )
        .expect("valid")
        .build(),
    ];
    for kernel in &kernels {
        let mut sim = sc_core::Simulator::new(cfg, kernel.program().clone());
        kernel.apply_setup(sim.tcdm_mut()).expect("setup fits");
        let legacy = sim.run(max_cycles).expect("legacy run");

        let ccfg = sc_cluster::ClusterConfig::new(1).with_core(cfg);
        let mut cluster = sc_cluster::ClusterBuilder::new(ccfg, vec![kernel.program().clone()])
            .dma(sc_mem::Dram::new(sc_mem::DramConfig::new()))
            .build();
        kernel.apply_setup(cluster.tcdm_mut()).expect("setup fits");
        let with_dma = cluster.run(max_cycles).expect("dma-idle run");
        kernel.verify(cluster.tcdm()).expect("result verifies");

        assert_eq!(
            legacy.cycles,
            with_dma.cycles,
            "{}: idle DMA must not change the cycle count",
            kernel.name()
        );
        assert_eq!(legacy.counters, with_dma.per_core[0].counters);
        let dma = with_dma.dma.expect("dma summary present");
        assert_eq!(dma.busy_cycles, 0);
        assert_eq!(dma.stats.beats, 0);
    }
}

#[test]
fn partitioned_stencil_verifies_on_every_hart_count() {
    let gen = StencilKernel::new(
        Stencil::box3d1r(),
        Grid3::new(8, 4, 6),
        Variant::ChainingPlus,
    )
    .expect("valid");
    let single = gen
        .build()
        .run(CoreConfig::new(), 50_000_000)
        .expect("single-core runs");
    for harts in [1u32, 2, 3, 4, 8] {
        let ck = gen.build_system(1, harts);
        let run = ck
            .run(CoreConfig::new(), 50_000_000)
            .unwrap_or_else(|e| panic!("{} harts: {e}", harts));
        // Bit-exact result (checked inside run) + complete flop accounting.
        assert_eq!(
            run.summary.aggregate.flops,
            ck.flops(),
            "{harts} harts: every flop must be accounted for"
        );
        // Real scaling: more harts may never be slower than one.
        if harts > 1 {
            assert!(
                run.summary.cycles < single.measured().cycles + single.summary.cycles,
                "{harts} harts took {} cluster cycles vs {} single-core",
                run.summary.cycles,
                single.summary.cycles
            );
        }
        assert_eq!(
            run.summary.per_cluster[0].barriers,
            u64::from(harts > 1),
            "one final rendezvous"
        );
    }
}

#[test]
fn partitioned_vecop_verifies_and_scales() {
    let gen = VecOpKernel::new(96, VecOpVariant::Chained);
    let single = gen
        .build()
        .run(CoreConfig::new(), 10_000_000)
        .expect("single-core runs");
    for harts in [2u32, 3, 4] {
        let run = gen
            .build_cluster(harts)
            .run(CoreConfig::new(), 10_000_000)
            .unwrap_or_else(|e| panic!("{harts} harts: {e}"));
        assert!(
            run.summary.cycles < single.summary.cycles,
            "{harts} harts: {} cycles vs {} on one core",
            run.summary.cycles,
            single.summary.cycles
        );
    }
}

#[test]
fn n_core_runs_are_deterministic() {
    let gen = StencilKernel::new(Stencil::j3d27pt(), Grid3::new(8, 4, 4), Variant::Chaining)
        .expect("valid");
    let run = |_: u32| {
        gen.build_system(1, 4)
            .run(CoreConfig::new(), 50_000_000)
            .expect("cluster runs")
            .summary
            .per_cluster
            .remove(0)
    };
    assert_eq!(run(0), run(1), "every summary field repeats");
}

#[test]
fn contention_appears_when_banks_shrink() {
    // The cluster must actually model inter-core bank contention: the
    // same 4-hart kernel loses cycles when the TCDM has fewer banks.
    use sc_mem::TcdmConfig;
    let gen =
        StencilKernel::new(Stencil::box3d1r(), Grid3::new(8, 4, 4), Variant::Base).expect("valid");
    let cycles_with_banks = |banks: u32| {
        let cfg = CoreConfig::new().with_tcdm(TcdmConfig::new().with_banks(banks));
        let run = gen.build_system(1, 4).run(cfg, 100_000_000).expect("runs");
        (run.summary.cycles, run.summary.aggregate.tcdm_conflicts)
    };
    let (cycles_wide, conflicts_wide) = cycles_with_banks(32);
    let (cycles_narrow, conflicts_narrow) = cycles_with_banks(4);
    assert!(
        conflicts_narrow > conflicts_wide,
        "fewer banks must conflict more: {conflicts_narrow} vs {conflicts_wide}"
    );
    assert!(
        cycles_narrow > cycles_wide,
        "conflicts must cost cycles: {cycles_narrow} vs {cycles_wide}"
    );
}
